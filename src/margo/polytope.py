"""Exact rational LP and faciality tests for the marginal polytope.

A set Y of configurations is facial when the convex hull of their matrix
columns is a face of the marginal polytope.  The test solves one LP in
exact rational arithmetic: maximize the mass placed outside Y among the
convex combinations of all columns that reproduce the barycenter of Y.
The optimum is zero exactly when Y is facial.  Both verdicts come with
certificates that re-check by exact arithmetic: a combination with outside
mass for "not a face", a strictly separating functional for "face".  The
barycenter is kept as integer hit counts, the LP gets integer rows and
right-hand side, and `FacialityCertificate.recheck` scales each certificate
to integers and builds no Fraction.
`neighborliness` re-checks every certificate it gets, and decides a set
with no surviving outside column in closed form.

`lp_solve` is a two-phase simplex on one integer tableau over a common
positive denominator, whose last row is the objective row; the optimum and
the duals behind a face certificate are read off that row.  The inputs are
scaled to integers once, and each pivot divides by the previous pivot
exactly, since every entry is a minor of the input matrix (Bareiss, Math.
Comp. 1968; Edmonds, J. Res. NBS 1967).  Fractions are built only at the
return, after the optimum has been checked against every input row in the
scaled integers.  `polytope_dimension` needs no elimination: the dimension
is a sum over the faces of the complex.

No floating point is used anywhere in a verdict path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import ge, mul
from typing import Callable, Iterable, Sequence

from .complexes import SimplicialComplex
from .guards import Budget
from .spaces import (Config, ConfigSpace, MarginalLayout, MarginalMatrix, _interchangeable,
                     _place_weights, layout, marginal_matrix)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None
    solution: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None


def _pivot(rows: list[list[int]], r: int, j: int, d: int) -> int:
    """Pivot the integer tableau over the common denominator d on (r, j), in
    place, and return the new denominator |p|, p the pivot.

    Row r stays; every other row becomes (p*row - row[j]*rows[r]) / d, and
    when p < 0 every row is negated too, so the tableau over |p| is the
    rational tableau pivoted as usual.  The integer entries are then minors
    of the input matrix (Bareiss): the basis determinant, up to sign, times
    the rational entries.  So every division is exact.
    """
    top = rows[r]
    p = top[j]
    if p < 0:
        p = -p
        top = rows[r] = [-v for v in top]
    for i, row in enumerate(rows):
        f = row[j]
        if i != r and (f or p != d):
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
    return p


def lp_solve(rows: Sequence[Sequence[Fraction | int]],
             rhs: Sequence[Fraction | int],
             objective: Sequence[Fraction | int]) -> LPResult:
    """Maximize objective.x subject to rows.x = rhs, x >= 0, exactly.

    Two-phase simplex with Bland's smallest-index rule for both the entering
    and the leaving variable, so cycling is impossible.  The rows and rhs are
    scaled by L, the lcm of their denominators, and the objective by C, the
    lcm of its own, read off `.numerator` and `.denominator`; positive scaling
    moves no pivot.  The simplex runs on one integer tableau over a common
    positive denominator d (`_pivot`), and compares ratios by
    cross-multiplication.  Each constraint row starts with an artificial
    column of its own; the last row is the objective row: the reduced costs,
    then minus the objective value, updated by every pivot.

    Before it returns, the optimum is checked in the scaled integers against
    every input row, dropped redundant ones included: x >= 0, rows.x = rhs,
    objective.x = y.rhs = the optimum read off the objective row, and
    y.rows_j >= objective_j for every column j.  A failure raises
    AssertionError.  Fractions are built only then: the optimum, an optimal
    basic solution, and a dual vector y (one multiplier per input row, read
    off the objective row's artificial columns).
    """
    m = len(rows)
    n = len(objective)
    if any(len(row) != n for row in rows):
        raise ValueError("constraint row length does not match objective")
    try:
        big_l = lcm(*(v.denominator for row in rows for v in row),
                    *(rhs[i].denominator for i in range(m)))
        big_c = lcm(*(c.denominator for c in objective))
        a = [[v.numerator * (big_l // v.denominator) for v in row] for row in rows]
        b = [rhs[i].numerator * (big_l // rhs[i].denominator) for i in range(m)]
        cost = [c.numerator * (big_c // c.denominator) for c in objective]
    except AttributeError:  # a float, say, has no denominator
        raise ValueError("LP rows, rhs and objective must be ints or Fractions") from None
    flip = [-1 if v < 0 else 1 for v in b]
    tab = [[s * v for v in row] + [int(k == i) for k in range(m)] + [s * bi]
           for i, (row, bi, s) in enumerate(zip(a, b, flip))]
    basis = [n + i for i in range(m)]
    d = 1

    def price(costs: list[int]) -> None:
        """Append the objective row of `costs` priced out against the basis."""
        z = [d * c for c in costs] + [0]
        for row, bi in zip(tab, basis):
            if costs[bi]:
                z = [u - costs[bi] * v for u, v in zip(z, row)]
        tab.append(z)

    def run(allowed: int) -> str:
        nonlocal d
        while True:
            z = tab[-1]
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            for i in range(len(tab) - 1):
                p = tab[i][enter]
                if p > 0:
                    # rhs_i / p < rhs_best / p_best, both pivots positive
                    cross = 0 if leave is None else tab[i][-1] * best_p - best_b * p
                    if leave is None or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                        best_b, best_p = tab[i][-1], p
                        leave = i
            if leave is None:
                return "unbounded"
            d = _pivot(tab, leave, enter, d)
            basis[leave] = enter

    # phase 1: maximize minus the sum of artificials; the row's last entry
    # is then what the artificials still carry
    price([0] * n + [-1] * m)
    run(n + m)
    if tab.pop()[-1] > 0:
        return LPResult("infeasible", None, None, None)
    # drive remaining artificials out of the basis or drop redundant rows
    for i in reversed(range(len(tab))):
        if basis[i] < n:
            continue
        enter = next((j for j in range(n) if tab[i][j] != 0), None)
        if enter is not None:
            d = _pivot(tab, i, enter, d)
            basis[i] = enter
        else:
            del tab[i]
            del basis[i]

    price(cost + [0] * m)
    if run(n) == "unbounded":
        return LPResult("unbounded", None, None, None)

    z = tab.pop()
    x = [0] * n  # d times the solution
    for row, bi in zip(tab, basis):
        x[bi] = row[-1]
    # y = c_B^T R, where R (the artificial block) maps input rows to tableau
    # rows; the objective row holds -y there, times d*C/L.  A dropped
    # redundant row may keep a nonzero multiplier, since pivots mixed in its
    # artificial column
    y = [-z[n + i] * flip[i] for i in range(m)]
    value = -z[-1]  # d*C times the optimum
    if (any(v < 0 for v in x)
            or any(sum(map(mul, row, x)) != d * bi for row, bi in zip(a, b))
            or sum(map(mul, cost, x)) != value or sum(map(mul, y, b)) != value
            or any(sum(yi * row[j] for yi, row in zip(y, a)) < d * c
                   for j, c in enumerate(cost))):
        raise AssertionError("LP optimum failed its exact check")
    den = d * big_c
    return LPResult("optimal", Fraction(value, den), tuple(Fraction(v, d) for v in x),
                    tuple(Fraction(v * big_l, den) for v in y))


@dataclass(frozen=True)
class FacialityCertificate:
    """Exact evidence for a faciality verdict on a set Y of configurations.

    For a non-face: `combination` is a convex combination of all columns
    with value `barycenter` and positive mass outside Y.  For a face:
    `separating` is a functional equal to `separation_value` on the columns
    of Y and strictly smaller on every other column.
    """

    members: tuple[Config, ...]
    is_face: bool
    barycenter: tuple[Fraction, ...]
    combination: tuple[Fraction, ...] | None = None
    outside_mass: Fraction | None = None
    separating: tuple[Fraction, ...] | None = None
    separation_value: Fraction | None = None

    def recheck(self, matrix: MarginalMatrix) -> bool:
        """Re-verify the certificate against a marginal matrix, in integers.

        Barycenter entry r must be h_r / |Y|, h_r the members on row r; the
        functional and its value, or the combination, are scaled by the lcm
        of their denominators, and every rational comparison is made by
        cross-multiplication.
        """
        col_of = {x: ix for ix, x in enumerate(matrix.col_labels)}
        if any(x not in col_of for x in self.members):
            return False
        member_ix = {col_of[x] for x in self.members}
        m = len(member_ix)
        hits = [sum(row[ix] for ix in member_ix) for row in matrix.rows]
        if len(self.barycenter) != matrix.nrows or any(
                b.numerator * m != h * b.denominator for b, h in zip(self.barycenter, hits)):
            return False
        if self.is_face:
            theta, value = self.separating, self.separation_value
            if theta is None or value is None or len(theta) != matrix.nrows:
                return False
            den = lcm(value.denominator, *(t.denominator for t in theta))
            top = value.numerator * (den // value.denominator)
            values = [0] * matrix.ncols  # den times the functional on each column
            for t, row in zip(theta, matrix.rows):
                w = t.numerator * (den // t.denominator)
                if w:
                    values = [v + w * a for v, a in zip(values, row)]
            return all(v == top if ix in member_ix else v < top for ix, v in enumerate(values))
        lam, mass = self.combination, self.outside_mass
        if lam is None or mass is None or len(lam) != matrix.ncols:
            return False
        den = lcm(*(v.denominator for v in lam))
        mu = [v.numerator * (den // v.denominator) for v in lam]  # den times lam
        if any(v < 0 for v in mu) or sum(mu) != den:
            return False
        outside = sum(v for ix, v in enumerate(mu) if ix not in member_ix)
        if outside <= 0 or outside * mass.denominator != mass.numerator * den:
            return False
        # row r of the combination is sum(mu . row) / den, the barycenter h_r / m
        return all(sum(map(mul, mu, row)) * m == h * den for row, h in zip(matrix.rows, hits))


@lru_cache(maxsize=None)
def _row_masks(lay: MarginalLayout) -> tuple[int, ...]:
    """Per column, the rows it hits, as a bit mask."""
    return tuple([sum(1 << r for r in rows) for rows in lay.rows_of])


def _hits(lay: MarginalLayout, y_ix: Iterable[int]) -> tuple[list[int], list[int]]:
    """Per row, the members of Y it holds; and the survivors, the columns that
    hit no zero row of those counts, in index order.

    Every member of Y survives.  A column outside Y that does not can carry
    no mass in a combination with the barycenter's value, so Y is a face
    when no column outside Y survives.
    """
    masks = _row_masks(lay)
    hits = [0] * lay.nrows
    held = 0  # the rows with a member of Y, as a bit mask
    for ix in y_ix:
        held |= masks[ix]
        for r in lay.rows_of[ix]:
            hits[r] += 1
    return hits, [ix for ix, mask in enumerate(masks) if mask | held == held]


def is_facial(cx: SimplicialComplex, space: ConfigSpace,
              members: Iterable[Sequence[int]]) -> FacialityCertificate:
    """Decide whether conv of the columns of Y is a face of the polytope.

    The barycenter of Y is h / |Y|, h the members of Y on each row (`_hits`).
    Columns that hit a zero row carry no mass and are left out of the LP;
    when no outside column survives the verdict is immediate.  The LP runs
    in integers: its rows are 0/1, its right-hand side |Y| times the
    barycenter, and its solution and optimum are |Y| times the combination
    and the outside mass, divided out only for a non-face certificate.  A
    face's functional is read off the LP dual, which the scaling does not
    change, or off the zero dual when there is no LP; either way it puts
    -scale on every zero row, where scale is max(1, 1 + P - c0), P the sum
    of its positive weights on the kept rows and c0 its value on Y.
    """
    lay = layout(cx, space)
    y_ix = sorted({space.index(tuple(x)) for x in members})
    if not y_ix:
        raise ValueError("Y must be nonempty")
    m = len(y_ix)
    hits, survivors = _hits(lay, y_ix)
    share = [Fraction(h, m) for h in range(m + 1)]
    bary = tuple([share[h] for h in hits])
    y_configs = tuple(space.config(ix) for ix in y_ix)
    kept_rows = [r for r, h in enumerate(hits) if h]

    if len(survivors) > m:  # some outside column survives
        y_set = set(y_ix)
        a_rows = [[int(r in lay.rows_of[ix]) for ix in survivors] for r in kept_rows]
        a_rows.append([1] * len(survivors))
        res = lp_solve(a_rows, [hits[r] for r in kept_rows] + [m],
                       [int(ix not in y_set) for ix in survivors])
        if res.status != "optimal":
            raise AssertionError(f"faciality LP unexpectedly {res.status}")
        if res.optimum > 0:
            lam = [Fraction(0)] * space.size
            for ix, v in zip(survivors, res.solution):
                lam[ix] = v / m
            return FacialityCertificate(y_configs, False, bary, combination=tuple(lam),
                                        outside_mass=res.optimum / m)
        w = res.dual
    else:
        w = [Fraction(0)] * (len(kept_rows) + 1)

    # optimum zero: extract a strictly separating functional from the dual
    on_kept = [-v for v in w[:-1]]
    c0 = w[-1]
    # an eliminated column hits at least one zero row, so its value is at
    # most P - scale <= c0 - 1
    scale = max(Fraction(1), 1 + sum(t for t in on_kept if t > 0) - c0)
    theta = [-scale] * lay.nrows
    for r, t in zip(kept_rows, on_kept):
        theta[r] = t
    return FacialityCertificate(y_configs, True, bary,
                                separating=tuple(theta), separation_value=c0)


@dataclass(frozen=True)
class NeighborlinessReport:
    k: int
    k_max: int
    witness: FacialityCertificate | None


def _orbit_least(cx: SimplicialComplex, space: ConfigSpace
                 ) -> Callable[[tuple[int, ...]], bool]:
    """The model's test of orderly generation (Read, 1978): `least(combo)`
    tells whether the sorted tuple combo of configuration indices is the
    lex-least member of its orbit.

    The group is every value permutation of each variable and every
    permutation of each class of interchangeable variables
    (`_interchangeable`).  A candidate is tested without listing the group.
    Order its configurations as the rows of a matrix; relabeling each
    column's values by first appearance and then sorting each class's
    columns gives the least image under the group for that row order.  The
    least image of the set is the least of these over all row orders, so
    row orders are searched depth first, each image row compared with the
    candidate's own row: a row that reads smaller rejects the candidate, and
    only rows that read equal are followed.  A row's image only grows as the
    row order is fixed further, so the rows left, imaged now and sorted,
    bound every reading below a node from under; a node whose bound reads
    greater is cut.  Once every column's relabeling and place are fixed, the
    bound is the reading.

    A reading equal to the candidate is an automorphism: it maps each row to
    the row in its place in the candidate's own order.  Below a node whose
    rows so far are the candidate's first rows, every automorphism found
    fixes those rows, so rows that such automorphisms join head the same
    readings and only one is tried.  Below any other node, one automorphism
    found maps the node onto the node of the candidate's first rows at its
    depth, which was searched earlier and read nothing smaller, so what the
    node skips hides nothing.
    """
    n, cards = space.n, space.cardinalities
    configs = list(space.configs())
    weights = _place_weights(cards)
    classes = _interchangeable(cx, space)
    # a column whose place is settled, with that place's weight; and each
    # group of columns still tied, with the weights of the places it fills
    singles0 = [(cols[0], weights[cols[0]]) for cols in classes if len(cols) == 1]
    groups0 = [(cols, [weights[c] for c in cols]) for cols in classes if len(cols) > 1]
    last = [q - 1 for q in cards]  # a column with this many labels has them all

    def least(combo: tuple[int, ...]) -> bool:
        if combo[0]:  # every configuration relabels to configuration 0
            return False
        k = len(combo)
        rows = [configs[ix] for ix in combo]
        # label[c][v] is value v's label in column c so far: values in order
        # of first appearance, and every value not seen yet the next label
        label = [[0] * q for q in cards]
        seen = [0] * n
        # per node on the search path, a union-find over the rows joined by
        # the automorphisms found below it
        orbits: list[list[int]] = []

        def root(orbit: list[int], a: int) -> int:
            while orbit[a] != a:
                a = orbit[a]
            return a

        def images(free: list[int], singles, groups) -> list[int]:
            out = []
            for u in free:
                x = rows[u]
                img = 0
                for c, w in singles:
                    img += label[c][x[c]] * w
                for cols, wts in groups:
                    img += sum(map(mul, sorted([label[c][x[c]] for c in cols]), wts))
                out.append(img)
            return out

        def smaller(path: list[int], free: list[int], singles, groups) -> bool:
            """True when a row order that starts with `path` reads less than combo."""
            t = len(path)
            order = sorted(zip(images(free, singles, groups), free))
            if order[0][0] < combo[t]:
                return True
            # a row's image only grows as the search goes deeper, so the rows
            # left, imaged now and sorted, bound every reading below from under
            bound = tuple([img for img, _ in order])
            if bound > combo[t:]:
                return False
            if len(free) < 2 or not groups and all(map(ge, seen, last)):
                # the group element is fixed, or one row is left: the bound
                # is the reading
                if bound < combo[t:]:
                    return True
                # an automorphism: the row in place p goes to row p
                for p, u in enumerate(path + [v for _, v in order]):
                    for orbit in orbits:
                        orbit[root(orbit, u)] = root(orbit, p)
                return False
            orbit = list(range(k))
            orbits.append(orbit)
            tried: list[int] = []
            for img, u in order:
                if img != combo[t]:
                    break
                if any(root(orbit, u) == root(orbit, v) for v in tried):
                    continue  # joined to a row tried already (see the docstring)
                x = rows[u]
                ones, tied = (list(singles) if groups else singles), []
                for cols, wts in groups:
                    keyed = sorted((label[c][x[c]], c) for c in cols)
                    lo = 0
                    for hi in range(1, len(keyed) + 1):
                        if hi == len(keyed) or keyed[hi][0] != keyed[lo][0]:
                            if hi - lo == 1:
                                ones.append((keyed[lo][1], wts[lo]))
                            else:
                                tied.append(([c for _, c in keyed[lo:hi]], wts[lo:hi]))
                            lo = hi
                fresh = [c for c in range(n) if label[c][x[c]] == seen[c]]
                saved = [label[c] for c in fresh]
                for c in fresh:
                    s, v = seen[c], x[c]
                    label[c] = [a if a < s or w == v else s + 1 for w, a in enumerate(label[c])]
                    seen[c] = s + 1
                path.append(u)
                found = smaller(path, [v for v in free if v != u], ones, tied)
                path.pop()
                for c, old in zip(fresh, saved):
                    label[c] = old
                    seen[c] -= 1
                if found:
                    return True
                tried.append(u)
            orbits.pop()
            return False

        return not smaller([], list(range(k)), singles0, groups0)

    return least


def neighborliness(cx: SimplicialComplex, space: ConfigSpace, k_max: int,
                   *, ceiling: int | None = None) -> NeighborlinessReport:
    """Largest k <= k_max such that every set of <= k columns spans a face.

    Sweeps set sizes in increasing order and, within a size, subsets in
    lexicographic order; stops at the first non-facial set, which is
    returned as the witness.

    Faciality is invariant under the model's symmetry group (value
    permutations per variable, and permutations of interchangeable
    variables), so only the lex-least subset of each orbit is tested, by
    orderly generation (Read, 1978).  The candidates of level k are R + (x,)
    for each level-(k-1) representative R and x > max R, in lex order, and
    a representative is a candidate that is lex-least in its orbit
    (`_orbit_least`).  None is lost, because dropping the largest element
    of a lex-least set leaves a lex-least set.  The witness is unchanged by
    this: the orbit of the lex-first non-facial subset holds only non-facial
    subsets, none of them earlier, so that subset is the lex-least member
    of its orbit and is tested.

    A candidate with no surviving outside column (`_hits`) is a face in
    closed form: every outside column hits a zero row of its barycenter.
    Such a candidate goes to no LP, and at the last level, min(k_max, size),
    where representatives are never extended, it skips the orbit test too.
    The witness does not move: every candidate passed over is a face, and
    the lex-first non-facial set is lex-least in its orbit, so it is still
    the first set to reach `is_facial` and fail.  Every certificate
    `is_facial` returns is re-checked in integers against one marginal
    matrix, and a failure raises AssertionError.

    The ceiling counts the candidates of each level, sum over the
    representatives R below of size - 1 - max R (`size` at level 1),
    charged before the level is enumerated; its error names the level
    reached.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = Budget(ceiling, "subsets tested")
    size = space.size
    top = min(k_max, size)
    reps: list[tuple[int, ...]] = [()]
    for k in range(1, top + 1):
        budget.where = f"neighborliness sweep, level {k}"
        budget.spend(sum(size - 1 - (r[-1] if r else -1) for r in reps))
        if k == 1:  # these list the `size` configurations: build them once k=1 is paid for
            lay, matrix = layout(cx, space), marginal_matrix(cx, space)
            least = _orbit_least(cx, space)
        below, reps = reps, []
        for combo in below:
            for x in range(combo[-1] + 1 if combo else 0, size):
                combo_x = combo + (x,)
                closed = len(_hits(lay, combo_x)[1]) == k  # no outside column survives
                if (closed and k == top) or not least(combo_x):
                    continue
                if not closed:
                    cert = is_facial(cx, space, [space.config(ix) for ix in combo_x])
                    if not cert.recheck(matrix):
                        kind = "face" if cert.is_face else "non-face"
                        raise AssertionError(
                            f"{kind} certificate for k={k} failed its exact re-check")
                    if not cert.is_face:
                        return NeighborlinessReport(k - 1, k_max, cert)
                reps.append(combo_x)
    return NeighborlinessReport(top, k_max, None)


def polytope_dimension(cx: SimplicialComplex, space: ConfigSpace) -> int:
    """Affine dimension of the polytope: the sum over the nonempty faces F of
    prod_{i in F} (q_i - 1).

    The row space of the marginal matrix holds the functions of x that are
    sums of functions of x_F over the facets F: the direct sum over the faces
    F of the functions of x_F orthogonal to every function of a proper subset
    of F, of dimension prod_{i in F} (q_i - 1).  The empty face gives
    the constants, one dimension, which the affine hull of the columns loses:
    every facet block of a column sums to 1.
    """
    if cx.n != space.n:
        raise ValueError(f"complex on {cx.n} indices vs space on {space.n} variables")
    q = space.cardinalities
    return sum(prod(q[i] - 1 for i in range(cx.n) if mask >> i & 1)
               for mask in range(1, 1 << cx.n)
               if any(mask & ~f == 0 for f in cx.facet_masks))
