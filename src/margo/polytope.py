"""Exact rational LP and faciality tests for the marginal polytope.

A set Y of configurations is facial when the convex hull of their matrix
columns is a face of the marginal polytope.  The test solves one LP in
exact rational arithmetic: maximize the mass placed outside Y among the
convex combinations of all columns that reproduce the barycenter of Y.
The optimum is zero exactly when Y is facial.  Both verdicts come with
certificates that re-check by exact arithmetic: a combination with outside
mass for "not a face", a strictly separating functional for "face".

`lp_solve` is a two-phase simplex on one rational tableau whose last row is
the objective row; the optimum and the duals behind a face certificate are
read off that row.  `polytope_dimension` needs no elimination: the dimension
is a sum over the faces of the complex.

No floating point is used anywhere in a verdict path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import ge, mul
from typing import Callable, Iterable, Iterator, Sequence

from .complexes import SimplicialComplex
from .guards import Budget
from .spaces import (Config, ConfigSpace, MarginalMatrix, _interchangeable, layout,
                     marginal_matrix)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None
    solution: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None


def _pivot(rows: list[list[Fraction]], r: int, j: int) -> None:
    """Scale row r to a 1 in column j and clear column j from every other row, in place.

    The rows are mostly zeros, so zero entries are carried over, not recomputed.
    """
    piv = rows[r][j]
    top = rows[r] = [v / piv if v else v for v in rows[r]]
    for i, row in enumerate(rows):
        f = row[j]
        if f and i != r:
            rows[i] = [a - f * b if b else a for a, b in zip(row, top)]


def lp_solve(rows: Sequence[Sequence[Fraction | int]],
             rhs: Sequence[Fraction | int],
             objective: Sequence[Fraction | int]) -> LPResult:
    """Maximize objective.x subject to rows.x = rhs, x >= 0, exactly.

    Two-phase simplex on one rational tableau, with Bland's smallest-index
    rule for both the entering and the leaving variable, so cycling is
    impossible.  Each constraint row starts with an artificial column of its
    own; the last row is the objective row: the reduced costs, then minus
    the objective value, updated by every pivot.  Returns the optimum, an
    optimal basic solution, and a dual vector (one multiplier per input row,
    read off the objective row's artificial columns).
    """
    m = len(rows)
    n = len(objective)
    cost = [Fraction(c) for c in objective]
    flip = []
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
            flip.append(-1)
        else:
            flip.append(1)
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [b])
    basis = [n + i for i in range(m)]

    def price(costs: list[Fraction]) -> None:
        """Append the objective row of `costs` priced out against the basis."""
        z = costs + [Fraction(0)]
        for row, bi in zip(tab, basis):
            if costs[bi]:
                z = [a - costs[bi] * b for a, b in zip(z, row)]
        tab.append(z)

    def run(allowed: int) -> str:
        while True:
            z = tab[-1]
            enter = next((j for j in range(allowed) if z[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            for i in range(len(tab) - 1):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            _pivot(tab, leave, enter)
            basis[leave] = enter

    # phase 1: maximize minus the sum of artificials; the row's last entry
    # is then what the artificials still carry
    price([Fraction(0)] * n + [Fraction(-1)] * m)
    run(n + m)
    if tab.pop()[-1] > 0:
        return LPResult("infeasible", None, None, None)
    # drive remaining artificials out of the basis or drop redundant rows
    for i in reversed(range(len(tab))):
        if basis[i] < n:
            continue
        enter = next((j for j in range(n) if tab[i][j] != 0), None)
        if enter is not None:
            _pivot(tab, i, enter)
            basis[i] = enter
        else:
            del tab[i]
            del basis[i]

    price(cost + [Fraction(0)] * m)
    if run(n) == "unbounded":
        return LPResult("unbounded", None, None, None)

    z = tab.pop()
    solution = [Fraction(0)] * n
    for row, bi in zip(tab, basis):
        solution[bi] = row[-1]
    # y = c_B^T R, where R (the artificial block) maps input rows to tableau
    # rows; the objective row holds -y there.  A dropped redundant row may
    # keep a nonzero multiplier, since pivots mixed in its artificial column
    dual = tuple(-z[n + i] * flip[i] for i in range(m))
    return LPResult("optimal", -z[-1], tuple(solution), dual)


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
        """Re-verify the certificate against a marginal matrix, exactly."""
        col_of = {x: ix for ix, x in enumerate(matrix.col_labels)}
        if any(x not in col_of for x in self.members):
            return False
        member_ix = {col_of[x] for x in self.members}
        bary = [Fraction(0)] * matrix.nrows
        for ix in member_ix:
            for r, v in enumerate(matrix.column(ix)):
                bary[r] += Fraction(v, len(member_ix))
        if tuple(bary) != self.barycenter:
            return False
        if self.is_face:
            theta = self.separating
            if theta is None or self.separation_value is None:
                return False
            for ix in range(matrix.ncols):
                val = sum(t * a for t, a in zip(theta, matrix.column(ix)))
                if ix in member_ix:
                    if val != self.separation_value:
                        return False
                elif val >= self.separation_value:
                    return False
            return True
        lam = self.combination
        if lam is None or self.outside_mass is None or self.outside_mass <= 0:
            return False
        if len(lam) != matrix.ncols or any(v < 0 for v in lam):
            return False
        if sum(lam) != 1:
            return False
        outside = sum(v for ix, v in enumerate(lam) if ix not in member_ix)
        if outside != self.outside_mass:
            return False
        for r in range(matrix.nrows):
            row = matrix.rows[r]
            if sum(l * a for l, a in zip(lam, row)) != self.barycenter[r]:
                return False
        return True


def is_facial(cx: SimplicialComplex, space: ConfigSpace,
              members: Iterable[Sequence[int]]) -> FacialityCertificate:
    """Decide whether conv of the columns of Y is a face of the polytope.

    Columns that hit a zero coordinate of the barycenter can carry no mass
    and are eliminated before the LP; when no outside column survives the
    verdict is immediate.  A face's functional is zero on the kept rows in
    that case and read off the LP dual otherwise; either way it puts -scale
    on every zero row, where scale is max(1, 1 + P - c0), P the sum of its
    positive weights on the kept rows and c0 its value on Y.
    """
    lay = layout(cx, space)
    y_ix = sorted({space.index(tuple(x)) for x in members})
    if not y_ix:
        raise ValueError("Y must be nonempty")
    y_set = set(y_ix)
    size = space.size
    y_configs = tuple(space.config(ix) for ix in y_ix)

    bary = [Fraction(0)] * lay.nrows
    for ix in y_ix:
        for r in lay.rows_of[ix]:
            bary[r] += Fraction(1, len(y_ix))
    bary_t = tuple(bary)

    zero_rows = [r for r in range(lay.nrows) if bary[r] == 0]
    zero_set = set(zero_rows)
    survivors = [ix for ix in range(size) if zero_set.isdisjoint(lay.rows_of[ix])]
    outside = [ix for ix in survivors if ix not in y_set]

    if not outside:
        theta = [Fraction(0)] * lay.nrows
        for r in zero_rows:
            theta[r] = Fraction(-1)
        return FacialityCertificate(y_configs, True, bary_t,
                                    separating=tuple(theta),
                                    separation_value=Fraction(0))

    kept_rows = [r for r in range(lay.nrows) if bary[r] != 0]
    a_rows = [[int(r in lay.rows_of[ix]) for ix in survivors] for r in kept_rows]
    a_rows.append([1] * len(survivors))
    rhs = [bary[r] for r in kept_rows] + [Fraction(1)]
    objective = [int(ix not in y_set) for ix in survivors]
    res = lp_solve(a_rows, rhs, objective)
    if res.status != "optimal":
        raise AssertionError(f"faciality LP unexpectedly {res.status}")

    if res.optimum > 0:
        lam = [Fraction(0)] * size
        for pos, ix in enumerate(survivors):
            lam[ix] = res.solution[pos]
        return FacialityCertificate(y_configs, False, bary_t,
                                    combination=tuple(lam),
                                    outside_mass=res.optimum)

    # optimum zero: extract a strictly separating functional from the dual
    w = res.dual
    theta = [Fraction(0)] * lay.nrows
    for pos, r in enumerate(kept_rows):
        theta[r] = -w[pos]
    c0 = w[-1]
    # an eliminated column hits at least one zero row, so its value is at
    # most P - scale <= c0 - 1
    scale = max(Fraction(1), 1 + sum(t for t in theta if t > 0) - c0)
    for r in zero_rows:
        theta[r] = -scale
    return FacialityCertificate(y_configs, True, bary_t,
                                separating=tuple(theta), separation_value=c0)


@dataclass(frozen=True)
class NeighborlinessReport:
    k: int
    k_max: int
    witness: FacialityCertificate | None


def _orbit_representatives(cx: SimplicialComplex, space: ConfigSpace
                           ) -> Callable[[Iterable[tuple[int, ...]]], Iterator[tuple[int, ...]]]:
    """The model's next-level step of orderly generation (Read, 1978).

    Returns `next_level(below)`: given the level-(k-1) orbit representatives
    in lex order (level 0 is `[()]`), it yields the lex-least k-subset of
    range(size) in each orbit, in lex order.  The candidates are R + (x,)
    for R in `below` and x > max R, in lex order, and one is kept when it is
    the lex-least member of its orbit.  None is lost, because dropping the
    largest element of a lex-least set leaves a lex-least set.

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
    weights = [prod(cards[i + 1:]) for i in range(n)]
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

    def next_level(below: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        for combo in below:
            for x in range(combo[-1] + 1 if combo else 0, space.size):
                if least(combo + (x,)):
                    yield combo + (x,)

    return next_level


def neighborliness(cx: SimplicialComplex, space: ConfigSpace, k_max: int,
                   *, ceiling: int | None = None) -> NeighborlinessReport:
    """Largest k <= k_max such that every set of <= k columns spans a face.

    Sweeps set sizes in increasing order and, within a size, subsets in
    lexicographic order; stops at the first non-facial set, which is
    returned as the witness after its certificate re-checks exactly.

    Faciality is invariant under the model's symmetry group (value
    permutations per variable, and permutations of interchangeable
    variables), so only the lex-least subset of each orbit is tested
    (`_orbit_representatives`).  The witness is unchanged by this:
    the orbit of the lex-first non-facial subset holds only non-facial
    subsets, none of them earlier, so that subset is the lex-least member
    of its orbit and is tested.  Each level's representatives are built
    from the level below as they are tested.  The ceiling counts the
    candidates of each level, sum over the representatives R below of
    size - 1 - max R (`size` at level 1), charged before the level is
    enumerated; its error names the level reached.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = Budget(ceiling, "subsets tested")
    size = space.size
    reps: list[tuple[int, ...]] = [()]
    next_level = None
    for k in range(1, min(k_max, size) + 1):
        budget.where = f"neighborliness sweep, level {k}"
        budget.spend(sum(size - 1 - (r[-1] if r else -1) for r in reps))
        if next_level is None:  # it lists the `size` configurations: build once k=1 is paid for
            next_level = _orbit_representatives(cx, space)
        below, reps = reps, []
        for combo in next_level(below):
            cert = is_facial(cx, space, [space.config(ix) for ix in combo])
            if not cert.is_face:
                if not cert.recheck(marginal_matrix(cx, space)):
                    raise AssertionError(
                        f"non-face certificate for k={k} failed its exact re-check")
                return NeighborlinessReport(k - 1, k_max, cert)
            reps.append(combo)
    return NeighborlinessReport(min(k_max, size), k_max, None)


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
