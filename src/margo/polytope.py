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
`is_facial` checks its input and hands its survivors to the faciality
core `_facial`, which `neighborliness` calls directly.  The sweep
re-checks every certificate it gets, and decides a set with no surviving
outside column in closed form.

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
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm, prod
from operator import add, and_, ge, gt, mul
from typing import Callable, Iterable, Sequence

from .complexes import SimplicialComplex
from .guards import Budget
from .spaces import (Config, ConfigSpace, MarginalLayout, MarginalMatrix, _check_model, _integer,
                     _interchangeable, _place_weights, layout, marginal_matrix)


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
    then minus the objective value, updated by every pivot.  Phase 1 prices
    that row as one column sum of the constraint rows, since every basic
    variable is then an artificial of cost -1.

    Before it returns, the optimum is checked in the scaled integers against
    every input row, dropped redundant ones included: x >= 0, rows.x = rhs,
    objective.x = y.rhs = the optimum read off the objective row, and
    y.A_j >= objective_j for every input column A_j.  A failure raises
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

    # phase 1: maximize minus the sum of artificials.  Every basic variable
    # is an artificial of cost -1, so the priced row is the column sum of the
    # rows, 0 on the artificials; its last entry is what they still carry
    z = [sum(col) for col in zip(*tab)] or [0] * (n + 1)
    z[n:-1] = [0] * m
    tab.append(z)
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

    # phase 2: the objective row priced out against the basis
    z = [d * c for c in cost] + [0] * (m + 1)
    for row, bi in zip(tab, basis):
        if bi < n and cost[bi]:
            z = [u - cost[bi] * v for u, v in zip(z, row)]
    tab.append(z)
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
    cols = list(zip(*a)) or [()] * n  # the input columns; empty ones when m is 0
    if (any(v < 0 for v in x)
            or any(sum(map(mul, row, x)) != d * bi for row, bi in zip(a, b))
            or sum(map(mul, cost, x)) != value or sum(map(mul, y, b)) != value
            or any(sum(map(mul, y, col)) < d * c for col, c in zip(cols, cost))):
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
        cross-multiplication.  The hit counts and the functional's values
        are read off the matrix's columns.
        """
        col_of = {x: ix for ix, x in enumerate(matrix.col_labels)}
        if any(x not in col_of for x in self.members):
            return False
        member_ix = {col_of[x] for x in self.members}
        m = len(member_ix)
        cols = list(zip(*matrix.rows)) or [()] * matrix.ncols  # empty when there are no rows
        hits = [0] * matrix.nrows
        for ix in member_ix:
            hits = list(map(add, hits, cols[ix]))
        if len(self.barycenter) != matrix.nrows or any(
                b.numerator * m != h * b.denominator for b, h in zip(self.barycenter, hits)):
            return False
        if self.is_face:
            theta, value = self.separating, self.separation_value
            if theta is None or value is None or len(theta) != matrix.nrows:
                return False
            den = lcm(value.denominator, *(t.denominator for t in theta))
            top = value.numerator * (den // value.denominator)
            weights = [t.numerator * (den // t.denominator) for t in theta]  # den times theta
            values = [sum(map(mul, weights, col)) for col in cols]  # on each column
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
def _row_columns(lay: MarginalLayout) -> tuple[int, ...]:
    """Per row, the columns that hit it, as a bit mask."""
    cols = [0] * lay.nrows
    for ix, rows in enumerate(lay.rows_of):
        for r in rows:
            cols[r] |= 1 << ix
    return tuple(cols)


def _reach(lay: MarginalLayout, y_ix: Iterable[int]) -> list[int]:
    """Per facet block, the columns whose row in that block holds a member of
    Y, as a bit mask.

    Each column hits one row per block, so the columns that hit no zero row
    of Y's hit counts, its survivors, are those in every mask.  Every member
    of Y survives.  A column outside Y that does not can carry no mass in a
    combination with the barycenter's value, so Y is a face when no column
    outside Y survives.
    """
    cols = _row_columns(lay)
    reach = [0] * len(lay.facet_members)
    for ix in y_ix:
        for b, r in enumerate(lay.rows_of[ix]):
            reach[b] |= cols[r]
    return reach


def is_facial(cx: SimplicialComplex, space: ConfigSpace,
              members: Iterable[Sequence[int]]) -> FacialityCertificate:
    """Decide whether conv of the columns of Y is a face of the polytope.

    A thin wrapper: it checks the members (each must be a configuration of
    the space, and Y nonempty), reads their survivors off the `_reach` masks
    and hands both to the faciality core `_facial`, which `neighborliness`
    calls directly.
    """
    lay = layout(cx, space)
    y_ix = sorted({space.index(tuple(x)) for x in members})
    if not y_ix:
        raise ValueError("Y must be nonempty")
    return _facial(lay, y_ix, reduce(and_, _reach(lay, y_ix), (1 << space.size) - 1))


def _facial(lay: MarginalLayout, y_ix: Sequence[int], alive: int) -> FacialityCertificate:
    """The faciality core: the verdict and certificate of Y, given as its
    sorted configuration indices and its survivors as a bit mask (`_reach`).

    The barycenter of Y is h / |Y|, h the members of Y on each row.
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
    m = len(y_ix)
    hits = [0] * lay.nrows
    for ix in y_ix:
        for r in lay.rows_of[ix]:
            hits[r] += 1
    survivors = [ix for ix in range(lay.space.size) if alive >> ix & 1]
    share = [Fraction(h, m) for h in range(m + 1)]
    bary = tuple([share[h] for h in hits])
    y_configs = tuple(map(lay.space.config, y_ix))
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
            lam = [Fraction(0)] * lay.space.size
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


def _prefix_rule(n: int, classes: Sequence[Sequence[int]], head: Sequence[Config]
                 ) -> Callable[[Config], bool]:
    """A test of the rows x that make the set of head's rows and x not
    lex-least, by a symmetry that fixes head and lowers x (`_orbit_least`).

    Free values: x[c] > t, t the number of values head uses in column c.
    Head is lex-least (or no set on it is), so it uses 0..t-1 there, and
    swapping x[c] with t fixes head.  Twin columns: x[a] > x[b], a < b of
    one class, when every row of head agrees on a and b; swapping the two
    columns fixes head.
    """
    counts = [len({row[c] for row in head}) for c in range(n)]
    twins = [(a, b) for cols in classes for a, b in combinations(cols, 2)
             if all(row[a] == row[b] for row in head)]
    return lambda x: any(map(gt, x, counts)) or any(x[a] > x[b] for a, b in twins)


class _Relabels(dict):
    """A memo of column relabelings: (labels, v) -> the labels once value v,
    not seen yet, is seen.

    labels[w] is value w's label in a column so far: the values seen get
    0, 1, ... in order of first appearance, and every value not seen yet
    gets the next label s.  Seeing v gives v the label s and every other
    value not seen yet s + 1.
    """

    def __missing__(self, key: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
        labels, v = key
        s = labels[v]
        new = self[key] = tuple([a if a < s or w == v else s + 1 for w, a in enumerate(labels)])
        return new


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
    bound is the reading.  The root is not imaged: before any row is fixed,
    every row images to 0, so each row is tried first in turn.  A column's
    new labels are read from a memo of label tuples (`_Relabels`) that lives
    as long as this test, one per model, and not in a module-level cache.

    Most rejections need no search.  If a symmetry σ maps the prefix
    R = combo[:-1] onto itself and σ(x) < x, x = combo[-1], then R with
    σ(x) is a smaller image of combo.  `_prefix_rule` reads two such σ off
    R's rows: a swap of x's value with a value R does not use in its column,
    and a swap of two interchangeable columns on which R's rows agree.  The
    sweep tests the candidates of one R in a row, so the rule is kept for
    the last prefix seen.  A singleton or a pair that the rule passes is
    least with no search: its prefix is [configuration 0] or empty, so the
    rule drops every x with a value above 1 or with x[a] > x[b] for
    interchangeable a < b, and a surviving x has its 1s on each class's
    least-weighted places, the least image of (0, x) under the group.  A
    larger candidate gets the full search.
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
    unseen = [(0,) * q for q in cards]  # each column's labels before any row is fixed
    relabel = _Relabels()
    prefix, drops = None, None  # the last prefix seen, and its `_prefix_rule`

    def least(combo: tuple[int, ...]) -> bool:
        nonlocal prefix, drops
        if combo[0]:  # every configuration relabels to configuration 0
            return False
        if combo[:-1] != prefix:
            prefix = combo[:-1]
            drops = _prefix_rule(n, classes, [configs[ix] for ix in prefix])
        if drops(configs[combo[-1]]):
            return False
        # the rule passed it, so a pair's x is 0/1 with each class's 1s on its
        # least-weighted places: no symmetry lowers a singleton or such a pair
        if len(combo) < 3:
            return True
        rows = [configs[ix] for ix in combo]
        label = unseen.copy()  # label[c][v]: value v's label in column c so far
        seen = [0] * n

        def smaller(t: int, free: list[int], singles, groups) -> bool:
            """True when a row order whose first t rows are fixed, the rows
            `free` left, reads less than combo."""
            order = []
            for u in free:
                x = rows[u]
                img = 0
                for c, w in singles:
                    img += label[c][x[c]] * w
                for cols, wts in groups:
                    img += sum(map(mul, sorted([label[c][x[c]] for c in cols]), wts))
                order.append((img, u))
            order.sort()
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
                return bound < combo[t:]
            for img, u in order:
                if img != combo[t]:
                    break
                if fix(t, u, [v for v in free if v != u], singles, groups):
                    return True
            return False

        def fix(t: int, u: int, rest: list[int], singles, groups) -> bool:
            """True when a row order that puts row u at place t, after the
            rows already fixed, reads less than combo."""
            x = rows[u]
            ones, tied = (list(singles) if groups else singles), []
            for cols, wts in groups:
                keyed = sorted((label[c][x[c]], c) for c in cols)
                if keyed[0][0] == keyed[-1][0]:  # one label: the group stays tied
                    tied.append((cols, wts))
                    continue
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
                label[c] = relabel[label[c], x[c]]
                seen[c] += 1
            found = smaller(t + 1, rest, ones, tied)
            for c, old in zip(fresh, saved):
                label[c] = old
                seen[c] -= 1
            return found

        # the root: every row images to 0 = combo[0], so none is cut and each
        # is tried first in turn
        everyone = range(len(combo))
        return not any(fix(0, u, [v for v in everyone if v != u], singles0, groups0)
                       for u in everyone)

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
    of its orbit and is tested.  Most candidates that are not lex-least are
    rejected without a search, by a symmetry that fixes R and maps x to a
    smaller configuration (`_prefix_rule`), and a singleton or a pair that
    this rule passes is least with no search.

    A candidate with no surviving outside column (`_reach`) is a face in
    closed form: every outside column hits a zero row of its barycenter.
    The survivors are read off bit masks: per facet block, the columns
    whose row there holds a member of R (`_reach`, once per R), widened by
    x's row.  Such a candidate goes to no LP, and at the last level,
    min(k_max, size), where representatives are never extended, it skips
    the orbit test too.  The witness does not move: every candidate passed
    over is a face, and the lex-first non-facial set is lex-least in its
    orbit, so it is still the first set to reach the LP and fail.  Any
    other candidate goes to the faciality core `_facial`, the one that
    `is_facial` wraps, with the survivors' mask the sweep already holds; the
    core counts the hits itself, and no configuration is built or indexed
    for it.  Every certificate the core returns is re-checked in integers
    against one marginal matrix, and a failure raises AssertionError.

    The ceiling counts the candidates of each level, sum over the
    representatives R below of size - 1 - max R (`size` at level 1),
    charged before the level is enumerated; its error names the level
    reached.

    The full simplex needs no sweep: its marginal matrix is the identity, so
    every set is a face, and the report is min(k_max, size) with no witness.
    Nothing is charged to the ceiling for it.
    """
    k_max = _integer(k_max, "k_max")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    budget = Budget(ceiling, "subsets tested")
    size = space.size
    top = min(k_max, size)
    if cx.n == space.n and cx.facet_masks == ((1 << cx.n) - 1,):
        return NeighborlinessReport(top, k_max, None)
    reps: list[tuple[int, ...]] = [()]
    for k in range(1, top + 1):
        budget.where = f"neighborliness sweep, level {k}"
        budget.spend(sum(size - 1 - (r[-1] if r else -1) for r in reps))
        if k == 1:  # these list the `size` configurations: build them once k=1 is paid for
            lay, matrix = layout(cx, space), marginal_matrix(cx, space)
            least = _orbit_least(cx, space)
            cols, every_column = _row_columns(lay), (1 << size) - 1
        below, reps = reps, []
        for combo in below:
            reach = _reach(lay, combo)
            for x in range(combo[-1] + 1 if combo else 0, size):
                combo_x = combo + (x,)
                alive = every_column  # the survivors of combo_x, as a bit mask
                for r, held in zip(lay.rows_of[x], reach):
                    alive &= held | cols[r]
                closed = alive.bit_count() == k  # no outside column survives
                if (closed and k == top) or not least(combo_x):
                    continue
                if not closed:
                    cert = _facial(lay, combo_x, alive)
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
    _check_model(cx, space)
    q = space.cardinalities
    return sum(prod(q[i] - 1 for i in range(cx.n) if mask >> i & 1)
               for mask in range(1, 1 << cx.n)
               if any(mask & ~f == 0 for f in cx.facet_masks))
