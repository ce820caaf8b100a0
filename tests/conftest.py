"""Shared brute-force oracles, independent of the library's search paths."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterator, Sequence

import pytest

from margo import (
    ConfigSpace,
    ConnectivityReport,
    ContingencyTable,
    Fiber,
    LPResult,
    MarkovReport,
    Move,
    NeighborlinessReport,
    collapse_table,
    cylinder,
    from_facets,
    is_facial,
    marginal_map,
    marginal_matrix,
)
from margo.fiber import DisconnectedFiber
from margo.spaces import _interchangeable


def naive_tables(space: ConfigSpace, degree: int):
    """All tables of the exact total, by direct composition enumeration."""
    size = space.size

    def rec(ix, left):
        if ix == size - 1:
            yield (left,)
            return
        for v in range(left + 1):
            for rest in rec(ix + 1, left - v):
                yield (v,) + rest

    if size == 0:
        if degree == 0:
            yield ()
        return
    for counts in rec(0, degree):
        yield ContingencyTable(space, counts)


def naive_fiber(cx, space, b):
    """The fiber by filtering every table of the right degree."""
    return [u for u in naive_tables(space, b.degree) if marginal_map(cx, u) == b]


def _components(tables, steps):
    """Connected components of tables joined when they differ by a step."""
    components = []
    for u in tables:
        if any(u.counts in c for c in components):
            continue
        component, frontier = {u.counts}, [u.counts]
        for t in frontier:
            for v in tables:
                step = tuple(a - b for a, b in zip(v.counts, t))
                if v.counts not in component and step in steps:
                    component.add(v.counts)
                    frontier.append(v.counts)
        components.append(component)
    return components


def naive_verify_markov(cx, space: ConfigSpace, moves, degree_limit: int) -> MarkovReport:
    """The literal table sweep: every fiber of every table of degree <= T.

    Fibers are checked by degree, then by marginal entries in lex order.  The
    witness pair is the fiber's first table and the first table outside its
    component, as `fiber_connected` reports it.
    """
    steps = {m.vector for m in moves} | {tuple(-v for v in m.vector) for m in moves}
    checked = 0
    for degree in range(degree_limit + 1):
        buckets = {}
        for u in naive_tables(space, degree):
            buckets.setdefault(marginal_map(cx, u), []).append(u)
        for b in sorted(buckets, key=lambda b: b.entries):
            tables = buckets[b]
            checked += 1
            components = _components(tables, steps)
            if len(components) > 1:
                other = next(v for v in tables if v.counts not in components[0])
                report = ConnectivityReport(len(tables), len(components), (tables[0], other))
                bad = DisconnectedFiber(Fiber(cx, space, b, tuple(tables)), report)
                return MarkovReport(False, degree_limit, checked, bad)
    return MarkovReport(True, degree_limit, checked, None)


def naive_kernel_vectors(cx, space: ConfigSpace, bound: int) -> set[tuple[int, ...]]:
    """Every u - v for tables u, v of one degree d <= bound with equal marginals
    and disjoint supports: the nonzero kernel vectors with both parts of degree
    <= bound, found by bucketing all tables instead of a search."""
    vectors = set()
    for degree in range(1, bound + 1):
        buckets = {}
        for u in naive_tables(space, degree):
            support = sum(1 << ix for ix, c in enumerate(u.counts) if c)
            buckets.setdefault(marginal_map(cx, u), []).append((support, u.counts))
        for tables in buckets.values():
            for su, u in tables:
                for sv, v in tables:
                    if not su & sv:
                        vectors.add(tuple(a - b for a, b in zip(u, v)))
    return vectors


def naive_min_binomial_degree(cx, space: ConfigSpace, k_max: int):
    """The first pair of equal-marginal tables with disjoint supports, by degree.

    Each degree looks first at the square-free tables, in decreasing lex
    order of counts (the lex order of their supports as k-subsets), then at
    every table in increasing lex order of counts.  The move is u - v, with
    u the earlier table of the pair.
    """
    for k in range(1, k_max + 1):
        tables = list(naive_tables(space, k))
        square_free = sorted((u for u in tables if max(u.counts) <= 1),
                             key=lambda u: u.counts, reverse=True)
        for stream in (square_free, tables):
            move = naive_first_pair(cx, stream)
            if move is not None:
                return k, move
    return None


def naive_first_pair(cx, stream) -> Move | None:
    """u - v for the first table v of the stream with an earlier table u of
    equal marginal and disjoint support, u the first such; None if none."""
    seen = {}
    for v in stream:
        bucket = seen.setdefault(marginal_map(cx, v), [])
        for u in bucket:
            if not any(a and b for a, b in zip(u.counts, v.counts)):
                return Move(v.space, tuple(a - b for a, b in zip(u.counts, v.counts)))
        bucket.append(v)
    return None


def naive_marginal(u: ContingencyTable, members) -> tuple[int, ...]:
    """B-marginal by explicit cylinder summation, in lex order over X_B."""
    members = sorted(set(members))
    axes = [range(u.space.cardinalities[i - 1]) for i in members]
    out = []
    for y in product(*axes):
        fixed = dict(zip(members, y))
        total = 0
        for x, c in zip(u.space.configs(), u.counts):
            if all(x[i - 1] == v for i, v in fixed.items()):
                total += c
        out.append(total)
    return tuple(out)


def naive_phi_sums(c, u: ContingencyTable, members, z) -> tuple[int, int]:
    """Both sides of the collapsing identity at (B, z), by cylinder sums.

    Left: u summed over the source cylinders of every local config on B that
    collapses to z.  Right: the collapsed table summed over the binary
    cylinder at z.
    """
    members = sorted(set(members))
    sub_maps = [c.maps[i - 1] for i in members]
    lhs = 0
    for x_b in product(*(range(len(m)) for m in sub_maps)):
        if tuple(m[v] for m, v in zip(sub_maps, x_b)) == tuple(z):
            lhs += sum(u[w] for w in cylinder(u.space, members, x_b))
    phi_u = collapse_table(c, u)
    return lhs, sum(phi_u[y] for y in cylinder(c.target, members, z))


def naive_phi_identity(c, u: ContingencyTable, members, z) -> bool:
    lhs, rhs = naive_phi_sums(c, u, members, z)
    return lhs == rhs


def naive_lp_solve(rows: Sequence[Sequence[Fraction | int]],
                   rhs: Sequence[Fraction | int],
                   objective: Sequence[Fraction | int]) -> LPResult:
    """Maximize objective.x subject to rows.x = rhs, x >= 0, exactly.

    The simplex that `lp_solve` replaced, kept as its oracle: the objective
    row is rebuilt from the tableau before every pivot instead of carried.

    Two-phase simplex over rationals with Bland's smallest-index rule for
    both the entering and the leaving variable, so cycling is impossible.
    Returns the optimum, an optimal basic solution, and a dual vector (one
    multiplier per input row).
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

    def pivot(r: int, j: int) -> None:
        piv = tab[r][j]
        tab[r] = [v / piv for v in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][j]:
                f = tab[i][j]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        basis[r] = j

    def reduced_costs(costs: list[Fraction], allowed: int) -> list[Fraction]:
        z = costs[:allowed].copy()
        for i, bi in enumerate(basis):
            cb = costs[bi] if bi < len(costs) else Fraction(0)
            if cb:
                row = tab[i]
                for j in range(allowed):
                    z[j] -= cb * row[j]
        return z

    def run(costs: list[Fraction], allowed: int) -> str:
        while True:
            z = reduced_costs(costs, allowed)
            enter = next((j for j in range(allowed)
                          if j not in basis and z[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(len(tab)):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            pivot(leave, enter)

    # phase 1: maximize minus the sum of artificials
    costs1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run(costs1, n + m)
    infeasibility = sum(tab[i][-1] for i in range(len(tab)) if basis[i] >= n)
    if infeasibility > 0:
        return LPResult("infeasible", None, None, None)
    # drive remaining artificials out of the basis or drop redundant rows
    for i in reversed(range(len(tab))):
        if basis[i] < n:
            continue
        enter = next((j for j in range(n) if tab[i][j] != 0), None)
        if enter is not None:
            pivot(i, enter)
        else:
            del tab[i]
            del basis[i]

    status = run(cost + [Fraction(0)] * m, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None)

    solution = [Fraction(0)] * n
    value = Fraction(0)
    for i, bi in enumerate(basis):
        solution[bi] = tab[i][-1]
        value += cost[bi] * tab[i][-1]
    # y = c_B^T R, where R (the artificial block) maps original rows to the
    # final tableau rows; redundant rows may still carry nonzero multipliers
    # because pivots mix their artificial columns before they are dropped
    dual = []
    for i0 in range(m):
        y = sum(cost[basis[i]] * tab[i][n + i0] for i in range(len(tab)))
        dual.append(y * flip[i0])
    return LPResult("optimal", value, tuple(solution), tuple(dual))


def naive_polytope_dimension(cx, space: ConfigSpace) -> int:
    """Affine dimension of the polytope, by exact elimination: the rank of the
    columns of the marginal matrix shifted by the first one.

    The elimination that the closed form in `polytope_dimension` replaced,
    kept as its oracle.
    """
    matrix = marginal_matrix(cx, space)
    if matrix.ncols <= 1:
        return 0
    base = matrix.column(0)
    vecs = [[Fraction(a - b) for a, b in zip(matrix.column(j), base)]
            for j in range(1, matrix.ncols)]
    rank = 0  # rows 0..rank-1 are pivoted
    for col in range(matrix.nrows):
        pivot_row = next((i for i in range(rank, len(vecs)) if vecs[i][col] != 0), None)
        if pivot_row is None:
            continue
        vecs[rank], vecs[pivot_row] = vecs[pivot_row], vecs[rank]
        piv = vecs[rank][col]
        top = vecs[rank] = [v / piv if v else v for v in vecs[rank]]
        for i, row in enumerate(vecs):
            f = row[col]
            if f and i != rank:  # the rows are mostly zeros: carry those over
                vecs[i] = [a - f * b if b else a for a, b in zip(row, top)]
        rank += 1
        if rank == len(vecs):
            break
    return rank


def naive_orbit_representatives(generators: Sequence[Sequence[int]], size: int,
                                k: int) -> Iterator[tuple[int, ...]]:
    """Yield the lex-least k-subset of range(size) in each orbit, in lex order.

    The walk that orderly generation replaced, kept as its oracle: it visits
    every k-subset in lex order; each one not yet seen is the lex-least
    member of its orbit and is yielded at once, and on resuming a search over
    the generators marks its whole orbit seen.
    """
    seen: set[tuple[int, ...]] = set()
    for combo in combinations(range(size), k):
        if combo in seen:
            continue
        yield combo
        seen.add(combo)
        frontier = [combo]
        while frontier:
            members = frontier.pop()
            for g in generators:
                image = tuple(sorted([g[ix] for ix in members]))
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)


def symmetry_generators(cx, space: ConfigSpace) -> tuple[tuple[int, ...], ...]:
    """Generators of the group the neighborliness sweep reduces by.

    The input of `naive_orbit_representatives`, the oracle for orderly
    generation.  Each generator is a permutation g of configuration indices (config ix
    goes to config g[ix]) that maps the marginal matrix's columns onto a
    row permutation of the same matrix, so it maps the marginal polytope
    onto itself and faces onto faces.  The generators are:

    - per variable, the value transposition (0 1) and the cycle
      (0 1 ... q-1), which together generate the symmetric group on its
      values (one generator when q = 2);
    - per class of interchangeable variables (`_interchangeable`), a
      transposition of its first variable with each other one, which
      together generate every permutation of the class.
    """
    q = space.cardinalities
    classes = _interchangeable(cx, space)
    moves = []
    for i, qi in enumerate(q):
        swap = (1, 0) + tuple(range(2, qi))
        cycle = tuple(range(1, qi)) + (0,)
        for perm in ([swap] if qi == 2 else [swap, cycle]):
            moves.append(lambda x, i=i, perm=perm: x[:i] + (perm[x[i]],) + x[i + 1:])
    for r, *others in classes:
        for j in others:
            moves.append(lambda x, r=r, j=j: x[:r] + (x[j],) + x[r + 1:j] + (x[r],) + x[j + 1:])
    position = {x: ix for ix, x in enumerate(space.configs())}
    return tuple(tuple(position[move(x)] for x in position) for move in moves)


def naive_neighborliness(cx, space: ConfigSpace, k_max: int) -> NeighborlinessReport:
    """The unreduced sweep: test every k-subset of every level in lex order."""
    for k in range(1, min(k_max, space.size) + 1):
        for combo in combinations(range(space.size), k):
            cert = is_facial(cx, space, [space.config(ix) for ix in combo])
            if not cert.is_face:
                return NeighborlinessReport(k - 1, k_max, cert)
    return NeighborlinessReport(min(k_max, space.size), k_max, None)


def all_complexes(n):
    """Every simplicial complex on n indices, as an antichain of facets."""
    elements = list(range(1, n + 1))
    nonempty = [frozenset(c) for r in range(1, n + 1)
                for c in combinations(elements, r)]
    for picks in chain.from_iterable(combinations(nonempty, r)
                                     for r in range(len(nonempty) + 1)):
        if all(not (a < b or b < a) for a in picks for b in picks):
            yield from_facets(n, [set(p) for p in picks])


def random_complex(rng: random.Random, n: int):
    """A complex from a random generator list (may be facet-free)."""
    ngens = rng.randint(0, 5)
    gens = []
    for _ in range(ngens):
        gens.append({i for i in range(1, n + 1) if rng.random() < 0.5})
    return from_facets(n, gens)


def random_table(rng: random.Random, space: ConfigSpace, degree: int) -> ContingencyTable:
    counts = [0] * space.size
    for _ in range(degree):
        counts[rng.randrange(space.size)] += 1
    return ContingencyTable(space, tuple(counts))


@pytest.fixture
def rng():
    return random.Random(0)
