"""Fibers of the marginal map and brute-force connectivity verification.

A fiber is the set of all nonnegative integer tables sharing one marginal
vector.  A move set connects a fiber when the graph whose edges are
"add or subtract one move, staying nonnegative" is connected on it.  This
module enumerates fibers exactly, decides connectivity, verifies candidate
Markov bases up to a stated degree bound, and searches for binomials of
minimal degree.

Verification strategy
---------------------
`verify_markov_basis` inducts on the degree.  If every fiber of degree
< t is connected, then in a degree-t fiber any two tables with a common
support point are already connected (drop one shared unit, connect in the
smaller fiber, add the unit back along the path).  A degree-t fiber can
therefore only be disconnected if it contains two tables with disjoint
supports, i.e. the two halves of a kernel vector.  It suffices to
enumerate kernel vectors m with deg(m+) <= T and to check the fibers of
their marginals, in increasing degree.  At the smallest degree carrying
any disconnected fiber, the disconnected fibers are exactly the
disconnected ones among these, so verdict and least witness agree with
the literal definition: enumerate every table of degree <= T, bucket by
marginal, check each bucket.  That sweep costs the number of all
bounded-degree tables and lives in the test suite as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from operator import mul, sub
from typing import Iterator, Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .guards import Budget
from .parallel import run_ordered
from .spaces import (
    ConfigSpace,
    ContingencyTable,
    MarginalLayout,
    MarginalVector,
    config_str,
    layout,
)


@dataclass(frozen=True)
class Fiber:
    """All nonnegative tables with a fixed marginal, in lexicographic order."""

    complex: SimplicialComplex
    space: ConfigSpace
    marginal: MarginalVector
    tables: tuple[ContingencyTable, ...]

    @property
    def size(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class ConnectivityReport:
    size: int
    components: int
    witness: tuple[ContingencyTable, ContingencyTable] | None

    @property
    def connected(self) -> bool:
        return self.components <= 1


@dataclass(frozen=True)
class DisconnectedFiber:
    fiber: Fiber
    report: ConnectivityReport


@dataclass(frozen=True)
class MarkovReport:
    passed: bool
    degree_limit: int
    fibers_checked: int
    witness: DisconnectedFiber | None


def _completions(lay: MarginalLayout) -> list[tuple[int, ...]]:
    """For each config index, the rows whose cylinder ends at that config."""
    last = {}
    for ix, rows in enumerate(lay.rows_of):
        for r in rows:
            last[r] = ix
    out: list[list[int]] = [[] for _ in range(lay.space.size)]
    for r, ix in last.items():
        out[ix].append(r)
    return [tuple(sorted(rs)) for rs in out]


def enumerate_fiber(cx: SimplicialComplex, space: ConfigSpace, b: MarginalVector,
                    *, ceiling: int | None = None) -> Fiber:
    """All nonnegative integer tables with the given marginal vector.

    Depth-first assignment over configurations in lex order; each facet row
    keeps a remaining budget, and a row's last configuration is forced to
    spend the remainder exactly.
    """
    lay = layout(cx, space)
    if lay.nrows == 0:
        raise ValueError("fiber is infinite: complex has no facets")
    if b.blocks != lay.blocks():
        raise ValueError("marginal blocks do not match the complex and space")
    if not b.is_consistent():
        raise ValueError("inconsistent marginal: facet blocks sum to different totals")
    budget = Budget(ceiling, "fiber assignments")
    completions = _completions(lay)
    size = space.size
    remaining = list(b.entries)
    counts = [0] * size
    tables: list[ContingencyTable] = []

    def descend(ix: int) -> None:
        if ix == size:
            tables.append(ContingencyTable(space, tuple(counts)))
            return
        rows = lay.rows_of[ix]
        vmax = min(remaining[r] for r in rows)
        closing = completions[ix]
        if closing:
            v = remaining[closing[0]]
            if any(remaining[r] != v for r in closing) or v > vmax:
                return
            lo = hi = v
        else:
            lo, hi = 0, vmax
        for v in range(lo, hi + 1):
            budget.spend()
            counts[ix] = v
            for r in rows:
                remaining[r] -= v
            descend(ix + 1)
            for r in rows:
                remaining[r] += v
            counts[ix] = 0

    descend(0)
    return Fiber(cx, space, b, tuple(tables))


def fiber_connected(fiber: Fiber, moves: Sequence[Move]) -> ConnectivityReport:
    """Connected components of the fiber graph under the given moves.

    Edges join tables differing by plus or minus one move when the step stays
    nonnegative.  Rejects moves outside the kernel of the marginal map.
    """
    _validate_moves(layout(fiber.complex, fiber.space), moves)
    steps = []
    for m in moves:
        steps.append(m.vector)
        steps.append(tuple(-v for v in m.vector))

    tables = [t.counts for t in fiber.tables]
    index = {t: i for i, t in enumerate(tables)}
    component = [-1] * len(tables)
    ncomp = 0
    for start in range(len(tables)):
        if component[start] != -1:
            continue
        component[start] = ncomp
        stack = [start]
        while stack:
            i = stack.pop()
            base = tables[i]
            for step in steps:
                w = tuple(a + d for a, d in zip(base, step))
                if any(v < 0 for v in w):
                    continue
                j = index.get(w)
                if j is not None and component[j] == -1:
                    component[j] = ncomp
                    stack.append(j)
        ncomp += 1

    witness = None
    if ncomp > 1:
        other = next(i for i, c in enumerate(component) if c != component[0])
        witness = (fiber.tables[0], fiber.tables[other])
    return ConnectivityReport(len(tables), ncomp, witness)


def _kernel_vectors(lay: MarginalLayout, bound: int, budget: Budget) -> Iterator[tuple[int, ...]]:
    """All nonzero integer kernel vectors with both support degrees <= bound.

    Depth-first over configurations; every facet row must sum to zero, so a
    row's last configuration is forced, and the positive (negative) excess
    accumulated in any single facet can never exceed the negative (positive)
    mass still available.
    """
    size = lay.space.size
    nfacets = len(lay.facet_members)
    completions = _completions(lay)
    facet_of_row = [0] * lay.nrows
    for f in range(nfacets):
        start = lay.offsets[f]
        stop = start + lay.block_spaces[f].size
        for r in range(start, stop):
            facet_of_row[r] = f
    psum = [0] * lay.nrows
    pos_excess = [0] * nfacets
    neg_excess = [0] * nfacets
    vec = [0] * size
    found: list[tuple[int, ...]] = []

    def apply(ix: int, v: int) -> None:
        for r in lay.rows_of[ix]:
            f = facet_of_row[r]
            old = psum[r]
            new = old + v
            psum[r] = new
            pos_excess[f] += max(new, 0) - max(old, 0)
            neg_excess[f] += max(-new, 0) - max(-old, 0)

    def feasible(pos_used: int, neg_used: int) -> bool:
        pos_room = bound - pos_used
        neg_room = bound - neg_used
        for f in range(nfacets):
            if pos_excess[f] > neg_room or neg_excess[f] > pos_room:
                return False
        return True

    def descend(ix: int, pos_used: int, neg_used: int) -> None:
        if ix == size:
            if any(vec):
                found.append(tuple(vec))
            return
        closing = completions[ix]
        if closing:
            v = -psum[closing[0]]
            if any(psum[r] + v != 0 for r in closing[1:]):
                return
            values: Sequence[int] = (v,)
        else:
            values = range(-(bound - neg_used), bound - pos_used + 1)
        for v in values:
            p2 = pos_used + max(v, 0)
            n2 = neg_used + max(-v, 0)
            if p2 > bound or n2 > bound:
                continue
            budget.spend()
            vec[ix] = v
            apply(ix, v)
            if feasible(p2, n2):
                descend(ix + 1, p2, n2)
            apply(ix, -v)
            vec[ix] = 0

    descend(0, 0, 0)
    return iter(found)


def _validate_moves(lay: MarginalLayout, moves: Sequence[Move]) -> None:
    for m in moves:
        if m.space != lay.space:
            raise ValueError("move space does not match the model's space")
        if any(v != 0 for v in lay.marginal_entries(m.vector)):
            raise ValueError("move is not in the kernel of the marginal map")


def _check_fiber(cx: SimplicialComplex, space: ConfigSpace, moves: tuple[Move, ...],
                 blocks: tuple, ceiling: int,
                 entries: tuple[int, ...]) -> tuple[int, DisconnectedFiber | None]:
    """The fiber's size, and the fiber with its report when it is disconnected."""
    fiber = enumerate_fiber(cx, space, MarginalVector(entries, blocks), ceiling=ceiling)
    if fiber.size <= 1:
        return fiber.size, None
    report = fiber_connected(fiber, moves)
    return fiber.size, None if report.connected else DisconnectedFiber(fiber, report)


def verify_markov_basis(cx: SimplicialComplex, space: ConfigSpace, moves: Sequence[Move],
                        degree_limit: int, *, ceiling: int | None = None,
                        workers: int = 1) -> MarkovReport:
    """Check that the moves connect every fiber of degree <= degree_limit.

    Passing is evidence up to the stated bound, not a proof for all degrees.
    On failure the report carries the first disconnected fiber (smallest
    degree, then lexicographically least marginal) and a witness pair of
    tables in distinct components.

    One ceiling bounds the whole run: the kernel-vector search spends it
    first, every checked fiber is then charged its size in task order, and
    each fiber's own enumeration is capped at what was left when its degree
    began, so verdicts and ceiling errors do not depend on the worker count.
    """
    if degree_limit < 0:
        raise ValueError("degree limit must be nonnegative")
    lay = layout(cx, space)
    moves = tuple(moves)
    _validate_moves(lay, moves)
    blocks = lay.blocks()
    budget = Budget(ceiling, "enumerated tables")
    if lay.nrows == 0:
        raise ValueError("cannot verify a model with no facets: every fiber is infinite")

    by_degree: dict[int, set[tuple[int, ...]]] = {}
    for vec in _kernel_vectors(lay, degree_limit, budget):
        plus = tuple(max(v, 0) for v in vec)
        deg = sum(plus)
        if 0 < deg <= degree_limit:
            by_degree.setdefault(deg, set()).add(lay.marginal_entries(plus))

    fibers_checked = 0
    for deg in sorted(by_degree):
        task = partial(_check_fiber, cx, space, moves, blocks, budget.ceiling - budget.used)
        results = run_ordered(task, sorted(by_degree[deg]), workers)
        for size, _ in results:
            budget.spend(size)
        fibers_checked += len(results)
        for _, bad in results:
            if bad is not None:
                return MarkovReport(False, degree_limit, fibers_checked, bad)
    return MarkovReport(True, degree_limit, fibers_checked, None)


def _tables_of_degree(size: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every table of degree k on `size` cells, in increasing lex order (stars and bars)."""
    steps = range(size - 1)
    for bars in combinations(range(k + size - 1), size - 1):
        cuts = (0, *map(sub, bars, steps), k)  # stars left of each bar
        yield tuple(map(sub, cuts[1:], cuts))


def _first_disjoint_pair(tables: Iterator[tuple[int, ...]], weights: Sequence[int],
                         budget: Budget) -> tuple[int, ...] | None:
    """u - v for the first table v sharing its marginal with an earlier u of disjoint support.

    Tables are bucketed by the key sum(counts * weights), which stands for the
    marginal (see `min_binomial_degree`).
    """
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for counts in tables:
        budget.spend()
        bucket = buckets.setdefault(sum(map(mul, counts, weights)), [])
        for other in bucket:
            if not any(map(mul, other, counts)):
                return tuple(map(sub, other, counts))
        bucket.append(counts)
    return None


def min_binomial_degree(cx: SimplicialComplex, space: ConfigSpace, k_max: int,
                        *, ceiling: int | None = None) -> tuple[int, Move] | None:
    """Smallest degree k <= k_max carrying a disjoint-support binomial pair.

    Each degree scans the square-free tables (k-subsets of configurations in
    lex order) first and then every table of degree k (increasing lex order
    of counts); the witness is the first pair a scan meets, as the move
    u - v with u the earlier table.  Every scanned table is charged to the
    ceiling once.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lay = layout(cx, space)
    budget = Budget(ceiling, "enumerated tables")
    size = space.size
    for k in range(1, k_max + 1):
        # A degree-k marginal packed into one integer, k.bit_length() bits per
        # row: no entry exceeds k, so equal keys mean equal marginals.
        width = k.bit_length()
        weights = [sum(1 << (width * r) for r in rows) for rows in lay.rows_of]
        square_free = (tuple(int(ix in combo) for ix in range(size))
                       for combo in combinations(range(size), k))
        for tables in (square_free, _tables_of_degree(size, k)):
            vec = _first_disjoint_pair(tables, weights, budget)
            if vec is not None:
                return k, Move(space, vec)
    return None


def tableau(u: ContingencyTable) -> str:
    """A table as the multiset of its configurations, one per line."""
    lines = []
    for x, c in zip(u.space.configs(), u.counts):
        lines.extend([config_str(x, u.space)] * c)
    return "\n".join(lines) + ("\n" if lines else "")
