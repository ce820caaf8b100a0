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

The same induction settles most checked fibers without a move.  When the
run reaches degree t, every fiber of lower degree is connected, or it would
have stopped.  Join two tables of a degree-t fiber when their supports
share a cell; the components of the fiber graph are unions of the classes
of this relation (the shared-support graph G(b) of Charalambous, Katsabekis
and Thoma, Proc. AMS 2007; the lower-degree equivalence of Takemura and
Aoki, AISM 2004).  A fiber with one class is connected, and only fibers
with two or more classes run the move search, whose report and witness
are therefore those of the plain search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from operator import mul, sub
from typing import Iterator, Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .guards import Budget, phase
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


def _completions(lay: MarginalLayout, walk: Sequence[int]) -> list[tuple[int, ...]]:
    """For each walk position, the rows whose cylinder ends at that position."""
    last = {}
    for p, ix in enumerate(walk):
        for r in lay.rows_of[ix]:
            last[r] = p
    out: list[list[int]] = [[] for _ in walk]
    for r, p in last.items():
        out[p].append(r)
    return [tuple(sorted(rs)) for rs in out]


def enumerate_fiber(cx: SimplicialComplex, space: ConfigSpace, b: MarginalVector,
                    *, ceiling: int | None = None) -> Fiber:
    """All nonnegative integer tables with the given marginal vector.

    Depth-first assignment over configurations in lex order; each facet row
    keeps a remaining budget, and a row's last configuration is forced to
    spend the remainder exactly.  The walk keeps an explicit stack (the
    value at each configuration and its upper end), so its depth is not
    bounded by the interpreter's recursion limit.
    """
    lay = layout(cx, space)
    if lay.nrows == 0:
        raise ValueError("fiber is infinite: complex has no facets")
    if b.blocks != lay.blocks():
        raise ValueError("marginal blocks do not match the complex and space")
    if not b.is_consistent():
        raise ValueError("inconsistent marginal: facet blocks sum to different totals")
    budget = Budget(ceiling, "fiber assignments")
    size = space.size
    rows_of = lay.rows_of
    completions = _completions(lay, range(size))
    remaining = list(b.entries)
    counts = [0] * size
    top = [0] * size
    tables: list[ContingencyTable] = []

    ix = 0
    while True:
        # open configuration ix at the lowest value of its range
        if ix == size:
            tables.append(ContingencyTable(space, tuple(counts)))
        else:
            rows = rows_of[ix]
            hi = min(remaining[r] for r in rows)
            closing = completions[ix]
            lo = 0
            if closing:
                v = remaining[closing[0]]
                if v <= hi and all(remaining[r] == v for r in closing):
                    lo = hi = v
                else:
                    hi = -1
            if lo <= hi:
                budget.spend()
                counts[ix] = lo
                top[ix] = hi
                for r in rows:
                    remaining[r] -= lo
                ix += 1
                continue
        # backtrack to the deepest configuration with a value left, and step it
        ix -= 1
        while ix >= 0 and counts[ix] == top[ix]:
            v = counts[ix]
            for r in rows_of[ix]:
                remaining[r] += v
            counts[ix] = 0
            ix -= 1
        if ix < 0:
            return Fiber(cx, space, b, tuple(tables))
        budget.spend()
        counts[ix] += 1
        for r in rows_of[ix]:
            remaining[r] -= 1
        ix += 1


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


def _walk_order(lay: MarginalLayout) -> tuple[int, ...]:
    """The variables (1-based), most significant first, for the kernel-vector walk.

    Variable i weighs sum |X_F| over the facets F that do not contain it: the
    number of marginal rows whose cylinder varies in i.  Sorting by ascending
    weight (ties in index order) minimizes the total span of the rows in the
    walk, so rows close as early as possible.
    """
    def weight(i: int) -> int:
        return sum(bs.size for members, bs in zip(lay.facet_members, lay.block_spaces)
                   if i not in members)

    return tuple(sorted(range(1, lay.space.n + 1), key=weight))


def _walk(lay: MarginalLayout) -> list[int]:
    """Configuration indices in lex order of the variables taken in `_walk_order`."""
    q = lay.space.cardinalities
    strides = [prod(q[i:]) for i in range(1, len(q) + 1)]
    axes = [[v * strides[i - 1] for v in range(q[i - 1])] for i in _walk_order(lay)]
    return [sum(offsets) for offsets in product(*axes)]


def _kernel_vectors(lay: MarginalLayout, bound: int, budget: Budget) -> Iterator[tuple[int, ...]]:
    """All nonzero integer kernel vectors with both support degrees <= bound.

    A lazy generator: each vector is yielded as the search reaches it, so a
    caller that stops at the first one pays only for the search up to it.
    Depth-first over the configurations in lex order of the variables sorted
    by ascending weight, where variable i weighs sum |X_F| over the facets F
    not containing i (`_walk_order`); that order closes every marginal row
    as early as possible.  Every facet row must sum to zero, so a row's last
    configuration is forced.  And since every configuration hits one row of
    each facet, a facet's positive row sums exceed its negative ones by the
    mass assigned so far: its positive excess must be cancelled by negative
    mass still available, so excess + neg_used <= bound prunes (this also
    bounds the negative excess by the positive mass still available).  The
    search keeps an explicit stack, so its depth is not bounded by the
    recursion limit.
    """
    size = lay.space.size
    walk = _walk(lay)
    completions = _completions(lay, walk)
    facet_of_row = [f for f, bs in enumerate(lay.block_spaces) for _ in range(bs.size)]
    rows_at = [[(r, facet_of_row[r]) for r in lay.rows_of[ix]] for ix in walk]
    psum = [0] * lay.nrows
    excess = [0] * len(lay.facet_members)  # per facet, the sum of its positive row sums
    vec = [0] * size

    def apply(p: int, v: int) -> None:
        for r, f in rows_at[p]:
            old = psum[r]
            new = psum[r] = old + v
            excess[f] += (new if new > 0 else 0) - (old if old > 0 else 0)

    # per walk position: the top of its value range, and the positive and
    # negative mass used before it (its current value is vec[walk[p]])
    top = [0] * size
    pos_before = [0] * (size + 1)
    neg_before = [0] * (size + 1)
    p = 0
    opening = True
    while p >= 0:
        if opening:
            if p == size:
                if any(vec):
                    yield tuple(vec)
                p -= 1
                opening = False
                continue
            lo, hi = -(bound - neg_before[p]), bound - pos_before[p]
            closing = completions[p]
            if closing:
                v = -psum[closing[0]]
                if not lo <= v <= hi or any(psum[r] + v for r in closing[1:]):
                    p -= 1
                    opening = False
                    continue
                lo = hi = v
            top[p] = hi
            v = lo
            apply(p, v)
        else:
            # step position p to its next value, or drop it and back up
            v = vec[walk[p]]
            if v == top[p]:
                apply(p, -v)
                vec[walk[p]] = 0
                p -= 1
                continue
            v += 1
            apply(p, 1)
        budget.spend()
        vec[walk[p]] = v
        pos_used, neg_used = pos_before[p], neg_before[p]
        if v > 0:
            pos_used += v
        else:
            neg_used -= v
        opening = max(excess) + neg_used <= bound
        if opening:
            p += 1
            pos_before[p] = pos_used
            neg_before[p] = neg_used


def _validate_moves(lay: MarginalLayout, moves: Sequence[Move]) -> None:
    for m in moves:
        if m.space != lay.space:
            raise ValueError("move space does not match the model's space")
        if any(v != 0 for v in lay.marginal_entries(m.vector)):
            raise ValueError("move is not in the kernel of the marginal map")


def _one_support_class(fiber: Fiber) -> bool:
    """Whether the tables of a fiber form one class under "share a support cell".

    A union-find over the cells joins the cells of each table's support; the
    tables form one class when every table's support lands in one set.
    """
    parent = list(range(fiber.space.size))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    firsts = []
    for t in fiber.tables:
        cells = [ix for ix, v in enumerate(t.counts) if v]
        root = find(cells[0])
        for c in cells[1:]:
            parent[find(c)] = root
        firsts.append(cells[0])
    return len({find(c) for c in firsts}) == 1


def verify_markov_basis(cx: SimplicialComplex, space: ConfigSpace, moves: Sequence[Move],
                        degree_limit: int, *, ceiling: int | None = None) -> MarkovReport:
    """Check that the moves connect every fiber of degree <= degree_limit.

    Passing is evidence up to the stated bound, not a proof for all degrees.
    On failure the report carries the first disconnected fiber (smallest
    degree, then lexicographically least marginal) and a witness pair of
    tables in distinct components.

    Each fiber whose tables form one shared-support class is connected by
    the induction in the module docstring; only the others run the move
    search of `fiber_connected`.  Every fiber of a degree is enumerated,
    charged and checked before a disconnected one is reported.

    One ceiling bounds the whole run: the kernel-vector search spends it
    first, every checked fiber is then charged its size in marginal order,
    and each fiber's own enumeration is capped at what was left when its
    degree began.  A ceiling error names the run's ceiling, the phase and
    the degree: the search's degree limit, or the degree of the fibers being
    checked.
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
    with phase(budget, f"kernel-vector search, degree {degree_limit}"):
        for vec in _kernel_vectors(lay, degree_limit, budget):
            plus = tuple(max(v, 0) for v in vec)
            deg = sum(plus)
            if 0 < deg <= degree_limit:
                by_degree.setdefault(deg, set()).add(lay.marginal_entries(plus))

    fibers_checked = 0
    for deg in sorted(by_degree):
        cap = budget.ceiling - budget.used
        bad = None
        with phase(budget, f"fiber enumeration, degree {deg}"):
            for entries in sorted(by_degree[deg]):
                fiber = enumerate_fiber(cx, space, MarginalVector(entries, blocks), ceiling=cap)
                budget.spend(fiber.size)
                if _one_support_class(fiber):
                    continue
                report = fiber_connected(fiber, moves)
                if bad is None and not report.connected:
                    bad = DisconnectedFiber(fiber, report)
        fibers_checked += len(by_degree[deg])
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

    A pair of degree-k tables with equal marginals and disjoint supports is
    exactly the positive and negative part of a kernel vector of degree k.
    So each degree first asks the lazy kernel-vector search for one vector
    with both parts of degree <= k, and skips the degree when there is none;
    the first degree with a vector is the answer.  Only that degree is
    scanned for the witness: the square-free tables (k-subsets of
    configurations in lex order) first and then every table of degree k
    (increasing lex order of counts); the witness is the first pair the scan
    meets, as the move u - v with u the earlier table.  The search needs a
    facet, so a facet-free complex is scanned at every degree.  The ceiling
    counts search assignments and scanned tables against one budget, and
    its error names the phase and the degree reached.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lay = layout(cx, space)
    budget = Budget(ceiling, "enumerated tables")
    size = space.size
    for k in range(1, k_max + 1):
        if lay.nrows:
            with phase(budget, f"kernel-vector search, degree {k}"):
                if next(_kernel_vectors(lay, k, budget), None) is None:
                    continue
        # A degree-k marginal packed into one integer, k.bit_length() bits per
        # row: no entry exceeds k, so equal keys mean equal marginals.
        width = k.bit_length()
        weights = [sum(1 << (width * r) for r in rows) for rows in lay.rows_of]
        square_free = (tuple(int(ix in combo) for ix in range(size))
                       for combo in combinations(range(size), k))
        with phase(budget, f"binomial scan, degree {k}"):
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
