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

Fibers of cone-point complexes
------------------------------
When every facet contains a nonempty proper set S of the variables, a
table splits into slices, one per value of x_S, and the marginal of each
facet F splits the same way into the marginals of the slice model with
facets F minus S (a lone facet leaves one empty facet, fixing each
slice's total).  The fiber is therefore the product of the slice fibers (the
toric fiber product of Sullivant, J. Algebra 2007; used for Markov bases
by Dobra and Sullivant, Comput. Stat. 2004).  `enumerate_fiber` walks each
distinct slice marginal once and builds the product a column per full
cell; every `interval_complement(n, G)` is such a complex, with S = [n]
minus G.  The split keeps one map, per slice the full row of each slice
row and the full cell of each slice cell (`spaces._slices`), and slice
values go into the full model by one rule, `_lift`.

The fiber graph splits the same way when every move's support lies in one
slice, as every interval move's does.  A step by such a move changes that
slice alone, so two tables are adjacent exactly when they agree on every
other slice and their projections onto this one are adjacent in the slice
graph: the fiber graph is the Cartesian product of the slice graphs.  The
components of a Cartesian product are the products of the factors'
components, so `fiber_connected` searches each slice's tables, which the
fiber keeps from its construction, and multiplies the counts, and two
tables share a component exactly when their projections share one in
every slice.  Every other fiber is searched on the identity split, whose
one slice is the whole fiber, in the same loop.

So `verify_markov_basis` decides such a model on the slice model alone.
The marginal matrix is block diagonal, one copy of the slice model's per
slice, so the kernel is the direct sum of the slice kernels: the marginal
of a kernel vector's positive part picks, per slice, nothing or one slice
marginal P of that kind, and the number of marginals of degree d is the
coefficient of x^d in (1 + sum over P of x^deg P) to the power of the
number of slices.  A fiber is connected exactly when each of its slice
fibers is, under that slice's moves.  Group the slices by their set of
moves, as `fiber_connected` groups its parts (`_split_moves`).
One degree loop on the slice model walks each slice marginal once and
searches it once per group, and stops at the first degree at which any
group fails: no group failed below it, so the induction holds for all of
them, and this degree is the whole model's.  Its disconnected fibers are
exactly the failing slice marginals, each placed in one slice of a group
it fails for, with every other slice zero.  The witness is the least of
these, its slice fiber lifted into its slice.  A model without a cone
point, or with a move that spans two slices, is its own single slice (the
identity split), on which the same loop runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, product, repeat
from math import prod
from operator import itemgetter, lshift
from typing import Iterable, Iterator, NamedTuple, Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .guards import Budget
from .spaces import (
    ConfigSpace,
    ContingencyTable,
    MarginalLayout,
    MarginalVector,
    _ConeSplit,
    _config_sep,
    _integer,
    _integers,
    _place_weights,
    _slices,
    _trusted_tables,
    layout,
)


@dataclass(frozen=True)
class Fiber:
    """All nonnegative tables with a fixed marginal, in lexicographic order.

    A fiber built by `enumerate_fiber` as a product of slice fibers also
    keeps those slice fibers: per value of x_S, the counts of the slice
    model's tables in lex order, which `fiber_connected` searches as the
    parts of the fiber and from which it builds the witness.  They are set
    only there, so a fiber made by hand or by `dataclasses.replace` has none
    and is searched as one part, its own tables in their own order; they
    take no part in equality, hashing or the repr.

    A fiber does not re-check its tables.  Those of a hand-built fiber were
    checked when each `ContingencyTable` was built; `enumerate_fiber` wraps
    its walk's tables unchecked, as they are valid by construction.
    """

    complex: SimplicialComplex
    space: ConfigSpace
    marginal: MarginalVector
    tables: tuple[ContingencyTable, ...]
    _slice_fibers: tuple[list[tuple[int, ...]], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

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


@lru_cache(maxsize=None)
def _lex_completions(lay: MarginalLayout) -> tuple[tuple[int, ...], ...]:
    """`_completions` over the configurations in index order, the walk of
    `_dfs`.  Cached per layout, so every walk on one model, such as the
    slice walks of a product fiber, reads one table."""
    return tuple(_completions(lay, range(lay.space.size)))


def _dfs(lay: MarginalLayout, entries: Sequence[int], budget: Budget) -> list[tuple[int, ...]]:
    """The counts of every table with the given marginal entries, in lex order.

    Depth-first assignment over configurations in lex order; each facet row
    keeps a remaining budget, and a row's last configuration is forced to
    spend the remainder exactly, which must not be negative.  So every table
    is a tuple of `size` nonnegative ints, which `enumerate_fiber` wraps
    unchecked.  Every assignment is charged to the budget.
    The walk keeps an explicit stack (the value at each configuration and
    its upper end), so its depth is not bounded by the recursion limit.
    """
    size = lay.space.size
    rows_of = lay.rows_of
    completions = _lex_completions(lay)
    remaining = list(entries)
    get = remaining.__getitem__
    counts = [0] * size
    top = [0] * size
    tables: list[tuple[int, ...]] = []

    ix = 0
    while True:
        # open configuration ix at the lowest value of its range
        if ix == size:
            tables.append(tuple(counts))
        else:
            rows = rows_of[ix]
            hi = min(map(get, rows))
            closing = completions[ix]
            lo = 0
            if closing:
                v = remaining[closing[0]]
                if 0 <= v <= hi and {*map(get, closing)} == {v}:
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
            return tables
        budget.spend()
        counts[ix] += 1
        for r in rows_of[ix]:
            remaining[r] -= 1
        ix += 1


def _fiber(lay: MarginalLayout, entries: Sequence[int], budget: Budget
           ) -> tuple[list[tuple[int, ...]], list[list[tuple[int, ...]]]]:
    """The counts of every table with the marginal entries, in lex order, and
    the slice fibers of a nonempty product: `enumerate_fiber` after its input
    checks, charging every walk assignment and product table to the budget.

    The product is built a column at a time.  Its tables run through the
    slice fibers like nested loops, the first slice outermost, so a cell of
    slice s holds each value of its slice fiber's column `inner` times in a
    row (the product of the later slices' sizes), and that run repeats once
    per combination of the earlier slices.  Zipping the columns in cell
    order gives the full tables in that product order, which the sort puts
    into lex order."""
    split = _slices(lay)
    if split is None:
        return _dfs(lay, entries, budget), []
    walks: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    parts = []
    for rows in split.rows:
        slice_entries = tuple(entries[r] for r in rows)
        if slice_entries not in walks:
            walks[slice_entries] = _dfs(split.part, slice_entries, budget)
        if not walks[slice_entries]:
            return [], []  # an empty slice fiber empties the product
        parts.append(walks[slice_entries])
    total = prod(map(len, parts))
    budget.spend(total)
    columns: list[list[int]] = [[]] * lay.space.size
    outer = 1
    for cells, slice_tables in zip(split.cells, parts):
        inner = total // (outer * len(slice_tables))
        for c, values in zip(cells, zip(*slice_tables)):
            if inner > 1:
                values = chain.from_iterable(map(repeat, values, repeat(inner)))
            columns[c] = list(values) * outer
        outer *= len(slice_tables)
    tables = list(zip(*columns))
    tables.sort()
    return tables, parts


def enumerate_fiber(cx: SimplicialComplex, space: ConfigSpace, b: MarginalVector,
                    *, ceiling: int | None = None) -> Fiber:
    """All nonnegative integer tables with the given marginal vector, in lex order.

    When every facet contains a nonempty proper set S of the variables (every
    `interval_complement(n, G)`, with S = [n] minus G), the fiber is the
    product, over the values s of x_S, of the fibers of the slice model: the
    facets F minus S on the other variables, with the marginal entries of
    the rows at x_S = s (the toric fiber product of Sullivant, J. Algebra
    2007).  Each distinct slice marginal is enumerated once by the
    depth-first walk of `_dfs`, and every walk on one model reads one table
    of forced row completions.  The product is built a column per full
    cell, each the column of one slice fiber, each value repeated by the
    sizes of the later slices and the whole repeated by those of the earlier
    ones; zipping the columns gives every full table, and the tables are
    then sorted into lex order.  A marginal whose facet blocks agree can
    still have a slice with no table; the fiber is then empty, and the
    slices after it are not walked.  Every other complex runs the walk on
    the full model.

    The ceiling counts fiber assignments: the walk's assignments on the
    full model, or the slice walks' assignments and then the product's size,
    charged before any table of the product is built.  The product path
    charges less than the full walk on the same fiber.  A nonempty product
    keeps its slice fibers, which `fiber_connected` searches.

    The walk's tables are tuples of nonnegative ints, one per configuration,
    so they are wrapped as `ContingencyTable`s without the constructor's
    checks, in passes that run no bytecode per table
    (`spaces._trusted_tables`); a marginal with a negative entry has an
    empty fiber.  The tables are built here, not on first use.
    """
    lay = layout(cx, space)
    if lay.nrows == 0:
        raise ValueError("fiber is infinite: complex has no facets")
    if b.blocks != lay.blocks():
        raise ValueError("marginal blocks do not match the complex and space")
    entries = _integers(b.entries, "marginal entries")
    if not b.is_consistent():
        raise ValueError("inconsistent marginal: facet blocks sum to different totals")
    tables, parts = _fiber(lay, entries, Budget(ceiling, "fiber assignments"))
    fib = Fiber(cx, space, b, _trusted_tables(space, tables))
    if parts:
        object.__setattr__(fib, "_slice_fibers", tuple(parts))
    return fib


class _Steps(NamedTuple):
    """The packed steps of one move set, for `_label_components`."""

    width: int  # bits per cell
    guard: int  # the top bit of every cell's field
    steps: list[tuple[int, int]]  # per signed vector, (guard - packed N, packed delta)


def _width(degree: int, vectors: Iterable[Sequence[int]]) -> int:
    """The cell width of the packed search on tables of degree <= degree: enough
    bits for the largest entry a step can reach (the degree plus the largest
    vector entry) and one guard bit on top, and at least 8, so that small
    entries pack a byte each."""
    reach = max(map(abs, chain.from_iterable(vectors)), default=0)
    return max(8, (degree + reach).bit_length() + 1)


def _pack(vec: Sequence[int], width: int) -> int:
    """The entries as one integer, `width` bits per cell with cell 0 lowest."""
    return sum(map(lshift, vec, range(0, width * len(vec), width)))


def _packed_steps(vectors: Iterable[Sequence[int]], size: int, width: int) -> _Steps:
    """The vectors on `size` cells packed `width` bits per cell, both signs of
    each: its packed delta, and the guard minus its packed negative part."""
    guard = _pack([1 << (width - 1)] * size, width)
    steps = []
    for vec in vectors:
        plus = _pack([max(v, 0) for v in vec], width)
        minus = _pack([max(-v, 0) for v in vec], width)
        steps += [(guard - minus, plus - minus), (guard - plus, minus - plus)]
    return _Steps(width, guard, steps)


def _label_components(tables: Sequence[tuple[int, ...]], packed: _Steps
                      ) -> tuple[int, int | None]:
    """The number of components of the tables' graph under the packed steps,
    and the index of the first table outside table 0's component (None when
    there is one component or none).

    The tables are searched in order, each unreached one opening a component,
    so the table that opens the second component is the first one outside
    the first, and no pass beyond the search finds it.

    Edges join tables differing by plus or minus one vector; a neighbour is
    searched for among the given tables only.  The caller sets the search up
    once for all the parts it searches (`_width`, `_packed_steps`): one cell
    width, wide enough for every part's tables, and per move set its packed
    steps.  Here each table is only packed into one integer, `width` bits per
    cell with cell 0 lowest, and walked.  A step applies when the table
    covers the vector's negative part N: adding the guard bits and
    subtracting N borrows across no field, and leaves a field's guard bit set
    exactly when its entry covers that field of N.  The neighbour's key is
    then the table's key plus the delta, looked up among the tables' keys.
    """
    width, guard, steps = packed
    if width == 8:  # bytes() packs 8-bit cells in C
        keys = [int.from_bytes(bytes(t), "little") for t in tables]
    else:
        keys = [_pack(t, width) for t in tables]
    index = {key: i for i, key in enumerate(keys)}
    reached = [False] * len(tables)
    ncomp, other = 0, None
    for start in range(len(tables)):
        if reached[start]:
            continue
        if ncomp == 1:
            other = start
        ncomp += 1
        reached[start] = True
        stack = [keys[start]]
        while stack:
            key = stack.pop()
            for cover, delta in steps:
                if (key + cover) & guard == guard:
                    j = index.get(key + delta)
                    if j is not None and not reached[j]:
                        reached[j] = True
                        stack.append(keys[j])
    return ncomp, other


def _lift(size: int, *pairs: tuple[Sequence[int], Sequence[int]]) -> tuple[int, ...]:
    """A zero vector of the given size with each pair's values placed at its
    positions: slice values placed into the full model at a split's `rows`
    or `cells`."""
    full = [0] * size
    for positions, values in pairs:
        for p, v in zip(positions, values):
            full[p] = v
    return tuple(full)


def _split_moves(lay: MarginalLayout, split: _ConeSplit | None,
                 vectors: Sequence[tuple[int, ...]]
                 ) -> tuple[_ConeSplit, list[tuple[list[tuple[int, ...]], list[int]]]]:
    """The cone split with its slices grouped by their moves: per group, the
    projections of the nonzero vectors whose support lies in its first
    slice, and its slices in order.  Slices share a group when their
    projections are equal as sets; a group's search does not depend on their
    order or on repeats.  Without a split, or when some vector's support
    spans two slices, the identity split instead: the model as its one slice
    (its `part` is `lay` itself), in one group with every vector."""
    if split is not None:
        getters = [itemgetter(*cells) for cells in split.cells]
        slice_vectors: list[list[tuple[int, ...]]] = [[] for _ in getters]
        for vec in vectors:
            touched = [s for s, get in enumerate(getters) if any(get(vec))]
            if len(touched) > 1:
                break
            slice_vectors[touched[0]].append(getters[touched[0]](vec))
        else:
            groups: dict[frozenset[tuple[int, ...]], tuple[list, list[int]]] = {}
            for s, vecs in enumerate(slice_vectors):
                groups.setdefault(frozenset(vecs), (vecs, []))[1].append(s)
            return split, list(groups.values())
    split = _ConeSplit(lay, (tuple(range(lay.nrows)),), (tuple(range(lay.space.size)),))
    return split, [(list(vectors), [0])]


def fiber_connected(fiber: Fiber, moves: Sequence[Move]) -> ConnectivityReport:
    """Connected components of the fiber graph under the given moves.

    Edges join tables differing by plus or minus one move when the step stays
    nonnegative.  Rejects moves outside the kernel of the marginal map, and
    ignores zero moves.  The witness pairs the first table with the first
    table, in fiber order, outside its component.

    The components are found slice by slice (`_split_moves`).  A fiber that
    `enumerate_fiber` built as a product of slice fibers, on a model cut
    into slices by a cone point (`_slices`, as for every
    `interval_complement(n, G)`), keeps those slice fibers; when every
    move's support lies in one slice, they are the parts, and the fiber
    graph is the Cartesian product of their graphs.  Otherwise, and for
    every fiber built by hand, the identity split's one part is the fiber's
    own tables.  `_label_components` searches each part under its moves; the
    component count is the product of the parts' counts.  The search is set
    up once per call: one cell width for every part, from the fiber's degree
    (`_width`), and the packed steps once per group of slices with one move
    set (`_packed_steps`), so a part's search only packs its tables and walks.

    The witness is read off the parts, each placed at its slice's cells
    (`_lift`).  The tables outside table 0's component in part s form a
    product set: part s's tables outside the component of its first, times
    every other part's tables.  The parts are in lex order, and so is the
    fiber, whose lex order restricted to one slice's cells, which are
    increasing, is that slice's; so the set's least table is every part's
    first table with part s's first table outside that component.  The least of these over the parts is the
    first table outside table 0's component.  On the identity split the
    one part is the fiber's tables in their own order, so the witness is
    the first table outside, in that order.  No induction hypothesis and
    no ceiling apply.
    """
    lay = layout(fiber.complex, fiber.space)
    _validate_moves(lay, moves)
    vectors = [m.vector for m in moves if any(m.vector)]
    split, groups = _split_moves(
        lay, None if fiber._slice_fibers is None else _slices(lay), vectors)
    if split.part is lay:
        parts = [[t.counts for t in fiber.tables]]
        degree = max(map(sum, parts[0]), default=0)
    else:  # a slice fiber's tables share one degree
        parts = fiber._slice_fibers
        degree = sum(sum(part[0]) for part in parts)
    width = _width(degree, vectors)
    ncomp, candidates = 1, []
    for vecs, members in groups:
        packed = _packed_steps(vecs, split.part.space.size, width)
        for s in members:
            count, other = _label_components(parts[s], packed)
            ncomp *= count
            if other is not None:
                heads = [part[0] for part in parts]
                heads[s] = parts[s][other]
                candidates.append(_lift(lay.space.size, *zip(split.cells, heads)))
    witness = None if not candidates else (
        fiber.tables[0], ContingencyTable(fiber.space, min(candidates)))
    return ConnectivityReport(fiber.size, ncomp, witness)


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
    weights = _place_weights(q)
    axes = [[v * weights[i - 1] for v in range(q[i - 1])] for i in _walk_order(lay)]
    return [sum(offsets) for offsets in product(*axes)]


def _kernel_vectors(lay: MarginalLayout, bound: int, budget: Budget, *,
                    least: bool = False) -> Iterator[tuple[int, ...]]:
    """The nonzero integer kernel vectors with both support degrees <= bound,
    one of each pair v, -v: the one whose first nonzero entry in the walk is
    positive.

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
    sign cut: while no positive mass has been placed, which with the cut
    means while every earlier value is zero, a position's range starts at 0.
    The search keeps an explicit stack, so its depth is not bounded by the
    recursion limit.

    With `least`, meant for a bound at which no vector of lower degree
    exists, the search walks the configurations in index order, trying the
    values -1, 1 and 0 in that order, so the first nonzero entry, which is
    positive, is the least support cell.  It yields only square-free
    vectors, each less than the one before under the key (negative cells,
    positive cells), each a sorted tuple: the last one yielded is the
    least.  At the least degree it misses no vector, since every vector of
    that degree is square-free (the support bound in `min_binomial_degree`).
    Once one is yielded, a branch whose negative cells so far are its first
    ones is abandoned when the branch's next negative cell can no longer
    come at or before its next one: every completion sorts after it.
    """
    size = lay.space.size
    walk = range(size) if least else _walk(lay)
    completions = _lex_completions(lay) if least else _completions(lay, walk)
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

    # per walk position: the top of its value range, the positive and
    # negative mass used before it (its current value is vec[walk[p]]),
    # and with `least` whether the negative cells before it are the first
    # ones of the last vector yielded, whose key is `best`
    top = [0] * size
    pos_before = [0] * (size + 1)
    neg_before = [0] * (size + 1)
    tied = [False] * (size + 1)
    best: tuple[list[int], list[int]] | None = None
    p = 0
    opening = True
    while p >= 0:
        if opening:
            if p == size:
                if least and any(vec):
                    key = ([ix for ix, v in enumerate(vec) if v < 0],
                           [ix for ix, v in enumerate(vec) if v > 0])
                    if best is None or key < best:
                        best, tied = key, [True] * (size + 1)
                        negs = key[0] + [size]
                        yield tuple(vec)
                elif any(vec):
                    yield tuple(vec)
                p -= 1
                opening = False
                continue
            lo = -(bound - neg_before[p]) if pos_before[p] else 0
            hi = bound - pos_before[p]
            if least:
                lo, hi = max(lo, -1), min(hi, 1)
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
            if least and not closing:  # the values in the order -1, 1, 0
                top[p], v = 0, lo or hi
            apply(p, v)
        else:
            # step position p to its next value, or drop it and back up
            v = vec[walk[p]]
            if v == top[p]:
                apply(p, -v)
                vec[walk[p]] = 0
                p -= 1
                continue
            w = (1 if v < 0 and pos_before[p] < bound else 0) if least else v + 1
            apply(p, w - v)
            v = w
        budget.spend()
        vec[walk[p]] = v
        pos_used, neg_used = pos_before[p], neg_before[p]
        if v > 0:
            pos_used += v
        else:
            neg_used -= v
        opening = max(excess) + neg_used <= bound
        tie = tied[p]
        if tie:  # the key cut: the next negative cell comes at or before best's
            nxt = negs[neg_before[p]]
            opening = opening and p <= nxt - (v >= 0)
            tie = v >= 0 or p == nxt
        if opening:
            p += 1
            pos_before[p] = pos_used
            neg_before[p] = neg_used
            tied[p] = tie


def _validate_moves(lay: MarginalLayout, moves: Sequence[Move]) -> None:
    for m in moves:
        if m.space != lay.space:
            raise ValueError("move space does not match the model's space")
        if any(v != 0 for v in lay.marginal_entries(m.vector)):
            raise ValueError("move is not in the kernel of the marginal map")


def _markov_inputs(cx: SimplicialComplex, space: ConfigSpace, moves: Iterable[Move],
                   degree_limit: int) -> tuple[MarginalLayout, tuple[Move, ...], int]:
    """The input checks of `verify_markov_basis`, each a ValueError: an
    integer, nonnegative degree limit, a complex and space on the same n,
    moves on that space in the kernel of the marginal map, and at least one
    facet.  Returns the layout, the moves and the degree limit as an int."""
    degree_limit = _integer(degree_limit, "degree limit")
    if degree_limit < 0:
        raise ValueError("degree limit must be nonnegative")
    lay = layout(cx, space)
    moves = tuple(moves)
    _validate_moves(lay, moves)
    if lay.nrows == 0:
        raise ValueError("cannot verify a model with no facets: every fiber is infinite")
    return lay, moves, degree_limit


def _one_support_class(tables: Sequence[tuple[int, ...]]) -> bool:
    """Whether the tables' counts form one class under "share a support cell".

    A union-find over the cells joins the cells of each table's support; the
    tables form one class when every table's support lands in one set.
    """
    parent = list(range(len(tables[0])))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    firsts = []
    for t in tables:
        cells = [ix for ix, v in enumerate(t) if v]
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
    tables in distinct components; `fibers_checked` counts the marginals of
    the positive parts of the kernel vectors of degree <= degree_limit, or
    only of those up to the failing degree.

    The run is decided on the slices of a cone split (`_slices`, as for
    every `interval_complement(n, G)`), as the module docstring explains.
    A model without one, or with a nonzero move whose support spans two
    slices, is its own single slice.  Each slice marginal is walked once
    per degree, for every group of slices with one set of moves.  The
    witness fiber is the failing slice fiber lifted into its slice, with
    that fiber's component count and witness pair.  One ceiling bounds the
    run's work: every assignment of the kernel-vector search and of the
    fiber walks, and every product table built.  A ceiling error names
    the run's ceiling, the phase and the degree: the search's degree limit,
    or the degree of the fibers being checked.
    """
    return _verify_markov(*_markov_inputs(cx, space, moves, degree_limit), ceiling)


def _verify_markov(lay: MarginalLayout, moves: Sequence[Move], degree_limit: int,
                   ceiling: int | None) -> MarkovReport:
    """`verify_markov_basis` on the layout and moves that `_markov_inputs`
    returned, so a caller that ran those checks itself does not repeat them.

    It shares its slice grouping with `fiber_connected` (`_split_moves`) but
    searches other tables: each slice marginal's fiber, against every group
    of slices.  The failing marginal and the witness fiber's tables are
    lifted into their slice by `_lift`, at the split's `rows` and `cells`."""
    cx, space = lay.complex, lay.space
    budget = Budget(ceiling, "enumerated tables")
    vectors = [m.vector for m in moves if any(m.vector)]
    split, groups = _split_moves(lay, _slices(lay), vectors)
    model = split.part

    by_degree: dict[int, set[tuple[int, ...]]] = {}
    zeros = (0,) * model.space.size
    budget.where = f"kernel-vector search, degree {degree_limit}"
    for vec in _kernel_vectors(model, degree_limit, budget):
        plus = tuple(map(max, vec, zeros))
        by_degree.setdefault(sum(plus), set()).add(model.marginal_entries(plus))

    # The first degree at which any group of slices fails is the whole
    # model's, and there the disconnected fibers are the failing slice
    # marginals, each in a slice of its group with every other slice zero.
    # one search set-up per group, wide enough for every fiber of the run
    width = _width(max(by_degree, default=0), vectors)
    searches = [(_packed_steps(vecs, model.space.size, width), members)
                for vecs, members in groups]
    bad = []
    for deg in sorted(by_degree):
        budget.where = f"fiber enumeration, degree {deg}"
        for entries in sorted(by_degree[deg]):
            tables, _ = _fiber(model, entries, budget)
            if _one_support_class(tables):
                continue
            for packed, members in searches:
                ncomp, other = _label_components(tables, packed)
                if ncomp > 1:
                    bad += [(_lift(lay.nrows, (split.rows[s], entries)), s, tables, ncomp, other)
                            for s in members]
        if bad:
            break
    # A marginal of degree d <= top picks, per slice, zero or one of the
    # slice marginals of some degree e, with the degrees adding up to d.
    top = deg if bad else degree_limit
    series = [1] + [len(by_degree.get(e, ())) for e in range(1, top + 1)]
    power = [1] + [0] * top
    for _ in split.rows:
        power = [sum(power[i] * series[d - i] for i in range(d + 1)) for d in range(top + 1)]
    checked = sum(power) - 1
    if not bad:
        return MarkovReport(True, degree_limit, checked, None)

    least, s, tables, ncomp, other = min(bad, key=itemgetter(0))
    # cells[s] is increasing, so the lifted tables stay in lex order
    lifted = tuple(ContingencyTable(space, _lift(space.size, (split.cells[s], t)))
                   for t in tables)
    fib = Fiber(cx, space, MarginalVector(least, lay.blocks()), lifted)
    report = ConnectivityReport(len(lifted), ncomp, (lifted[0], lifted[other]))
    return MarkovReport(False, degree_limit, checked, DisconnectedFiber(fib, report))


def _start_degree(cx: SimplicialComplex, k_max: int) -> int:
    """The degree `min_binomial_degree` starts below: 2^(|G|-1) for the first
    non-face G in (size, lex) order, k_max + 1 when every set is a face."""
    return next((1 << len(G) - 1 for G in cx.nonfaces()), k_max + 1)


def min_binomial_degree(cx: SimplicialComplex, space: ConfigSpace, k_max: int,
                        *, ceiling: int | None = None) -> tuple[int, Move] | None:
    """Smallest degree k <= k_max carrying a disjoint-support binomial pair.

    Such a pair of degree-k tables is the positive and negative part of a
    kernel vector of degree k.  The best degree so far, the incumbent,
    starts at 2^(|G|-1) for G the first non-face in (size, lex) order: the
    degree of G's interval move (below), read off the complex with no
    vector built.  With no non-face it starts at k_max + 1
    (`_start_degree`).  One exhaustive run of the lazy kernel-vector search
    at the bound b = min(k_max, best - 1) asks for a vector below the best
    degree; a vector of degree d makes d the best and starts a fresh search
    at d - 1, and the first search that yields nothing proves the best
    degree least.  The theorem below says the first search yields nothing,
    but it is run, not trusted: a vector below the bound would be found and
    returned.  A least degree above k_max gives None.  The witness is the
    least square-free degree-k kernel vector whose first nonzero entry is
    positive, ordered by (negative cells, positive cells), each sorted
    (`_kernel_vectors` with `least`).  As the move u - v it is the first
    pair (u, v) of a scan of the square-free degree-k tables as k-subsets
    in lex order: of two disjoint k-subsets the earlier holds the least
    cell.

    At the least degree every kernel vector is square-free.  Let g be the
    size of a smallest non-face.  The marginal polytope is
    (2^(g-1) - 1)-neighborly (the paper's theorem), so every nonzero kernel
    vector has at least 2^(g-1) positive and 2^(g-1) negative cells.  The
    interval move of a minimal non-face of size g, placed on the binary
    sub-box {0,1}^n of the alphabets, is a kernel vector of degree 2^(g-1);
    for g = 1 it is e_a - e_b on twin columns a, b, which differ only in
    the variable that lies in no facet.  So the least degree is 2^(g-1),
    and each of its vectors has 2^(g-1) cells of each sign, each of count
    1.  A least degree without a square-free vector would break this
    support bound, and raises `AssertionError`; so does a start degree at
    which the witness search finds no vector.

    A facet-free complex's witness is (1, e_0 - e_1).  The ceiling counts
    the assignments of every search against one budget, and its error names
    the phase and its degree: the bound b of a kernel-vector search, or the
    degree of the witness search.
    """
    k_max = _integer(k_max, "k_max")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lay = layout(cx, space)
    budget = Budget(ceiling, "enumerated tables")
    if not lay.nrows:
        return 1, Move(space, (1, -1) + (0,) * (space.size - 2))
    best = _start_degree(cx, k_max)
    while best > 1:  # each search is exhaustive below the best degree so far
        b = min(k_max, best - 1)
        budget.where = f"kernel-vector search, degree {b}"
        vec = next(_kernel_vectors(lay, b, budget), None)
        if vec is None:
            break
        best = sum(v for v in vec if v > 0)
    if best > k_max:
        return None
    budget.where = f"witness search, degree {best}"
    vec = None
    for vec in _kernel_vectors(lay, best, budget, least=True):
        pass  # each vector is less than the one before
    if vec is None:
        raise AssertionError(f"support bound broken: no square-free vector at degree {best}")
    return best, Move(space, vec)


def tableau(u: ContingencyTable) -> str:
    """A table as the multiset of its configurations, one per line."""
    sep, lines = _config_sep(u.space), []
    for x, c in zip(compress(u.space.configs(), u.counts), filter(None, u.counts)):
        lines += [sep.join(map(str, x))] * c
    return "\n".join(lines) + ("\n" if lines else "")
