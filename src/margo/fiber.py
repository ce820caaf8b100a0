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
distinct slice marginal once and assembles the product; every
`interval_complement(n, G)` is such a complex, with S = [n] minus G.

The fiber graph splits the same way when every move's support lies in one
slice, as every interval move's does.  A step by such a move changes that
slice alone, so two tables are adjacent exactly when they agree on every
other slice and their projections onto this one are adjacent in the slice
graph: the fiber graph is the Cartesian product of the slice graphs.  The
components of a Cartesian product are the products of the factors'
components, so `fiber_connected` searches each slice's tables, which the
fiber keeps from its construction, and multiplies the counts, and two
tables share a component exactly when their projections share one in
every slice.

So `verify_markov_basis` decides such a model on the slice model alone.
The marginal matrix is block diagonal, one copy of the slice model's per
slice, so the kernel is the direct sum of the slice kernels: the marginal
of a kernel vector's positive part picks, per slice, nothing or one slice
marginal P of that kind, and the number of marginals of degree d is the
coefficient of x^d in (1 + sum over P of x^deg P) to the power of the
number of slices.  A fiber is connected exactly when each of its slice
fibers is, under that slice's moves.  Group the slices by their moves and
run the degree loop on the slice model once per group.  The least of the
degrees at which the groups first fail is the whole model's, and its
disconnected fibers of that degree are exactly the failing slice marginals
of those groups, each placed in one slice of its group with every other
slice zero.  The witness is the least of these, its slice fiber lifted
into its slice.  A model without a cone point, or with a move that spans
two slices, is its own single slice, on which the same loop runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, product, repeat
from math import prod
from operator import itemgetter, lshift, sub
from typing import Iterator, Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .guards import Budget, phase
from .spaces import (
    ConfigSpace,
    ContingencyTable,
    MarginalLayout,
    MarginalVector,
    _ConeSplit,
    _slices,
    config_str,
    layout,
)


@dataclass(frozen=True)
class Fiber:
    """All nonnegative tables with a fixed marginal, in lexicographic order.

    A fiber built by `enumerate_fiber` as a product of slice fibers also
    keeps those slice fibers: per value of x_S, the counts of the slice
    model's tables in lex order.  They are set only there, so a fiber made
    by hand or by `dataclasses.replace` has none, and they take no part in
    equality, hashing or the repr.
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


def _dfs(lay: MarginalLayout, entries: Sequence[int], budget: Budget) -> list[tuple[int, ...]]:
    """The counts of every table with the given marginal entries, in lex order.

    Depth-first assignment over configurations in lex order; each facet row
    keeps a remaining budget, and a row's last configuration is forced to
    spend the remainder exactly.  Every assignment is charged to the budget.
    The walk keeps an explicit stack (the value at each configuration and
    its upper end), so its depth is not bounded by the recursion limit.
    """
    size = lay.space.size
    rows_of = lay.rows_of
    completions = _completions(lay, range(size))
    remaining = list(entries)
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
    checks, charging every walk assignment and product table to the budget."""
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
    budget.spend(prod(map(len, parts)))
    joined: list[tuple[int, ...]] = [()]
    for slice_tables in parts:
        joined = [head + t for head in joined for t in slice_tables]
    return sorted(map(split.assemble, joined)), parts


def enumerate_fiber(cx: SimplicialComplex, space: ConfigSpace, b: MarginalVector,
                    *, ceiling: int | None = None) -> Fiber:
    """All nonnegative integer tables with the given marginal vector, in lex order.

    When every facet contains a nonempty proper set S of the variables (every
    `interval_complement(n, G)`, with S = [n] minus G), the fiber is the
    product, over the values s of x_S, of the fibers of the slice model: the
    facets F minus S on the other variables, with the marginal entries of
    the rows at x_S = s (the toric fiber product of Sullivant, J. Algebra
    2007).  Each distinct slice marginal is enumerated once by the
    depth-first walk of `_dfs`; the product is then assembled into full
    tables and sorted.  A marginal whose facet blocks agree can still have
    a slice with no table; the fiber is then empty, and the slices after
    it are not walked.  Every other complex runs the walk on the full model.

    The ceiling counts fiber assignments: the walk's assignments on the
    full model, or the slice walks' assignments and then the product's size,
    charged before any table of the product is assembled.  The product path
    charges less than the full walk on the same fiber.  A nonempty product
    keeps its slice fibers, which `fiber_connected` searches.
    """
    lay = layout(cx, space)
    if lay.nrows == 0:
        raise ValueError("fiber is infinite: complex has no facets")
    if b.blocks != lay.blocks():
        raise ValueError("marginal blocks do not match the complex and space")
    if not b.is_consistent():
        raise ValueError("inconsistent marginal: facet blocks sum to different totals")
    tables, parts = _fiber(lay, b.entries, Budget(ceiling, "fiber assignments"))
    fib = Fiber(cx, space, b, tuple(ContingencyTable(space, t) for t in tables))
    if parts:
        object.__setattr__(fib, "_slice_fibers", tuple(parts))
    return fib


def _label_components(tables: Sequence[tuple[int, ...]], vectors: Sequence[tuple[int, ...]]
                      ) -> tuple[int, list[int]]:
    """The number of components of the tables' graph under the vectors, and
    each table's component, numbered in order of the table that opens it.

    Edges join tables differing by plus or minus one vector; a neighbour is
    searched for among the given tables only.  Each table is packed into one
    integer, `width` bits per cell with cell 0 lowest: enough bits for the
    largest entry a step can reach (the largest table degree plus the largest
    vector entry) and one guard bit on top, and at least 8, so that small
    entries pack a byte each.  Each signed vector is precomputed as its
    packed delta and its packed negative part N.  A step applies when the
    table covers N: adding the guard bits and subtracting N borrows across no
    field, and leaves a field's guard bit set exactly when its entry covers
    that field of N.  The neighbour's key is then the table's key plus the
    delta, looked up among the tables' keys.
    """
    size = len(tables[0]) if tables else 0
    reach = max((abs(v) for vec in vectors for v in vec), default=0)
    width = max(8, (max(map(sum, tables), default=0) + reach).bit_length() + 1)
    shifts = [width * i for i in range(size)]

    def pack(vec: Sequence[int]) -> int:
        return sum(map(lshift, vec, shifts))

    guard = pack([1 << (width - 1)] * size)
    steps = []
    for vec in vectors:
        for signed in (vec, tuple(-v for v in vec)):
            steps.append((guard - pack([max(-v, 0) for v in signed]), pack(signed)))

    if width == 8:  # bytes() packs 8-bit cells in C
        keys = [int.from_bytes(bytes(t), "little") for t in tables]
    else:
        keys = list(map(pack, tables))
    index = {key: i for i, key in enumerate(keys)}
    component = [-1] * len(tables)
    ncomp = 0
    for start in range(len(tables)):
        if component[start] != -1:
            continue
        component[start] = ncomp
        stack = [keys[start]]
        while stack:
            key = stack.pop()
            for cover, delta in steps:
                if (key + cover) & guard == guard:
                    j = index.get(key + delta)
                    if j is not None and component[j] == -1:
                        component[j] = ncomp
                        stack.append(keys[j])
        ncomp += 1
    return ncomp, component


def _moves_by_slice(split: _ConeSplit, vectors: Sequence[tuple[int, ...]]
                    ) -> list[list[tuple[int, ...]]] | None:
    """Per slice, the projections of the nonzero vectors whose support lies in
    it, or None when some vector's support spans two slices."""
    getters = [itemgetter(*cells) for cells in split.cells]
    slice_vectors: list[list[tuple[int, ...]]] = [[] for _ in getters]
    for vec in vectors:
        touched = [s for s, get in enumerate(getters) if any(get(vec))]
        if len(touched) > 1:
            return None
        s = touched[0]
        slice_vectors[s].append(getters[s](vec))
    return slice_vectors


def _slice_components(lay: MarginalLayout, fiber: Fiber,
                      vectors: Sequence[tuple[int, ...]]) -> tuple[int, int | None] | None:
    """The number of components and the witness index, slice by slice, or None.

    None unless the fiber keeps the slice fibers it was built from
    (`enumerate_fiber`) and every vector's support lies in one slice.  Then
    a step changes one slice, the graph is the Cartesian product of the
    slice graphs, and its components are the products of theirs.  The
    witness index is that of the first table whose slice components differ
    from table 0's, or None when there is one component.
    """
    if fiber._slice_fibers is None:
        return None
    split = _slices(lay)
    slice_vectors = _moves_by_slice(split, vectors)
    if slice_vectors is None:
        return None
    ncomp, others = 1, []
    for cells, slice_tables, vecs in zip(split.cells, fiber._slice_fibers, slice_vectors):
        get = itemgetter(*cells)
        count, component = _label_components(slice_tables, vecs)
        ncomp *= count
        if count > 1:
            component_of = dict(zip(slice_tables, component))
            first = component_of[get(fiber.tables[0].counts)]
            others.append(next(i for i, t in enumerate(fiber.tables)
                               if component_of[get(t.counts)] != first))
    return ncomp, min(others, default=None)


def fiber_connected(fiber: Fiber, moves: Sequence[Move]) -> ConnectivityReport:
    """Connected components of the fiber graph under the given moves.

    Edges join tables differing by plus or minus one move when the step stays
    nonnegative.  Rejects moves outside the kernel of the marginal map, and
    ignores zero moves.  The witness pairs the first table with the first
    table, in fiber order, outside its component.

    A fiber that `enumerate_fiber` built as a product of slice fibers, on
    a model cut into slices by a cone point (`_slices`, as for every
    `interval_complement(n, G)`), keeps those slice fibers.  When every
    move's support lies in one slice, the components are found slice by
    slice on them (`_slice_components`): the fiber graph is the Cartesian
    product of the slice graphs.  Otherwise, and for every fiber built by
    hand, the packed search of `_label_components` runs over the whole
    fiber.  Both give the same report, with no induction hypothesis and no
    ceiling.
    """
    lay = layout(fiber.complex, fiber.space)
    _validate_moves(lay, moves)
    vectors = [m.vector for m in moves if any(m.vector)]
    found = _slice_components(lay, fiber, vectors)
    if found is None:
        ncomp, component = _label_components([t.counts for t in fiber.tables], vectors)
        found = ncomp, next((i for i, c in enumerate(component) if c != component[0]), None)
    ncomp, other = found
    witness = None if other is None else (fiber.tables[0], fiber.tables[other])
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


def _least_failing_degree(lay: MarginalLayout, by_degree: dict[int, set[tuple[int, ...]]],
                          vectors: Sequence[tuple[int, ...]], budget: Budget
                          ) -> tuple[int | None, list[tuple]]:
    """The least degree with a disconnected fiber, and all its disconnected
    fibers in marginal order, each as (marginal entries, tables' counts,
    component count, index of the first table outside table 0's component);
    (None, []) when every fiber is connected.

    The fibers of each degree's marginals, in increasing degree, are walked
    by `_fiber` on the budget; a fiber with one shared-support class is
    connected by the induction in the module docstring, and only the others
    are searched, by `_label_components`: the layout is a slice model, which
    has no cone point, or a whole model with none or with a move that spans
    two slices, so the slice route of `fiber_connected` never applies.
    """
    for deg in sorted(by_degree):
        bad = []
        with phase(budget, f"fiber enumeration, degree {deg}"):
            for entries in sorted(by_degree[deg]):
                tables, _ = _fiber(lay, entries, budget)
                if _one_support_class(tables):
                    continue
                ncomp, component = _label_components(tables, vectors)
                if ncomp > 1:
                    other = next(i for i, c in enumerate(component) if c != component[0])
                    bad.append((entries, tables, ncomp, other))
        if bad:
            return deg, bad
    return None, []


def _lift(positions: Sequence[int], values: Sequence[int], size: int) -> tuple[int, ...]:
    """The values placed at the positions of a zero vector of the given size."""
    full = [0] * size
    for p, v in zip(positions, values):
        full[p] = v
    return tuple(full)


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
    slices, is its own single slice.  The witness fiber is the failing
    slice fiber lifted into its slice, with that fiber's component count
    and witness pair.  One ceiling bounds the run's work: every assignment
    of the kernel-vector search and of the fiber walks, and every product
    table assembled.  A ceiling error names the run's ceiling, the phase and
    the degree: the search's degree limit, or the degree of the fibers being
    checked.
    """
    if degree_limit < 0:
        raise ValueError("degree limit must be nonnegative")
    lay = layout(cx, space)
    moves = tuple(moves)
    _validate_moves(lay, moves)
    budget = Budget(ceiling, "enumerated tables")
    if lay.nrows == 0:
        raise ValueError("cannot verify a model with no facets: every fiber is infinite")
    vectors = [m.vector for m in moves if any(m.vector)]
    split = _slices(lay)
    slice_vectors = None if split is None else _moves_by_slice(split, vectors)
    if slice_vectors is None:  # the whole model as its one slice
        every = range(space.size)
        split = _ConeSplit(lay, (tuple(range(lay.nrows)),), itemgetter(*every),
                           (tuple(every),))
        slice_vectors = [vectors]
    model = split.part

    by_degree: dict[int, set[tuple[int, ...]]] = {}
    zeros = (0,) * model.space.size
    with phase(budget, f"kernel-vector search, degree {degree_limit}"):
        for vec in _kernel_vectors(model, degree_limit, budget):
            if next(filter(None, vec)) < 0:
                continue  # its twin -vec has the same marginal and degree
            plus = tuple(map(max, vec, zeros))
            by_degree.setdefault(sum(plus), set()).add(model.marginal_entries(plus))

    # Each group of slices with one set of moves fails first at its own
    # degree; the least of these is the whole model's, and there the
    # disconnected fibers are the failing slice marginals, each in a
    # slice of its group with every other slice zero.
    groups: dict[frozenset[tuple[int, ...]], list[int]] = {}
    for s, vecs in enumerate(slice_vectors):
        groups.setdefault(frozenset(vecs), []).append(s)
    results = [(members, *_least_failing_degree(model, by_degree, list(vecs), budget))
               for vecs, members in groups.items()]
    deg = min((d for _, d, _ in results if d is not None), default=None)
    # A marginal of degree d <= deg picks, per slice, zero or one of the
    # slice marginals of some degree e, with the degrees adding up to d.
    top = degree_limit if deg is None else deg
    series = [1] + [len(by_degree.get(e, ())) for e in range(1, top + 1)]
    power = [1] + [0] * top
    for _ in split.rows:
        power = [sum(power[i] * series[d - i] for i in range(d + 1)) for d in range(top + 1)]
    checked = sum(power) - 1
    if deg is None:
        return MarkovReport(True, degree_limit, checked, None)

    least, s, (_, tables, ncomp, other) = min(
        ((_lift(split.rows[s], bad[0], lay.nrows), s, bad)
         for members, d, failing in results if d == deg
         for bad in failing for s in members), key=itemgetter(0))
    # cells[s] is increasing, so the lifted tables stay in lex order
    lifted = tuple(ContingencyTable(space, _lift(split.cells[s], t, space.size))
                   for t in tables)
    fib = Fiber(cx, space, MarginalVector(least, lay.blocks()), lifted)
    report = ConnectivityReport(len(lifted), ncomp, (lifted[0], lifted[other]))
    return MarkovReport(False, degree_limit, checked, DisconnectedFiber(fib, report))


def _tables_of_degree(size: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every table of degree k on `size` cells, in increasing lex order of counts
    (stars and bars), each as the tuple of its cells repeated by their counts."""
    steps, cells = range(size - 1), range(size)
    for bars in combinations(range(k + size - 1), size - 1):
        cuts = (0, *map(sub, bars, steps), k)  # stars left of each bar
        yield tuple(chain.from_iterable(map(repeat, cells, map(sub, cuts[1:], cuts))))


def _first_disjoint_pair(tables: Iterator[tuple[int, ...]], weights: Sequence[int],
                         budget: Budget) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(u, v) for the first table v sharing its marginal with an earlier u of disjoint support.

    A table comes as the tuple of its cells, each repeated by its count.  Tables
    are bucketed by the key sum of their cells' weights, which stands for the
    marginal (see `min_binomial_degree`).
    """
    weight = weights.__getitem__
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for cells in tables:
        budget.spend()
        bucket = buckets.setdefault(sum(map(weight, cells)), [])
        if bucket:
            support = set(cells)
            for other in bucket:
                if support.isdisjoint(other):
                    return other, cells
        bucket.append(cells)
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
    meets, as the move u - v with u the earlier table.  The scan holds each
    table as the tuple of its cells (a k-subset, or a multiset): its key is
    the sum of its cells' weights and disjointness is a set test, so the
    move's vector is built for the witness alone.  The search needs a
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
        with phase(budget, f"binomial scan, degree {k}"):
            for tables in (combinations(range(size), k), _tables_of_degree(size, k)):
                pair = _first_disjoint_pair(tables, weights, budget)
                if pair is not None:
                    vec = [0] * size
                    for ix in pair[0]:
                        vec[ix] += 1
                    for ix in pair[1]:
                        vec[ix] -= 1
                    return k, Move(space, tuple(vec))
    return None


def tableau(u: ContingencyTable) -> str:
    """A table as the multiset of its configurations, one per line."""
    lines = []
    for x, c in zip(u.space.configs(), u.counts):
        lines.extend([config_str(x, u.space)] * c)
    return "\n".join(lines) + ("\n" if lines else "")
