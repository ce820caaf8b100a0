"""Configuration spaces, contingency tables, marginals, and the marginal matrix.

Configurations are tuples (x_1, ..., x_n) with 0 <= x_i < q_i, enumerated in
lexicographic order with coordinate 1 most significant.  That single order is
used everywhere: table entries, matrix columns, and marginal blocks, so that
matrices and certificates are bit-reproducible.  All arithmetic is plain
Python integer arithmetic and therefore exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import and_, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complexes import SimplicialComplex, from_facets

Config = tuple[int, ...]


@dataclass(frozen=True)
class ConfigSpace:
    """Product of finite alphabets {0, ..., q_i - 1}, one per variable."""

    cardinalities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cardinalities", tuple(self.cardinalities))
        for q in self.cardinalities:
            if q < 2:
                raise ValueError(f"alphabet sizes must be >= 2, got {q}")

    @property
    def n(self) -> int:
        return len(self.cardinalities)

    @property
    def size(self) -> int:
        return prod(self.cardinalities)

    @property
    def is_binary(self) -> bool:
        return all(q == 2 for q in self.cardinalities)

    def configs(self) -> Iterator[Config]:
        return product(*(range(q) for q in self.cardinalities))

    def index(self, x: Sequence[int]) -> int:
        if len(x) != self.n:
            raise ValueError(f"config length {len(x)} != {self.n}")
        ix = 0
        for xi, q in zip(x, self.cardinalities):
            if not 0 <= xi < q:
                raise ValueError(f"config value {xi} out of range 0..{q - 1}")
            ix = ix * q + xi
        return ix

    def config(self, ix: int) -> Config:
        out = []
        for q in reversed(self.cardinalities):
            ix, r = divmod(ix, q)
            out.append(r)
        return tuple(reversed(out))


def binary_space(n: int) -> ConfigSpace:
    return ConfigSpace((2,) * n)


def sub_space(space: ConfigSpace, members: Iterable[int]) -> ConfigSpace:
    """The space X_B of local configurations on B (variables in increasing order)."""
    return ConfigSpace(tuple(space.cardinalities[i - 1] for i in sorted(members)))


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative integer counts, indexed by configurations in lex order."""

    space: ConfigSpace
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.space.size:
            raise ValueError(f"expected {self.space.size} entries, got {len(self.counts)}")
        for c in self.counts:
            if c < 0:
                raise ValueError("table entries must be nonnegative")

    @property
    def degree(self) -> int:
        return sum(self.counts)

    def __getitem__(self, x: Sequence[int]) -> int:
        return self.counts[self.space.index(x)]

    @classmethod
    def zero(cls, space: ConfigSpace) -> "ContingencyTable":
        return cls(space, (0,) * space.size)

    @classmethod
    def indicator(cls, space: ConfigSpace, x: Sequence[int]) -> "ContingencyTable":
        counts = [0] * space.size
        counts[space.index(x)] = 1
        return cls(space, tuple(counts))


@dataclass(frozen=True)
class MarginalVector:
    """Concatenated facet marginals; one block of entries per facet."""

    entries: tuple[int, ...]
    blocks: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self) -> None:
        if sum(size for _, size in self.blocks) != len(self.entries):
            raise ValueError("block sizes do not match entry count")

    def block(self, k: int) -> tuple[int, ...]:
        off = sum(size for _, size in self.blocks[:k])
        return self.entries[off:off + self.blocks[k][1]]

    def is_consistent(self) -> bool:
        """All facet blocks sum to the same total (the shared table degree)."""
        totals = {sum(self.block(k)) for k in range(len(self.blocks))}
        return len(totals) <= 1

    @property
    def degree(self) -> int:
        if not self.blocks:
            return 0
        return sum(self.block(0))


@dataclass(frozen=True)
class MarginalMatrix:
    """The 0/1 matrix of the marginal map, rows labelled by (facet, local config)."""

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[tuple[frozenset[int], Config], ...]
    col_labels: tuple[Config, ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def mul(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols} columns")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)


class MarginalLayout:
    """Row bookkeeping for a (complex, space) pair.

    Precomputes, for every configuration index, the global row index it hits
    in each facet block.  Shared by the marginal map, the fiber searches and
    the polytope code.
    """

    def __init__(self, cx: SimplicialComplex, space: ConfigSpace):
        if cx.n != space.n:
            raise ValueError(f"complex on {cx.n} indices vs space on {space.n} variables")
        self.complex = cx
        self.space = space
        self.facet_members: list[tuple[int, ...]] = [tuple(sorted(f)) for f in cx.facets]
        self.block_spaces = [sub_space(space, f) for f in self.facet_members]
        self.offsets: list[int] = []
        off = 0
        for bs in self.block_spaces:
            self.offsets.append(off)
            off += bs.size
        self.nrows = off
        # rows_of[ix] = row hit by config ix in each facet block, in facet order
        all_configs = list(space.configs())
        self.col_labels = tuple(all_configs)
        self.rows_of: list[tuple[int, ...]] = []
        for x in all_configs:
            hit = []
            for members, bs, off in zip(self.facet_members, self.block_spaces, self.offsets):
                hit.append(off + bs.index(tuple(x[i - 1] for i in members)))
            self.rows_of.append(tuple(hit))
        self.row_labels: tuple[tuple[frozenset[int], Config], ...] = tuple(
            (frozenset(members), y)
            for members, bs in zip(self.facet_members, self.block_spaces)
            for y in bs.configs()
        )

    def marginal_entries(self, counts: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.nrows
        for ix, c in enumerate(counts):
            if c:
                for r in self.rows_of[ix]:
                    out[r] += c
        return tuple(out)

    def blocks(self) -> tuple[tuple[frozenset[int], int], ...]:
        return tuple((frozenset(members), bs.size)
                     for members, bs in zip(self.facet_members, self.block_spaces))

    def matrix(self) -> MarginalMatrix:
        rows = [[0] * self.space.size for _ in range(self.nrows)]
        for ix, hit in enumerate(self.rows_of):
            for r in hit:
                rows[r][ix] = 1
        return MarginalMatrix(tuple(tuple(r) for r in rows),
                              self.row_labels, self.col_labels)


@lru_cache(maxsize=None)
def layout(cx: SimplicialComplex, space: ConfigSpace) -> MarginalLayout:
    return MarginalLayout(cx, space)


class _ConeSplit(NamedTuple):
    """A model cut into slices, one per value of x_S in lex order (`_slices`)."""

    part: MarginalLayout  # the slice model: the facets F minus S on the other variables
    rows: tuple[tuple[int, ...], ...]  # per slice, the full row of each slice row
    assemble: itemgetter  # the slice tables, concatenated in slice order, to a full table
    cells: tuple[tuple[int, ...], ...]  # per slice, the full cell of each slice cell


@lru_cache(maxsize=None)
def _slices(lay: MarginalLayout) -> _ConeSplit | None:
    """A model whose facets all contain the variables S, cut into slices.

    None when the facets share no variable, or share every one (the
    facet-free complex and the full simplex).  The marginal matrix is then
    block diagonal, one block per value of x_S, and each block is the matrix
    of the slice model, whose facets F minus S share no variable; a single
    facet F leaves one empty facet, which fixes each slice's total.  `cells`
    inverts `assemble` slice by slice.  Cached per layout, and so per
    (complex, space) like `layout` itself.
    """
    cx, space = lay.complex, lay.space
    full = (1 << cx.n) - 1
    common = reduce(and_, cx.facet_masks, full)
    if common in (0, full):
        return None
    cone = [i for i in range(1, cx.n + 1) if common >> (i - 1) & 1]
    rest = [i for i in range(1, cx.n + 1) if not common >> (i - 1) & 1]
    renumber = {i: k for k, i in enumerate(rest, start=1)}
    faces = [frozenset(renumber[i] for i in f if i in renumber) for f in cx.facets]
    part = MarginalLayout(from_facets(len(rest), faces), sub_space(space, rest))
    facet_of = [faces.index(frozenset(members)) for members in part.facet_members]
    cone_space = sub_space(space, cone)
    rows = [[0] * part.nrows for _ in range(cone_space.size)]
    cells = [[0] * part.space.size for _ in range(cone_space.size)]
    position = [0] * space.size
    for ix, x in enumerate(space.configs()):
        s = cone_space.index([x[i - 1] for i in cone])
        j = part.space.index([x[i - 1] for i in rest])
        position[ix] = s * part.space.size + j
        cells[s][j] = ix
        for f, r in enumerate(part.rows_of[j]):
            rows[s][r] = lay.rows_of[ix][facet_of[f]]
    return _ConeSplit(part, tuple(map(tuple, rows)), itemgetter(*position),
                      tuple(map(tuple, cells)))


def symmetry_generators(cx: SimplicialComplex,
                        space: ConfigSpace) -> tuple[tuple[int, ...], ...]:
    """Generators of a group of configuration relabelings that fix the model.

    Each generator is a permutation g of configuration indices (config ix
    goes to config g[ix]) that maps the marginal matrix's columns onto a
    row permutation of the same matrix, so it maps the marginal polytope
    onto itself and faces onto faces.  The generators are:

    - per variable, the value transposition (0 1) and the cycle
      (0 1 ... q-1), which together generate the symmetric group on its
      values (one generator when q = 2);
    - per class of interchangeable variables, a transposition of its first
      variable with each other one.  Variables i and j are interchangeable
      when q_i = q_j and swapping them maps the facet set onto itself; this
      relation is an equivalence, so the star generates the same group as
      every such transposition.
    """
    if cx.n != space.n:
        raise ValueError(f"complex on {cx.n} indices vs space on {space.n} variables")
    q = space.cardinalities
    moves = []
    for i, qi in enumerate(q):
        swap = (1, 0) + tuple(range(2, qi))
        cycle = tuple(range(1, qi)) + (0,)
        for perm in ([swap] if qi == 2 else [swap, cycle]):
            moves.append(lambda x, i=i, perm=perm: x[:i] + (perm[x[i]],) + x[i + 1:])
    facets = set(cx.facets)
    roots: list[int] = []
    for j in range(space.n):
        for r in roots:
            swap = {r + 1: j + 1, j + 1: r + 1}
            if q[r] == q[j] and {frozenset(swap.get(v, v) for v in f)
                                 for f in facets} == facets:
                moves.append(lambda x, r=r, j=j: x[:r] + (x[j],) + x[r + 1:j]
                             + (x[r],) + x[j + 1:])
                break
        else:
            roots.append(j)
    position = {x: ix for ix, x in enumerate(space.configs())}
    return tuple(tuple(position[move(x)] for x in position) for move in moves)


def marginal(u: ContingencyTable, members: Iterable[int]) -> ContingencyTable:
    """The B-marginal of u: sums over the cylinders {X_B = x_B}."""
    members = sorted(set(members))
    for i in members:
        if not 1 <= i <= u.space.n:
            raise ValueError(f"element {i} out of range 1..{u.space.n}")
    sub = sub_space(u.space, members)
    out = [0] * sub.size
    for x, c in zip(u.space.configs(), u.counts):
        if c:
            out[sub.index(tuple(x[i - 1] for i in members))] += c
    return ContingencyTable(sub, tuple(out))


def marginal_map(cx: SimplicialComplex, u: ContingencyTable) -> MarginalVector:
    """All facet marginals of u, concatenated in facet order."""
    lay = layout(cx, u.space)
    return MarginalVector(lay.marginal_entries(u.counts), lay.blocks())


def marginal_matrix(cx: SimplicialComplex, space: ConfigSpace) -> MarginalMatrix:
    """The matrix whose column at x is the marginal vector of the indicator of x."""
    return layout(cx, space).matrix()


def cylinder(space: ConfigSpace, members: Iterable[int], y: Sequence[int]) -> list[Config]:
    """All configurations that agree with the local configuration y on B."""
    members = sorted(set(members))
    y = tuple(y)
    if len(y) != len(members):
        raise ValueError(f"local config length {len(y)} != |B| = {len(members)}")
    fixed = dict(zip(members, y))
    axes = []
    for i, q in enumerate(space.cardinalities, start=1):
        if i in fixed:
            if not 0 <= fixed[i] < q:
                raise ValueError(f"local config value {fixed[i]} out of range 0..{q - 1}")
            axes.append((fixed[i],))
        else:
            axes.append(tuple(range(q)))
    return list(product(*axes))


def kernel_check(matrix: MarginalMatrix, vec: Sequence[int]) -> bool:
    """True iff the matrix times the integer vector is exactly zero."""
    return all(v == 0 for v in matrix.mul(vec))


def config_str(x: Sequence[int], space: ConfigSpace) -> str:
    """Render a configuration as a digit string (spaced when digits overflow)."""
    if all(q <= 10 for q in space.cardinalities):
        return "".join(str(v) for v in x)
    return " ".join(str(v) for v in x)


def format_matrix(rows: Sequence[Sequence[int]]) -> str:
    """Matrix text format: '<rows> <cols>' then row-major integers."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    lines = [f"{nrows} {ncols}"]
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> list[list[int]]:
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise ValueError("matrix text must start with '<rows> <cols>'")
    try:
        nrows, ncols = int(tokens[0]), int(tokens[1])
        vals = [int(t) for t in tokens[2:]]
    except ValueError:
        raise ValueError("matrix text contains a non-integer token") from None
    if len(vals) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} matrix entries, got {len(vals)}")
    return [vals[r * ncols:(r + 1) * ncols] for r in range(nrows)]


def format_table(u: ContingencyTable) -> str:
    """Table text format: n, then the alphabet sizes, then the counts."""
    return "{}\n{}\n{}\n".format(
        u.space.n,
        " ".join(str(q) for q in u.space.cardinalities),
        " ".join(str(c) for c in u.counts),
    )


def parse_table(text: str) -> ContingencyTable:
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if len(rows) < 3:
        raise ValueError("table text needs three lines: n, cardinalities, entries")
    try:
        n = int(rows[0])
        cards = tuple(int(t) for t in rows[1].split())
        counts = tuple(int(t) for t in rows[2].split())
    except ValueError:
        raise ValueError("table text contains a non-integer token") from None
    if len(cards) != n:
        raise ValueError(f"expected {n} cardinalities, got {len(cards)}")
    return ContingencyTable(ConfigSpace(cards), counts)
