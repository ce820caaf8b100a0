"""Configuration spaces, contingency tables, marginals, and the marginal matrix.

Configurations are tuples (x_1, ..., x_n) with 0 <= x_i < q_i, enumerated in
lexicographic order with coordinate 1 most significant.  That single order is
used everywhere: table entries, matrix columns, and marginal blocks, so that
matrices and certificates are bit-reproducible.  All arithmetic is plain
Python integer arithmetic and therefore exact.

The lex index of x is sum x_i * w_i, where the place weight w_i of
variable i is the product of the later alphabet sizes.  The weights come
from `_place_weights` alone; `fiber._walk`, `polytope._orbit_least`,
`characters.character` and the cylinder cells of the interval moves read
them.  A configuration from the caller is indexed by one checked routine,
`_lex_index`, behind `ConfigSpace.index` and `_local_index` (a local
configuration y on B, for `cylinder`, `interval_move`, `interval_move_sum`,
`character_cylinder_sum` and `collapse.verify_phi_identity`); it rejects a
wrong length and a value that is out of range or not an integer.
`ConfigSpace.config` inverts the rule and rejects an index out of range or
not an integer.

One index map sends configurations to their images under a product map:
`_image_index` gives, for every configuration index, the lex index of the
image.  Restricting x to x_B (`_restriction`) is one use, read by the
marginal blocks, `marginal`, `cylinder`, the cone split and
`character_cylinder_sum`.  Collapsing each alphabet onto {0, 1} is
another, and the base index of every cylinder of the interval moves a
third.  The indices it builds need no range check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import and_, index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complexes import SimplicialComplex, _mask_of, from_facets

Config = tuple[int, ...]


@dataclass(frozen=True)
class ConfigSpace:
    """Product of finite alphabets {0, ..., q_i - 1}, one per variable."""

    cardinalities: tuple[int, ...]

    def __post_init__(self) -> None:
        cards = []
        for q in self.cardinalities:
            try:
                cards.append(index(q))
            except TypeError:
                raise ValueError(f"alphabet sizes must be integers, got {q}") from None
            if q < 2:
                raise ValueError(f"alphabet sizes must be >= 2, got {q}")
        object.__setattr__(self, "cardinalities", tuple(cards))

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
        return _lex_index(self.cardinalities, x)

    def config(self, ix: int) -> Config:
        rest, out = ix, []
        for q in reversed(self.cardinalities):
            rest, r = divmod(rest, q)
            out.append(r)
        if rest or rest.__class__ is not int:  # ix is out of range or not an int
            _integers((ix,), "config indices")
            if not 0 <= ix < self.size:
                raise ValueError(f"config index {ix} out of range 0..{self.size - 1}")
        out.reverse()
        return tuple(out)


def _lex_index(cards: Sequence[int], x: Sequence[int], what: str = "config",
               of: str = "") -> int:
    """The lex index of x among the configurations on alphabets of sizes
    `cards`, checked: x must have one integer value in 0..q-1 per alphabet.

    The error messages name x as `what`, and the expected length as `of`
    followed by the number of alphabets.
    """
    if len(x) != len(cards):
        raise ValueError(f"{what} length {len(x)} != {of}{len(cards)}")
    ix = 0
    for xi, q in zip(x, cards):
        if not 0 <= xi < q:
            raise ValueError(f"{what} value {xi} out of range 0..{q - 1}")
        ix = ix * q + xi
    if ix.__class__ is not int:  # some value is not an int
        _integers(x, f"{what} values")
        ix = index(ix)
    return ix


@lru_cache(maxsize=None)
def _place_weights(cards: tuple[int, ...]) -> tuple[int, ...]:
    """The place weight of each variable in the lex index: the product of the
    later alphabet sizes, so the index of x is sum x_i * w_i.  Cached per
    tuple of alphabet sizes."""
    return tuple(prod(cards[i + 1:]) for i in range(len(cards)))


@lru_cache(maxsize=None)
def binary_space(n: int) -> ConfigSpace:
    return ConfigSpace((2,) * n)


def sub_space(space: ConfigSpace, members: Iterable[int]) -> ConfigSpace:
    """The space X_B of local configurations on B (variables in increasing order)."""
    return ConfigSpace(tuple(space.cardinalities[i - 1] for i in sorted(members)))


def _image_index(axes: Iterable[tuple[int, Sequence[int]]]) -> list[int]:
    """For every configuration index, in lex order, the index of its image.

    `axes` gives, for each variable in order, the size q of its image
    alphabet and the image of each of its values; the image is indexed by
    the same lex rule, so a size of 1 (every image 0) drops the variable.
    """
    out = [0]
    for q, image in axes:
        out = [ix * q + v for ix in out for v in image]
    return out


def _restriction(space: ConfigSpace, members: Iterable[int]) -> list[int]:
    """For every configuration index, the index of its restriction x_B in X_B."""
    keep = set(members)
    return _image_index((q, range(q)) if i in keep else (1, (0,) * q)
                        for i, q in enumerate(space.cardinalities, start=1))


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints, checked by `operator.index`; a ValueError names
    what they are when one is not an integer (a float included)."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _local_index(space: ConfigSpace, members: Sequence[int], y: Sequence[int],
                 of: str = "|B| = ") -> int:
    """The index in X_B of the local configuration y on B (B sorted), checked;
    a wrong length names the expected one as `of` and |B|."""
    cards = space.cardinalities
    return _lex_index([cards[i - 1] for i in members], tuple(y), "local config", of)


@dataclass(frozen=True, slots=True)
class ContingencyTable:
    """Nonnegative integer counts, indexed by configurations in lex order.

    Every public construction checks the counts: one integer entry per
    configuration, none negative.  That covers the constructor, `zero`,
    `indicator`, `dataclasses.replace`, `parse_table` and `marginal`.  Only
    `enumerate_fiber` skips the checks, through `_trusted_tables`, for the
    tables its own walk produced.  The fields are slots, so a table, of
    which a fiber holds thousands, carries no instance dict.
    """

    space: ConfigSpace
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _integers(self.counts, "table entries"))
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


def _trusted_tables(space: ConfigSpace, rows: Iterable[tuple[int, ...]]
                    ) -> tuple[ContingencyTable, ...]:
    """Tables on the space from count tuples known to pass its checks.

    Each row must already be a tuple of space.size nonnegative ints, as the
    fiber walk's are; the tables then equal, hash and repr like publicly
    built ones.  Only `enumerate_fiber` calls this.
    """
    new, set_ = object.__new__, object.__setattr__
    out = []
    for counts in rows:
        table = new(ContingencyTable)
        set_(table, "space", space)
        set_(table, "counts", counts)
        out.append(table)
    return tuple(out)


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
        hits = [[off + j for j in _restriction(space, members)]
                for members, off in zip(self.facet_members, self.offsets)]
        self.rows_of: list[tuple[int, ...]] = list(zip(*hits)) if hits else [()] * space.size

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
        row_labels = tuple((frozenset(members), y)
                           for members, bs in zip(self.facet_members, self.block_spaces)
                           for y in bs.configs())
        return MarginalMatrix(tuple(tuple(r) for r in rows),
                              row_labels, tuple(self.space.configs()))


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
    for ix, (s, j) in enumerate(zip(_restriction(space, cone), _restriction(space, rest))):
        position[ix] = s * part.space.size + j
        cells[s][j] = ix
        for f, r in enumerate(part.rows_of[j]):
            rows[s][r] = lay.rows_of[ix][facet_of[f]]
    return _ConeSplit(part, tuple(map(tuple, rows)), itemgetter(*position),
                      tuple(map(tuple, cells)))


def _interchangeable(cx: SimplicialComplex, space: ConfigSpace) -> tuple[tuple[int, ...], ...]:
    """The classes of interchangeable variables (0-based), each in increasing order.

    Variables i and j are interchangeable when q_i = q_j and swapping them
    maps the facet set onto itself.  The relation is an equivalence: if (i j)
    and (j k) fix the facets, so does (i k) = (i j)(j k)(i j).  Classes are
    ordered by their least variable; every variable is in one.
    """
    if cx.n != space.n:
        raise ValueError(f"complex on {cx.n} indices vs space on {space.n} variables")
    q = space.cardinalities
    facets = set(cx.facets)
    classes: list[list[int]] = []
    for j in range(space.n):
        for members in classes:
            r = members[0]
            swap = {r + 1: j + 1, j + 1: r + 1}
            if q[r] == q[j] and {frozenset(swap.get(v, v) for v in f)
                                 for f in facets} == facets:
                members.append(j)
                break
        else:
            classes.append([j])
    return tuple(map(tuple, classes))


def _members(space: ConfigSpace, members: Iterable[int]) -> list[int]:
    """B as a sorted list, checked to lie in 1..n."""
    members = sorted(set(members))
    _mask_of(space.n, members)  # raises for an element outside 1..n
    return members


def marginal(u: ContingencyTable, members: Iterable[int]) -> ContingencyTable:
    """The B-marginal of u: sums over the cylinders {X_B = x_B}."""
    members = _members(u.space, members)
    sub = sub_space(u.space, members)
    out = [0] * sub.size
    for j, c in zip(_restriction(u.space, members), u.counts):
        out[j] += c
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
    members = _members(space, members)
    k = _local_index(space, members, y)
    return [x for x, j in zip(space.configs(), _restriction(space, members)) if j == k]


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
    if nrows < 0 or ncols < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {nrows} {ncols}")
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
    if len(rows) > 3:
        raise ValueError("table text has lines after the entries")
    return ContingencyTable(ConfigSpace(cards), counts)
