"""The sign-character basis of the binary cube and the interval Markov moves.

For B a subset of {1, ..., n}, the character vector assigns to each binary
configuration x the sign (-1)^(number of ones x has inside B).  The
characters indexed by non-faces of a complex span the kernel of its marginal
map; summing the characters over an upper interval [G, N] with alternating
signs produces a kernel vector supported on a single cylinder, which after
dividing out the constant 2^(n-|G|) is the primitive interval move acting on
tables by unit steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, _mask_of, subsets
from .spaces import (
    Config,
    ConfigSpace,
    ContingencyTable,
    _image_index,
    _integers,
    _local_index,
    _place_weights,
    _restriction,
    binary_space,
    layout,
)


def _validate_members(n: int, members: Iterable[int]) -> frozenset[int]:
    out = frozenset(members)
    _mask_of(n, out)  # raises for an element outside 1..n
    return out


@dataclass(frozen=True)
class CharacterVector:
    """A +/-1 vector over the binary cube, determined by a sign set B."""

    n: int
    members: frozenset[int]
    values: tuple[int, ...]

    def __getitem__(self, x: Sequence[int]) -> int:
        return self.values[binary_space(self.n).index(x)]


@dataclass(frozen=True)
class Move:
    """A signed integer vector on a configuration space, m = m+ - m-."""

    space: ConfigSpace
    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", _integers(self.vector, "move entries"))
        if len(self.vector) != self.space.size:
            raise ValueError(f"expected {self.space.size} entries, got {len(self.vector)}")

    @property
    def positive(self) -> ContingencyTable:
        return ContingencyTable(self.space, tuple(max(v, 0) for v in self.vector))

    @property
    def negative(self) -> ContingencyTable:
        return ContingencyTable(self.space, tuple(max(-v, 0) for v in self.vector))

    @property
    def degree(self) -> int:
        return sum(v for v in self.vector if v > 0)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.vector)


def move_supports(m: Move) -> tuple[tuple[Config, ...], tuple[Config, ...], int]:
    """Positive support, negative support, and the degree of the positive part."""
    pos = tuple(x for x, v in zip(m.space.configs(), m.vector) if v > 0)
    neg = tuple(x for x, v in zip(m.space.configs(), m.vector) if v < 0)
    return pos, neg, m.degree


def character(n: int, members: Iterable[int]) -> CharacterVector:
    """The character vector of B on the binary cube of dimension n."""
    b = _validate_members(n, members)
    weights = _place_weights((2,) * n)
    mask = sum(weights[i - 1] for i in b)  # the bits of B's variables in the index
    values = tuple(-1 if (ix & mask).bit_count() & 1 else 1 for ix in range(1 << n))
    return CharacterVector(n, b, values)


def kernel_basis(cx: SimplicialComplex) -> tuple[CharacterVector, ...]:
    """Characters of the non-faces: a basis of the marginal-map kernel.

    Each returned vector is checked against the marginal matrix; the check
    is a safeguard, the membership holds for every non-face.
    """
    space = binary_space(cx.n)
    lay = layout(cx, space)
    basis = []
    for b in cx.nonfaces():
        e = character(cx.n, b)
        if any(v != 0 for v in lay.marginal_entries(e.values)):
            raise AssertionError(f"character of non-face {sorted(b)} not in kernel")
        basis.append(e)
    return tuple(basis)


def _local_sign_count(members: frozenset[int], outside: Sequence[int],
                      y: Sequence[int]) -> int:
    """Number of ones the local configuration y (on `outside`) has inside B."""
    return sum(1 for i, yi in zip(outside, y) if yi == 1 and i in members)


def interval_move_sum(n: int, members: Iterable[int], y: Sequence[int]) -> tuple[int, ...]:
    """The literal alternating character sum over the interval [G, N].

    Evaluates sum over B in [G, N] of (-1)^(ones of y inside B) times the
    character of B; equals 2^(n-|G|) times the sign of x on G on the cylinder
    where x agrees with y outside G, and 0 elsewhere.
    """
    space, g, outside, _ = _interval_parts(n, members)
    y = tuple(y)
    _local_index(space, outside, y, "|N\\G| = ")  # checks y
    total = [0] * (1 << n)
    for extra in subsets(len(outside)):
        b = g | frozenset(outside[j - 1] for j in extra)
        sign = -1 if _local_sign_count(b, outside, y) & 1 else 1
        for ix, v in enumerate(character(n, b).values):
            total[ix] += sign * v
    return tuple(total)


def interval_move(n: int, members: Iterable[int], y: Sequence[int]) -> Move:
    """The primitive interval move: the character sum with 2^(n-|G|) divided out.

    Entries are the sign of x on G inside the cylinder {x agrees with y
    outside G} and 0 elsewhere; both supports have 2^(|G|-1) elements.  Only
    the cylinder is visited: the base index of y, plus the signed offsets of
    G's variables (`_cylinder_move`).
    """
    space, _, outside, cells = _interval_parts(n, members)
    y = tuple(y)
    _local_index(space, outside, y)  # checks y
    weights = _place_weights(space.cardinalities)
    return _cylinder_move(space, cells, sum(v * weights[i - 1] for i, v in zip(outside, y)))


def interval_moves(n: int, members: Iterable[int]) -> tuple[Move, ...]:
    """All interval moves of G, one per local configuration outside G.

    G is checked once, and the base index of each y, in lex order, is the
    index of the configuration that is y outside G and 0 on G.
    """
    space, g, _, cells = _interval_parts(n, members)
    bases = _image_index((2, (0,) if i in g else (0, 1)) for i in range(1, n + 1))
    return tuple(_cylinder_move(space, cells, base) for base in bases)


def _interval_parts(n: int, members: Iterable[int]) -> tuple[
        ConfigSpace, frozenset[int], tuple[int, ...], list[tuple[int, int]]]:
    """The cube, G checked, the variables outside G, and the cylinder cells
    of G: the offset and the sign of each setting of G's variables."""
    g = _validate_members(n, members)
    if not g:
        raise ValueError("G must be nonempty")
    space = binary_space(n)
    weights = _place_weights(space.cardinalities)
    cells = [(0, 1)]
    for i in g:
        cells += [(ix + weights[i - 1], -s) for ix, s in cells]
    return space, g, tuple(sorted(set(range(1, n + 1)) - g)), cells


def _cylinder_move(space: ConfigSpace, cells: Sequence[tuple[int, int]], base: int) -> Move:
    """The move with sign s at base + offset for each cylinder cell (offset, s)."""
    vec = [0] * space.size
    for ix, s in cells:
        vec[base + ix] = s
    return Move(space, tuple(vec))


def character_cylinder_sum(n: int, members: Iterable[int], on: Iterable[int],
                           y: Sequence[int]) -> int:
    """Sum of the character of B over the cylinder {X_C = y_C}, by summation.

    The closed form is 2^(n-|C|) times the character value at y when B is
    contained in C, and 0 otherwise; this function computes the sum directly
    so the identity stays independently checkable.
    """
    b = _validate_members(n, members)
    c = sorted(_validate_members(n, on))
    space = binary_space(n)
    k = _local_index(space, c, y)
    return sum(v for v, j in zip(character(n, b).values, _restriction(space, c)) if j == k)
