"""Collapsing maps onto the binary cube and the induced map on tables.

A collapsing sends each variable's alphabet onto {0, 1} surjectively; the
induced map on contingency tables adds up the counts over each preimage.
Collapsing commutes with marginalization, which is what lets statements
about binary models transfer to arbitrary finite alphabets.  The identity is
checked rather than assumed: for each subset B, collapsing the B-marginal of
u by B's maps must give the B-marginal of the collapsed table, entry by
entry over the binary configurations z on B.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import index
from typing import Iterable, Iterator, Sequence

from .characters import Move
from .complexes import SimplicialComplex
from .spaces import (
    Config,
    ConfigSpace,
    ContingencyTable,
    _image_index,
    _local_index,
    binary_space,
    marginal,
    marginal_map,
)


@dataclass(frozen=True)
class Collapsing:
    """Per-variable surjections onto {0, 1}; maps[i][a] is the image of value a."""

    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(tuple(m) for m in self.maps))
        for i, m in enumerate(self.maps, start=1):
            try:
                outside = any(index(v) not in (0, 1) for v in m)
            except TypeError:  # not an integer, so not 0 or 1
                outside = True
            if outside:
                raise ValueError(f"map for variable {i} has values outside {{0,1}}")
            if 0 not in m or 1 not in m:
                raise ValueError(f"map for variable {i} is not surjective onto {{0,1}}")

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def source(self) -> ConfigSpace:
        return ConfigSpace(tuple(len(m) for m in self.maps))

    @property
    def target(self) -> ConfigSpace:
        return binary_space(self.n)


def identity_collapsing(space: ConfigSpace) -> Collapsing:
    """The identity on a binary space."""
    if not space.is_binary:
        raise ValueError("identity collapsing exists only on binary spaces")
    return Collapsing(((0, 1),) * space.n)


def all_collapsings(space: ConfigSpace) -> Iterator[Collapsing]:
    """Every collapsing of the space; there are prod(2^q_i - 2) of them."""
    per_variable = []
    for q in space.cardinalities:
        maps = [m for m in product((0, 1), repeat=q) if 0 in m and 1 in m]
        per_variable.append(maps)
    for choice in product(*per_variable):
        yield Collapsing(tuple(choice))


def collapse_config(c: Collapsing, x: Sequence[int]) -> Config:
    if len(x) != c.n:
        raise ValueError(f"config length {len(x)} != {c.n}")
    return tuple(m[v] for m, v in zip(c.maps, x))


def collapse_table(c: Collapsing, u: ContingencyTable) -> ContingencyTable:
    """Push a table forward: each binary entry collects its whole preimage."""
    if u.space != c.source:
        raise ValueError("table space does not match the collapsing's source")
    target = c.target
    out = [0] * target.size
    for j, cnt in zip(_image_index((2, m) for m in c.maps), u.counts):
        out[j] += cnt
    return ContingencyTable(target, tuple(out))


def collapse_move(c: Collapsing, m: Move) -> Move:
    """The collapsed move: push the positive and negative parts separately.

    The result can be zero when the two pushed parts cancel.
    """
    pos = collapse_table(c, m.positive)
    neg = collapse_table(c, m.negative)
    return Move(c.target, tuple(p - q for p, q in zip(pos.counts, neg.counts)))


def _phi_sides(c: Collapsing, u: ContingencyTable, phi_u: ContingencyTable,
               members: Iterable[int]) -> tuple[ContingencyTable, ContingencyTable]:
    """Both sides of the identity on B, as tables over the binary z on B.

    Left: the B-marginal of u, collapsed by the maps of B's variables.
    Right: the B-marginal of the collapsed table phi_u = collapse_table(c, u).
    """
    members = sorted(set(members))
    u_b = marginal(u, members)  # rejects members outside 1..n before c.maps is read
    c_b = Collapsing(tuple(c.maps[i - 1] for i in members))
    return collapse_table(c_b, u_b), marginal(phi_u, members)


def verify_phi_identity(c: Collapsing, u: ContingencyTable,
                        members: Iterable[int], z: Sequence[int]) -> bool:
    """Check that collapsing commutes with the B-marginal at the binary z.

    The left side marginalizes u onto B and then collapses; the right side
    collapses u and then marginalizes.  Members must lie in 1..n, and z is
    checked as a local configuration on B of the collapsed binary space.
    """
    members = sorted(set(members))
    left, right = _phi_sides(c, u, collapse_table(c, u), members)
    k = _local_index(c.target, members, z)
    return left.counts[k] == right.counts[k]


def collapse_commutes(cx: SimplicialComplex, c: Collapsing,
                      u: ContingencyTable, v: ContingencyTable) -> bool:
    """For u, v with equal marginals, test equality of the collapsed marginals.

    Raises when u and v do not lie in the same fiber to begin with.
    """
    if marginal_map(cx, u) != marginal_map(cx, v):
        raise ValueError("inputs not in same fiber")
    return marginal_map(cx, collapse_table(c, u)) == marginal_map(cx, collapse_table(c, v))


def format_collapsing(c: Collapsing) -> str:
    """Collapsing text format: one line per variable, 'i: a_0 a_1 ... '."""
    lines = [f"{i}: " + " ".join(str(v) for v in m)
             for i, m in enumerate(c.maps, start=1)]
    return "\n".join(lines) + "\n"


def parse_collapsing(text: str) -> Collapsing:
    entries: dict[int, tuple[int, ...]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"bad collapsing line: {raw!r}")
        head, tail = line.split(":", 1)
        try:
            i = int(head)
            vals = tuple(int(t) for t in tail.split())
        except ValueError:
            raise ValueError(f"bad collapsing line: {raw!r}") from None
        if i in entries:
            raise ValueError(f"duplicate collapsing line for variable {i}")
        entries[i] = vals
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("collapsing lines must cover variables 1..n")
    return Collapsing(tuple(entries[i] for i in sorted(entries)))
