"""Simplicial complexes on the index set {1, ..., n}, stored by their facets.

A complex is identified with the family of subsets of {1, ..., n} contained
in at least one facet (inclusion-maximal face).  Everything here is pure and
immutable; subsets are frozensets at the interface and n-bit masks inside.
Enumerations run in (cardinality, lexicographic) order so that all derived
output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator


def _mask_of(n: int, members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise ValueError(f"element {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _members_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    members = tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
    return len(members), members


def subsets(n: int, k: int | None = None) -> Iterator[frozenset[int]]:
    """All subsets of {1, ..., n} (of size k if given), in (cardinality, lex) order."""
    sizes = range(n + 1) if k is None else [k]
    for size in sizes:
        for combo in combinations(range(1, n + 1), size):
            yield frozenset(combo)


@dataclass(frozen=True)
class SimplicialComplex:
    """Ground set size plus the inclusion-maximal faces, as bit masks."""

    n: int
    facet_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set size must be positive, got {self.n}")

    @property
    def facets(self) -> tuple[frozenset[int], ...]:
        return tuple(_members_of(m) for m in self.facet_masks)

    def is_face(self, members: Iterable[int]) -> bool:
        """True iff the given set is contained in some facet."""
        mask = _mask_of(self.n, members)
        return any(mask & ~f == 0 for f in self.facet_masks)

    def nonfaces(self) -> Iterator[frozenset[int]]:
        """All non-faces, in (cardinality, lex) order."""
        for combo in subsets(self.n):
            if not self.is_face(combo):
                yield combo

    def min_nonface_cardinality(self) -> int:
        """Size of the smallest non-face (0 for the facet-free complex).

        Raises when the complex is the full power set, which has no non-face.
        """
        for combo in self.nonfaces():
            return len(combo)
        raise ValueError("no non-face exists: complex is the full power set")

    def minimal_nonfaces(self) -> tuple[frozenset[int], ...]:
        """All inclusion-minimal non-faces, in (cardinality, lex) order."""
        found: list[frozenset[int]] = []
        for combo in self.nonfaces():
            if not any(g <= combo for g in found):
                found.append(combo)
        if not found:
            raise ValueError("no non-face exists: complex is the full power set")
        return tuple(found)

    def __str__(self) -> str:
        parts = ["{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets]
        return f"complex(n={self.n}, facets=[{', '.join(parts)}])"


def from_facets(n: int, gens: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from generating sets; keeps the inclusion-maximal ones."""
    masks = {_mask_of(n, g) for g in gens}
    maximal = [m for m in masks if not any(m != o and m & ~o == 0 for o in masks)]
    maximal.sort(key=_sort_key)
    return SimplicialComplex(n, tuple(maximal))


def interval_complement(n: int, members: Iterable[int]) -> SimplicialComplex:
    """The complex of all sets not containing the given set G.

    Its facets are N minus one element of G, and G is its unique minimal
    non-face.
    """
    g_mask = _mask_of(n, members)
    if g_mask == 0:
        raise ValueError("G must be nonempty")
    full = (1 << n) - 1
    facets = [full & ~(1 << i) for i in range(n) if g_mask >> i & 1]
    facets.sort(key=_sort_key)
    return SimplicialComplex(n, tuple(facets))


def uniform_complex(n: int, k: int) -> SimplicialComplex:
    """The complex whose facets are all k-subsets of {1, ..., n}."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    facets = sorted((_mask_of(n, c) for c in combinations(range(1, n + 1), k)),
                    key=_sort_key)
    return SimplicialComplex(n, tuple(facets))


def full_simplex(n: int) -> SimplicialComplex:
    return uniform_complex(n, n)


def format_complex(cx: SimplicialComplex) -> str:
    """Complex text format: first line n, one facet per line, 1-based indices."""
    lines = [str(cx.n)]
    for facet in cx.facets:
        if not facet:
            raise ValueError("empty facet is not representable in the text format")
        lines.append(" ".join(str(i) for i in sorted(facet)))
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    rows: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ValueError(f"bad complex line: {raw!r}") from None
    if not rows or len(rows[0]) != 1:
        raise ValueError("complex text must start with a single integer n")
    n = rows[0][0]
    return from_facets(n, rows[1:])
