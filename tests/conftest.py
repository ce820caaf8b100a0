"""Shared brute-force oracles, independent of the library's search paths."""

from __future__ import annotations

import random
from itertools import chain, combinations, product

import pytest

from margo import (
    ConfigSpace,
    ContingencyTable,
    NeighborlinessReport,
    from_facets,
    is_facial,
    marginal_map,
)


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
