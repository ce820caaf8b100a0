import pytest

from margo import (SimplicialComplex, from_facets, full_simplex, interval_complement,
                   uniform_complex)
from margo.complexes import format_complex, parse_complex, subsets

from conftest import random_complex


def test_from_facets_keeps_maximal_sets():
    cx = from_facets(2, [{1}, {2}])
    assert cx.facets == (frozenset({1}), frozenset({2}))

    cx = from_facets(3, [{1, 2}, {1}, {2, 3}])
    assert set(cx.facets) == {frozenset({1, 2}), frozenset({2, 3})}

    cx = from_facets(3, [])
    assert cx.facets == ()
    assert all(not cx.is_face(b) for b in subsets(3) if b)


def test_from_facets_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_facets(2, [{1, 3}])
    with pytest.raises(ValueError, match="element 0"):
        from_facets(2, [{0}])


def test_ground_set_must_be_positive():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^ground set size must be positive, got {n}$"):
            SimplicialComplex(n, ())


def test_from_facets_deduplicates():
    cx = from_facets(3, [{1, 2}, {2, 1}, {1, 2}])
    assert cx.facets == (frozenset({1, 2}),)


def test_is_face():
    cx = from_facets(2, [{1}, {2}])
    assert not cx.is_face({1, 2})
    assert cx.is_face(set())
    assert cx.is_face({1})

    # in the complement-of-interval complex, faces are the sets not containing G
    cx = interval_complement(3, {2, 3})
    assert cx.is_face({1, 3})
    assert not cx.is_face({2, 3})
    assert not cx.is_face({1, 2, 3})


def test_min_nonface_cardinality():
    assert from_facets(2, [{1}, {2}]).min_nonface_cardinality() == 2
    assert uniform_complex(3, 2).min_nonface_cardinality() == 3
    assert from_facets(3, [{1, 2}]).min_nonface_cardinality() == 1
    with pytest.raises(ValueError, match="no non-face"):
        full_simplex(3).min_nonface_cardinality()


def test_minimal_nonfaces():
    assert from_facets(2, [{1}, {2}]).minimal_nonfaces() == (frozenset({1, 2}),)
    assert interval_complement(4, {3, 4}).minimal_nonfaces() == (frozenset({3, 4}),)
    assert set(uniform_complex(4, 2).minimal_nonfaces()) == {
        frozenset(c) for c in [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    }


def test_interval_complement():
    cx = interval_complement(3, {1, 2, 3})
    assert set(cx.facets) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    assert interval_complement(3, {3}).facets == (frozenset({1, 2}),)
    assert set(interval_complement(4, {3, 4}).facets) == {
        frozenset({1, 2, 4}), frozenset({1, 2, 3})
    }
    with pytest.raises(ValueError, match="nonempty"):
        interval_complement(3, set())


def test_uniform_complex():
    cx = uniform_complex(3, 2)
    assert cx.facets == (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
    assert str(cx) == "complex(n=3, facets=[{1,2}, {1,3}, {2,3}])"
    assert full_simplex(3).facets == (frozenset({1, 2, 3}),)
    assert uniform_complex(4, 1).facets == tuple(frozenset({i}) for i in range(1, 5))
    with pytest.raises(ValueError):
        uniform_complex(3, 4)


def test_faces_and_nonfaces_partition_power_set(rng):
    for n in range(1, 6):
        for _ in range(10):
            cx = random_complex(rng, n)
            nonfaces = set(cx.nonfaces())
            for b in subsets(n):
                assert cx.is_face(b) == (b not in nonfaces)


def test_min_cardinality_matches_minimal_nonfaces(rng):
    for n in range(2, 5):
        for _ in range(20):
            cx = random_complex(rng, n)
            try:
                g = cx.min_nonface_cardinality()
            except ValueError:
                with pytest.raises(ValueError):
                    cx.minimal_nonfaces()
                continue
            assert g == min(len(b) for b in cx.minimal_nonfaces())


def test_interval_complement_has_unique_minimal_nonface():
    for n in range(1, 5):
        for g in subsets(n):
            if not g:
                continue
            cx = interval_complement(n, g)
            assert cx.minimal_nonfaces() == (g,)
            assert cx.min_nonface_cardinality() == len(g)


def test_uniform_minimal_nonfaces_are_next_size_up():
    for n in range(1, 5):
        for k in range(n):
            cx = uniform_complex(n, k)
            assert set(cx.minimal_nonfaces()) == set(subsets(n, k + 1))


def test_enumeration_order_is_cardinality_then_lex():
    listed = list(subsets(3))
    assert listed == [frozenset(s) for s in
                      [(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]]
    cx = from_facets(4, [{2, 3}, {1, 4}, {1}])
    assert cx.facets == (frozenset({1, 4}), frozenset({2, 3}))


def test_text_format_round_trip():
    cx = interval_complement(4, {3, 4})
    text = format_complex(cx)
    assert text == "4\n1 2 3\n1 2 4\n"
    assert parse_complex(text) == cx

    parsed = parse_complex("# comment\n3\n1 2  # facet\n\n2 3\n")
    assert parsed == from_facets(3, [{1, 2}, {2, 3}])


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("2 3\n1\n")
    with pytest.raises(ValueError, match="bad complex line"):
        parse_complex("2\n1 x\n")
    with pytest.raises(ValueError, match="empty facet"):
        format_complex(uniform_complex(2, 0))
