import re

import pytest

from margo import (
    ConfigSpace,
    ContingencyTable,
    all_collapsings,
    binary_space,
    character,
    character_cylinder_sum,
    collapse_config,
    cylinder,
    from_facets,
    full_simplex,
    interval_complement,
    interval_move,
    interval_moves,
    is_facial,
    kernel_check,
    marginal,
    marginal_map,
    marginal_matrix,
    point_mixture,
    uniform_complex,
)
from margo.complexes import subsets
from margo.spaces import (
    MarginalLayout,
    MarginalVector,
    config_str,
    format_matrix,
    format_table,
    parse_matrix,
    parse_table,
    sub_space,
    _image_index,
    _interchangeable,
    _local_index,
    _place_weights,
    _restriction,
)

from conftest import (all_complexes, naive_marginal, random_complex, random_table,
                      symmetry_generators)


def test_config_space_basics():
    sp = ConfigSpace((2, 3))
    assert sp.size == 6
    assert not sp.is_binary
    assert list(sp.configs()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert sp.index((1, 2)) == 5
    assert sp.config(5) == (1, 2)
    with pytest.raises(ValueError):
        ConfigSpace((2, 1))
    with pytest.raises(ValueError):
        sp.index((0, 3))


def test_config_str_spaces_out_values_past_nine():
    assert config_str((1, 0, 1), ConfigSpace((2, 10, 2))) == "101"
    assert config_str((1, 10, 0), ConfigSpace((2, 11, 2))) == "1 10 0"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ConfigSpace((2, 3)).index((0,)), "config length 1 != 2",
                 id="index-length"),
    pytest.param(lambda: MarginalVector((1, 1), ((frozenset({1}), 3),)),
                 "block sizes do not match entry count", id="vector-blocks"),
    pytest.param(lambda: MarginalLayout(uniform_complex(3, 2), binary_space(2)),
                 "complex on 3 indices vs space on 2 variables", id="layout-space"),
    pytest.param(lambda: format_matrix([(1, 0), (1,)]), "ragged matrix", id="ragged"),
    pytest.param(lambda: parse_matrix("1 2\n1 x\n"),
                 "matrix text contains a non-integer token", id="matrix-token"),
    pytest.param(lambda: parse_table("2\n2 2\n"),
                 "table text needs three lines: n, cardinalities, entries", id="table-lines"),
    pytest.param(lambda: parse_table("2\n2 two\n1 0 0 1\n"),
                 "table text contains a non-integer token", id="table-token"),
    pytest.param(lambda: parse_table("3\n2 2\n1 0 0 1\n"),
                 "expected 3 cardinalities, got 2", id="table-cardinalities"),
    pytest.param(lambda: ConfigSpace((2.0, 3)), "alphabet sizes must be integers, got 2.0",
                 id="space-float"),
    pytest.param(lambda: ContingencyTable(binary_space(2), (1.0, 0, 0, 1)),
                 "table entries must be integers", id="table-float"),
    pytest.param(lambda: binary_space(2).index((0.5, 1)), "config values must be integers",
                 id="index-float"),
    pytest.param(lambda: binary_space(2).config(5), "config index 5 out of range 0..3",
                 id="config-high"),
    pytest.param(lambda: binary_space(2).config(-1), "config index -1 out of range 0..3",
                 id="config-negative"),
    pytest.param(lambda: binary_space(2).config(2.0), "config indices must be integers",
                 id="config-float"),
    pytest.param(lambda: cylinder(binary_space(3), {1}, (0.5,)),
                 "local config values must be integers", id="cylinder-float"),
    pytest.param(lambda: character_cylinder_sum(3, {1}, {1}, (0.5,)),
                 "local config values must be integers", id="character-sum-float"),
    pytest.param(lambda: is_facial(from_facets(2, [{1}, {2}]), binary_space(2), [(1.5, 0)]),
                 "config values must be integers", id="is-facial-float"),
    pytest.param(lambda: point_mixture(binary_space(2), [(0.5, 1)]),
                 "config values must be integers", id="point-mixture-float"),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_lex_order_has_first_coordinate_most_significant():
    sp = binary_space(3)
    assert [sp.index(x) for x in sp.configs()] == list(range(8))
    assert sp.config(4) == (1, 0, 0)


def test_marginal_examples():
    sp = binary_space(2)
    u = ContingencyTable.indicator(sp, (0, 1))
    assert marginal(u, {1}).counts == (1, 0)

    ones = ContingencyTable(sp, (1, 1, 1, 1))
    assert marginal(ones, {2}).counts == (2, 2)

    # the two halves of the independence binomial share all 1-margins
    diag = ContingencyTable(sp, (1, 0, 0, 1))
    anti = ContingencyTable(sp, (0, 1, 1, 0))
    assert marginal(diag, {1}).counts == (1, 1) == marginal(anti, {1}).counts
    assert marginal(diag, {2}).counts == marginal(anti, {2}).counts

    assert marginal(ones, set()).counts == (4,)


def test_marginal_against_naive(rng):
    for cards in [(2, 2), (2, 3), (3, 3, 2)]:
        sp = ConfigSpace(cards)
        for _ in range(5):
            u = random_table(rng, sp, rng.randint(0, 6))
            for members in [{1}, {2}, set(range(1, len(cards) + 1)), set()]:
                assert marginal(u, members).counts == naive_marginal(u, members)


def test_marginal_map_examples():
    cx = from_facets(2, [{1}, {2}])
    sp = binary_space(2)
    u = ContingencyTable.indicator(sp, (0, 0))
    assert marginal_map(cx, u).entries == (1, 0, 1, 0)

    # facet {1,2} of the full power set reproduces the table itself
    full = full_simplex(2)
    v = ContingencyTable(sp, (3, 1, 4, 1))
    assert marginal_map(full, v).entries == (3, 1, 4, 1)

    assert marginal_map(cx, ContingencyTable.zero(sp)).entries == (0, 0, 0, 0)


def test_marginal_matrix_reproduces_worked_example():
    cx = from_facets(2, [{1}, {2}])
    mat = marginal_matrix(cx, binary_space(2))
    assert mat.rows == (
        (1, 1, 0, 0),
        (0, 0, 1, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
    )
    assert mat.row_labels == (
        (frozenset({1}), (0,)),
        (frozenset({1}), (1,)),
        (frozenset({2}), (0,)),
        (frozenset({2}), (1,)),
    )


def test_marginal_matrix_identity_and_column_sums():
    ident = marginal_matrix(full_simplex(1), binary_space(1))
    assert ident.rows == ((1, 0), (0, 1))

    mat = marginal_matrix(uniform_complex(3, 2), binary_space(3))
    assert mat.nrows == 12 and mat.ncols == 8
    for j in range(8):
        assert sum(mat.column(j)) == 3  # one hit per facet


def test_matrix_columns_are_indicator_marginals(rng):
    for n in (2, 3):
        sp = binary_space(n)
        for _ in range(10):
            cx = random_complex(rng, n)
            mat = marginal_matrix(cx, sp)
            for ix, x in enumerate(sp.configs()):
                col = marginal_map(cx, ContingencyTable.indicator(sp, x)).entries
                assert mat.column(ix) == col


def test_marginal_map_equals_matrix_product(rng):
    for cards in [(2, 2), (2, 2, 2), (3, 2, 3), (2, 2, 2, 2)]:
        sp = ConfigSpace(cards)
        cx = random_complex(rng, len(cards))
        mat = marginal_matrix(cx, sp)
        for _ in range(5):
            u = random_table(rng, sp, rng.randint(0, 8))
            assert marginal_map(cx, u).entries == mat.mul(u.counts)


def test_marginal_vector_blocks_sum_to_degree(rng):
    cx = uniform_complex(3, 2)
    sp = binary_space(3)
    for _ in range(10):
        u = random_table(rng, sp, rng.randint(0, 9))
        mv = marginal_map(cx, u)
        assert mv.is_consistent()
        assert mv.degree == u.degree
        for k in range(len(mv.blocks)):
            assert sum(mv.block(k)) == u.degree


def test_cylinder():
    sp = binary_space(3)
    assert cylinder(sp, {1, 2}, (0, 0)) == [(0, 0, 0), (0, 0, 1)]
    assert cylinder(sp, set(), ()) == list(sp.configs())
    got = cylinder(sp, {3}, (1,))
    assert got == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert len(got) == 2 ** (3 - 1)
    with pytest.raises(ValueError):
        cylinder(sp, {1}, (2,))
    # one member check, shared with the characters and the interval moves
    for bad in (0, 4):
        for call in (lambda: cylinder(sp, [bad], (1,)),
                     lambda: marginal(ContingencyTable.zero(sp), [bad]),
                     lambda: character(3, {1, bad}),
                     lambda: interval_moves(3, [bad]),
                     lambda: character_cylinder_sum(3, [bad], [1], (0,)),
                     lambda: character_cylinder_sum(3, [1], [bad], (0,))):
            with pytest.raises(ValueError, match=f"element {bad} out of range 1..3"):
                call()


@pytest.mark.parametrize("y, message", [
    ((0,), "local config length 1 != |B| = 2"),
    ((0, 1, 1), "local config length 3 != |B| = 2"),
    ((0, 2), "local config value 2 out of range 0..1"),
    ((-1, 0), "local config value -1 out of range 0..1"),
    ((0.5, 0), "local config values must be integers"),
])
def test_bad_local_config_messages(y, message):
    # y on the variables {1, 3} of the binary cube; interval_move takes y on
    # the variables outside G = {2}
    sp = binary_space(3)
    for call in (lambda: cylinder(sp, {1, 3}, y),
                 lambda: interval_move(3, {2}, y),
                 lambda: character_cylinder_sum(3, {1}, {1, 3}, y)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("cards", [(2, 3, 2), (3, 2, 2, 2)])
def test_image_index_matches_the_config_index_rule(cards):
    # the one index map against indexing each image through ConfigSpace.index:
    # restrictions to every B, the empty set included, and every collapsing;
    # and the index rule itself: config inverts index, and the index is the
    # sum of the values times the place weights
    sp = ConfigSpace(cards)
    configs = list(sp.configs())
    weights = _place_weights(sp.cardinalities)
    for x in configs:
        assert sp.config(sp.index(x)) == x
        assert sp.index(x) == sum(v * w for v, w in zip(x, weights))
    for b in subsets(sp.n):
        members = sorted(b)
        sub = sub_space(sp, members)
        assert _restriction(sp, b) == [sub.index(tuple(x[i - 1] for i in members))
                                       for x in configs]
        for y in sub.configs():
            assert _local_index(sp, members, y) == sub.index(y)
    for c in all_collapsings(sp):
        assert _image_index((2, m) for m in c.maps) == [
            c.target.index(collapse_config(c, x)) for x in configs]


def test_cylinders_partition_space():
    sp = ConfigSpace((2, 3, 2))
    for members in [{1}, {2}, {1, 3}, {1, 2, 3}]:
        seen = []
        axes = [range(sp.cardinalities[i - 1]) for i in sorted(members)]
        from itertools import product
        for y in product(*axes):
            seen.extend(cylinder(sp, members, y))
        assert sorted(seen) == sorted(sp.configs())
        assert len(seen) == sp.size


def test_kernel_check():
    cx = from_facets(2, [{1}, {2}])
    mat = marginal_matrix(cx, binary_space(2))
    assert kernel_check(mat, (1, -1, -1, 1))
    assert not kernel_check(mat, (1, 0, 0, 0))
    assert kernel_check(mat, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        kernel_check(mat, (1, 2, 3))


def test_matrix_text_round_trip():
    rows = [(1, 1, 0, 0), (0, 0, 1, 1)]
    text = format_matrix(rows)
    assert text == "2 4\n1 1 0 0\n0 0 1 1\n"
    assert parse_matrix(text) == [list(r) for r in rows]
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 0 0\n")
    with pytest.raises(ValueError):
        parse_matrix("")
    assert parse_matrix("0 0\n") == []
    for header in ("-2 -8", "-1 3", "3 -1"):
        with pytest.raises(ValueError, match="dimensions must be nonnegative"):
            parse_matrix(header + "\n" + " 1" * 16 + "\n")


def test_table_text_round_trip():
    u = ContingencyTable(ConfigSpace((2, 3)), (1, 0, 2, 0, 0, 1))
    text = format_table(u)
    assert text == "2\n2 3\n1 0 2 0 0 1\n"
    assert parse_table(text) == u
    with pytest.raises(ValueError):
        parse_table("2\n2 3\n1 0\n")


def test_table_validation():
    # the constructor and parse_table check the length and the signs, and
    # parse_table that nothing follows the counts
    sp = binary_space(2)
    with pytest.raises(ValueError, match="^table entries must be nonnegative$"):
        ContingencyTable(sp, (1, -1, 0, 0))
    with pytest.raises(ValueError, match="^expected 4 entries, got 3$"):
        ContingencyTable(sp, (1, 0, 0))
    with pytest.raises(ValueError, match="^table entries must be nonnegative$"):
        parse_table("2\n2 2\n1 -1 0 0\n")
    with pytest.raises(ValueError, match="^expected 4 entries, got 5$"):
        parse_table("2\n2 2\n1 0 0 0 0\n")
    with pytest.raises(ValueError, match="^table text has lines after the entries$"):
        parse_table("2\n2 2\n1 0 0 1\n5 5 5 5\n")


def test_symmetry_generators_fix_the_marginal_matrix():
    # permuting the columns by a generator must give the same rows, reordered;
    # and two variables share a class exactly when their alphabets agree and
    # swapping them does the same
    cases = [(cx, ConfigSpace(sizes)) for cx in all_complexes(3)
             for sizes in [(2, 2, 2), (3, 3, 2), (2, 3, 2)]]
    cases += [(interval_complement(4, {1, 2}), ConfigSpace((2, 2, 3, 3))),
              (uniform_complex(4, 2), ConfigSpace((3, 3, 3, 3))),
              (from_facets(4, [{1, 3}, {2, 4}]), binary_space(4))]
    for cx, space in cases:
        rows = marginal_matrix(cx, space).rows

        def fixes(g):
            moved = sorted(tuple(row[g[j]] for j in range(space.size)) for row in rows)
            return moved == sorted(rows)

        for g in symmetry_generators(cx, space):
            assert sorted(g) == list(range(space.size))
            assert fixes(g), (cx, space, g)
        classes = _interchangeable(cx, space)
        assert sorted(v for c in classes for v in c) == list(range(space.n))
        assert all(list(c) == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        configs = list(space.configs())
        for i in range(space.n):
            for j in range(i + 1, space.n):
                together = any(i in c and j in c for c in classes)
                q = space.cardinalities
                if q[i] != q[j]:
                    assert not together, (cx, space, i, j)
                    continue
                swapped = [x[:i] + (x[j],) + x[i + 1:j] + (x[i],) + x[j + 1:] for x in configs]
                assert together == fixes([space.index(x) for x in swapped]), (cx, space, i, j)


def test_symmetry_generators_keep_unlike_variables_apart():
    # variable 3 has a smaller alphabet on 3x3x2, and on 2x2x2 the facets
    # {1,2},{3} set it apart: no generator may move it, while (1 2) is one
    for cx, space in [(uniform_complex(3, 2), ConfigSpace((3, 3, 2))),
                      (from_facets(3, [{1, 2}, {3}]), binary_space(3))]:
        gens = symmetry_generators(cx, space)
        for g in gens:
            third = {}
            for ix, x in enumerate(space.configs()):
                third.setdefault(x[2], set()).add(space.config(g[ix])[2])
            assert all(len(images) == 1 for images in third.values()), g
        assert any(g[space.index((1, 0, 0))] == space.index((0, 1, 0)) for g in gens)
