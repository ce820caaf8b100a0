import re
from itertools import product
from math import prod

import pytest

from margo import (
    Collapsing,
    ConfigSpace,
    ContingencyTable,
    Move,
    all_collapsings,
    binary_space,
    collapse_commutes,
    collapse_config,
    collapse_move,
    collapse_table,
    enumerate_fiber,
    identity_collapsing,
    kernel_check,
    marginal_map,
    marginal_matrix,
    min_binomial_degree,
    move_supports,
    uniform_complex,
    verify_phi_identity,
)
from margo.collapse import _phi_sides, format_collapsing, parse_collapsing

from conftest import all_complexes, naive_phi_identity, naive_phi_sums, random_table

TERNARY_PAIR = ConfigSpace((3, 3))
PHI_SQUASH = Collapsing(((0, 1, 1), (0, 1, 1)))


def test_collapsing_validation():
    with pytest.raises(ValueError, match="not surjective"):
        Collapsing(((0, 0),))
    with pytest.raises(ValueError, match="outside"):
        Collapsing(((0, 2),))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: identity_collapsing(ConfigSpace((2, 3))),
                 "identity collapsing exists only on binary spaces", id="identity-binary"),
    pytest.param(lambda: collapse_config(PHI_SQUASH, (0, 1, 2)), "config length 3 != 2",
                 id="config-length"),
    pytest.param(lambda: parse_collapsing("1: 0 1\n2 0 1\n"), "bad collapsing line: '2 0 1'",
                 id="no-colon"),
    pytest.param(lambda: parse_collapsing("1: 0 1\n1: 1 0\n"),
                 "duplicate collapsing line for variable 1", id="duplicate"),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_collapse_config():
    ident = identity_collapsing(binary_space(2))
    for x in binary_space(2).configs():
        assert collapse_config(ident, x) == x

    assert collapse_config(PHI_SQUASH, (2, 0)) == (1, 0)
    assert collapse_config(PHI_SQUASH, (0, 0)) == (0, 0)


def test_collapse_table_examples():
    u = ContingencyTable.indicator(TERNARY_PAIR, (2, 0))
    out = collapse_table(PHI_SQUASH, u)
    assert out == ContingencyTable.indicator(binary_space(2), (1, 0))

    zero = ContingencyTable.zero(TERNARY_PAIR)
    assert collapse_table(PHI_SQUASH, zero).counts == (0, 0, 0, 0)

    one_var = Collapsing(((0, 1, 1),))
    u = ContingencyTable(ConfigSpace((3,)), (1, 1, 1))
    assert collapse_table(one_var, u).counts == (1, 2)

    with pytest.raises(ValueError, match="source"):
        collapse_table(PHI_SQUASH, ContingencyTable.zero(binary_space(2)))


def test_collapse_preserves_degree_and_is_linear(rng):
    spaces = [ConfigSpace((3, 2)), ConfigSpace((3, 3, 2))]
    for sp in spaces:
        for c in list(all_collapsings(sp))[:8]:
            for _ in range(5):
                u = random_table(rng, sp, rng.randint(0, 6))
                v = random_table(rng, sp, rng.randint(0, 6))
                assert collapse_table(c, u).degree == u.degree
                w = ContingencyTable(sp, tuple(a + b for a, b in zip(u.counts, v.counts)))
                summed = tuple(a + b for a, b in zip(collapse_table(c, u).counts,
                                                     collapse_table(c, v).counts))
                assert collapse_table(c, w).counts == summed


def test_all_collapsings_count():
    for cards in [(2,), (3,), (2, 3), (3, 3)]:
        sp = ConfigSpace(cards)
        expected = prod(2 ** q - 2 for q in cards)
        got = list(all_collapsings(sp))
        assert len(got) == expected
        assert len(set(got)) == expected


def test_phi_identity_exhaustive_small(rng):
    # every (collapsing, table, B, z) on small mixed spaces, against the
    # cylinder-sum oracle; the sides are compared too, since the identity
    # itself holds everywhere
    for cards in [(2, 3), (3, 3), (3, 2, 2)]:
        sp = ConfigSpace(cards)
        tables = [ContingencyTable.indicator(sp, x) for x in sp.configs()]
        tables.append(ContingencyTable(sp, tuple(range(sp.size))))
        tables.extend(random_table(rng, sp, rng.randint(1, 8)) for _ in range(3))
        for c in all_collapsings(sp):
            for u in tables:
                phi_u = collapse_table(c, u)
                for members in _all_subsets(sp.n):
                    left, right = _phi_sides(c, u, phi_u, members)
                    for z in product((0, 1), repeat=len(members)):
                        assert (left[z], right[z]) == naive_phi_sums(c, u, members, z)
                        assert verify_phi_identity(c, u, members, z) is \
                            naive_phi_identity(c, u, members, z)


def test_phi_identity_rejects_bad_input():
    sp = ConfigSpace((3, 2))
    c = Collapsing(((0, 1, 1), (0, 1)))
    u = ContingencyTable(sp, tuple(range(sp.size)))
    for bad in (0, 3):
        with pytest.raises(ValueError, match=f"element {bad} out of range 1..2"):
            verify_phi_identity(c, u, {bad}, (1,))
        with pytest.raises(ValueError, match=f"element {bad} out of range 1..2"):
            verify_phi_identity(c, u, {1, bad}, (0, 1))
    with pytest.raises(ValueError, match=r"local config length 1 != \|B\| = 2"):
        verify_phi_identity(c, u, {1, 2}, (0,))
    with pytest.raises(ValueError, match="source"):
        verify_phi_identity(c, ContingencyTable.zero(binary_space(2)), {1}, (0,))
    with pytest.raises(ValueError):
        verify_phi_identity(c, u, {1}, (2,))
    with pytest.raises(ValueError):
        verify_phi_identity(c, u, {2}, (-1,))


def test_phi_identity_trivial_edges(rng):
    sp = ConfigSpace((3, 2, 3))
    u = random_table(rng, sp, 7)
    c = next(all_collapsings(sp))
    # B empty: both sides are the total count
    assert verify_phi_identity(c, u, set(), ())
    # B = N: cylinders are singletons on both sides
    for z in product((0, 1), repeat=3):
        assert verify_phi_identity(c, u, {1, 2, 3}, z)


def test_collapse_commutes(rng):
    cx = uniform_complex(2, 1)
    sp = TERNARY_PAIR
    u = random_table(rng, sp, 5)
    assert collapse_commutes(cx, PHI_SQUASH, u, u)

    with pytest.raises(ValueError, match="not in same fiber"):
        v = ContingencyTable.indicator(sp, (0, 0))
        w = ContingencyTable.indicator(sp, (2, 2))
        collapse_commutes(cx, PHI_SQUASH, v, w)


def test_collapse_commutes_on_ternary_no_three_way_pair():
    cx = uniform_complex(3, 2)
    sp = ConfigSpace((3, 3, 3))
    degree, move = min_binomial_degree(cx, sp, 4)
    assert degree == 4
    u, v = move.positive, move.negative
    assert marginal_map(cx, u) == marginal_map(cx, v)
    for c in list(all_collapsings(sp))[::17]:
        assert collapse_commutes(cx, c, u, v)


def test_collapse_commutes_bijective_binary(rng):
    cx = uniform_complex(2, 1)
    sp = binary_space(2)
    u = ContingencyTable(sp, (1, 0, 0, 1))
    v = ContingencyTable(sp, (0, 1, 1, 0))
    flip = Collapsing(((1, 0), (0, 1)))
    assert collapse_commutes(cx, flip, u, v)


def test_collapse_move_identity_and_degree():
    sp = binary_space(2)
    m = Move(sp, (1, -1, -1, 1))
    ident = identity_collapsing(sp)
    assert collapse_move(ident, m).vector == m.vector


def test_collapse_move_can_cancel():
    sp = ConfigSpace((3,))
    # +1 at value 0, -1 at value 1; a map sending both to 0 cancels them
    m = Move(sp, (1, -1, 0))
    c = Collapsing(((0, 0, 1),))
    assert collapse_move(c, m).is_zero()
    # a map separating them keeps a degree-1 move
    c2 = Collapsing(((0, 1, 1),))
    assert collapse_move(c2, m).vector == (1, -1)


def test_collapse_move_maps_kernel_to_kernel():
    cx = uniform_complex(2, 1)
    src = ConfigSpace((3, 2))
    binary_mat = marginal_matrix(cx, binary_space(2))
    src_mat = marginal_matrix(cx, src)
    kernel_moves = []
    found = min_binomial_degree(cx, src, 2)
    assert found is not None
    kernel_moves.append(found[1])
    for mv in kernel_moves:
        assert kernel_check(src_mat, mv.vector)
        for c in all_collapsings(src):
            out = collapse_move(c, mv)
            assert kernel_check(binary_mat, out.vector)


def test_support_preserving_collapse_of_ternary_witness():
    # the minimal ternary witness only uses values 0 and 1, so a collapsing
    # fixing those is injective on its support and yields a nonzero binary
    # kernel binomial of the same degree
    cx = uniform_complex(3, 2)
    sp = ConfigSpace((3, 3, 3))
    k, move = min_binomial_degree(cx, sp, 4)
    pos, neg, _ = move_supports(move)
    assert all(v <= 1 for x in pos + neg for v in x)
    for third in (0, 1):
        c = Collapsing(((0, 1, third),) * 3)
        out = collapse_move(c, move)
        assert not out.is_zero()
        assert out.degree == k
        assert kernel_check(marginal_matrix(cx, binary_space(3)), out.vector)


def test_collapse_move_support_monotonicity():
    cx = uniform_complex(3, 2)
    sp = ConfigSpace((3, 3, 3))
    _, move = min_binomial_degree(cx, sp, 4)
    pos, neg, _ = move_supports(move)
    for c in list(all_collapsings(sp))[::23]:
        out = collapse_move(c, move)
        opos, oneg, _ = move_supports(out)
        assert len(opos) <= len(pos)
        assert len(oneg) <= len(neg)


def test_collapsed_fiber_pairs_stay_fiber_pairs(rng):
    # the computational content of the commutation lemma, on random fibers
    cx = uniform_complex(2, 1)
    sp = ConfigSpace((3, 3))
    for _ in range(10):
        u = random_table(rng, sp, rng.randint(1, 4))
        fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
        v = fib.tables[rng.randrange(fib.size)]
        for c in list(all_collapsings(sp))[::7]:
            assert collapse_commutes(cx, c, u, v)


def test_collapsing_text_round_trip():
    text = format_collapsing(PHI_SQUASH)
    assert text == "1: 0 1 1\n2: 0 1 1\n"
    assert parse_collapsing(text) == PHI_SQUASH
    assert parse_collapsing("# squash\n1: 0 1 1  # first\n\n  # none\n2: 0 1 1\n") == PHI_SQUASH
    with pytest.raises(ValueError):
        parse_collapsing("1: 0 1\n3: 0 1\n")
    with pytest.raises(ValueError):
        parse_collapsing("nonsense")


def _all_subsets(n):
    from margo.complexes import subsets
    return list(subsets(n))


def test_collapse_commutes_on_random_fiber_pairs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    space = ConfigSpace((3, 3, 2))
    complexes = [cx for cx in all_complexes(3) if cx.facets]

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cx=st.sampled_from(complexes),
                      c=st.sampled_from(list(all_collapsings(space))),
                      cells=st.lists(st.integers(0, space.size - 1), min_size=1, max_size=4),
                      data=st.data())
    def check(cx, c, cells, data):
        counts = [0] * space.size
        for ix in cells:
            counts[ix] += 1
        u = ContingencyTable(space, tuple(counts))
        v = data.draw(st.sampled_from(enumerate_fiber(cx, space, marginal_map(cx, u)).tables))
        assert collapse_commutes(cx, c, u, v)

    check()
