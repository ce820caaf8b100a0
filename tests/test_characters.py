import random
import re
from itertools import product

import pytest

from margo import (
    Move,
    binary_space,
    character,
    character_cylinder_sum,
    from_facets,
    full_simplex,
    interval_complement,
    interval_move,
    interval_move_sum,
    interval_moves,
    kernel_basis,
    kernel_check,
    marginal_matrix,
    move_supports,
    uniform_complex,
)
from margo.complexes import subsets

from conftest import random_complex


def naive_character_value(n, members, x):
    return (-1) ** sum(1 for i in members if x[i - 1] == 1)


def test_character_examples():
    assert character(2, set()).values == (1, 1, 1, 1)
    assert character(2, {1, 2}).values == (1, -1, -1, 1)
    assert character(2, {1}).values == (1, 1, -1, -1)


def test_character_matches_direct_parity_count():
    for n in range(1, 5):
        sp = binary_space(n)
        for members in subsets(n):
            e = character(n, members)
            for ix, x in enumerate(sp.configs()):
                assert e.values[ix] == naive_character_value(n, members, x)


def test_character_depends_only_on_projection():
    e = character(3, {1, 3})
    sp = binary_space(3)
    for x in sp.configs():
        for y in sp.configs():
            if (x[0], x[2]) == (y[0], y[2]):
                assert e[x] == e[y]


def test_character_rejects_bad_members():
    with pytest.raises(ValueError, match="out of range"):
        character(2, {3})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Move(binary_space(2), (1, -1)), "expected 4 entries, got 2",
                 id="move-length"),
    pytest.param(lambda: Move(binary_space(2), (0.5, -0.5, -0.5, 0.5)),
                 "move entries must be integers", id="move-float"),
    pytest.param(lambda: interval_move_sum(3, [], (0, 0, 0)), "G must be nonempty",
                 id="sum-empty-G"),
    pytest.param(lambda: interval_move_sum(3, {1}, (0,)), "local config length 1 != |N\\G| = 2",
                 id="sum-y-length"),
    pytest.param(lambda: interval_move_sum(3, {1}, (2, 0)),
                 "local config value 2 out of range 0..1",
                 id="sum-y-value"),
    pytest.param(lambda: interval_move_sum(3, {1}, (0, 0.5)),
                 "local config values must be integers",
                 id="sum-y-float"),
    # interval_move checks the values of y with the same messages
    pytest.param(lambda: interval_move(3, {1}, (2, 0)), "local config value 2 out of range 0..1",
                 id="move-y-value"),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_orthogonality_exhaustive():
    for n in range(1, 6):
        chars = [character(n, b) for b in subsets(n)]
        for i, e in enumerate(chars):
            for j, f in enumerate(chars):
                dot = sum(a * b for a, b in zip(e.values, f.values))
                assert dot == (2 ** n if i == j else 0)


def test_kernel_basis_examples():
    basis = kernel_basis(from_facets(2, [{1}, {2}]))
    assert len(basis) == 1 and basis[0].members == frozenset({1, 2})

    assert kernel_basis(full_simplex(3)) == ()

    basis = kernel_basis(uniform_complex(3, 2))
    assert len(basis) == 1 and basis[0].members == frozenset({1, 2, 3})


def test_kernel_membership_both_directions(rng):
    for n in range(1, 5):
        sp = binary_space(n)
        for _ in range(10):
            cx = random_complex(rng, n)
            mat = marginal_matrix(cx, sp)
            for members in subsets(n):
                e = character(n, members)
                in_kernel = kernel_check(mat, e.values)
                assert in_kernel == (not cx.is_face(members))


def test_interval_move_examples():
    mv = interval_move(2, {1, 2}, ())
    assert mv.vector == (1, -1, -1, 1)

    mv = interval_move(3, {1, 2, 3}, ())
    sp = binary_space(3)
    for ix, x in enumerate(sp.configs()):
        assert mv.vector[ix] == (1 if sum(x) % 2 == 0 else -1)
    assert mv.degree == 4

    mv = interval_move(2, {1}, (0,))
    assert mv.vector == (1, 0, -1, 0)


def test_interval_move_support_sizes():
    for n in range(1, 5):
        for g in subsets(n):
            if not g:
                continue
            outside = sorted(set(range(1, n + 1)) - g)
            for y in product((0, 1), repeat=len(outside)):
                mv = interval_move(n, g, y)
                pos, neg, deg = move_supports(mv)
                assert len(pos) == len(neg) == 2 ** (len(g) - 1) == deg
                # support is exactly the cylinder over y
                for x in pos + neg:
                    assert tuple(x[i - 1] for i in outside) == tuple(y)


def test_interval_move_sum_examples():
    assert interval_move_sum(2, {1}, (0,)) == (2, 0, -2, 0)
    # G = N: the factor is 1 and the sum equals the move itself
    assert interval_move_sum(3, {1, 2, 3}, ()) == interval_move(3, {1, 2, 3}, ()).vector
    assert interval_move_sum(3, {3}, (0, 0)) == (4, -4, 0, 0, 0, 0, 0, 0)


def test_interval_move_sum_is_scaled_move():
    for n in range(1, 5):
        for g in subsets(n):
            if not g:
                continue
            outside = sorted(set(range(1, n + 1)) - g)
            factor = 2 ** (n - len(g))
            for y in product((0, 1), repeat=len(outside)):
                total = interval_move_sum(n, g, y)
                mv = interval_move(n, g, y)
                assert total == tuple(factor * v for v in mv.vector)


def test_interval_moves_are_kernel_vectors_of_interval_complement():
    for n in range(1, 5):
        sp = binary_space(n)
        for g in subsets(n):
            if not g:
                continue
            cx = interval_complement(n, g)
            mat = marginal_matrix(cx, sp)
            moves = interval_moves(n, g)
            assert len(moves) == 2 ** (n - len(g))
            for mv in moves:
                assert kernel_check(mat, mv.vector)


def test_interval_moves_match_one_interval_move_per_local_config():
    # interval_moves checks G once and fills each cylinder from the base
    # index of its y, in lex order of y; each move is interval_move's for
    # its y, and the literal character sum with 2^(n-|G|) divided out
    for n in range(1, 7):
        for g in subsets(n):
            if not g:
                continue
            outside = sorted(set(range(1, n + 1)) - g)
            ys = list(product((0, 1), repeat=len(outside)))
            moves = interval_moves(n, g)
            assert moves == tuple(interval_move(n, g, y) for y in ys)
            factor = 2 ** (n - len(g))
            for y, mv in zip(ys, moves):
                assert interval_move_sum(n, g, y) == tuple(factor * v for v in mv.vector)
    # y is read once, so an iterator gives the move of its values
    assert interval_move(3, {2}, iter((1, 1))) == interval_move(3, {2}, (1, 1))
    with pytest.raises(ValueError, match="G must be nonempty"):
        interval_moves(3, ())
    with pytest.raises(ValueError):
        interval_moves(3, {4})


def test_character_cylinder_sum_examples():
    # C = N: the sum over a one-point cylinder is a single character value
    e = character(3, {1, 2})
    sp = binary_space(3)
    for x in sp.configs():
        assert character_cylinder_sum(3, {1, 2}, {1, 2, 3}, x) == e[x]
    assert character_cylinder_sum(3, {1}, {2}, (0,)) == 0
    assert character_cylinder_sum(3, {1}, {2}, (1,)) == 0
    assert character_cylinder_sum(3, {1}, {1, 2}, (1, 0)) == -2


def test_character_cylinder_sum_matches_closed_form():
    for n in range(1, 5):
        for b in subsets(n):
            for c in subsets(n):
                members = sorted(c)
                for y in product((0, 1), repeat=len(members)):
                    got = character_cylinder_sum(n, b, c, y)
                    if b <= c:
                        sign = (-1) ** sum(1 for i, v in zip(members, y)
                                           if v == 1 and i in b)
                        assert got == 2 ** (n - len(c)) * sign
                    else:
                        assert got == 0


def test_move_supports_examples():
    sp = binary_space(2)
    pos, neg, deg = move_supports(Move(sp, (1, -1, -1, 1)))
    assert pos == ((0, 0), (1, 1)) and neg == ((0, 1), (1, 0)) and deg == 2

    pos, neg, deg = move_supports(Move(sp, (0, 0, 0, 0)))
    assert pos == () and neg == () and deg == 0

    parity = interval_move(3, {1, 2, 3}, ())
    pos, neg, deg = move_supports(parity)
    assert deg == 4 and set(pos) | set(neg) == set(binary_space(3).configs())


def test_support_bound_for_random_kernel_combinations():
    rng = random.Random(0)
    complexes = []
    for n in range(2, 5):
        for _ in range(6):
            cx = random_complex(rng, n)
            try:
                cx.min_nonface_cardinality()
            except ValueError:
                continue
            complexes.append((n, cx))
    assert complexes
    for n, cx in complexes:
        g = cx.min_nonface_cardinality()
        if g == 0:
            continue
        basis = [character(n, b).values for b in cx.nonfaces()]
        low = 2 ** (g - 1)
        for _ in range(300):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            if not any(coeffs):
                continue
            combo = [sum(c * e[ix] for c, e in zip(coeffs, basis))
                     for ix in range(2 ** n)]
            if not any(combo):
                continue
            assert sum(1 for v in combo if v > 0) >= low
            assert sum(1 for v in combo if v < 0) >= low
