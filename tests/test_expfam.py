import math
import random
import re

import pytest

from margo import (
    ConfigSpace,
    Density,
    binary_space,
    density,
    from_facets,
    interval_move,
    is_facial,
    multiinformation,
    point_mixture,
    satisfies_binomials,
    uniform_complex,
    uniform_density,
)

from conftest import naive_multiinformation

INDEPENDENCE = from_facets(2, [{1}, {2}])
B2 = binary_space(2)
B3 = binary_space(3)
D2_3 = uniform_complex(3, 2)


def test_density_zero_parameter_is_uniform():
    p = density(INDEPENDENCE, B2, [0.0, 0.0, 0.0, 0.0])
    assert p.probabilities == pytest.approx((0.25,) * 4, abs=1e-15)


def test_density_normalizes_exactly_enough():
    rng = random.Random(1)
    for _ in range(20):
        theta = [rng.uniform(-3, 3) for _ in range(12)]
        p = density(D2_3, B3, theta)
        assert abs(sum(p.probabilities) - 1.0) <= 1e-12
        assert all(q >= 0 for q in p.probabilities)


def test_density_independence_model_factorizes():
    rng = random.Random(2)
    for _ in range(10):
        theta = [rng.uniform(-2, 2) for _ in range(4)]
        p = density(INDEPENDENCE, B2, theta)
        marg1 = [p.probabilities[0] + p.probabilities[1],
                 p.probabilities[2] + p.probabilities[3]]
        marg2 = [p.probabilities[0] + p.probabilities[2],
                 p.probabilities[1] + p.probabilities[3]]
        for ix, (x1, x2) in enumerate(B2.configs()):
            assert p.probabilities[ix] == pytest.approx(marg1[x1] * marg2[x2], abs=1e-12)


def test_density_concentrates_under_large_parameters():
    theta = [0.0] * 4
    theta[0] = 100.0  # reward row ({1}, 0)
    theta[2] = 100.0  # reward row ({2}, 0)
    p = density(INDEPENDENCE, B2, theta)
    assert p.probabilities[B2.index((0, 0))] == pytest.approx(1.0, abs=1e-9)


def test_density_rejects_bad_theta_length():
    with pytest.raises(ValueError, match="theta length"):
        density(INDEPENDENCE, B2, [0.0, 0.0])


def test_density_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Density(B2, (0.5, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        Density(B2, (1.2, -0.2, 0.0, 0.0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Density(B2, (0.5, 0.5)), "expected 4 entries, got 2", id="length"),
    pytest.param(lambda: satisfies_binomials(uniform_density(B2),
                                             [interval_move(3, {1, 2, 3}, ())], 1e-9),
                 "move space does not match the density's space", id="move-space"),
    # the point mixture on 00 and 11 breaks the 2x2 move at any finite tol < 1/4
    *(pytest.param(lambda tol=tol: satisfies_binomials(
        point_mixture(B2, [(0, 0), (1, 1)]), [interval_move(2, {1, 2}, ())], tol),
        "tol must be finite and nonnegative", id=f"tol-{tol}")
      for tol in (math.nan, math.inf, -1e-12)),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_density_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            Density(B2, (bad, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="theta must be finite"):
            density(INDEPENDENCE, B2, [bad, 0.0, 0.0, 0.0])


def test_exponential_family_points_satisfy_own_binomials():
    rng = random.Random(3)
    move = interval_move(2, {1, 2}, ())
    for _ in range(10):
        theta = [rng.uniform(-1.5, 1.5) for _ in range(4)]
        p = density(INDEPENDENCE, B2, theta)
        assert satisfies_binomials(p, [move], 1e-9)


def test_diagonal_measure_violates_independence_binomial():
    p = point_mixture(B2, [(0, 0), (1, 1)])
    move = interval_move(2, {1, 2}, ())
    assert not satisfies_binomials(p, [move], 1e-3)


def test_support_two_densities_satisfy_d2_binomials():
    move = interval_move(3, {1, 2, 3}, ())
    p = point_mixture(B3, [(0, 0, 0), (1, 1, 1)])
    assert satisfies_binomials(p, [move], 1e-12)


def test_multiinformation_values():
    assert multiinformation(uniform_density(B3)) == pytest.approx(0.0, abs=1e-12)

    # product measures have zero multiinformation
    rng = random.Random(4)
    for _ in range(10):
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        probs = ((1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b)
        assert multiinformation(Density(B2, probs)) == pytest.approx(0.0, abs=1e-9)

    p = point_mixture(B3, [(0, 0, 0), (1, 1, 1)])
    assert multiinformation(p) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_multiinformation_nonnegative_and_detects_dependence():
    rng = random.Random(5)
    for _ in range(20):
        w = [rng.random() for _ in range(8)]
        total = sum(w)
        p = Density(B3, tuple(v / total for v in w))
        assert multiinformation(p) >= -1e-12
    dependent = point_mixture(B2, [(0, 0), (1, 1)])
    assert multiinformation(dependent) > 0.5


@pytest.mark.parametrize("cards", [(3, 2, 2, 2), (2, 2, 2)])
def test_multiinformation_matches_the_per_variable_walk(cards):
    space, rng = ConfigSpace(cards), random.Random(6)
    for _ in range(20):
        w = [rng.random() for _ in range(space.size)]
        p = Density(space, tuple(v / sum(w) for v in w))
        assert multiinformation(p) == naive_multiinformation(p)


def test_densities_concentrate_on_facial_sets():
    # follow the supporting functional of a face certificate: scaling it as
    # the parameter drives all mass onto the face, uniformly on Y
    from itertools import combinations
    for cx, sp in [(INDEPENDENCE, B2), (D2_3, B3)]:
        size = sp.size
        for combo in list(combinations(range(size), 2))[:6]:
            configs = [sp.config(ix) for ix in combo]
            cert = is_facial(cx, sp, configs)
            if not cert.is_face:
                continue
            theta = [50.0 * float(t) for t in cert.separating]
            p = density(cx, sp, theta)
            inside = sum(p.probabilities[ix] for ix in combo)
            assert inside == pytest.approx(1.0, abs=1e-6)
            for ix in combo:
                assert p.probabilities[ix] == pytest.approx(1 / len(combo), abs=1e-6)
