import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from margo import (
    ConfigSpace,
    ResourceCeilingError,
    binary_space,
    from_facets,
    full_simplex,
    interval_complement,
    is_facial,
    lp_solve,
    marginal_matrix,
    min_binomial_degree,
    move_supports,
    neighborliness,
    polytope_dimension,
    uniform_complex,
)
from margo.polytope import _orbit_representatives

from conftest import (all_complexes, naive_lp_solve, naive_neighborliness,
                      naive_orbit_representatives, naive_polytope_dimension,
                      symmetry_generators)

INDEPENDENCE = from_facets(2, [{1}, {2}])
B2 = binary_space(2)
D2_3 = uniform_complex(3, 2)
B3 = binary_space(3)


def test_lp_solve_simple():
    res = lp_solve([[1, 1]], [1], [1, 0])
    assert res.status == "optimal"
    assert res.optimum == 1
    assert res.solution == (Fraction(1), Fraction(0))


def test_lp_solve_degenerate_terminates():
    # redundant constraints and ties in the ratio test
    rows = [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
    res = lp_solve(rows, [1, 1, 0], [0, 1, 0])
    assert res.status == "optimal"
    assert res.optimum == 1


def test_lp_solve_infeasible_and_unbounded():
    assert lp_solve([[1], [1]], [1, 2], [1]).status == "infeasible"
    # x - y = 0 with objective x is unbounded along the diagonal
    assert lp_solve([[1, -1]], [0], [1, 0]).status == "unbounded"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: lp_solve([[1, 1], [1]], [1, 1], [1, 0]),
                 "constraint row length does not match objective", id="lp-row-length"),
    pytest.param(lambda: neighborliness(INDEPENDENCE, B2, 0), "k_max must be at least 1",
                 id="neighborliness-kmax"),
])
def test_reject_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_lp_solve_duality():
    rows = [[2, 1, 0], [1, 3, 1]]
    rhs = [4, 6]
    obj = [3, 2, 0]
    res = lp_solve(rows, rhs, obj)
    assert res.status == "optimal"
    assert sum(y * b for y, b in zip(res.dual, rhs)) == res.optimum
    for j in range(3):
        reduced = obj[j] - sum(res.dual[i] * rows[i][j] for i in range(2))
        assert reduced <= 0


def test_lp_solve_dual_with_redundant_rows():
    # more equalities than variables: the dropped rows may still need
    # nonzero multipliers for the dual to certify the optimum
    rows = [[-1, 1], [-1, -1], [-3, 1], [1, -2]]
    rhs = [2, -4, 0, -5]
    obj = [-2, 3]
    res = lp_solve(rows, rhs, obj)
    assert res.status == "optimal"
    assert res.optimum == 7
    assert sum(y * b for y, b in zip(res.dual, rhs)) == 7
    for j in range(2):
        assert obj[j] - sum(res.dual[i] * rows[i][j] for i in range(4)) <= 0


def test_lp_solve_faciality_of_square_diagonal():
    # the barycenter of the square's diagonal can be rebuilt entirely from
    # the other diagonal, so the outside-mass LP reaches 1
    mat = marginal_matrix(INDEPENDENCE, B2)
    rows = [list(r) for r in mat.rows] + [[1, 1, 1, 1]]
    bary = [Fraction(1, 2)] * 4 + [Fraction(1)]
    res = lp_solve(rows, bary, [0, 1, 1, 0])
    assert res.optimum == 1
    assert res.solution == (0, Fraction(1, 2), Fraction(1, 2), 0)


def test_lp_solve_matches_oracle_on_random_lps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    statuses = set()

    @st.composite
    def lps(draw):
        n = draw(st.integers(1, 7))
        m = draw(st.integers(0, 5))
        entry = st.integers(-3, 3)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
        # redundant rows: multiples (0 included) of rows already drawn
        for _ in range(draw(st.integers(0, 2)) if m else 0):
            i, c = draw(st.integers(0, m - 1)), draw(entry)
            rows.append([c * v for v in rows[i]])
            rhs.append(c * rhs[i])
        return rows, rhs, draw(st.lists(entry, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(lp=lps())
    def check(lp):
        rows, rhs, obj = lp
        res = lp_solve(rows, rhs, obj)
        assert res == naive_lp_solve(rows, rhs, obj)
        statuses.add(res.status)
        if res.status != "optimal":
            return
        x, y = res.solution, res.dual
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
        assert sum(c * v for c, v in zip(obj, x)) == res.optimum
        for j in range(len(obj)):
            assert obj[j] - sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
        assert sum(yi * b for yi, b in zip(y, rhs)) == res.optimum

    check()
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_is_facial_vertices():
    for x in B2.configs():
        cert = is_facial(INDEPENDENCE, B2, [x])
        assert cert.is_face
        assert cert.recheck(marginal_matrix(INDEPENDENCE, B2))


def test_is_facial_diagonal_certificate():
    cert = is_facial(INDEPENDENCE, B2, [(0, 0), (1, 1)])
    assert not cert.is_face
    assert cert.outside_mass == 1
    lam = dict(zip(B2.configs(), cert.combination))
    assert lam[(0, 1)] == Fraction(1, 2) and lam[(1, 0)] == Fraction(1, 2)
    assert cert.recheck(marginal_matrix(INDEPENDENCE, B2))


def test_is_facial_triples_for_d2():
    mat = marginal_matrix(D2_3, B3)
    for combo in combinations(range(8), 3):
        cert = is_facial(D2_3, B3, [B3.config(ix) for ix in combo])
        assert cert.is_face
        assert cert.recheck(mat)


def test_is_facial_parity_support_fails():
    even = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    cert = is_facial(D2_3, B3, even)
    assert not cert.is_face
    assert cert.recheck(marginal_matrix(D2_3, B3))
    lam = dict(zip(B3.configs(), cert.combination))
    for x in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
        assert lam[x] == Fraction(1, 4)


def test_is_facial_twin_columns():
    # with a facet set ignoring variable 2, configs differing only there
    # share a column, so single points are not faces: the LP moves all the
    # mass onto the twin
    cx = from_facets(2, [{1}])
    cert = is_facial(cx, B2, [(0, 0)])
    assert not cert.is_face
    assert cert.outside_mass == 1
    assert cert.combination == (0, 1, 0, 0)
    assert cert.recheck(marginal_matrix(cx, B2))


def test_is_facial_rejects_empty():
    with pytest.raises(ValueError):
        is_facial(INDEPENDENCE, B2, [])


def test_certificates_do_not_recheck_when_tampered():
    # one tampering per reject branch of FacialityCertificate.recheck
    from dataclasses import replace
    mat = marginal_matrix(INDEPENDENCE, B2)
    non_face = is_facial(INDEPENDENCE, B2, [(0, 0), (1, 1)])
    face = is_facial(INDEPENDENCE, B2, [(0, 0)])
    assert non_face.recheck(mat) and face.recheck(mat)
    half = Fraction(1, 2)
    for cert, changes in [
        (face, {"members": ((0, 2),)}),  # a member that is not a column
        (non_face, {"barycenter": (half, half, half, 0)}),
        (face, {"separating": None}),
        (face, {"separation_value": face.separation_value + 1}),
        (face, {"separating": (0, 0, 0, 0), "separation_value": 0}),  # ties outside Y
        (non_face, {"outside_mass": None}),
        (non_face, {"outside_mass": Fraction(0)}),
        (non_face, {"combination": (-half, 1, half, 0)}),
        (non_face, {"combination": (0, half, half)}),
        (non_face, {"combination": (0, half, half, half)}),  # sums to 3/2
        (non_face, {"outside_mass": Fraction(2)}),
        (non_face, {"combination": (0, 1, 0, 0)}),  # misses the barycenter
    ]:
        assert not replace(cert, **changes).recheck(mat), changes


def test_every_small_face_certificate_rechecks():
    # every set of one or two configurations, on every complex on 3 indices
    # (the facet-free one included): both kinds of certificate re-check
    faces = 0
    for sizes in [(2, 2, 2), (3, 2, 2)]:
        space = ConfigSpace(sizes)
        for cx in all_complexes(3):
            mat = marginal_matrix(cx, space)
            for k in (1, 2):
                for combo in combinations(space.configs(), k):
                    cert = is_facial(cx, space, combo)
                    assert cert.recheck(mat), (cx, sizes, combo)
                    faces += cert.is_face
    assert faces == 842


def test_face_certificate_is_strictly_separating():
    cert = is_facial(D2_3, B3, [(0, 0, 0), (1, 1, 1)])
    assert cert.is_face
    mat = marginal_matrix(D2_3, B3)
    values = []
    for ix in range(8):
        values.append(sum(t * a for t, a in zip(cert.separating, mat.column(ix))))
    members = {B3.index(x) for x in cert.members}
    for ix, val in enumerate(values):
        if ix in members:
            assert val == cert.separation_value
        else:
            assert val < cert.separation_value


def test_neighborliness_independence():
    rep = neighborliness(INDEPENDENCE, B2, 2)
    assert rep.k == 1
    assert rep.witness is not None
    assert rep.witness.members == ((0, 0), (1, 1))


def test_neighborliness_d2_binary():
    rep = neighborliness(D2_3, B3, 4)
    assert rep.k == 3
    assert rep.witness.members == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert rep.witness.recheck(marginal_matrix(D2_3, B3))


def test_neighborliness_full_simplex_has_every_face():
    rep = neighborliness(full_simplex(2), B2, 4)
    assert rep.k == 4 and rep.witness is None


def test_neighborliness_meets_theorem_bound_all_small_complexes():
    # every complex on n <= 3: the polytope is at least (2^(g-1) - 1)-neighborly
    for n in (2, 3):
        for cx in all_complexes(n):
            if not cx.facet_masks:
                continue
            try:
                g = cx.min_nonface_cardinality()
            except ValueError:
                continue
            bound = 2 ** (g - 1) - 1
            if bound < 1:
                continue
            rep = neighborliness(cx, binary_space(n), bound)
            assert rep.k == bound, cx
            if bound == 1:  # the cheap ternary cases; g=3 is covered elsewhere
                tern = ConfigSpace((3,) * n)
                assert neighborliness(cx, tern, 1).k == 1, cx


def test_face_monotonicity_spot_check():
    # subsets of the facial triples stay facial
    for combo in combinations(range(8), 3):
        configs = [B3.config(ix) for ix in combo]
        assert is_facial(D2_3, B3, configs).is_face
        for sub in combinations(configs, 2):
            assert is_facial(D2_3, B3, sub).is_face


def test_minimal_witness_support_is_not_facial():
    for cx, sp, kmax in [
        (INDEPENDENCE, B2, 2),
        (D2_3, B3, 4),
        (D2_3, ConfigSpace((3, 3, 3)), 4),
    ]:
        k, move = min_binomial_degree(cx, sp, kmax)
        pos, neg, _ = move_supports(move)
        assert not is_facial(cx, sp, pos).is_face
        assert not is_facial(cx, sp, neg).is_face


def test_neighborliness_respects_ceiling():
    with pytest.raises(ResourceCeilingError):
        neighborliness(D2_3, B3, 4, ceiling=10)


def test_neighborliness_charges_ceiling_before_enumerating_a_level():
    # the 1024 vertices of the cube fit under the ceiling, their 523,776
    # pairs do not: the sweep must refuse at k=2 before it lists any pair
    cx, space = uniform_complex(10, 1), binary_space(10)
    start = time.perf_counter()
    with pytest.raises(ResourceCeilingError, match="more than 2000 subsets tested"):
        neighborliness(cx, space, 2, ceiling=2000)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCeilingError):
            neighborliness(cx, space, 2, ceiling=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20  # the list of pairs alone takes about 50 MB


def test_neighborliness_of_d2_over_five_letters_fits_the_default_ceiling():
    # level 4 has 10,017,000 subsets, over the default ceiling, but only
    # 55 orbit representatives
    space = ConfigSpace((5, 5, 5))
    rep = neighborliness(D2_3, space, 4)
    assert rep.k == 3
    assert rep.witness.members == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert rep.witness.recheck(marginal_matrix(D2_3, space))


def test_reduced_sweep_matches_unreduced_oracle():
    # every complex on 3 indices, the facet-free one included, on alphabets
    # where variables are and are not interchangeable
    for sizes in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 2)]:
        space = ConfigSpace(sizes)
        for cx in all_complexes(3):
            assert neighborliness(cx, space, 4) == naive_neighborliness(cx, space, 4), (cx, sizes)


def test_reduced_sweep_agrees_with_oracle_on_random_complexes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    complexes = list(all_complexes(3))  # the facet-free one included

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cx=st.sampled_from(complexes),
                      sizes=st.tuples(*[st.sampled_from([2, 3])] * 3),
                      k_max=st.integers(1, 3))
    def check(cx, sizes, k_max):
        space = ConfigSpace(sizes)
        assert neighborliness(cx, space, k_max) == naive_neighborliness(cx, space, k_max)

    check()


def _levels(cx, space, top):
    """The first `top` levels of orbit representatives, by orderly generation."""
    levels, reps, next_level = [], [()], _orbit_representatives(cx, space)
    for _ in range(min(top, space.size)):
        reps = list(next_level(reps))
        levels.append(reps)
    return levels


def _oracle_levels(cx, space, top):
    gens = symmetry_generators(cx, space)
    return [list(naive_orbit_representatives(gens, space.size, k))
            for k in range(1, min(top, space.size) + 1)]


def test_orbit_representatives_counts():
    cases = [
        (D2_3, ConfigSpace((3, 3, 2)), [1, 5, 12, 40]),
        (D2_3, ConfigSpace((3, 3, 3)), [1, 3, 10, 34]),
        (D2_3, ConfigSpace((4, 4, 4)), [1, 3, 10, 55]),
        (uniform_complex(5, 2), binary_space(5), [1, 5, 10, 47]),
    ]
    for cx, space, counts in cases:
        levels = _levels(cx, space, len(counts))
        assert [len(reps) for reps in levels] == counts, (cx, space)
        for k, reps in enumerate(levels, start=1):
            assert reps[0] == tuple(range(k)) and reps == sorted(reps)


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3),
                                   (3, 3, 2), (3, 3, 3), (4, 2, 2)])
def test_orbit_representatives_match_the_walk_on_three_indices(sizes):
    # every level, in order, against the walk over all k-subsets
    space = ConfigSpace(sizes)
    for cx in all_complexes(3):  # the facet-free one included
        assert _levels(cx, space, 4) == _oracle_levels(cx, space, 4), (cx, sizes)


def test_orbit_representatives_match_the_walk_on_larger_models():
    for cx, space in [(uniform_complex(5, 2), binary_space(5)),
                      (uniform_complex(5, 1), binary_space(5)),
                      (interval_complement(5, {2, 3}), binary_space(5)),
                      (uniform_complex(4, 2), ConfigSpace((2, 2, 3, 3))),
                      # two interleaved classes of interchangeable variables
                      (from_facets(4, [{1, 3}, {2, 4}]), ConfigSpace((2, 3, 2, 3)))]:
        assert _levels(cx, space, 4) == _oracle_levels(cx, space, 4), (cx, space)


def test_orbit_representatives_match_the_walk_on_random_complexes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    subsets = st.frozensets(st.integers(1, 4), min_size=1)

    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hypothesis.given(facets=st.lists(subsets, max_size=5),
                      sizes=st.tuples(*[st.sampled_from([2, 3])] * 4),
                      top=st.integers(1, 3))
    def check(facets, sizes, top):
        cx, space = from_facets(4, facets), ConfigSpace(sizes)
        assert _levels(cx, space, top) == _oracle_levels(cx, space, top)

    check()


def test_polytope_dimension():
    assert polytope_dimension(INDEPENDENCE, B2) == 2
    assert polytope_dimension(full_simplex(2), B2) == 3
    assert polytope_dimension(D2_3, B3) == 6
    # the closed form against exact elimination: every complex on 3 indices
    # at alphabets 2-4, and on 4 indices over 2^4 and 3,2,2,2
    cases = [(cx, ConfigSpace(sizes)) for sizes in product((2, 3, 4), repeat=3)
             for cx in all_complexes(3)]
    cases += [(cx, ConfigSpace(sizes)) for sizes in ((2, 2, 2, 2), (3, 2, 2, 2))
              for cx in all_complexes(4)]
    for cx, space in cases:
        assert polytope_dimension(cx, space) == naive_polytope_dimension(cx, space), (cx, space)
    with pytest.raises(ValueError, match="complex on 3 indices vs space on 2 variables"):
        polytope_dimension(D2_3, B2)
