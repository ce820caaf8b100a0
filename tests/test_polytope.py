import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from margo import (
    ConfigSpace,
    FacialityCertificate,
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
from margo import cli, polytope
from margo.polytope import _orbit_least

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
    pytest.param(lambda: lp_solve([[1, 0.5]], [1], [1, 0]),
                 "LP rows, rhs and objective must be ints or Fractions", id="lp-float-row"),
    pytest.param(lambda: lp_solve([[1, 1]], [1], [1.0, 0]),
                 "LP rows, rhs and objective must be ints or Fractions", id="lp-float-objective"),
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


def check_random_lps_against_oracle(entries):
    """Hypothesis LPs whose entries are drawn from `entries(strategies)`,
    redundant rows included: each result equals the oracle's and, when
    optimal, certifies itself."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = entries(st)
    statuses = set()

    @st.composite
    def lps(draw):
        n = draw(st.integers(1, 7))
        m = draw(st.integers(0, 5))
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


def test_lp_solve_matches_oracle_on_random_lps():
    check_random_lps_against_oracle(lambda st: st.integers(-3, 3))


def test_lp_solve_matches_oracle_on_random_rational_lps():
    # denominators 1-4 in the rows, the rhs and the objective, so the rows
    # and the objective are scaled by different lcms
    check_random_lps_against_oracle(
        lambda st: st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


def test_corrupted_pivot_is_caught(monkeypatch, capsys, tmp_path):
    # each pivot makes its entering variable one larger: the tableau is then
    # that of a shifted right-hand side, and the exact check on the input
    # rows must catch it before any result is returned
    pivot = polytope._pivot

    def corrupted(rows, r, j, d):
        d = pivot(rows, r, j, d)
        rows[r][-1] += d
        return d

    monkeypatch.setattr(polytope, "_pivot", corrupted)
    message = "LP optimum failed its exact check"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        lp_solve([[2, 1, 0], [1, 3, 1]], [4, 6], [3, 2, 0])
    complex_path = tmp_path / "d2.cx"
    complex_path.write_text("3\n1 2\n1 3\n2 3\n")
    assert cli.main(["neighborly", "--complex", str(complex_path), "--space", "3,3,2"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"margo: internal error: AssertionError({message!r})\n"


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


def test_recheck_compares_rationals_exactly():
    # the integer re-check scales by the lcm of the denominators and compares
    # by cross-multiplication: mixed denominators and a rescaled functional
    # pass, a fraction equal to the right one in its numerator only fails
    third, sixth, half = Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)
    # one facet {1} on 2x3: the three configurations with x1 = 0 share a column
    twins, space = from_facets(2, [{1}]), ConfigSpace((2, 3))
    twin_mat = marginal_matrix(twins, space)
    mixed = FacialityCertificate(((0, 0),), False, (Fraction(1), Fraction(0)),
                                 combination=(half, third, sixth, 0, 0, 0), outside_mass=half)
    assert mixed.recheck(twin_mat)
    assert not replace(mixed, outside_mass=third).recheck(twin_mat)  # numerator 1 only
    assert not replace(mixed, combination=(half, third, Fraction(1, 5), 0, 0, 0)).recheck(twin_mat)
    # every column hits one row of each facet block, so adding 1/2 on one
    # block's rows adds 1/2 to every column's value; then scale by 7/3
    mat = marginal_matrix(D2_3, B3)
    face = is_facial(D2_3, B3, [(0, 0, 0), (1, 1, 1)])
    block = mat.row_labels[0][0]
    shifted = [t + half if label[0] == block else t
               for t, label in zip(face.separating, mat.row_labels)]
    scaled = replace(face, separating=tuple(Fraction(7, 3) * t for t in shifted),
                     separation_value=Fraction(7, 3) * (face.separation_value + half))
    assert scaled.separation_value == Fraction(7, 6) and scaled.recheck(mat)
    assert not replace(scaled, separation_value=Fraction(7, 5)).recheck(mat)
    # a barycenter entry 1/3 where 1/2 is right: the numerator matches
    non_face = is_facial(INDEPENDENCE, B2, [(0, 0), (1, 1)])
    assert non_face.barycenter[0] == half
    bad = (third,) + non_face.barycenter[1:]
    assert not replace(non_face, barycenter=bad).recheck(marginal_matrix(INDEPENDENCE, B2))


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


def test_face_certificates_equal_the_oracle_lps():
    # every set of at most 3 configurations, on every complex on 1-3 indices
    # over alphabets of 2 with at most one 3: the certificate is the one
    # built on the oracle simplex, not only the verdict
    spaces = [(2,), (3,), (2, 2), (3, 2), (2, 3),
              (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]
    for sizes in spaces:
        space = ConfigSpace(sizes)
        sets = [c for k in (1, 2, 3) for c in combinations(space.configs(), k)]
        for cx in all_complexes(len(sizes)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polytope, "lp_solve", naive_lp_solve)
                want = [is_facial(cx, space, combo) for combo in sets]
            assert [is_facial(cx, space, combo) for combo in sets] == want, (cx, sizes)


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


def test_sweep_rechecks_face_certificates(monkeypatch, capsys, tmp_path):
    # the LP's dual passes lp_solve's own check and is then moved by one on
    # its first row, so the face functional built from it no longer takes
    # its value on every member: the sweep's re-check must raise before the
    # level is passed
    solve = polytope.lp_solve

    def corrupted(rows, rhs, objective):
        res = solve(rows, rhs, objective)
        if res.optimum == 0:
            res = replace(res, dual=(res.dual[0] + 1,) + res.dual[1:])
        return res

    monkeypatch.setattr(polytope, "lp_solve", corrupted)
    message = "face certificate for k=3 failed its exact re-check"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        neighborliness(D2_3, ConfigSpace((3, 3, 2)), 4)
    complex_path = tmp_path / "d2.cx"
    complex_path.write_text("3\n1 2\n1 3\n2 3\n")
    assert cli.main(["neighborly", "--complex", str(complex_path), "--space", "3,3,2"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"margo: internal error: AssertionError({message!r})\n"


def test_sets_without_a_surviving_outside_column_skip_is_facial(monkeypatch):
    # d2 over 2,2,2 at k_max 4 reaches its last level, where the parity
    # witness sits; every set the sweep hands to is_facial has a column
    # outside it that hits no zero row of its barycenter
    mat = marginal_matrix(D2_3, B3)
    calls = []
    facial = polytope.is_facial

    def spy(cx, space, members):
        calls.append([B3.index(x) for x in members])
        return facial(cx, space, members)

    monkeypatch.setattr(polytope, "is_facial", spy)
    assert neighborliness(D2_3, B3, 4) == naive_neighborliness(D2_3, B3, 4)
    assert max(map(len, calls)) == 4
    for cols in calls:
        held = {r for r, row in enumerate(mat.rows) if any(row[j] for j in cols)}
        outside = [j for j in range(mat.ncols) if j not in cols
                   and all(r in held for r, row in enumerate(mat.rows) if row[j])]
        assert outside, cols


def test_sweep_agrees_with_oracle_on_random_binary_complexes():
    # four binary indices at every k_max from 1 to 4; `cover` puts every
    # index in a facet, so that no two configurations share a column and
    # more sweeps reach their last level
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    subsets = st.frozensets(st.integers(1, 4), min_size=1)

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(facets=st.lists(subsets, max_size=5), k_max=st.sampled_from([4, 3, 2, 1]),
                      cover=st.booleans())
    def check(facets, k_max, cover):
        cx = from_facets(4, facets + [{i} for i in range(1, 5)] * cover)
        space = binary_space(4)
        assert neighborliness(cx, space, k_max) == naive_neighborliness(cx, space, k_max)

    check()


def _levels(cx, space, top):
    """The first `top` levels of orbit representatives, by orderly generation."""
    levels, reps, least = [], [()], _orbit_least(cx, space)
    for _ in range(min(top, space.size)):
        reps = [r + (x,) for r in reps for x in range(r[-1] + 1 if r else 0, space.size)
                if least(r + (x,))]
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
