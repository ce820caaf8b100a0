"""Acceptance suite: one test per criterion, with its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Every expected value here is either exact, verified against an
independent brute-force computation, or a stated tolerance.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from margo import (
    ConfigSpace,
    ContingencyTable,
    Density,
    binary_space,
    character,
    character_cylinder_sum,
    cli,
    density,
    enumerate_fiber,
    interval_complement,
    interval_move_sum,
    interval_moves,
    kernel_check,
    marginal_map,
    marginal_matrix,
    min_binomial_degree,
    multiinformation,
    neighborliness,
    point_mixture,
    satisfies_binomials,
    uniform_complex,
)
from margo.complexes import subsets

from conftest import random_complex


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, f"{name} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def ind_path(tmp_path):
    p = tmp_path / "independence.cx"
    p.write_text("2\n1\n2\n")
    return str(p)


@pytest.fixture
def d2_path(tmp_path):
    p = tmp_path / "d2.cx"
    p.write_text("3\n1 2\n1 3\n2 3\n")
    return str(p)


def test_criterion_1_matrix_fidelity(capsys, ind_path, tmp_path):
    with criterion("1 matrix-fidelity", 1.0):
        code, out = run_cli(capsys, ["matrix", "--complex", ind_path, "--space", "2,2"])
        assert code == 0
        assert out == "4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n"

        full = tmp_path / "full.cx"
        full.write_text("2\n1 2\n")
        code, out = run_cli(capsys, ["matrix", "--complex", str(full), "--space", "2,2"])
        assert code == 0
        assert out == "4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


def test_criterion_2_character_basis():
    with criterion("2 character-basis", 30.0):
        rng = random.Random(0)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 4)
            cx = random_complex(rng, n)
            mat = marginal_matrix(cx, binary_space(n))
            for members in subsets(n):
                e = character(n, members)
                assert kernel_check(mat, e.values) == (not cx.is_face(members))
            checked += 1
        for n in range(1, 6):
            chars = [character(n, b).values for b in subsets(n)]
            for i, e in enumerate(chars):
                for j, f in enumerate(chars):
                    dot = sum(a * b for a, b in zip(e, f))
                    assert dot == (2 ** n if i == j else 0)


def test_criterion_3_lemma_suite():
    with criterion("3 lemma-suite", 30.0):
        for n in range(1, 5):
            sp = binary_space(n)
            for g in subsets(n):
                if not g:
                    continue
                outside = sorted(set(range(1, n + 1)) - g)
                factor = 2 ** (n - len(g))
                for y in product((0, 1), repeat=len(outside)):
                    total = interval_move_sum(n, g, y)
                    for ix, x in enumerate(sp.configs()):
                        if tuple(x[i - 1] for i in outside) == tuple(y):
                            sign = (-1) ** sum(1 for i in g if x[i - 1] == 1)
                            assert total[ix] == factor * sign
                        else:
                            assert total[ix] == 0
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


def test_criterion_4_support_bound():
    np = pytest.importorskip("numpy")
    with criterion("4 support-bound", 60.0):
        rng = np.random.default_rng(0)
        py_rng = random.Random(0)
        complexes = [
            interval_complement(2, {1, 2}),
            interval_complement(3, {2, 3}),
            interval_complement(3, {1, 2, 3}),
            interval_complement(4, {3, 4}),
            interval_complement(4, {1, 2, 3, 4}),
            uniform_complex(3, 2),
            uniform_complex(4, 2),
            uniform_complex(4, 3),
        ]
        while len(complexes) < 10:
            cx = random_complex(py_rng, 4)
            try:
                if cx.min_nonface_cardinality() >= 1:
                    complexes.append(cx)
            except ValueError:
                continue
        for cx in complexes:
            n = cx.n
            g = cx.min_nonface_cardinality()
            basis = np.array([character(n, b).values for b in cx.nonfaces()],
                             dtype=np.int64)
            coeffs = rng.integers(-3, 4, size=(10_000, basis.shape[0]))
            zero_rows = ~coeffs.any(axis=1)
            coeffs[zero_rows, 0] = 1
            combos = coeffs @ basis
            low = 2 ** (g - 1)
            assert ((combos > 0).sum(axis=1) >= low).all()
            assert ((combos < 0).sum(axis=1) >= low).all()


def test_criterion_5_degree_bound_and_sharpness(capsys, ind_path, d2_path, tmp_path):
    with criterion("5 degree-bound", 300.0):
        code, out = run_cli(capsys, ["degree-bound", "--complex", ind_path,
                                     "--space", "2,2"])
        assert code == 0
        assert "witness-degree: 2" in out and "status: PASS" in out

        code, out = run_cli(capsys, ["degree-bound", "--complex", d2_path,
                                     "--space", "2,2,2"])
        assert code == 0
        assert "g: 3" in out and "bound: 4" in out
        assert "witness-degree: 4" in out and "status: PASS" in out

        code, out = run_cli(capsys, ["degree-bound", "--complex", d2_path,
                                     "--space", "3,3,3"])
        assert code == 0
        assert "witness-degree: 4" in out
        assert "square-free: yes" in out
        assert "status: PASS" in out


def test_criterion_6_markov_basis_theorem(capsys, tmp_path):
    with criterion("6 markov-basis", 600.0):
        for n in (2, 3, 4):
            space_flag = ",".join(["2"] * n)
            for g_size in range(1, n + 1):
                for g in combinations(range(1, n + 1), g_size):
                    g_flag = ",".join(map(str, g))
                    limit = str(2 * 2 ** (g_size - 1) + 2)
                    code, out = run_cli(capsys, [
                        "verify-markov", "--space", space_flag, "--G", g_flag,
                        "--degree-limit", limit])
                    assert code == 0 and "status: PASS" in out, (n, g)

                    n_moves = 2 ** (n - g_size)
                    for drop in range(n_moves if n_moves > 1 else 0):
                        code, out = run_cli(capsys, [
                            "verify-markov", "--space", space_flag, "--G", g_flag,
                            "--degree-limit", limit, "--drop-move", str(drop)])
                        assert code == 1, (n, g, drop)
                        assert "status: FAIL" in out and "witness-u:" in out

                    if g_size >= 2:
                        empty = tmp_path / f"empty-{n}.moves"
                        empty.write_text(f"0 {2 ** n}\n")
                        cx_file = tmp_path / f"interval-{n}-{g_flag}.cx"
                        cx = interval_complement(n, g)
                        from margo.complexes import format_complex
                        cx_file.write_text(format_complex(cx))
                        code, out = run_cli(capsys, [
                            "verify-markov", "--complex", str(cx_file),
                            "--space", space_flag, "--moves", str(empty),
                            "--degree-limit", limit])
                        assert code == 1, (n, g)
                        assert "status: FAIL" in out


def test_criterion_7_neighborliness(capsys, d2_path, tmp_path):
    with criterion("7 neighborliness", 300.0):
        code, out = run_cli(capsys, ["neighborly", "--complex", d2_path,
                                     "--space", "2,2,2", "--kmax", "4"])
        assert code == 0
        assert "bound: 3" in out and "k: 3" in out
        assert "witness: 000 011 101 110" in out
        assert "status: PASS" in out

        rep = neighborliness(uniform_complex(3, 2), binary_space(3), 4)
        assert rep.k == 3
        assert rep.witness.recheck(marginal_matrix(uniform_complex(3, 2), binary_space(3)))

        tern = ConfigSpace((3, 3, 3))
        rep = neighborliness(uniform_complex(3, 2), tern, 4)
        assert rep.k == 3
        assert len(rep.witness.members) == 4
        assert rep.witness.recheck(marginal_matrix(uniform_complex(3, 2), tern))

        code, out = run_cli(capsys, ["neighborly", "--complex", d2_path,
                                     "--space", "3,3,3", "--kmax", "4"])
        assert code == 0
        assert "k: 3" in out and "status: PASS" in out


def test_criterion_8_collapsing():
    with criterion("8 collapsing", 60.0):
        from margo import (all_collapsings, collapse_commutes, collapse_move,
                           verify_phi_identity)
        rng = random.Random(0)
        spaces = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
        for cards in spaces:
            sp = ConfigSpace(cards)
            n = len(cards)
            cx = uniform_complex(n, max(1, n - 1))
            collapsings = list(all_collapsings(sp))

            pairs = []
            while len(pairs) < 100:
                counts = [0] * sp.size
                for _ in range(rng.randint(1, 4)):
                    counts[rng.randrange(sp.size)] += 1
                u = ContingencyTable(sp, tuple(counts))
                fib = enumerate_fiber(cx, sp, marginal_map(cx, u))
                v = fib.tables[rng.randrange(fib.size)]
                pairs.append((u, v))

            for c in collapsings:
                u, v = pairs[rng.randrange(len(pairs))]
                members = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
                z = tuple(rng.randint(0, 1) for _ in members)
                assert verify_phi_identity(c, u, members, z)
            for u, v in pairs:
                c = collapsings[rng.randrange(len(collapsings))]
                assert collapse_commutes(cx, c, u, v)

            found = min_binomial_degree(cx, sp, 4, ceiling=10 ** 6)
            if found is not None:
                _, mv = found
                bin_mat = marginal_matrix(cx, binary_space(n))
                for c in collapsings:
                    assert kernel_check(bin_mat, collapse_move(c, mv).vector)


def test_criterion_9_expfam_and_mi():
    with criterion("9 expfam-mi", 10.0):
        rng = random.Random(0)
        d2 = uniform_complex(3, 2)
        sp = binary_space(3)
        for _ in range(50):
            theta = [rng.uniform(-4, 4) for _ in range(12)]
            p = density(d2, sp, theta)
            assert abs(sum(p.probabilities) - 1.0) <= 1e-12

        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            probs = ((1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b)
            assert abs(multiinformation(Density(binary_space(2), probs))) < 1e-9

        for n in (3, 4):
            spn = binary_space(n)
            p = point_mixture(spn, [(0,) * n, (1,) * n])
            assert abs(multiinformation(p) - (n - 1) * math.log(2)) < 1e-9

        # support-2 densities on antipodal pairs satisfy the degree-4 binomials
        for n in (3, 4):
            spn = binary_space(n)
            d2n = uniform_complex(n, 2)
            mat = marginal_matrix(d2n, spn)
            moves = []
            for g in combinations(range(1, n + 1), 3):
                moves.extend(m for m in interval_moves(n, g)
                             if kernel_check(mat, m.vector))
            assert moves
            for x in spn.configs():
                y = tuple(1 - v for v in x)
                p = point_mixture(spn, [x, y])
                assert satisfies_binomials(p, moves, 1e-12)


def test_criterion_10_determinism(capsys, d2_path):
    with criterion("10 determinism", 600.0):
        commands = [
            ["degree-bound", "--complex", d2_path, "--space", "3,3,3"],
            ["verify-markov", "--space", "2,2,2", "--G", "2,3", "--degree-limit", "6"],
            ["verify-markov", "--space", "2,2,2,2", "--G", "1,2", "--degree-limit", "6"],
            ["neighborly", "--complex", d2_path, "--space", "2,2,2", "--kmax", "4"],
            ["neighborly", "--complex", d2_path, "--space", "3,3,3", "--kmax", "4"],
        ]
        for argv in commands:
            code1, out1 = run_cli(capsys, argv)
            code2, out2 = run_cli(capsys, argv)
            assert code1 == code2
            assert out1 == out2, argv
