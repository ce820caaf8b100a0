import argparse
import ast
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from margo import (ContingencyTable, Move, binary_space, character, cli, fiber, from_facets,
                   interval_complement, interval_moves, polytope, spaces, uniform_complex)
from margo.guards import Budget
from margo.spaces import config_str, layout

from conftest import naive_verify_markov

IND_COMPLEX = "2\n1\n2\n"
FULL_COMPLEX = "2\n1 2\n"
D2_COMPLEX = "3\n1 2\n1 3\n2 3\n"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ind_path(tmp_path):
    p = tmp_path / "independence.cx"
    p.write_text(IND_COMPLEX)
    return str(p)


@pytest.fixture
def d2_path(tmp_path):
    p = tmp_path / "d2.cx"
    p.write_text(D2_COMPLEX)
    return str(p)


def test_matrix_reproduces_worked_example(capsys, ind_path):
    code, out, _ = run(capsys, ["matrix", "--complex", ind_path, "--space", "2,2"])
    assert code == 0
    assert out == "4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n"


def test_matrix_full_power_set_is_identity(capsys, tmp_path):
    p = tmp_path / "full.cx"
    p.write_text(FULL_COMPLEX)
    code, out, _ = run(capsys, ["matrix", "--complex", str(p), "--space", "2,2"])
    assert code == 0
    assert out == "4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"


def test_moves_output(capsys):
    code, out, _ = run(capsys, ["moves", "--space", "2,2", "--G", "1"])
    assert code == 0
    assert out == "2 4\n1 0 -1 0\n0 1 0 -1\n"


def test_moves_requires_binary_space(capsys):
    code, _, err = run(capsys, ["moves", "--space", "3,3", "--G", "1"])
    assert code == 64
    assert "binary" in err


def test_kernel_basis_output(capsys, d2_path):
    code, out, _ = run(capsys, ["kernel-basis", "--complex", d2_path])
    assert code == 0
    assert out == "1 8\n1 -1 -1 1 -1 1 1 -1\n"


def test_verify_markov_pass_and_fail(capsys):
    code, out, _ = run(capsys, ["verify-markov", "--space", "2,2,2",
                                "--G", "1,2,3", "--degree-limit", "6"])
    assert code == 0
    assert "status: PASS" in out
    assert "fibers-checked: 1" in out

    code, out, _ = run(capsys, ["verify-markov", "--space", "2,2,2",
                                "--G", "2,3", "--degree-limit", "6",
                                "--drop-move", "1"])
    assert code == 1
    assert "status: FAIL" in out
    assert "witness-u:" in out and "witness-v:" in out


def test_verify_markov_empty_move_file(capsys, tmp_path, d2_path):
    moves = tmp_path / "empty.moves"
    moves.write_text("0 8\n")
    code, out, _ = run(capsys, ["verify-markov", "--complex", d2_path,
                                "--space", "2,2,2", "--moves", str(moves),
                                "--degree-limit", "4"])
    assert code == 1
    assert "witness-degree: 4" in out


def test_verify_markov_table_method_agrees(capsys):
    argv = ["verify-markov", "--space", "2,2,2", "--G", "2,3",
            "--degree-limit", "6", "--drop-move", "0"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    report = dict(ln.split(": ", 1) for ln in out.splitlines())
    assert report["method"] == "fibers"

    space = binary_space(3)
    moves = list(interval_moves(3, (2, 3)))[1:]
    oracle = naive_verify_markov(interval_complement(3, (2, 3)), space, moves, 6)
    assert not oracle.passed
    b = oracle.witness.fiber.marginal
    assert report["witness-marginal"] == " ; ".join(
        "{" + ",".join(map(str, sorted(f))) + "}: " + " ".join(map(str, b.block(k)))
        for k, (f, _) in enumerate(b.blocks))
    u, v = oracle.witness.report.witness
    assert report["witness-u"] == " ".join(
        config_str(x, space) for x in space.configs() for _ in range(u[x]))
    assert report["witness-v"] == " ".join(
        config_str(x, space) for x in space.configs() for _ in range(v[x]))


def test_verify_markov_checks_each_move_once(capsys, monkeypatch):
    # the CLI checks its inputs up front, and the run does not check them
    # again: one marginal of each move on the full model, on a PASS and a FAIL
    cx, space = interval_complement(4, (1, 2, 3)), binary_space(4)
    lay = layout(cx, space)
    full = []
    marginal_entries = type(lay).marginal_entries
    monkeypatch.setattr(type(lay), "marginal_entries", lambda self, counts: (
        full.append(tuple(counts)) if self is lay else None) or marginal_entries(self, counts))
    vectors = [m.vector for m in interval_moves(4, (1, 2, 3))]
    for extra, kept, code in (([], vectors, 0), (["--drop-move", "0"], vectors[1:], 1)):
        full.clear()
        argv = ["verify-markov", "--space", "2,2,2,2", "--G", "1,2,3", "--degree-limit", "4"]
        assert run(capsys, argv + extra)[0] == code
        assert sorted(full) == sorted(kept)


def test_removed_flags_are_usage_errors(capsys, ind_path):
    for argv in (["verify-markov", "--space", "2,2,2", "--G", "1,2,3",
                  "--degree-limit", "6", "--method", "tables"],
                 ["matrix", "--complex", ind_path, "--space", "2,2", "--seed", "1"],
                 ["degree-bound", "--complex", ind_path, "--space", "2,2", "--workers", "2"],
                 ["verify-markov", "--space", "2,2,2", "--G", "1,2,3", "--degree-limit", "6",
                  "--workers", "2"],
                 ["neighborly", "--complex", ind_path, "--space", "2,2", "--workers", "2"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == ""
        assert err.startswith("margo: usage error: unrecognized arguments")


def test_verify_markov_ceiling_exit(capsys):
    code, _, err = run(capsys, ["verify-markov", "--space", "2,2,2,2",
                                "--G", "1", "--degree-limit", "4",
                                "--ceiling", "10"])
    assert code == 2
    assert "ceiling" in err


def test_verify_markov_ceiling_is_run_wide(capsys):
    # the run is decided on the slice model; a ceiling its kernel-vector
    # search alone uses up leaves nothing for the slice fibers checked after it
    split = fiber._slices(layout(interval_complement(5, {1, 2}), binary_space(5)))
    kernel = Budget(None)
    list(fiber._kernel_vectors(split.part, 6, kernel))
    argv = ["verify-markov", "--space", "2,2,2,2,2", "--G", "1,2",
            "--degree-limit", "6", "--ceiling", str(kernel.used)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (f"margo: resource ceiling exceeded: more than {kernel.used} enumerated"
                   " tables (fiber enumeration, degree 2)\n")


def test_ceiling_errors_name_phase_and_degree(capsys, d2_path):
    prefix = "margo: resource ceiling exceeded: more than"
    # the kernel-vector search on the slice model (two cells, the total fixed)
    # makes 10 assignments, one more than the ceiling
    argv = ["verify-markov", "--space", "2,2,2,2", "--G", "1", "--degree-limit", "4",
            "--ceiling", "9"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"{prefix} 9 enumerated tables (kernel-vector search, degree 4)\n"

    # the incumbent has degree 4, and the one kernel-vector search, at
    # degree 3, makes 16 assignments
    argv = ["degree-bound", "--complex", d2_path, "--space", "2,2,2"]
    lay, searched, witness = layout(uniform_complex(3, 2), binary_space(3)), Budget(None), Budget(None)
    assert next(fiber._kernel_vectors(lay, 3, searched), None) is None
    list(fiber._kernel_vectors(lay, 4, witness, least=True))
    assert (searched.used, witness.used) == (16, 10)
    code, out, err = run(capsys, argv + ["--ceiling", "15"])
    assert code == 2 and out == ""
    assert err == f"{prefix} 15 enumerated tables (kernel-vector search, degree 3)\n"
    # room for the degree-3 search but not for all of the degree-4 witness search
    code, out, err = run(capsys, argv + ["--ceiling", "25"])
    assert code == 2 and out == ""
    assert err == f"{prefix} 25 enumerated tables (witness search, degree 4)\n"
    code, out, err = run(capsys, argv + ["--ceiling", "26"])
    assert code == 0 and err == "" and "witness-degree: 4" in out

    # the 27 level-1 candidates fit under the ceiling; with the 26 level-2
    # candidates built from (0,) they do not
    argv = ["neighborly", "--complex", d2_path, "--space", "3,3,3", "--kmax", "4",
            "--ceiling", "50"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"{prefix} 50 subsets tested (neighborliness sweep, level 2)\n"


def test_neighborly_refuses_before_building_the_layout(capsys, monkeypatch):
    # on 2^18 configurations the level-1 charge refuses the run; the CLI
    # checks the model on n alone, so no layout is built before it
    def build(*args):
        raise AssertionError("layout built")

    monkeypatch.setattr(spaces.MarginalLayout, "__init__", build)
    argv = ["neighborly", "--G", "1,2", "--space", ",".join("2" * 18), "--ceiling", "10"]
    assert run(capsys, argv) == (2, "", "margo: resource ceiling exceeded: more than 10 "
                                        "subsets tested (neighborliness sweep, level 1)\n")


def test_kmax_below_one_is_a_usage_error(capsys, d2_path):
    for command in ("degree-bound", "neighborly"):
        for kmax in ("0", "-3"):
            code, out, err = run(capsys, [command, "--complex", d2_path, "--space", "2,2,2",
                                          "--kmax", kmax])
            assert (code, out) == (64, "")
            assert err == f"margo: usage error: --kmax must be at least 1, got {kmax}\n"


def test_degree_bound_reaches_the_sharp_case_on_five_variables(capsys, tmp_path):
    # u(5,4) over 2^5: g = 5, so the default kmax is 16, which the witness
    # attains, under the default ceiling
    p = tmp_path / "u54.cx"
    p.write_text("5\n" + "".join(f"{' '.join(c)}\n" for c in combinations("12345", 4)))
    code, out, err = run(capsys, ["degree-bound", "--complex", str(p), "--space", "2,2,2,2,2"])
    assert (code, err) == (0, "")
    assert "kmax: 16\nwitness-degree: 16\n" in out
    assert out.endswith("square-free: yes\nstatus: PASS\n")


def test_parser_builds_only_the_named_subcommand():
    def built(argv):
        sub = next(a for a in cli.build_parser(argv)._actions
                   if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices)

    assert built(["degree-bound", "--space", "2,2", "-h"]) == ["degree-bound"]
    for argv in ([], ["-h", "matrix"], ["--hel", "matrix"], ["--kv", "tableau"],
                 ["nope", "--space", "2"]):
        assert built(argv) == list(cli._COMMANDS)


def test_ceiling_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("MARGO_CEILING", "10")
    code, _, err = run(capsys, ["verify-markov", "--space", "2,2,2,2",
                                "--G", "1", "--degree-limit", "4"])
    assert code == 2
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, ["verify-markov", "--space", "2,2,2,2",
                                "--G", "1", "--degree-limit", "4",
                                "--ceiling", "10000000"])
    assert code == 0 and "status: PASS" in out
    # a negative or non-integer ceiling is a usage error that names its source
    argv = ["verify-markov", "--space", "2,2,2", "--G", "1,2", "--degree-limit", "2"]
    code, out, err = run(capsys, argv + ["--ceiling", "-1"])
    assert (code, out) == (64, "")
    assert err == "margo: usage error: ceiling must be nonnegative, got -1\n"
    for env, message in (("-1", "must be nonnegative, got -1"),
                         ("abc", "must be an integer, got 'abc'")):
        monkeypatch.setenv("MARGO_CEILING", env)
        code, out, err = run(capsys, argv)
        assert (code, out) == (64, "")
        assert err == f"margo: usage error: MARGO_CEILING {message}\n"


def test_degree_bound_report(capsys, d2_path):
    code, out, _ = run(capsys, ["degree-bound", "--complex", d2_path,
                                "--space", "2,2,2"])
    assert code == 0
    assert "g: 3" in out
    assert "bound: 4" in out
    assert "witness-degree: 4" in out
    assert "witness-positive: 000 011 101 110" in out
    assert "square-free: yes" in out
    assert "status: PASS" in out


def test_degree_bound_reports_a_binomial_below_the_bound(capsys, monkeypatch, d2_path):
    # the support bound says no such binomial exists, so the search is made
    # to return one: a degree-2 move against the bound 4 is a counterexample
    move = Move(binary_space(3), (1, 0, 0, -1, -1, 0, 0, 1))
    monkeypatch.setattr(fiber, "min_binomial_degree", lambda cx, space, k_max, ceiling: (2, move))
    assert run(capsys, ["degree-bound", "--complex", d2_path, "--space", "2,2,2"]) == (1, (
        "command: degree-bound\ncomplex: 3 ; {1,2} {1,3} {2,3}\nspace: 2 2 2\n"
        "g: 3\nbound: 4\nkmax: 4\nwitness-degree: 2\nwitness-positive: 000 111\n"
        "witness-negative: 011 100\nsquare-free: yes\nstatus: FAIL\n"), "")


def test_neighborly_report(capsys, d2_path):
    code, out, _ = run(capsys, ["neighborly", "--complex", d2_path,
                                "--space", "2,2,2", "--kmax", "4"])
    assert code == 0
    assert "k: 3" in out
    assert "witness: 000 011 101 110" in out
    assert "certificate: 001=1/4 010=1/4 100=1/4 111=1/4" in out
    assert "status: PASS" in out


def test_capped_neighborly_run_passes_up_to_kmax(capsys, d2_path):
    # kmax 2 is below the bound 3 and the sweep finds no witness: nothing
    # failed, so the run passes and says how far its verdict goes
    head = ("command: neighborly\ncomplex: 3 ; {1,2} {1,3} {2,3}\nspace: 2 2 2\n"
            "g: 3\nbound: 3\n")
    argv = ["neighborly", "--complex", d2_path, "--space", "2,2,2", "--kmax"]
    assert run(capsys, argv + ["2"]) == (0, head + (
        "kmax: 2\nk: 2\nstatus: PASS\n"
        "note: every set of <= 2 configurations spans a face; "
        "the verdict holds up to kmax only, below the bound\n"), "")
    # at the bound the verdict is the theorem's, with no note
    assert run(capsys, argv + ["3"]) == (0, head + "kmax: 3\nk: 3\nstatus: PASS\n", "")


def test_neighborly_full_simplex_passes_at_every_level(capsys, tmp_path):
    # no non-face: kmax defaults to the 27 configurations, all decided at once
    p = tmp_path / "full.cx"
    p.write_text("3\n1 2 3\n")
    assert run(capsys, ["neighborly", "--complex", str(p), "--space", "3,3,3"]) == (0, (
        "command: neighborly\ncomplex: 3 ; {1,2,3}\nspace: 3 3 3\ng: none\nbound: none\n"
        "kmax: 27\nk: 27\nstatus: PASS\n"), "")


@pytest.mark.parametrize("complex_text, space, lines", [
    ("3\n1 2\n", "2,2,2", ["complex: 3 ; {1,2}", "space: 2 2 2", "g: 1", "bound: 0",
                           "kmax: 1", "witness: 000", "certificate: 001=1"]),
    ("3\n1 2\n", "3,2,2", ["complex: 3 ; {1,2}", "space: 3 2 2", "g: 1", "bound: 0",
                           "kmax: 1", "witness: 000", "certificate: 001=1"]),
    ("2\n", "2,2", ["complex: 2 ; (no facets)", "space: 2 2", "g: 0", "bound: none",
                    "kmax: 4", "witness: 00", "certificate: 01=1"]),
])
def test_neighborly_with_a_variable_in_no_facet(capsys, tmp_path, complex_text, space,
                                                lines):
    # configurations that differ only in such a variable share a column, so a
    # single configuration already spans no face
    p = tmp_path / "c.cx"
    p.write_text(complex_text)
    *header, witness, certificate = lines
    expected = ["command: neighborly", *header, "k: 0", "witness-size: 1", witness,
                certificate, "outside-mass: 1", "status: PASS"]
    assert run(capsys, ["neighborly", "--complex", str(p), "--space", space]) == (
        0, "".join(line + "\n" for line in expected), "")


def test_internal_errors_exit_70(capsys, d2_path, monkeypatch):
    argv = ["neighborly", "--complex", d2_path, "--space", "2,2,2", "--kmax", "4"]

    def broken_lp(*args, **kwargs):
        raise AssertionError("faciality LP unexpectedly infeasible")

    monkeypatch.setattr(polytope, "_facial", broken_lp)
    code, out, err = run(capsys, argv)
    assert code == 70 and out == ""
    assert err.startswith("margo: internal error: ") and err.count("\n") == 1
    assert "LP unexpectedly infeasible" in err

    monkeypatch.undo()
    monkeypatch.setattr(polytope.FacialityCertificate, "recheck", lambda self, matrix: False)
    code, out, err = run(capsys, argv)
    assert code == 70 and out == ""
    assert "re-check" in err


def test_a_library_value_error_exits_70(capsys, d2_path, monkeypatch):
    # inputs are checked at the CLI boundary, so a ValueError from a library
    # call on checked inputs is a bug, not a usage error
    def broken(*args, **kwargs):
        raise ValueError("k_max must be at least 1")

    monkeypatch.setattr(polytope, "neighborliness", broken)
    argv = ["neighborly", "--complex", d2_path, "--space", "2,2,2", "--kmax", "4"]
    assert run(capsys, argv) == (
        70, "", "margo: internal error: ValueError('k_max must be at least 1')\n")


def test_collapse_subcommand(capsys, tmp_path):
    cmap = tmp_path / "c.map"
    cmap.write_text("1: 0 1 1\n2: 0 1 1\n")
    table = tmp_path / "t.tab"
    table.write_text("2\n3 3\n1 0 0 0 1 0 0 0 2\n")
    code, out, _ = run(capsys, ["collapse", "--space", "3,3",
                                "--map", str(cmap), "--table", str(table)])
    assert code == 0
    assert "phi-identity: OK (9 checks)" in out
    assert out.endswith("collapsed-table:\n2\n2 2\n1 0 0 3\n")


@pytest.fixture
def collapse_332(tmp_path):
    cmap = tmp_path / "c.map"
    cmap.write_text("1: 0 1 1\n2: 1 0 1\n3: 1 0\n")
    table = tmp_path / "t.tab"
    table.write_text("3\n3 3 2\n1 0 2 0 0 3 1 0 0 0 4 0 0 1 0 0 2 5\n")
    return ["collapse", "--space", "3,3,2", "--map", str(cmap), "--table", str(table)]


def test_collapse_subcommand_three_variables(capsys, collapse_332):
    code, out, _ = run(capsys, collapse_332)
    assert code == 0
    assert out == ("command: collapse\nspace: 3 3 2\ndegree: 19\ncollapsed-degree: 19\n"
                   "phi-identity: OK (27 checks)\n"
                   "collapsed-table:\n3\n2 2 2\n0 2 3 1 0 0 6 7\n")


@pytest.mark.parametrize("broken, first", [
    ({frozenset({1, 3}): (2, 3), frozenset({2}): (1,)}, "B={2} z=(1,)"),
    ({frozenset({1, 3}): (2, 3)}, "B={1,3} z=(1, 0)"),
    ({frozenset(): (0,), frozenset({1, 2, 3}): (5,)}, "B={} z=()"),
])
def test_collapse_subcommand_reports_first_failure(capsys, monkeypatch, collapse_332,
                                                   broken, first):
    from margo import collapse
    sides = collapse._phi_sides

    def skewed(c, u, phi_u, members):
        left, right = sides(c, u, phi_u, members)
        counts = list(right.counts)
        for ix in broken.get(frozenset(members), ()):
            counts[ix] += 1
        return left, ContingencyTable(right.space, tuple(counts))

    monkeypatch.setattr(collapse, "_phi_sides", skewed)
    code, out, _ = run(capsys, collapse_332)
    assert code == 1
    assert f"phi-identity: FAILED at {first}\n" in out
    assert out.endswith("collapsed-table:\n3\n2 2 2\n0 2 3 1 0 0 6 7\n")


def test_negative_matrix_dimensions_are_usage_errors(capsys, tmp_path):
    moves = tmp_path / "neg.moves"
    moves.write_text("-2 -8\n" + " 1" * 16 + "\n")
    code, out, err = run(capsys, ["verify-markov", "--space", "2,2,2", "--G", "1,2,3",
                                  "--degree-limit", "4", "--moves", str(moves)])
    assert code == 64 and out == ""
    assert err == "margo: usage error: matrix dimensions must be nonnegative, got -2 -8\n"


def test_mi_subcommand(capsys, tmp_path):
    dens = tmp_path / "p.vec"
    dens.write_text("0.5 0 0 0 0 0 0 0.5\n")
    code, out, _ = run(capsys, ["mi", "--space", "2,2,2", "--density", str(dens)])
    assert code == 0
    assert "mi: 1.38629436112" in out


def test_non_finite_numbers_are_usage_errors(capsys, ind_path, tmp_path):
    dens = tmp_path / "p.vec"
    dens.write_text("nan 0.5 0.5 0\n")
    code, out, err = run(capsys, ["mi", "--space", "2,2", "--density", str(dens)])
    assert code == 64 and out == ""
    assert err == "margo: usage error: probabilities must be finite\n"

    theta = tmp_path / "theta.vec"
    theta.write_text("inf 0 0 0\n")
    code, out, err = run(capsys, ["density", "--complex", ind_path,
                                  "--space", "2,2", "--theta", str(theta)])
    assert code == 64 and out == ""
    assert err == "margo: usage error: theta must be finite\n"


def test_density_subcommand(capsys, ind_path, tmp_path):
    theta = tmp_path / "theta.vec"
    theta.write_text("0 0 0 0\n")
    code, out, _ = run(capsys, ["density", "--complex", ind_path,
                                "--space", "2,2", "--theta", str(theta)])
    assert code == 0
    assert "density: 0.25 0.25 0.25 0.25" in out


def test_tableau_subcommand(capsys, tmp_path):
    table = tmp_path / "u.tab"
    table.write_text("3\n2 2 2\n1 0 0 0 0 0 1 2\n")
    code, out, _ = run(capsys, ["tableau", "--table", str(table)])
    assert code == 0
    assert out == "000\n110\n111\n111\n"


def test_out_flag_writes_file(capsys, ind_path, tmp_path):
    target = tmp_path / "matrix.txt"
    code, out, _ = run(capsys, ["matrix", "--complex", ind_path,
                                "--space", "2,2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n"


def test_out_to_unwritable_path_is_usage_error(capsys, ind_path, tmp_path):
    target = tmp_path / "no-such-dir" / "matrix.txt"
    code, out, err = run(capsys, ["matrix", "--complex", ind_path,
                                  "--space", "2,2", "--out", str(target)])
    assert code == 64 and out == ""
    assert err.startswith(f"margo: usage error: cannot write {target}: ")


def test_module_entry_point_reads_sys_argv(ind_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "margo", "matrix", "--complex", ind_path,
                           "--space", "2,2"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n"


def test_kv_mode(capsys, d2_path):
    code, out, _ = run(capsys, ["degree-bound", "--complex", d2_path,
                                "--space", "2,2,2", "--kv"])
    assert code == 0
    assert "status=PASS" in out
    assert "g=3" in out

    code, out, _ = run(capsys, ["neighborly", "--complex", d2_path,
                                "--space", "2,2,2", "--kmax", "3", "--kv"])
    assert code == 0
    assert "k=3\n" in out


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["matrix", "--space", "2,2"])
    assert code == 64

    code, _, err = run(capsys, ["verify-markov", "--space", "2,2"])
    assert code == 64

    bad = tmp_path / "bad.cx"
    bad.write_text("not a complex\n")
    code, _, err = run(capsys, ["matrix", "--complex", str(bad), "--space", "2,2"])
    assert code == 64

    code, _, err = run(capsys, ["matrix", "--complex", "/nonexistent/x.cx",
                                "--space", "2,2"])
    assert code == 64


@pytest.mark.parametrize("argv, message", [
    (["matrix", "--complex", "{d2}", "--space", "2,x"],
     "--space must be a comma-separated list of integers: '2,x'"),
    (["neighborly", "--space", "2,2"], "a complex is required (--complex FILE or --G)"),
    (["matrix", "--complex", "{d2}", "--space", ""], "--space q1,q2,... is required"),
    (["moves", "--space", "2,2", "--G", ""], "--G i,j,... is required"),
    (["verify-markov", "--complex", "{d2}", "--space", "2,2,2", "--degree-limit", "2"],
     "without --moves, --G is required to build the interval moves"),
    (["verify-markov", "--space", "3,2", "--G", "1", "--degree-limit", "2"],
     "interval moves need a binary space; pass --moves instead"),
    (["verify-markov", "--space", "2,2", "--G", "1", "--degree-limit", "2",
      "--drop-move", "2"], "--drop-move index out of range 0..1"),
    (["degree-bound", "--complex", "{full}", "--space", "2,2"],
     "complex is the full power set: kernel is zero, no binomials exist"),
    (["collapse", "--space", "3,2", "--map", "{map}", "--table", "{table}"],
     "collapsing map does not match --space"),
    (["collapse", "--space", "3,3", "--map", "{map}", "--table", "{table22}"],
     "table does not match --space"),
    (["moves", "--space", ",", "--G", "1"], "--space q1,q2,... is required"),
    (["neighborly", "--complex", "{d2}", "--space", " , "], "--space q1,q2,... is required"),
    (["verify-markov", "--space", ",", "--G", "1", "--degree-limit", "2"],
     "--space q1,q2,... is required"),
    (["degree-bound", "--space", ",", "--G", "1"], "--space q1,q2,... is required"),
    (["mi", "--space", ",", "--density", "{table22}"], "--space q1,q2,... is required"),
    # every input is checked at the CLI boundary, before anything is computed
    (["neighborly", "--complex", "{d2}", "--space", "2,2"],
     "complex on 3 indices vs space on 2 variables"),
    (["matrix", "--complex", "{d2}", "--space", "2,2,1"], "alphabet sizes must be >= 2, got 1"),
    (["neighborly", "--space", "2,2", "--G", "1,3"], "element 3 out of range 1..2"),
    (["moves", "--space", "2,2", "--G", "3"], "element 3 out of range 1..2"),
    (["verify-markov", "--space", "2,2,2", "--G", "1,2", "--degree-limit", "-1"],
     "degree limit must be nonnegative"),
    (["verify-markov", "--complex", "{empty}", "--space", "2,2", "--moves", "{moves}",
      "--degree-limit", "2"], "cannot verify a model with no facets: every fiber is infinite"),
    (["verify-markov", "--complex", "{d2}", "--space", "2,2,2", "--moves", "{moves8}",
      "--degree-limit", "2"], "move is not in the kernel of the marginal map"),
    (["mi", "--space", "2,2", "--density", "{words}"], "could not convert string to float: 'a'"),
    (["density", "--complex", "{d2}", "--space", "2,2,2", "--theta", "{words}"],
     "could not convert string to float: 'a'"),
    (["density", "--complex", "{d2}", "--space", "2,2,2", "--theta", "{moves}"],
     "theta length 6 != 12 matrix rows"),
    (["degree-bound", "--complex", "{d2}", "--space", "2,2,2", "--ceiling", "-2"],
     "ceiling must be nonnegative, got -2"),
    (["tableau", "--table", "{words}"], "table text needs three lines: n, cardinalities, entries"),
])
def test_usage_error_lines(capsys, tmp_path, argv, message):
    files = {"d2": D2_COMPLEX, "full": FULL_COMPLEX, "map": "1: 0 1 1\n2: 0 1 1\n",
             "table": "2\n3 3\n1 0 0 0 1 0 0 0 2\n", "table22": "2\n2 2\n1 0 0 1\n",
             "empty": "2\n", "moves": "1 4\n1 -1 -1 1\n", "moves8": "1 8\n1 -1 0 0 0 0 0 0\n",
             "words": "a b\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: str(tmp_path / name) for name in files}
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out, err) == (64, "", f"margo: usage error: {message}\n")


def test_reports_without_kernel_vectors(capsys, tmp_path, d2_path):
    # the full simplex has a zero kernel; d2 over 2^3 has no binomial below degree 4
    full = tmp_path / "full.cx"
    full.write_text(FULL_COMPLEX)
    assert run(capsys, ["kernel-basis", "--complex", str(full)]) == (0, "0 4\n", "")
    assert run(capsys, ["degree-bound", "--complex", d2_path, "--space", "2,2,2",
                        "--kmax", "3"]) == (0, (
        "command: degree-bound\ncomplex: 3 ; {1,2} {1,3} {2,3}\nspace: 2 2 2\n"
        "g: 3\nbound: 4\nkmax: 3\n"
        "witness-degree: none (no binomial of degree <= 3)\nstatus: PASS\n"), "")


def test_verify_markov_on_ten_binary_variables(capsys):
    # 1024 configurations, more than the default recursion limit
    code, out, err = run(capsys, ["verify-markov", "--space", ",".join(["2"] * 10),
                                  "--G", "1,2", "--degree-limit", "0"])
    assert code == 0 and err == ""
    assert "status: PASS" in out


def test_readme_examples(capsys, tmp_path, monkeypatch):
    # the shell block under "Examples:" in the README: its first line writes
    # d2.cx, and each `margo ...` line exits 0, or 1 where marked `# exit 1`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    write, *lines = [line for line in block.splitlines() if line]
    assert write == r"printf '3\n1 2\n1 3\n2 3\n' > d2.cx"
    (tmp_path / "d2.cx").write_text(D2_COMPLEX)
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 5
    for line in lines:
        command, _, comment = line.partition("#")
        argv = command.split()
        assert argv[0] == "margo", line
        code, out, err = run(capsys, argv[1:])
        assert code == (1 if comment.strip().startswith("exit 1") else 0), (line, err)
        assert out and err == "", line


def test_readme_library_tour():
    # the Python block under "Library tour", run statement by statement; each
    # commented expression's value is checked against its comment
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    scope, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, scope)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert scope["cx"] == from_facets(2, [{1}, {2}]) and scope["sp"] == binary_space(2)
    assert scope["m"].vector == (1, -1, -1, 1)
    assert [u.counts for u in scope["fib"].tables] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    cert = values["is_facial(cx, sp, [(0, 0), (1, 1)])"]
    assert values == {
        "marginal_matrix(cx, sp).rows": ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)),
        "kernel_basis(cx)": (character(2, {1, 2}),),
        "fiber_connected(fib, [m]).connected": True,
        "verify_markov_basis(cx, sp, [m], degree_limit=6).passed": True,
        "min_binomial_degree(cx, sp, 2)": (2, scope["m"]),
        "is_facial(cx, sp, [(0, 0), (1, 1)])": cert,
        "neighborliness(cx, sp, 2).k": 1,
    }
    assert not cert.is_face and cert.outside_mass == 1
    half = Fraction(1, 2)
    assert cert.combination == (0, half, half, 0)
