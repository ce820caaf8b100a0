"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench

The last test repeats the ROADMAP baseline sweep of uniform_complex(3, 2)
on 3x3x3 up to k = 4 and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracer as tracing
import workloads

margo = run.import_margo()


def _args(workload, seed=1, seconds=0.0, trace=0):
    return run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])


def _inputs(workload, seed, tmp_path):
    """What the program receives: argv plus the bytes of every file it reads."""
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir()
    calls = workloads.build(workload, seed, workdir, margo, {})
    if workload == "fibers":
        return [c.counts for c in calls]
    files = {p.name: p.read_text() for p in workdir.iterdir()}
    return [[a.replace(str(workdir), "") for a in c.argv] for c in calls], files


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", ["fibers", "cli-small"])
def test_seed_changes_inputs(workload, tmp_path):
    first = _inputs(workload, 1, tmp_path)
    assert _inputs(workload, 2, tmp_path) != first
    (tmp_path / "again").mkdir()
    assert _inputs(workload, 1, tmp_path / "again") == first


def test_corrupted_golden_raises_fail_frac():
    goldens = json.loads(run.GOLDENS.read_text())["calls"]
    corrupted = {key: dict(g, stdout_sha256="0" * 64) for key, g in goldens.items()
                 if key.startswith("cli-small:mi:")}
    record = run.run(_args("cli-small"), goldens_override=corrupted)
    result = record["result"]
    mi_calls = record["stamp"]["sizes"]["calls_by_subcommand"]["mi"]
    assert result["failed"] == mi_calls * record["stamp"]["rounds"] > 0
    assert record["stamp"]["fail_frac"] > 0
    assert result["correct"] is False


def test_clean_run_has_no_failures():
    record = run.run(_args("markov"))
    assert record["result"]["correct"] and record["result"]["failed"] == 0
    assert set(record["result"]["metrics"]) == set(run.END_TO_END)


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    calls = workloads.build("fibers", 3, tmp_path, margo, {})[:10]
    layout = margo.spaces.layout
    tracer = tracing.Tracer(margo)
    tracer.start_round()
    for call in calls:
        call.check(tracer.call(call.run), first=True)
    (stats,) = tracer.round_stats()
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert stats["bench.call.calls"] == 10
    assert stats["fiber.enumerate_fiber.calls"] == 10
    assert stats["spaces.layout.calls"] == 30  # marginal_map, enumerate, connected
    assert self_total == pytest.approx(stats["trace.wall_s"], rel=1e-9)
    # every rebinding is undone after a traced call
    for mod in (margo.spaces, margo.fiber, margo.polytope, margo.characters, margo.expfam):
        assert mod.layout is layout


def test_host_correction_subtracts_ticks_inside_a_window():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_TICK_S
    # ticks at 0-1, 5-6 (inside the window 2..10) and 12-13, each twice nominal
    sampler.samples = [(0.0, 1.0, 2 * nominal), (5.0, 6.0, 2 * nominal), (12.0, 13.0, 2 * nominal)]
    sampler._index()
    assert sampler.correct(2.0, 10.0) == (7.0, 3.5)
    assert sampler.correct(1.5, 4.0) == (2.5, 1.25)


def test_traced_self_times_exclude_ticks_and_are_host_corrected():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_TICK_S
    # one tick of 1 s at 4-5, inside the child span 3..7; ticks run at half speed
    sampler.samples = [(0.0, 0.1, 2 * nominal), (4.0, 5.0, 2 * nominal), (20.0, 20.1, 2 * nominal)]
    sampler._index()
    tracer = tracing.Tracer(margo)
    tracer.start_round()
    tracer.spans[:] = [(0, tracing.ROOT_SPAN, -1, 1.0, 11.0), (0, "fiber.enumerate_fiber", 0, 3.0, 7.0)]
    (stats,) = tracer.round_stats(sampler)
    assert stats["fiber.enumerate_fiber.self_s"] == pytest.approx(1.5)  # (4 - 1) / 2
    assert stats["bench.call.self_s"] == pytest.approx(3.0)  # (10 - 4) / 2
    assert stats["trace.wall_s"] == pytest.approx(4.5)


def test_setup_corrects_file_writes_apart():
    raw, corrected = run.setup("cli-small", 1, run.OUT / "test-setup")[0]
    shutil.rmtree(run.OUT / "test-setup")
    assert len(workloads.WRITE_TIMES) > 150
    assert 0 < sum(workloads.WRITE_TIMES) < raw and corrected > 0


def test_git_commit_reads_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "ab" * 20 + " refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "ab" * 20
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("cd" * 20 + "\n")
    assert run.git_commit() == "cd" * 20


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, "p90 (rank 90 of 100, 10 beyond)")
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fibers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced(fn):
    tracer = tracing.Tracer(margo)
    tracer.start_round()
    tracer.call(fn)
    return tracer.round_stats()[0]


def test_roadmap_baseline_counts():
    cx = margo.interval_complement(5, (1, 2))
    space = margo.binary_space(5)
    moves = margo.interval_moves(5, (1, 2))
    stats = _traced(lambda: margo.fiber.verify_markov_basis(cx, space, moves, 6))
    assert stats["fiber.verify_markov_basis.fibers_checked"] == 164

    d2 = margo.uniform_complex(3, 2)
    stats = _traced(lambda: margo.polytope.neighborliness(d2, margo.ConfigSpace((3, 3, 3)), 4))
    assert stats["polytope.is_facial.calls"] == 20853
    assert stats["polytope.lp_solve.calls"] == 4374
