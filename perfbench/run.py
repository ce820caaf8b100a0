"""margo benchmark: closed-loop workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the calls of a workload in a closed loop (each call starts
when the previous one has returned), round after round, for about S
seconds: a round starts only while half a mean round still fits.  Every
output is checked against goldens or closed forms outside the timed
window.  Results:

* `--trace 0` prints the end-to-end metrics, measured with tracing off and
  corrected for the host's speed (see `hostspeed.py`).
* `--trace 1` alternates untraced and traced rounds and prints the
  per-layer metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it stamps the run (interpreter,
cores, platform, commit, seed, sizes).  Exit codes: 0 when every call was
correct, 1 when some call failed, 2 when the benchmark could not run (for
example when `src/margo` is missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 11  # this process plus ten fresh set-up-only processes
END_TO_END = ("setup_s", "wall_s", "call_p50_ms", "call_tail_ms", "peak_rss_mb")

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no goldens)."""


def import_margo():
    sys.path.insert(0, str(SRC))
    try:
        margo = importlib.import_module("margo")
        importlib.import_module("margo.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import margo from {SRC}: {exc}") from None
    if not Path(margo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"margo imported from {margo.__file__}, not from {SRC}")
    return margo


def setup(workload: str, seed: int, workdir: Path):
    """Import margo, generate the seeded inputs and write the CLI files.

    Returns the raw and the host-corrected set-up time, margo and the calls.
    The corrected time scales the input-file writes by the file-creation
    reference and the rest by the CPU reference (see `hostspeed.py`).
    Reading the goldens is the benchmark's own work and is not timed.
    """
    try:
        goldens = json.loads(GOLDENS.read_text())["calls"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read goldens {GOLDENS}: {exc}") from None
    hostspeed.tick()  # the first tick of a fresh interpreter runs cold
    io_before = hostspeed.io_tick(OUT)
    before = hostspeed.steady_tick()
    workloads.WRITE_TIMES.clear()
    start = perf_counter()
    margo = import_margo()
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.build(workload, seed, workdir, margo, goldens)
    raw = perf_counter() - start
    after = hostspeed.steady_tick()
    io_after = hostspeed.io_tick(OUT)
    writes = sum(workloads.WRITE_TIMES)
    corrected = ((raw - writes) * hostspeed.factor(before, after)
                 + writes * hostspeed.io_factor(io_before, io_after))
    return (raw, corrected), margo, calls


def fresh_setup_time(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a new interpreter that does nothing else."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(calls, seconds: float, tracer=None, fresh_setups: int = 0, fresh_setup=None):
    """Closed-loop rounds for about `seconds`; with a tracer, odd rounds are traced.

    A new round starts only while at least half a mean round's time is left,
    so a run overshoots or undershoots `seconds` by at most half a round.
    `fresh_setup()` is timed `fresh_setups` times, spread evenly over the
    run between calls (any left over run at the end), so that a slow phase
    of the host spoils few of them; their time does not count against
    `seconds`.  Returns per-round records of (traced, raw latencies,
    host-corrected latencies), one latency per call, the failures as
    (round, key, reason), the fresh set-up times and the sampler, which
    corrects the tracer's spans too.
    """
    rounds, failures, setups = [], [], []
    every = seconds / (fresh_setups + 1)
    begin = perf_counter()
    paused = 0.0
    with hostspeed.Sampler() as sampler:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.start_round()
            windows = []
            for call in calls:
                call.prepare()
                start = perf_counter()
                try:
                    result = tracer.call(call.run) if traced else call.run()
                except Exception:  # a crash is a failed call; keep measuring
                    windows.append((start, perf_counter()))
                    failures.append((len(rounds), call.key, traceback.format_exc(limit=3)))
                    continue
                windows.append((start, perf_counter()))
                reason = call.check(result, first=not rounds)
                if reason is not None:
                    failures.append((len(rounds), call.key, reason))
                now = perf_counter()
                if len(setups) < fresh_setups and now - begin - paused >= every * (len(setups) + 1):
                    setups.append(fresh_setup())
                    paused += perf_counter() - now
            rounds.append((traced, windows))
            elapsed = perf_counter() - begin - paused
            enough = tracer is None or len(rounds) >= 2
            if enough and elapsed + elapsed / len(rounds) / 2 >= seconds:
                break
        while len(setups) < fresh_setups:
            setups.append(fresh_setup())
    records = []
    for traced, windows in rounds:
        raw, corrected = zip(*(sampler.correct(s, e) for s, e in windows))
        records.append((traced, raw, corrected))
    return records, failures, setups, sampler


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    rank = n - 10
    return ordered[rank - 1], f"p{100 * rank / n:g} (rank {rank} of {n}, 10 beyond)"


def _latencies(calls, rounds):
    """Round walls and per-call medians over the rounds, from raw latencies."""
    walls = [sum(lat) for lat in rounds]
    per_call = [statistics.median(lat[i] for lat in rounds) for i in range(len(calls))]
    return walls, per_call


def end_to_end(calls, rounds, setups):
    """End-to-end metrics from host-corrected times; raw ones go to the stamp."""
    walls, per_call = _latencies(calls, [lat for _, _, lat in rounds])
    raw_walls, raw_per_call = _latencies(calls, [lat for _, lat, _ in rounds])
    tail_s, tail_label = tail(per_call)
    metrics = {
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_ms": (1000 * statistics.median(per_call), "ms"),
        "call_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "call_tail": tail_label,
        "latency_samples": len(rounds) * len(calls),
        "rounds": len(rounds),
        "raw": {
            "setup_s": statistics.median(r for r, _ in setups),
            "wall_s": statistics.median(raw_walls),
            "call_p50_ms": 1000 * statistics.median(raw_per_call),
            "call_tail_ms": 1000 * tail(raw_per_call)[0],
        },
        "host_factor": statistics.median(walls) / statistics.median(raw_walls),
        "setup_samples_raw_corrected": [[round(r, 6), round(c, 6)] for r, c in setups],
        "round_walls_raw_corrected": [[round(r, 6), round(c, 6)]
                                      for r, c in zip(raw_walls, walls)],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; loose or packed refs."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp(args, calls, cores: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": cores,
        "platform": platform.platform(),
        "commit": git_commit(),
        "calls_per_round": len(calls),
        "sizes": workloads.sizes(args.workload, calls),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up in this fresh process, print it and exit")
    return parser.parse_args(argv)


def run(args, goldens_override=None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, margo, calls = setup(args.workload, args.seed, workdir)
        if goldens_override is not None:
            for call in calls:
                if call.key in goldens_override:
                    call.golden = goldens_override[call.key]
        if args.setup_only:
            return {"setup_s": setup_times}
        cores = len(os.sched_getaffinity(0))  # before the sampler pins this process
        tracer = tracing.Tracer(margo) if args.trace else None
        # set-up time is an end-to-end metric only; a traced run skips it
        rounds, failures, fresh, sampler = measure(
            calls, args.seconds, tracer, fresh_setups=0 if args.trace else SETUP_REPEATS - 1,
            fresh_setup=lambda: fresh_setup_time(args.workload, args.seed))
        setups = [setup_times, *fresh]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(rounds) * len(calls)
    info = stamp(args, calls, cores)
    info["fail_frac"] = len(failures) / attempted
    info["failures"] = [f"round {r}: {reason}" for r, _, reason in failures[:20]]
    if tracer is None:
        metrics, detail = end_to_end(calls, rounds, setups)
    else:
        walls = [(traced, sum(lat)) for traced, _, lat in rounds]
        metrics, detail = tracing.per_layer_metrics(
            tracer.round_stats(sampler), [w for traced, w in walls if not traced],
            [w for traced, w in walls if traced])
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    info.update(detail)
    return {
        "stamp": info,
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        record = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(record))
        return 0
    for line in record["stamp"]["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
