"""Outside-in tracing of margo's layers, from the benchmark's own files.

Each traced layer is one public function of a module under `src/margo/`.
While a traced call runs, the tracer rebinds that function in every margo
module that holds it (so `layout` is caught in `fiber`, `polytope`,
`characters` and `expfam` as well as in `spaces`), records a span per call
and restores the originals afterwards.  Nothing under `src/` changes.

A span is (name, parent, start, end).  Spans stay in memory and are written
out once, after measuring.  A span's self time is its duration minus the
durations of its direct children; the harness's root span `bench.call`
wraps each timed call, so the self times of one round add up to the traced
wall time of that round.  In a benchmark run the host-speed sampler's ticks
are taken out of the spans they land in and every span gets its root's
host-speed factor (see `hostspeed.py`).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

ROOT_SPAN = "bench.call"

# (module, function) pairs that get spans, outermost layers first.
LAYERS = (
    ("cli", "main"),
    ("polytope", "neighborliness"),
    ("polytope", "is_facial"),
    ("polytope", "lp_solve"),
    ("fiber", "verify_markov_basis"),
    ("fiber", "min_binomial_degree"),
    ("fiber", "enumerate_fiber"),
    ("fiber", "fiber_connected"),
    ("spaces", "layout"),
    ("spaces", "marginal_map"),
    ("characters", "kernel_basis"),
    ("characters", "interval_moves"),
    ("collapse", "verify_phi_identity"),
    ("expfam", "density"),
    ("expfam", "multiinformation"),
)


# Work counts taken at a layer boundary from the call's arguments or result.
def _lp_cells(bound, result):
    return {"polytope.lp_cells": len(bound.arguments["rows"]) * len(bound.arguments["objective"])}


def _fibers_checked(bound, result):
    return {"fiber.verify_markov_basis.fibers_checked": result.fibers_checked}


def _fiber_tables(bound, result):
    return {"fiber.enumerate_fiber.tables": result.size}


def _bfs_steps(bound, result):
    # computed: every table tries both signs of every move
    steps = bound.arguments["fiber"].size * 2 * len(bound.arguments["moves"])
    return {"fiber.fiber_connected.steps": steps}


COUNTERS = {
    "polytope.lp_solve": _lp_cells,
    "fiber.verify_markov_basis": _fibers_checked,
    "fiber.enumerate_fiber": _fiber_tables,
    "fiber.fiber_connected": _bfs_steps,
}

# Per-layer metrics reported for every workload, in BENCHMARK.json order.
PER_LAYER = (
    ("polytope.lp_solve.calls", "count"),
    ("polytope.lp_solve.self_s", "s"),
    ("polytope.lp_cells", "count"),
    ("polytope.lp_share", "ratio"),
    ("polytope.is_facial.calls", "count"),
    ("polytope.is_facial.self_s", "s"),
    ("polytope.neighborliness.self_s", "s"),
    ("fiber.verify_markov_basis.self_s", "s"),
    ("fiber.verify_markov_basis.fibers_checked", "count"),
    ("fiber.min_binomial_degree.self_s", "s"),
    ("fiber.enumerate_fiber.calls", "count"),
    ("fiber.enumerate_fiber.self_s", "s"),
    ("fiber.enumerate_fiber.tables", "count"),
    ("fiber.fiber_connected.calls", "count"),
    ("fiber.fiber_connected.self_s", "s"),
    ("fiber.fiber_connected.steps", "count"),
    ("spaces.layout.calls", "count"),
    ("spaces.layout.self_s", "s"),
    ("spaces.marginal_map.self_s", "s"),
    ("characters.kernel_basis.self_s", "s"),
    ("characters.interval_moves.self_s", "s"),
    ("collapse.verify_phi_identity.calls", "count"),
    ("collapse.verify_phi_identity.self_s", "s"),
    ("expfam.density.self_s", "s"),
    ("expfam.multiinformation.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.call.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


class Tracer:
    """Rebinds the layer functions of an imported margo package and records spans."""

    def __init__(self, margo):
        self.spans: list[tuple] = []  # (round, name, parent, start, end)
        self.counts: list[dict] = []  # per traced round
        self.round = -1
        self._stack = [-1]
        self._patches = []  # (module, attribute, wrapper, original)
        modules = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").split(".")[0] == margo.__name__]
        for mod_name, attr in LAYERS:
            original = getattr(getattr(margo, mod_name), attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, wrapper, original))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.round, name, parent, start, end)
            if counter is not None:
                tally = self.counts[self.round]
                for key, value in counter(signature.bind(*args, **kwargs), result).items():
                    tally[key] = tally.get(key, 0) + value
            return result

        return traced

    def start_round(self) -> None:
        self.round += 1
        self.counts.append({})

    def call(self, fn):
        """Run fn() under the root span with every layer rebound."""
        for mod, attr, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (self.round, ROOT_SPAN, -1, start, end)
            for mod, attr, _, original in self._patches:
                setattr(mod, attr, original)

    def round_stats(self, sampler=None) -> list[dict]:
        """Per traced round: calls and self time per span name, wall, counters.

        With a `hostspeed.Sampler`, the sampler's ticks are taken out of every
        span they fall in, and every span is scaled by the host-speed factor
        of its root span, the same correction the end-to-end times get.
        """
        durations = [end - start for _, _, _, start, end in self.spans]
        scale = [1.0] * len(self.spans)
        if sampler is not None:
            for index, (_, _, parent, start, end) in enumerate(self.spans):
                durations[index] -= sampler.ticks_within(start, end)
                # a parent is recorded before its children
                scale[index] = sampler.factor(start, end) if parent < 0 else scale[parent]
        child = [0.0] * len(self.spans)
        for (_, _, parent, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += duration
        stats = [dict(c) for c in self.counts]
        for index, (rnd, name, parent, _, _) in enumerate(self.spans):
            s = stats[rnd]
            s[f"{name}.calls"] = s.get(f"{name}.calls", 0) + 1
            own = (durations[index] - child[index]) * scale[index]
            s[f"{name}.self_s"] = s.get(f"{name}.self_s", 0.0) + own
            if parent < 0:
                s["trace.wall_s"] = s.get("trace.wall_s", 0.0) + durations[index] * scale[index]
        return stats

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (rnd, name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "round": rnd, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")


def per_layer_metrics(stats: list[dict], untraced_walls: list[float],
                      traced_walls: list[float]) -> tuple[dict, dict]:
    """Median over traced rounds of every per-layer metric, plus ratio bases.

    Self times, `trace.wall_s` and the round walls behind the overhead are
    host-corrected, so a host-speed swing between an untraced and a traced
    round does not read as tracing cost.  Layers a workload never calls
    read 0.
    """
    def med(key):
        return statistics.median(s.get(key, 0) for s in stats)

    values = {name: med(name) for name, _ in PER_LAYER
              if name not in ("polytope.lp_share", "trace_overhead_frac")}
    facial = values["polytope.is_facial.calls"]
    values["polytope.lp_share"] = values["polytope.lp_solve.calls"] / facial if facial else 0.0
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    values["trace_overhead_frac"] = traced / untraced - 1.0
    bases = {
        "polytope.lp_share": f"lp_solve.calls / is_facial.calls = "
                             f"{values['polytope.lp_solve.calls']} / {facial}",
        "trace_overhead_frac": f"host-corrected traced wall {traced:.6f} s / "
                               f"untraced wall {untraced:.6f} s - 1",
        "traced_rounds": len(stats),
        "untraced_rounds": len(untraced_walls),
    }
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}, bases
