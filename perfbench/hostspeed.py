"""Host-speed correction for timings taken on a shared machine.

On a shared host the same pure-Python work can run 1.5 times slower for
tens of seconds at a time (other tenants on the same physical cores; CPU
time tracks wall time, so this is not scheduler steal).  Medians over a
run cannot remove a slow period that covers the run.

The benchmark therefore times a fixed reference kernel (a *tick*) every
`SAMPLE_EVERY_S` on a background thread that shares the benchmark's CPU,
and reports each call's latency multiplied by `NOMINAL_TICK_S / tick`,
where `tick` is the mean of the ticks taken during the call and the two
that bracket it.  The reported times are the times the calls would take on
a host where one tick takes `NOMINAL_TICK_S`; the raw times are printed
in the stamp beside them.

The kernel is independent of margo and mixes the interpreter work margo
does (small-int loops, tuple and dict churn, Fraction arithmetic).  The
cyclic collector is off during a tick, so the size of margo's heap does
not leak into the reference.  A tick holds the interpreter lock for about
2 ms, well inside the 5 ms switch interval, so it is never cut short, and a
call it lands in loses exactly the tick's duration, which is subtracted.

Creating a file swings far more than CPU speed on such a host: from about
0.03 ms to about 1 ms per new file within minutes.  Set-up writes the CLI
input files (about 200 on `cli-small`), so set-up times its writes apart
and scales them by `NOMINAL_FILE_S / io_tick()`, a fixed reference of new
small files created just before and just after.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import os
import shutil
import threading
from fractions import Fraction
from time import perf_counter

# Median tick on the host the benchmark was calibrated on (2 vCPUs,
# Python 3.11.7).  Only the ratio to it matters.
NOMINAL_TICK_S = 0.0005
SAMPLE_EVERY_S = 0.1
# Typical cost of creating one small file on that host, and the size of
# the file-creation reference.
NOMINAL_FILE_S = 0.0002
IO_TICK_FILES = 16


def _kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(600):
        key = (i % 17, i * 7 % 13)
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            acc += Fraction(i % 7 + 1, i % 11 + 1)
    return len(table) + acc.denominator


def tick() -> float:
    """Median of three timed runs of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def steady_tick() -> float:
    """Median of three ticks, for bracketing a single short window."""
    return sorted(tick() for _ in range(3))[1]


def factor(before: float, after: float) -> float:
    """Scale for a timing bracketed by two ticks."""
    return NOMINAL_TICK_S / ((before + after) / 2)


_io_ticks = itertools.count()


def io_tick(directory) -> float:
    """Seconds per new small file: median of three batches of IO_TICK_FILES.

    The files go to a new subdirectory of `directory`, which is removed
    afterwards; only the creation and writing are timed.
    """
    times = []
    for _ in range(3):
        sub = os.path.join(directory, f"iotick-{os.getpid()}-{next(_io_ticks)}")
        os.makedirs(sub)
        start = perf_counter()
        for i in range(IO_TICK_FILES):
            with open(os.path.join(sub, f"{i}.txt"), "w") as fh:
                fh.write("0 1 2 3\n" * 16)
        times.append((perf_counter() - start) / IO_TICK_FILES)
        shutil.rmtree(sub, ignore_errors=True)
    return sorted(times)[1]


def io_factor(before: float, after: float) -> float:
    """Scale for file writes bracketed by two io_ticks."""
    return NOMINAL_FILE_S / ((before + after) / 2)


def _pin_to_current_cpu() -> None:
    """Keep this thread, and threads it starts, on the CPU it runs on now."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no /proc or no affinity control: ticks may then run on another CPU


class Sampler:
    """Background ticks for the duration of a `with` block."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, tick)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        _pin_to_current_cpu()
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._take()
        self._index()

    def _index(self) -> None:
        self.samples.sort()
        self._starts = [s for s, _, _ in self.samples]
        self._spent = [0.0, *itertools.accumulate(e - s for s, e, _ in self.samples)]

    def _take(self) -> None:
        start = perf_counter()
        t = tick()
        self.samples.append((start, perf_counter(), t))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._take()

    def ticks_within(self, start: float, end: float) -> float:
        """Time the ticks took inside a window timed on the main thread.

        Ticks lie wholly inside or wholly outside a window, since both hold
        the interpreter lock while timing.  Call after the block has exited.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        return self._spent[hi] - self._spent[lo]

    def factor(self, start: float, end: float) -> float:
        """Scale for a window: nominal over the mean of its ticks and the two around it."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        ticks = [t for _, _, t in self.samples[max(lo - 1, 0):hi + 1]]
        return NOMINAL_TICK_S / (sum(ticks) / len(ticks))

    def correct(self, start: float, end: float) -> tuple[float, float]:
        """Raw (ticks subtracted) and host-corrected duration of a window."""
        raw = end - start - self.ticks_within(start, end)
        return raw, raw * self.factor(start, end)
