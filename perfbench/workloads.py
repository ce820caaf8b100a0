"""Seeded inputs and checked calls for the benchmark workloads.

A workload is the list of calls that make up one round.  Every call has a
stable key, a `run` that the harness times, and a `check` that the harness
runs afterwards, outside the timed window.  The program only ever sees the
generated inputs: CLI calls get files and flags, library calls get tables.

CLI calls come from fixed pools whose reports were recorded as goldens
(`goldens.json`); the workload seed picks pool members and the call order.
Library calls on `fibers` are generated from the seed directly and checked
against closed forms instead of goldens.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path
from time import perf_counter

# Calls per round on cli-small.  Fast types: 23 calls each from a pool of
# 48.  Slow types come from small pools of relabelled (isomorphic)
# instances; with 12 slow calls the tail percentile (10 calls beyond it)
# falls inside the degree-bound group, which does the same work every seed.
FAST_PER_ROUND = 23
FAST_POOL = 48
SLOW_PER_ROUND = {"neighborly": 4, "degree-bound": 8}
FIBER_CALLS = 100
FIBER_CANDIDATES = 2048
FIBER_DEGREE = 48


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lru_caches(margo) -> list:
    """Every functools cache in the package, so a CLI call can start cold."""
    found = {}
    for mod in vars(margo).values():
        if getattr(mod, "__name__", "").startswith("margo.") and hasattr(mod, "__file__"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


# ------------------------------------------------------------------- calls

class CliCall:
    """One `margo` command line, run in-process with captured output.

    Every functools cache in the package is cleared before the call, as a
    fresh `margo` process would start.  Output must match the golden
    (exit code and SHA-256 of stdout and stderr); a neighborliness report
    with a non-face witness must also carry a certificate that re-checks.
    """

    def __init__(self, key: str, argv: list[str], recheck=None):
        self.key = key
        self.argv = argv
        self.recheck = recheck  # (complex, space) for neighborly witnesses
        self.golden = None
        self.caches: list = []
        self.cli = None

    def bind(self, margo, goldens: dict, caches: list) -> None:
        self.margo = margo
        self.cli = margo.cli
        self.caches = caches
        self.golden = goldens.get(self.key)

    def prepare(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, result, first: bool) -> str | None:
        rc, out, err = result
        golden = self.golden
        if golden is None:
            return f"{self.key}: no golden recorded"
        if rc != golden["exit"]:
            return f"{self.key}: exit {rc}, golden {golden['exit']}"
        if digest(out) != golden["stdout_sha256"]:
            return f"{self.key}: stdout differs from golden"
        if digest(err) != golden["stderr_sha256"]:
            return f"{self.key}: stderr differs from golden"
        if self.recheck is not None and "\nwitness:" in out:
            return recheck_witness(self.margo, out, *self.recheck, key=self.key)
        return None


def recheck_witness(margo, report: str, cx, space, *, key: str) -> str | None:
    """Rebuild the printed non-face certificate and re-check it exactly."""
    fields = dict(line.split(": ", 1) for line in report.splitlines() if ": " in line)
    members = tuple(tuple(int(c) for c in tok) for tok in fields["witness"].split())
    lam = [Fraction(0)] * space.size
    for entry in fields["certificate"].split():
        cfg, weight = entry.split("=")
        lam[space.index(tuple(int(c) for c in cfg))] = Fraction(weight)
    matrix = margo.marginal_matrix(cx, space)
    cols = [matrix.col_labels.index(x) for x in members]
    bary = tuple(sum((Fraction(matrix.rows[r][j]) for j in cols), Fraction(0)) / len(cols)
                 for r in range(matrix.nrows))
    cert = margo.FacialityCertificate(members, False, bary, combination=tuple(lam),
                                      outside_mass=Fraction(fields["outside-mass"]))
    if not cert.recheck(matrix):
        return f"{key}: non-face certificate does not re-check"
    return None


class FiberCall:
    """marginal_map -> enumerate_fiber -> fiber_connected on one observed table.

    The model is X1 independent of X2 given (X3, X4), so the fiber size has
    the closed form prod over the four (x3, x4) slices of (least 2x2 margin
    + 1).  Every call must return a connected fiber of that size containing
    the source table; on the first round every table is also checked to be
    distinct, nonnegative and to have the source's marginals.
    """

    def __init__(self, key: str, counts: tuple[int, ...]):
        self.key = key
        self.counts = counts
        self.expected_size = closed_form_fiber_size(counts)
        self.digest = None

    def bind(self, margo, goldens: dict, caches: list) -> None:
        self.spaces = margo.spaces
        self.fiber = margo.fiber
        self.cx = margo.interval_complement(4, (1, 2))
        self.space = margo.binary_space(4)
        self.moves = margo.interval_moves(4, (1, 2))
        self.table = margo.ContingencyTable(self.space, self.counts)

    def prepare(self) -> None:
        pass

    def run(self):
        b = self.spaces.marginal_map(self.cx, self.table)
        fib = self.fiber.enumerate_fiber(self.cx, self.space, b)
        return fib, self.fiber.fiber_connected(fib, self.moves)

    def check(self, result, first: bool) -> str | None:
        fib, report = result
        tables = [t.counts for t in fib.tables]
        if not report.connected:
            return f"{self.key}: fiber reported disconnected"
        if report.size != len(tables) or len(tables) != self.expected_size:
            return f"{self.key}: fiber size {len(tables)}, closed form {self.expected_size}"
        if self.counts not in tables:
            return f"{self.key}: fiber misses its source table"
        if first:
            want = facet_marginals(self.counts)
            if len(set(tables)) != len(tables):
                return f"{self.key}: fiber repeats a table"
            for t in tables:
                if min(t) < 0 or facet_marginals(t) != want:
                    return f"{self.key}: fiber holds a table off the marginal"
            self.digest = hash(tuple(tables))
        elif hash(tuple(tables)) != self.digest:
            return f"{self.key}: fiber differs from the first round"
        return None


# Facets {1,3,4} and {2,3,4} of interval_complement(4, {1, 2}); index bits
# are x1 x2 x3 x4 with x1 most significant.
def facet_marginals(counts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m1 = [0] * 8
    m2 = [0] * 8
    for ix, c in enumerate(counts):
        x1, x2, z = ix >> 3, (ix >> 2) & 1, ix & 3
        m1[(x1 << 2) | z] += c
        m2[(x2 << 2) | z] += c
    return tuple(m1), tuple(m2)


def closed_form_fiber_size(counts) -> int:
    size = 1
    for z in range(4):
        a, b, c, d = (counts[(x1 << 3) | (x2 << 2) | z] for x1 in (0, 1) for x2 in (0, 1))
        size *= min(a + b, c + d, a + c, b + d) + 1
    return size


# --------------------------------------------------------------- workloads

# Duration of every input-file write, for set-up's file-creation correction.
WRITE_TIMES: list[float] = []


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    start = perf_counter()
    path.write_text(text)
    WRITE_TIMES.append(perf_counter() - start)
    return str(path)


def _complex_text(n: int, facets) -> str:
    return "\n".join([str(n)] + [" ".join(map(str, sorted(f))) for f in facets]) + "\n"


def _uniform(n: int, k: int):
    return list(combinations(range(1, n + 1), k))


def neighborly_calls(seed: int, workdir: Path, margo) -> list[CliCall]:
    """The paper's d2 complex uniform_complex(3, 2) on three spaces."""
    path = _write(workdir, "d2.cx", _complex_text(3, _uniform(3, 2)))
    cx = margo.uniform_complex(3, 2)
    calls = []
    for cards, kmax in (((3, 3, 2), 4), ((3, 3, 3), 3), ((2, 2, 2), 4)):
        space = margo.ConfigSpace(cards)
        key = "neighborly:" + "".join(map(str, cards)) + f"-k{kmax}"
        argv = ["neighborly", "--complex", path, "--space", _csv(cards),
                "--kmax", str(kmax)]
        calls.append(CliCall(key, argv, recheck=(cx, space)))
    random.Random(seed).shuffle(calls)
    return calls


def markov_pool(workdir: Path) -> list[CliCall]:
    path = _write(workdir, "u43.cx", _complex_text(4, _uniform(4, 3)))
    calls = [
        CliCall("markov:2^5-T6", ["verify-markov", "--space", "2,2,2,2,2", "--G", "1,2",
                                  "--degree-limit", "6"]),
        CliCall("markov:2^4-T6", ["verify-markov", "--space", "2,2,2,2", "--G", "1,2",
                                  "--degree-limit", "6"]),
        CliCall("markov:degree-bound-u43", ["degree-bound", "--complex", path,
                                            "--space", "2,2,2,2"]),
    ]
    for drop in range(8):
        calls.append(CliCall(f"markov:2^5-T6-drop{drop}",
                             ["verify-markov", "--space", "2,2,2,2,2", "--G", "1,2",
                              "--degree-limit", "6", "--drop-move", str(drop)]))
    return calls


def markov_calls(seed: int, workdir: Path, margo) -> list[CliCall]:
    """Both PASS runs, one seeded dropped move (a FAIL) and the sharp degree bound."""
    pool = markov_pool(workdir)
    rng = random.Random(seed)
    calls = pool[:3] + [pool[3 + rng.randrange(8)]]
    rng.shuffle(calls)
    return calls


def fiber_tables(seed: int) -> list[tuple[int, ...]]:
    """Observed tables of degree 48 on 2^4, stratified by fiber size.

    Draws uniform multinomial candidates from the seed, sorts them by the
    closed-form fiber size and takes evenly spaced order statistics, so the
    size profile of a round is nearly the same for every seed.
    """
    rng = random.Random(seed)
    candidates = []
    for i in range(FIBER_CANDIDATES):
        counts = [0] * 16
        for _ in range(FIBER_DEGREE):
            counts[rng.randrange(16)] += 1
        candidates.append((closed_form_fiber_size(counts), i, tuple(counts)))
    candidates.sort()
    step = FIBER_CANDIDATES / FIBER_CALLS
    picked = [candidates[int((j + 0.5) * step)][2] for j in range(FIBER_CALLS)]
    rng.shuffle(picked)
    return picked


def fibers_calls(seed: int, workdir: Path, margo) -> list[FiberCall]:
    return [FiberCall(f"fibers:{j}", counts) for j, counts in enumerate(fiber_tables(seed))]


# cli-small pools: each generator maps (rng, workdir, tag) to an argv,
# writing the files it names under workdir.

def _random_complex(rng: random.Random, n: int):
    """Up to two to four facets of size 1..n-1, none inside another."""
    want = rng.randint(2, 4)
    candidates = [set(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)]
    rng.shuffle(candidates)
    facets: list[set[int]] = []
    for f in candidates:
        if len(facets) < want and not any(f <= g or g <= f for g in facets):
            facets.append(f)
    return sorted(tuple(sorted(f)) for f in facets)


def _perm_space(rng: random.Random, cards) -> tuple[int, ...]:
    cards = list(cards)
    rng.shuffle(cards)
    return tuple(cards)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _table_text(cards, counts) -> str:
    return f"{len(cards)}\n{' '.join(map(str, cards))}\n{' '.join(map(str, counts))}\n"


def _gen_matrix(rng, workdir, tag):
    cx = _write(workdir, f"{tag}.cx", _complex_text(4, _random_complex(rng, 4)))
    return ["matrix", "--complex", cx, "--space", _csv(_perm_space(rng, (3, 3, 2, 2)))]


def _gen_moves(rng, workdir, tag):
    g = sorted(rng.sample(range(1, 5), rng.randint(2, 3)))
    return ["moves", "--space", "2,2,2,2", "--G", _csv(g)]


def _gen_kernel_basis(rng, workdir, tag):
    cx = _write(workdir, f"{tag}.cx", _complex_text(4, _random_complex(rng, 4)))
    return ["kernel-basis", "--complex", cx]


def _gen_collapse(rng, workdir, tag):
    cards = _perm_space(rng, (3, 3, 2))
    maps = []
    for q in cards:
        image = [0, 1] + [rng.randrange(2) for _ in range(q - 2)]
        rng.shuffle(image)
        maps.append(image)
    map_text = "".join(f"{i}: {' '.join(map(str, m))}\n" for i, m in enumerate(maps, 1))
    counts = [rng.randrange(5) for _ in range(prod(cards))]
    mp = _write(workdir, f"{tag}.map", map_text)
    tb = _write(workdir, f"{tag}.table", _table_text(cards, counts))
    return ["collapse", "--space", _csv(cards), "--map", mp, "--table", tb]


def _gen_mi(rng, workdir, tag):
    cards = _perm_space(rng, (3, 2, 2, 2))
    weights = [rng.randint(1, 50) for _ in range(prod(cards))]
    total = sum(weights)
    text = " ".join(repr(w / total) for w in weights[:-1])
    rest = 1.0 - sum(w / total for w in weights[:-1])
    dens = _write(workdir, f"{tag}.density", f"{text} {rest!r}\n")
    return ["mi", "--space", _csv(cards), "--density", dens]


def _gen_density(rng, workdir, tag):
    facets = _random_complex(rng, 4)
    cards = _perm_space(rng, (3, 2, 2, 2))
    nrows = sum(prod([cards[i - 1] for i in f]) for f in facets)
    theta = " ".join(f"{rng.uniform(-2, 2):.6f}" for _ in range(nrows))
    cx = _write(workdir, f"{tag}.cx", _complex_text(4, facets))
    th = _write(workdir, f"{tag}.theta", theta + "\n")
    return ["density", "--complex", cx, "--space", _csv(cards), "--theta", th]


def _gen_tableau(rng, workdir, tag):
    cards = _perm_space(rng, (3, 2, 2))
    counts = [rng.randrange(5) for _ in range(prod(cards))]
    tb = _write(workdir, f"{tag}.table", _table_text(cards, counts))
    return ["tableau", "--table", tb]


def _gen_verify_markov(rng, workdir, tag):
    g = sorted(rng.sample(range(1, 5), rng.randint(2, 3)))
    argv = ["verify-markov", "--space", "2,2,2,2", "--G", _csv(g),
            "--degree-limit", str(rng.randint(3, 4))]
    return argv + (["--kv"] if rng.random() < 0.5 else [])


FAST_GENERATORS = {
    "matrix": _gen_matrix,
    "moves": _gen_moves,
    "kernel-basis": _gen_kernel_basis,
    "collapse": _gen_collapse,
    "mi": _gen_mi,
    "density": _gen_density,
    "tableau": _gen_tableau,
    "verify-markov": _gen_verify_markov,
}

# Slow types: relabellings of one instance each, so every pool member does
# the same work up to symmetry.
SLOW_SPACES = {
    "neighborly": ((2, 2, 3), (2, 3, 2), (3, 2, 2)),
    "degree-bound": ((2, 2, 2, 3), (2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2)),
}


def _slow_call(kind: str, i: int, workdir: Path, margo) -> CliCall:
    cards = SLOW_SPACES[kind][i]
    key = f"cli-small:{kind}:{i}"
    if kind == "neighborly":
        cx = _write(workdir, "cli-d1.cx", _complex_text(3, _uniform(3, 1)))
        argv = ["neighborly", "--complex", cx, "--space", _csv(cards)]
        return CliCall(key, argv, recheck=(margo.uniform_complex(3, 1), margo.ConfigSpace(cards)))
    cx = _write(workdir, "cli-d2.cx", _complex_text(4, _uniform(4, 2)))
    return CliCall(key, ["degree-bound", "--complex", cx, "--space", _csv(cards)])


def _fast_call(kind: str, i: int, workdir: Path) -> CliCall:
    """Pool member i of a fast type, generated from its key alone."""
    key = f"cli-small:{kind}:{i}"
    return CliCall(key, FAST_GENERATORS[kind](random.Random(key), workdir, key.replace(":", "-")))


def cli_small_pool(workdir: Path, margo) -> list[CliCall]:
    """Every call any seed can draw on cli-small; goldens cover all of them."""
    calls = [_fast_call(kind, i, workdir) for kind in FAST_GENERATORS for i in range(FAST_POOL)]
    for kind, pool in SLOW_SPACES.items():
        calls.extend(_slow_call(kind, i, workdir, margo) for i in range(len(pool)))
    return calls


def cli_small_calls(seed: int, workdir: Path, margo) -> list[CliCall]:
    rng = random.Random(seed)
    calls = [_fast_call(kind, i, workdir) for kind in FAST_GENERATORS
             for i in sorted(rng.sample(range(FAST_POOL), FAST_PER_ROUND))]
    for kind, pool in SLOW_SPACES.items():
        calls.extend(_slow_call(kind, rng.randrange(len(pool)), workdir, margo)
                     for _ in range(SLOW_PER_ROUND[kind]))
    rng.shuffle(calls)
    return calls


ROUND_CALLS = {
    "neighborly": neighborly_calls,
    "markov": markov_calls,
    "fibers": fibers_calls,
    "cli-small": cli_small_calls,
}
WORKLOADS = tuple(ROUND_CALLS)


def build(workload: str, seed: int, workdir: Path, margo, goldens: dict) -> list:
    calls = ROUND_CALLS[workload](seed, workdir, margo)
    caches = lru_caches(margo)
    for call in calls:
        call.bind(margo, goldens, caches)
    return calls


def golden_pool(workdir: Path, margo) -> list[CliCall]:
    """Every CLI call a workload can make, for recording goldens."""
    return (neighborly_calls(0, workdir, margo) + markov_pool(workdir)
            + cli_small_pool(workdir, margo))


def sizes(workload: str, calls) -> dict:
    """What one round holds, for the result stamp."""
    if workload == "fibers":
        fiber_sizes = sorted(c.expected_size for c in calls)
        return {"tables": len(calls), "degree": FIBER_DEGREE,
                "fiber_size_median": fiber_sizes[len(calls) // 2],
                "fiber_size_max": fiber_sizes[-1], "fiber_tables_total": sum(fiber_sizes)}
    if workload == "cli-small":
        kinds: dict[str, int] = {}
        for c in calls:
            kind = c.key.split(":")[1]
            kinds[kind] = kinds.get(kind, 0) + 1
        return {"calls_by_subcommand": kinds}
    return {"calls": [c.key for c in calls]}
