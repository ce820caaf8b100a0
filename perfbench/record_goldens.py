"""Record the golden CLI reports that the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

Every CLI call any workload can make (all pool members, every seed) is run
once in-process with cold caches; its exit code and the SHA-256 of its
stdout and stderr go to `perfbench/goldens.json`.  The reports of the
`neighborly` and `markov` instances are stored in full for reading.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

import run
import workloads


def main() -> int:
    workdir = run.OUT / "goldens"
    margo = run.import_margo()
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        calls = workloads.golden_pool(workdir, margo)
        caches = workloads.lru_caches(margo)
        goldens = {}
        for call in calls:
            call.bind(margo, {}, caches)
            call.prepare()
            rc, out, err = call.run()
            entry = {"exit": rc, "stdout_sha256": workloads.digest(out),
                     "stderr_sha256": workloads.digest(err)}
            if not call.key.startswith("cli-small:"):
                entry["stdout"] = out
            goldens[call.key] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"commit": run.git_commit(), "python": platform.python_version(),
              "calls": goldens}
    run.GOLDENS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} goldens at {record['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
