#!/usr/bin/env python3
"""Counter self-check: two traced runs with the same seed must count the same.

For each workload of BENCHMARK.json this runs `bench/run.py --trace 1` twice
with seed 1 and compares every per-layer count of each instance both runs
traced.  The runs are one second long, so each traces run.MIN_TRACED instances.  Each
traced run has already checked its counts against the counts the workload's
structure implies (run.structural_check), which catches a call site the
wrappers missed; this adds the check that the counts repeat exactly.

    python3 bench/selfcheck.py

Exits 1 on any mismatch or failed run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BENCHMARKED, PER_LAYER, out_dir  # noqa: E402

SEED = 1
SECONDS = 1
EXACT = [name for name, unit in PER_LAYER if unit in ("count", "bytes")]


def traced_counts(workload: str, seed: int, seconds: float) -> list:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip())
    if not json.loads(done.stdout.strip().splitlines()[-1])["correct"]:
        raise RuntimeError("traced run failed its checks:\n" + done.stdout)
    with open(out_dir(workload, seed, 1) / "result.json") as fh:
        per_instance = json.load(fh)["detail"]["per_instance"]
    return [{name: inst[name] for name in EXACT} for inst in per_instance]


def main() -> int:
    ok = True
    for workload in BENCHMARKED:
        try:
            first = traced_counts(workload, SEED, SECONDS)
            second = traced_counts(workload, SEED, SECONDS)
        except RuntimeError as exc:
            print("%s: %s" % (workload, exc))
            ok = False
            continue
        shared = min(len(first), len(second))
        diffs = ["instance %d %s: %r vs %r" % (i, name, first[i][name], second[i][name])
                 for i in range(shared) for name in EXACT if first[i][name] != second[i][name]]
        print("%s: %d instances x %d counts compared, %d differ"
              % (workload, shared, len(EXACT), len(diffs)))
        for line in diffs:
            print("  " + line)
        ok = ok and not diffs
    print("counter self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
