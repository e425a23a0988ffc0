#!/usr/bin/env python3
"""Run the workloads of BENCHMARK.json over several seeds; append to baseline.json.

    python3 bench/record.py --label "<commit or description>" [--traced-seeds 1,2]

For each workload, each of SEEDS gets one plain run (end-to-end metrics) and
each traced seed one traced run (per-layer metrics), each for run_seconds of
BENCHMARK.json, so that every entry is comparable.  The entry stores, per
metric, every value with its median and quartiles, the quartile spread as a
share of the median, and the machine the runs were made on.  A change is
compared against the latest entry measured on the same machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import out_dir  # noqa: E402

with open(HERE.parent / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)

BASELINE = HERE / "baseline.json"
SEEDS = tuple(range(1, 11))


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L" + level] = size
    return sizes


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": model, "cache_per_core": _cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d: %s" % (workload, seed, done.stderr.strip()))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(out_dir(workload, seed, trace) / "result.json") as fh:
        result["detail"] = json.load(fh)["detail"]
    return result


def summarize(results: list) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--traced-seeds", default="1,2")
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    traced_seeds = [int(s) for s in args.traced_seeds.split(",") if s]
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "machine": machine(),
             "seconds": seconds, "seeds": list(SEEDS), "traced_seeds": traced_seeds,
             "workloads": {}}
    ok = True
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, s, seconds, 1) for s in traced_seeds]
        ok = ok and all(r["correct"] for r in plain + traced)
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": summarize(plain),
            "pipeline_tail": [{"percentile": r["detail"]["pipeline_tail_percentile"],
                               "instances": len(r["detail"]["instances"])} for r in plain],
            "per_layer": summarize(traced) if traced else {}}
        for name, m in entry["workloads"][workload]["end_to_end"].items():
            print("%-15s %-16s median %12.6g %-6s spread %.4f"
                  % (workload, name, m["median"], m["unit"], m["spread"]), flush=True)
    history = {"entries": []}
    if BASELINE.exists():
        with open(BASELINE) as fh:
            history = json.load(fh)
    history["entries"].append(entry)
    with open(BASELINE, "w") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    print("appended entry %r to %s" % (args.label, BASELINE))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
