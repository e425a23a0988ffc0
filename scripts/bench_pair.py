#!/usr/bin/env python3
"""Benchmark HEAD against a base commit in alternating pairs; write BENCH_<n>.json.

    python3 scripts/bench_pair.py --base REV --out BENCH_<n>.json
    python3 scripts/bench_pair.py --base REV --layers --out LAYERS.json

Each side is the committed files of its revision, unpacked with `git archive`
into its own new temporary directory, so that both run from alike
directories and the repository's .git gains no worktree entry.  Both sides
run their own, unmodified `bench/run.py`, each in a fresh process, for
`run_seconds` of BENCHMARK.json on every workload it lists.  Pair i runs
seed i, for i = 1..PAIRS, and the side that runs first alternates from pair
to pair, so that a drift in host speed hits both alike.  Each seed in
TRACED_SEEDS gets one `--trace 1` run per side, in alternating order too, so
that a layer claim rests on as many traced pairs as there are traced seeds.

Per workload the JSON holds, for every end-to-end metric of BENCHMARK.json
and every traced layer in LAYERS, each side's values with their median and
quartiles, and how many pairs the change won (ties count for neither side).

Cost: every run, plain or traced, takes about `run_seconds` (55 s), so the
10 plain pairs take about 37 minutes on the two workloads and the 3 traced
seeds per side about 11 minutes more, 7 of them for the seeds past the
first.  A whole pair run took 48 minutes on a 2-vCPU Intel Xeon host with
Python 3.11.

--layers times the layer workloads of LAYER_WORKLOADS instead, on instance 0
of seed 1 of the benchmark's generators: parsing the 930 newton-dense trees,
compiling them (`exprparse._compile`, fresh trees each call, with one
evaluation of each), one newton-dense Jacobian (900 entries, 30 times), one
m = 800 kernel matrix (641,601 kernel evaluations, on a fresh kernel each
time, so with its compilation), the fredholm-sweep operator at the 801 nodes
of an m = 800 grid (`greens._pointwise`: 801 `apply` calls, each building two
Vectors), noisy-certify's `certify` at horizon 1000, newton-dense's `certify`
at the benchmark's horizon 200 (`certify-newton-dense`, the very call whose
`certify_p50_s` the benchmark measures), the set-up of newton-dense and of
fredholm-sweep, and `import fpcert.cli`.  Each timed call of a certify
workload is one `fpcert.cli.main` call, after an untimed `run`, and its
output is the bytes of the `certify.json` the last call wrote.
Every workload runs in a fresh process per side and round, on one CPU, as
`bench/run.py` does.  That process imports its side's `src/fpcert` and
`bench/workloads.py`, makes the untimed setup, then times the number of calls
LAYER_WORKLOADS gives and reports their median and a sha256 of the last
call's output, which is serialized after the timed calls (the parse
workload's `repr` of its trees took about a third of its time; the parse
numbers in `BENCH_17_layers.json` to `BENCH_19_layers.json` include it).
Set-up (`setup-newton-dense`, `setup-fredholm-sweep`) is timed as
`bench/run.py`'s set-up child times it: each of its 21 samples is a fresh
interpreter, which inherits the one CPU, imports `fpcert.problems` and loads
instance 0's problem file, timed from
before the import to after the load; its output is the resolved problem's
`digest`, of every sample, and the process that starts the samples imports
no fpcert itself.  `import-cli` is timed the same way, from before
`import fpcert.cli` to after it, which every `fpcert` command pays before it
reads its problem; its output is the sorted list of the fpcert modules that
import loaded.  Rounds alternate which side goes first, as
the pairs do.  The JSON holds each side's per-round medians with their median
and quartiles, the rounds the change won, and whether every output of both
sides was bit-equal; the exit code is 1 if one was not.  LAYER_ROUNDS = 5
rounds of the six in-process workloads before `certify-newton-dense` took
23 s on the host above, where the pinned rounds of one side spread by up to
about 10%; `certify-newton-dense` adds about 10 s (a process of about 1 s per
side and round: its untimed `run`, then 21 calls of about 17 ms); set-up
adds about 27 s (2.7 s per side and round on a 2-vCPU Intel Xeon host with
Python 3.11) per set-up workload, and its rounds of one side spread by under
2%.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 10
TRACED_SEEDS = (1, 2, 3)

# the traced layers recent work moves, or must not move: expression parsing
# and evaluation, the self times that hold the problem-file load (cli.run,
# cli.certify) and the kernel-matrix fill (greens.apply), and the tail bounds
# and certificates of the majorant
LAYERS = ("exprparse.parse_calls", "exprparse.parse_s",
          "exprparse.eval_calls", "exprparse.eval_s", "greens.kernel_eval_s",
          "core.matrix_of_s", "schemes.run_outer_s", "cli.run_self_s",
          "cli.certify_self_s", "greens.apply_self_s", "majorant.tail_bound_s",
          "majorant.cert_calls", "majorant.cert_self_s")


# layer workloads (--layers): name -> timed calls per process, or for a
# setup-<workload> and import-cli the fresh processes per round
LAYER_WORKLOADS = {"parse-newton-dense": 5, "compile-newton-dense": 5,
                   "jacobian-newton-dense": 5, "kernel-matrix-800": 5,
                   "pointwise-fredholm-800": 20, "noisy-certify-1000": 3,
                   "certify-newton-dense": 21,
                   "setup-newton-dense": 21, "setup-fredholm-sweep": 21, "import-cli": 21}
LAYER_ROUNDS = 5

# certify layer workloads: name -> (benchmark workload, --horizon)
CERTIFY_HORIZONS = {"noisy-certify-1000": ("noisy-certify", "1000"),
                    "certify-newton-dense": ("newton-dense", "200")}

# one setup-<workload> sample: import fpcert.problems and load a problem
# file in a fresh interpreter, as bench/run.py's set-up child does
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fpcert.problems import load_problem
resolved = load_problem(sys.argv[2])
print(repr(time.perf_counter() - t0), resolved.digest)
"""

# one import-cli sample: what every fpcert command pays before it reads its
# problem; its output is the fpcert modules the import loaded
_IMPORT_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fpcert.cli
seconds = time.perf_counter() - t0
print(repr(seconds), ",".join(sorted(m for m in sys.modules if m.startswith("fpcert."))))
"""


def layer_worker(name: str, side: Path, tmp: Path) -> dict:
    """Set up the layer workload `name` on the tree at side, in tmp, and time its calls.

    Runs inside the process `run_layer` starts, so that this side's fpcert
    is the only one imported."""
    # one CPU, as bench/run.py pins itself, so that numpy's threads and the
    # scheduler's moves do not add to the spread
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(side / "src"), str(side / "bench")]
    import numpy as np
    import workloads
    if name.startswith("setup-") or name == "import-cli":
        # only the sample processes import fpcert, each for the first time
        child = ["-c", _IMPORT_CHILD, str(side / "src")]
        if name != "import-cli":
            problem = workloads.make_instance(name[len("setup-"):], 1, 0, tmp).out
            child = ["-c", _SETUP_CHILD, str(side / "src"), str(problem / "problem.yaml")]
        times, outputs = [], []
        for _ in range(LAYER_WORKLOADS[name]):
            done = subprocess.run([sys.executable] + child, cwd=side, capture_output=True,
                                  text=True, timeout=120, check=True)
            seconds, output = done.stdout.split()
            times.append(float(seconds))
            outputs.append(output)
        # every sample's output is hashed, so bit-equal outputs mean all of them agree
        return {"median_s": statistics.median(times), "times_s": times,
                "output_sha256": hashlib.sha256(" ".join(outputs).encode()).hexdigest()}
    from fpcert import cli, exprparse, greens, problems
    from fpcert.core import identity_operator
    assert Path(problems.__file__).resolve().is_relative_to(side.resolve())

    cfg = workloads.newton_dense_config(np.random.default_rng([1, 0]))
    names = ["x%d" % (i + 1) for i in range(cfg["dim"])]
    texts = cfg["operator"] + [t for row in cfg["derivative"] for t in row]
    # call() does the work and returns its output; encode turns the last
    # output into the bytes that are hashed, outside the timed calls
    encode = np.ndarray.tobytes
    if name == "parse-newton-dense":
        def call():
            return [exprparse.parse_expr(t, names) for t in texts]

        def encode(trees):
            return repr(trees).encode()
    elif name == "compile-newton-dense":
        # fresh trees per call; the code objects of one call's functions are
        # freed with them, so every call compiles from source
        fresh = [[exprparse.parse_expr(t, names) for t in texts]
                 for _ in range(LAYER_WORKLOADS[name])]
        point = {n: 0.01 * (i + 1) for i, n in enumerate(names)}

        def call():
            trees = fresh.pop()
            fns = [exprparse._compile(e) for e in trees]
            return [fn(e, point) for fn, e in zip(fns, trees)]

        def encode(values):
            return np.array(values).tobytes()
    elif name == "jacobian-newton-dense":
        inst = workloads.make_instance("newton-dense", 1, 0, tmp)
        resolved = problems.load_problem(inst.calls[0].argv[1])

        def call():
            return resolved.operator.jacobian(resolved.x0)
    elif name == "kernel-matrix-800":
        kernel = workloads.fredholm_config(1, 0)["integral"]["kernel"]
        grid = greens.GridFunction.uniform(1.0, 800, fill=1.0)

        def call():
            spec = greens.kernel_from_expression(kernel, 1.0)
            return greens.apply_integral_operator(spec, identity_operator(1), grid).values
    elif name == "pointwise-fredholm-800":
        operator = problems.operator_from_expressions(
            workloads.fredholm_config(1, 0)["operator"], 1)
        values = np.linspace(-1.0, 1.0, 801)

        def call():
            return greens._pointwise(operator, values)
    elif name in CERTIFY_HORIZONS:
        workload, horizon = CERTIFY_HORIZONS[name]
        inst = workloads.make_instance(workload, 1, 0, tmp)
        solve, certify = inst.calls
        argv = list(certify.argv)
        argv[argv.index("--horizon") + 1] = horizon
        report = Path(argv[argv.index("--trace") + 1]) / "certify.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(solve.argv) == solve.expected_exit

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        def encode(_):
            return report.read_bytes()
    else:
        raise ValueError("unknown layer workload %r" % name)
    times = []
    for _ in range(LAYER_WORKLOADS[name]):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "times_s": times,
            "output_sha256": hashlib.sha256(encode(out)).hexdigest()}


def run_layer(side: Path, name: str) -> dict:
    """layer_worker(name, side) in a fresh process."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--layer-worker",
                           name, "--side", str(side)], cwd=side, capture_output=True,
                          text=True, timeout=900, env=dict(os.environ, PYTHONPATH=""))
    if done.returncode != 0:
        raise RuntimeError("%s on %s: %s" % (name, side, done.stderr.strip()))
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare_layers(sides: dict) -> dict:
    """Every layer workload on both sides for LAYER_ROUNDS interleaved rounds."""
    runs = {name: {side: [] for side in sides} for name in LAYER_WORKLOADS}
    for i in range(LAYER_ROUNDS):
        for name in LAYER_WORKLOADS:
            for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
                runs[name][side].append(run_layer(sides[side], name))
        print("layers round %d done" % (i + 1), flush=True)
    out = {}
    for name, by_side in runs.items():
        digests = {r["output_sha256"] for side in by_side.values() for r in side}
        out[name] = dict(won({"name": "median_s", "unit": "s", "better": "lower"}, by_side),
                         outputs_equal=len(digests) == 1,
                         calls_per_process=LAYER_WORKLOADS[name])
    return out


def unpack(rev: str, into: Path) -> None:
    """Write the committed files of rev into the directory `into`."""
    archive = into / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def run_bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics dict of one `bench/run.py` run on the tree at side."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=side, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d on %s: %s" % (workload, seed, side, done.stderr.strip()))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["correct"] = result["correct"]
    return metrics


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def pairs_of(sides: dict, workload: str, seeds: list, seconds: float, trace: int) -> dict:
    """Run every seed on both sides, alternating which goes first; side -> [metrics]."""
    runs = {name: [] for name in sides}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(run_bench(sides[name], workload, seed, seconds, trace))
            print("%s seed %d trace %d %s done" % (workload, seed, trace, name), flush=True)
    return runs


def won(metric: dict, runs: dict) -> dict:
    """One metric of BENCHMARK.json: both sides' summaries and the pairs the change won."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [r[name] for r in runs["base"]]
    change = [r[name] for r in runs["change"]]
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    return {"unit": metric["unit"], "better": metric["better"],
            "base": summary(base), "change": summary(change),
            "change_wins": wins, "pairs": len(base)}


def compare(spec: dict, plain: dict, traced: dict) -> dict:
    out = {"correct": all(r["correct"] for side in (plain, traced) for runs in side.values()
                          for r in runs),
           "end_to_end": {m["name"]: won(m, plain) for m in spec["end_to_end"]},
           "per_layer": {}}
    layers = {m["name"]: m for m in spec["per_layer"]}
    for name in LAYERS if traced["base"] else ():
        out["per_layer"][name] = won(layers[name], traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="the commit to compare against")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--layers", action="store_true",
                        help="time the layer workloads instead")
    parser.add_argument("--layer-worker", help=argparse.SUPPRESS)
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layer_worker:
        with tempfile.TemporaryDirectory(prefix="layer-") as tmp:
            print(json.dumps(layer_worker(args.layer_worker, Path(args.side), Path(tmp))))
        return 0
    if not args.base or not args.out:
        parser.error("--base and --out are required")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    revs = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in (("base", args.base), ("change", "HEAD"))}
    report = {"base": revs["base"], "change": revs["change"],
              "date": time.strftime("%Y-%m-%d"), "python": platform.python_version()}
    if args.layers:
        report.update(rounds=LAYER_ROUNDS, order="round i runs base first when i is even, "
                      "change first when odd", layers={})
    else:
        report.update(seconds=seconds, seeds=seeds, traced_seeds=list(TRACED_SEEDS),
                      order="pair i runs base first when i is even, change first when odd",
                      workloads={})
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        sides = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            sides[side].mkdir()
            unpack(rev, sides[side])
        if args.layers:
            report["layers"] = compare_layers(sides)
        for workload in () if args.layers else (w["name"] for w in spec["workloads"]):
            plain = pairs_of(sides, workload, seeds, seconds, 0)
            traced = pairs_of(sides, workload, TRACED_SEEDS, seconds, 1)
            report["workloads"][workload] = compare(spec, plain, traced)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if args.layers:
        for name, m in report["layers"].items():
            print("%-22s base %-10.5g change %-10.5g change won %d/%d, outputs %s"
                  % (name, m["base"]["median"], m["change"]["median"], m["change_wins"],
                     m["pairs"], "equal" if m["outputs_equal"] else "DIFFER"))
        return 0 if all(m["outputs_equal"] for m in report["layers"].values()) else 1
    for workload, res in report["workloads"].items():
        for label, group in (("", res["end_to_end"]), (" (traced)", res["per_layer"])):
            for name, m in group.items():
                print("%-15s %-22s base %-10.5g change %-10.5g change won %d/%d%s"
                      % (workload, name, m["base"]["median"], m["change"]["median"],
                         m["change_wins"], m["pairs"], label))
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
