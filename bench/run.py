#!/usr/bin/env python3
"""fpcert benchmark: closed-loop run -> certify pipelines on seeded problems.

Run from the repository root:

    python3 bench/run.py --workload newton-dense --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 bench/selfcheck.py

Each instance of a workload is a pipeline of `fpcert.cli.main(argv)` calls,
in process, on problem files generated from (seed, instance index); see
workloads.py for the workloads and why they were chosen.  `all` runs the
workloads BENCHMARK.json lists; noisy-certify runs only when named.  One client
runs instances back to back for --seconds, and at least MIN_INSTANCES of them
so that the tail percentile has ten instances beyond it.

--trace 0 prints the end-to-end metrics, with every time scaled to a fixed
reference host speed (see REFERENCE_S below for why and how); the unscaled
wall times are printed above the result line and kept in result.json.
--trace 1 runs every instance twice
on the same files, once plain and once with the tracer of tracer.py installed
(alternating which goes first), prints the per-layer metrics as per-instance
medians of the traced runs, checks the counts against the counts the
structure of each workload implies, and reports the tracing overhead as
traced minus plain pipeline median.  Spans are kept in memory and written to
.bench_out/<workload>-seed<n>-trace1/spans.json when the run ends.  On
fredholm-sweep the three sweep jobs run on threads that take turns on the
interpreter lock, so layer times there add up over threads and can exceed
the wall time; cli.sweep_overlap is that factor for the solve spans.  Traced
times are unscaled wall times.

The benchmark and the processes it starts run on one CPU (pin_to_one_cpu).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program under test is the `src/fpcert`
next to this directory; without it the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_INSTANCES = 11
MIN_TRACED = 3
# one fresh set-up process before the first instance and after every second
# one, so that set-up samples span the run like the instances do
SETUP_EVERY = 2

# import fpcert and resolve one generated problem file, in a fresh interpreter.
# The child inherits the benchmark's one-CPU affinity (see pin_to_one_cpu).
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fpcert.problems import load_problem
for path in sys.argv[2:]:
    load_problem(path)
print(repr(time.perf_counter() - t0))
"""

# metric names and units come from BENCHMARK.json, so the two cannot drift
# apart; _layer_metrics and run_plain must produce exactly these
with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])
# the workloads `--workload all`, selfcheck.py and record.py run; any other
# workload of workloads.WORKLOADS runs only when named
BENCHMARKED = tuple(w["name"] for w in _SPEC["workloads"])


# Host-speed reference.  The host this benchmark was tuned on is a shared
# machine whose speed for the same interpreter work drifts by 20-40% over
# seconds to minutes, which swamps the run-to-run spread of raw wall times.
# So every timed call and set-up process is bracketed by two timings of a
# fixed interpreter workload that never touches fpcert (a 30-term sum of
# w*sin(x) walked recursively, like the exprparse trees that dominate the
# program), and its wall time is scaled by REFERENCE_S / (mean of the two).
# End-to-end times are therefore seconds at a host speed where REF_WALKS walks
# take REFERENCE_S; the raw wall times go to result.json beside them.  Only
# a change to fpcert moves the scaled times, since the reference runs outside
# every timed region and shares no code with it.
REF_WALKS = 250
# a median of three keeps one preempted sample from setting the scale
REF_REPEATS = 3
REFERENCE_S = 0.005


def _ref_node(j: int) -> tuple:
    return ("*", ("num", 0.01 * (j % 7) - 0.03), ("sin", ("var", "x%d" % (j % 30 + 1))))


_REF_TREE = _ref_node(0)
for _j in range(1, 30):
    _REF_TREE = ("+", _REF_TREE, _ref_node(_j))
_REF_ENV = {"x%d" % (i + 1): 0.1 * i for i in range(30)}


def _ref_eval(node: tuple, env: dict) -> float:
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "sin":
        return math.sin(_ref_eval(node[1], env))
    a, b = _ref_eval(node[1], env), _ref_eval(node[2], env)
    return a + b if op == "+" else a * b


def reference_seconds() -> float:
    """Wall time of REF_WALKS walks of the reference tree, median of REF_REPEATS."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        for _ in range(REF_WALKS):
            _ref_eval(_REF_TREE, _REF_ENV)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at reference host speed, from the reference timed around it."""
    return elapsed * 2.0 * REFERENCE_S / (before + after)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The host-speed reference must time the CPU the program runs on.  Left
    free, the scheduler also moves the short-lived set-up processes between
    CPUs, which added about 40% to their time, and bounces the sweep's
    three threads, which take turns on the interpreter lock anyway, between
    CPUs; pinned, on the 2-vCPU shared host this was tuned on, the
    within-run spread of fredholm-sweep's per-step time fell from 0.16-0.35
    to 0.07-0.14 of its median.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SetupError(RuntimeError):
    pass


def out_dir(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its instances, result.json and spans.json."""
    return ROOT / ".bench_out" / ("%s-seed%d-trace%d" % (workload, seed, trace))


def _import_cli():
    if not (SRC / "fpcert" / "cli.py").is_file():
        raise SetupError("no fpcert sources at %s" % (SRC / "fpcert"))
    sys.path.insert(0, str(SRC))
    import fpcert.cli
    if Path(fpcert.cli.__file__).resolve().parent != SRC / "fpcert":
        raise SetupError("imported fpcert from %s, not from %s" % (fpcert.cli.__file__, SRC))
    return fpcert.cli.main


def measure_setup(problem: Path) -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(problem)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError("setup process failed: %s" % done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


def run_instance(cli_main, inst, around=None, reference=False) -> dict:
    """Run one instance's CLI calls back to back, then check its artifacts.

    A call's time is the median over its repeats; a phase's time is the sum
    over the calls of that phase.  `wall` is the instance's raw wall time.

    `around(phase)`, when given, is a context manager entered outside the
    timed region of each call.  With `reference`, the host-speed reference is
    timed before every call and after the last one, outside the timed
    regions, and the phase times are scaled to reference speed; `raw_phases`
    keeps them unscaled.
    """
    gc.collect()
    phases, raw_phases, problems, wall = {}, {}, [], 0.0
    ref = reference_seconds() if reference else None
    for call in inst.calls:
        times, raw = [], []
        for _ in range(call.repeats):
            out, err = io.StringIO(), io.StringIO()
            with around(call.phase) if around else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli_main(call.argv)
                except Exception as exc:  # an instance that raises is a failed instance
                    elapsed = time.perf_counter() - start
                    wall += elapsed
                    raw_phases[call.phase] = raw_phases.get(call.phase, 0.0) + elapsed
                    if reference:
                        elapsed = scaled(elapsed, ref, reference_seconds())
                    phases[call.phase] = phases.get(call.phase, 0.0) + elapsed
                    return {"phases": phases, "raw_phases": raw_phases, "wall": wall,
                            "steps": 0, "failed": True, "bytes": 0,
                            "problems": ["%s raised %r" % (call.phase, exc)]}
                elapsed = time.perf_counter() - start
            wall += elapsed
            raw.append(elapsed)
            if reference:
                after = reference_seconds()
                elapsed, ref = scaled(elapsed, ref, after), after
            times.append(elapsed)
            if code != call.expected_exit:
                problems.append("%s exited %d, expected %d: %s"
                                % (call.phase, code, call.expected_exit, err.getvalue().strip()))
        phases[call.phase] = phases.get(call.phase, 0.0) + statistics.median(times)
        raw_phases[call.phase] = raw_phases.get(call.phase, 0.0) + statistics.median(raw)
    try:
        found, steps = workloads.check_instance(inst)
    except (OSError, KeyError, ValueError) as exc:
        found, steps = ["artifacts unreadable: %r" % exc], 0
    problems += found
    return {"phases": phases, "raw_phases": raw_phases, "wall": wall, "steps": steps,
            "failed": bool(problems), "problems": problems,
            "bytes": workloads.artifact_bytes(inst)}


def tail(values: list):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    Only at 100 or more samples is this p90 or above; with the 13-24 instances
    of a 55-s run it is p23-p58, close to the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _should_continue(start: float, seconds: float, done: list, minimum: int) -> bool:
    if len(done) < minimum:
        return True
    # start another instance only if it is expected to end within the window
    typical = statistics.median(done)
    return time.perf_counter() - start + typical <= seconds


# ---------------------------------------------------------------------------
# --trace 0


def _end_to_end(records: list, setup_times: list, phases: str) -> dict:
    pipeline = [sum(r[phases].values()) for r in records]
    solve = [r[phases].get("solve", 0.0) for r in records]
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_p50_s": statistics.median(pipeline),
        "pipeline_tail_s": tail(pipeline)[0],
        "solve_p50_s": statistics.median(solve),
        "certify_p50_s": statistics.median(r[phases].get("certify", 0.0) for r in records),
        "steps_per_s": sum(r["steps"] for r in records) / sum(solve),
        "success_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_plain(cli_main, name: str, seed: int, seconds: float, out_root: Path):
    setup_problem = workloads.make_instance(name, seed, 0, out_root / "setup").out
    setup_problem /= "problem.yaml"
    records, setup_times, raw_setup = [], [], []
    start = time.perf_counter()
    while _should_continue(start, seconds, [r["wall"] for r in records], MIN_INSTANCES):
        if len(records) % SETUP_EVERY == 0:
            before = reference_seconds()
            raw_setup.append(measure_setup(setup_problem))
            setup_times.append(scaled(raw_setup[-1], before, reference_seconds()))
        inst = workloads.make_instance(name, seed, len(records), out_root / "i")
        records.append(run_instance(cli_main, inst, reference=True))
        shutil.rmtree(inst.out)
    shutil.rmtree(setup_problem.parent)

    metrics = _end_to_end(records, setup_times, "phases")
    tail_pct = tail([sum(r["phases"].values()) for r in records])[1]
    detail = {"setup_times": setup_times, "raw_setup_times": raw_setup, "instances": records,
              "raw_wall": _end_to_end(records, raw_setup, "raw_phases"),
              "pipeline_tail_percentile": tail_pct}
    print("pipeline_tail_s is p%.1f of %d instances; setup_s is the median of %d processes"
          % (tail_pct, len(records), len(setup_times)))
    print("times are at reference host speed; unscaled wall times: %s"
          % ", ".join("%s %.6g" % kv for kv in detail["raw_wall"].items()))
    return metrics, END_TO_END, records, detail


# ---------------------------------------------------------------------------
# --trace 1


def _count(agg: dict, counts: dict, name: str) -> int:
    return agg[name][0] if name in agg else counts.get(name, 0)


def _layer_metrics(agg: dict, counts: dict, bytes_written: int) -> dict:
    def count(name):
        return _count(agg, counts, name)

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    sweep = total("cli.cmd_sweep")
    return {
        "exprparse.eval_calls": count("exprparse.eval_expr"),
        "exprparse.eval_s": total("exprparse.eval_expr"),
        "exprparse.parse_calls": count("exprparse.parse_expr"),
        "exprparse.parse_s": total("exprparse.parse_expr"),
        "core.apply_calls": count("core.OperatorSpec.apply"),
        "core.apply_self_s": self_s("core.OperatorSpec.apply"),
        "core.derivative_calls": count("core.OperatorSpec.derivative_at"),
        "core.matrix_of_calls": count("core.matrix_of"),
        "core.matrix_of_s": total("core.matrix_of"),
        "core.vector_inits": count("core.Vector.__init__"),
        "core.norm_calls": count("core.norm_of"),
        "schemes.steps": sum(count(s) for s in tracer.STEPS),
        "schemes.run_outer_s": total("schemes.run_outer"),
        "schemes.run_outer_self_s": self_s("schemes.run_outer"),
        "schemes.step_s": sum(total(s) for s in tracer.STEPS),
        "greens.apply_calls": count("greens.apply_integral_operator"),
        "greens.apply_self_s": self_s("greens.apply_integral_operator"),
        "greens.kernel_evals": count("greens.KernelSpec.evaluate"),
        "greens.kernel_eval_s": total("greens.KernelSpec.evaluate"),
        "sequences.calls": count("sequences.ScalarSequence.__call__"),
        "sequences.values_calls": count("sequences.ScalarSequence.values"),
        "sequences.values_s": total("sequences.ScalarSequence.values"),
        "majorant.simulations": count("majorant.simulate_recurrence"),
        "majorant.simulate_s": total("majorant.simulate_recurrence"),
        "majorant.cert_calls": sum(count(c) for c in tracer.CERTS),
        "majorant.cert_self_s": sum(self_s(c) for c in tracer.CERTS),
        "majorant.search_calls": count("majorant.search_witnesses"),
        "majorant.search_candidates": counts.get("majorant.search_candidates", 0),
        "majorant.search_s": total("majorant.search_witnesses"),
        "majorant.tail_bound_calls": count("majorant.tail_bound"),
        "majorant.tail_bound_s": total("majorant.tail_bound"),
        "problems.resolve_calls": count("problems.resolve_config"),
        "problems.resolve_s": total("problems.resolve_config"),
        "cli.run_self_s": self_s("cli.cmd_run"),
        "cli.certify_self_s": self_s("cli.cmd_certify"),
        "cli.artifact_bytes": bytes_written,
        "cli.sweep_overlap": total("greens.run_integral_iteration") / sweep if sweep else 0.0,
    }


def structural_check(name: str, inst, phase_counts: dict) -> list:
    """Counts the structure of the workload implies; a miss means a call site escaped."""
    solve, certify = phase_counts["solve"], phase_counts["certify"]

    def n(phase, target):
        return _count(*phase, target)

    def both(target):
        return n(solve, target) + n(certify, target)

    expect = []
    if name == "newton-dense":
        d, steps = workloads.NEWTON_DIM, inst.meta["steps"]
        expect += [("solve eval_expr", n(solve, "exprparse.eval_expr"),
                    steps * (d ** 3 + 2 * d) + d),
                   ("certify eval_expr", n(certify, "exprparse.eval_expr"), d),
                   ("derivative_at", both("core.OperatorSpec.derivative_at"), steps * d),
                   ("matrix_of", both("core.matrix_of"), steps),
                   ("step_newton", both("schemes.step_newton"), steps),
                   ("tail_bound", both("majorant.tail_bound"), steps)]
    elif name == "fredholm-sweep":
        by_m = inst.meta["steps_by_m"]
        expect += [("kernel evaluations", both("greens.KernelSpec.evaluate"),
                    sum((s + 1) * (m + 1) ** 2 for m, s in by_m.items())),
                   ("integral applies", both("greens.apply_integral_operator"),
                    sum(s + 1 for s in by_m.values())),
                   ("pointwise applies", both("core.OperatorSpec.apply"),
                    sum((s + 1) * (m + 1) for m, s in by_m.items())),
                   ("resolve_config", both("problems.resolve_config"),
                    (1 + workloads.FREDHOLM_CERTIFY_REPEATS) * len(by_m))]
        expect += [(t, both(t), 0) for t in ("schemes.run_outer", "core.matrix_of",
                                             "sequences.ScalarSequence.__call__",
                                             "majorant.simulate_recurrence")]
    else:
        steps = workloads.NOISY_STEPS
        expect += [("step_contraction", both("schemes.step_contraction"), steps),
                   ("solve applies", n(solve, "core.OperatorSpec.apply"), 2 * steps + 1),
                   ("solve eval_expr", n(solve, "exprparse.eval_expr"), 2 * steps + 1),
                   ("certify eval_expr", n(certify, "exprparse.eval_expr"), 1),
                   ("tail_bound", both("majorant.tail_bound"), steps)]
    if name != "fredholm-sweep":
        expect += [(t, both(t), 0) for t in ("greens.KernelSpec.evaluate",
                                             "greens.apply_integral_operator")]
    return ["%s: counted %d, structure implies %d" % (what, got, want)
            for what, got, want in expect if got != want]


def _merge(parts):
    agg, counts = {}, {}
    for part_agg, part_counts in parts:
        for key, value in part_agg.items():
            agg[key] = [a + b for a, b in zip(agg.get(key, (0, 0.0, 0.0)), value)]
        for key, value in part_counts.items():
            counts[key] = counts.get(key, 0) + value
    return agg, counts


def run_traced(cli_main, name: str, seed: int, seconds: float, out_root: Path):
    tr = tracer.Tracer()
    plain, traced, records, spans, per_instance = [], [], [], [], []
    t0 = time.perf_counter()
    while _should_continue(t0, seconds, [a + b for a, b in zip(plain, traced)], MIN_TRACED):
        index = len(traced)
        phase_counts = {}

        @contextlib.contextmanager
        def around(phase):
            try:
                with tr.root(index, "bench." + phase):
                    yield
            finally:
                agg, counts, taken = tr.take()
                phase_counts[phase] = _merge([phase_counts.get(phase, ({}, {})), (agg, counts)])
                spans.extend(taken)

        for kind in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            inst = workloads.make_instance(name, seed, index, out_root / kind)
            if kind == "plain":
                rec = run_instance(cli_main, inst)
                plain.append(sum(rec["phases"].values()))
            else:
                tr.install()
                try:
                    rec = run_instance(cli_main, inst, around)
                finally:
                    tr.uninstall()
                if not rec["failed"]:
                    rec["problems"] = structural_check(name, inst, phase_counts)
                    rec["failed"] = bool(rec["problems"])
                per_instance.append(_layer_metrics(*_merge(phase_counts.values()),
                                                   rec["bytes"]))
                traced.append(sum(rec["phases"].values()))
            records.append(rec)
            shutil.rmtree(inst.out)

    metrics = {key: statistics.median(p[key] for p in per_instance) for key in per_instance[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print("tracing overhead: traced pipeline p50 %.4f s - plain p50 %.4f s over %d pairs"
          % (statistics.median(traced), statistics.median(plain), len(traced)))
    names = sorted({s[1] for s in spans})
    index_of = {n: i for i, n in enumerate(names)}
    with open(out_root / "spans.json", "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "instance"],
                   "names": names,
                   "spans": [[s[0], index_of[s[1]], round(s[2] - t0, 9), round(s[3] - t0, 9),
                              s[4], s[5]] for s in spans],
                   "per_instance": per_instance}, fh, separators=(",", ":"))
    detail = {"per_instance": per_instance, "plain_pipeline": plain, "traced_pipeline": traced,
              "instances": records}
    return metrics, PER_LAYER, records, detail


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload of BENCHMARK.json in its own process and print its metrics."""
    results = {}
    for name in BENCHMARKED:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        print("== %s" % name)
        print(done.stdout.rstrip())
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli_main = _import_cli()
    except (SetupError, ImportError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    out_root = out_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    pin_to_one_cpu()
    run = run_traced if args.trace else run_plain
    try:
        metrics, spec, records, detail = run(cli_main, args.workload, args.seed,
                                             args.seconds, out_root)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in records)
    for rec in records:
        for problem in rec["problems"]:
            print("FAILED: %s" % problem)
    for key, unit in spec:
        print("%-28s %16.6g %s" % (key, metrics[key], unit))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in spec}}
    with open(out_root / "result.json", "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, detail=detail,
                       python=sys.version.split()[0], nproc=os.cpu_count()), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
