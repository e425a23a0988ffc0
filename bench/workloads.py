"""Seeded problem generators, CLI pipelines and output checks for the benchmark.

Every workload is a closed loop with one client: an instance is a short
pipeline of `fpcert` CLI calls on problem files generated from
(seed, instance index), and the next instance starts when the previous one
has finished.  The program only ever sees the generated files and argv.

Why these three workloads (each stresses a different layer and bypasses the
layers the others stress):

- newton-dense: a dim-30 dense system solved by Newton and certified at
  horizon 200.  Expression evaluation and Jacobian materialisation do about
  90% of the work (matrix_of calls the analytic derivative 30 times, and each
  call evaluates all 900 entries), and the majorant has eta > 0, so every
  tail bound re-runs the bounded certificate.
- fredholm-sweep: an expression kernel on [0, 1] swept over m = 50, 100, 200.
  Kernel evaluation does nearly all the work because the (m+1)^2 matrix is
  rebuilt every Picard step.  It is the only workload on the sweep thread
  pool and never touches the majorant, the sequences, the Jacobian or the
  outer scheme loop.
- noisy-certify: 2000 noisy 1-D contraction steps, then all five regimes by
  witness search at horizon 500.  The majorant and the sequences do most of
  the work with eta = 0 (witness search dominates, tail bounds are trivial),
  and the run phase isolates outer-loop, Vector/norm and CSV-write overhead.

BENCHMARK.json lists newton-dense and fredholm-sweep only.  The host these
were tuned on changes speed by up to 2x over tens of seconds, and only two
workloads leave room for runs long enough to average that out; between them
they still reach every layer.  noisy-certify stays runnable by name.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import yaml

ALL_REGIMES = ("bounded", "uniform_max", "sandwich", "geometric", "quadratic")

# certify exits 1 whenever a requested regime is invalid, so exit 1 is the
# expected outcome on the two workloads that request an invalid regime
NEWTON_DIM = 30
NEWTON_HORIZON = 200
NEWTON_REGIMES = ("bounded", "uniform_max", "quadratic")
NEWTON_VALID = {"bounded", "uniform_max"}
NOISY_STEPS = 2000
NOISY_HORIZON = 500
NOISY_VALID = {"bounded", "uniform_max"}
FREDHOLM_MS = (50, 100, 200)
# trapezoid error is O(h^2) with h = 1/m; the m = 100 and m = 200 solutions
# differ by a few 1e-6 at shared nodes for these kernels
FREDHOLM_GRID_TOL = 1e-4
RESIDUAL_TOL = 1e-12
# each fredholm certify call takes about 3 ms, short enough that one sample per
# instance leaves its median at the mercy of a few host hiccups; the call's
# time is the median of this many repeats
FREDHOLM_CERTIFY_REPEATS = 3


@dataclass
class Call:
    """One CLI call of an instance: its phase, argv and the exit code it must give."""

    phase: str          # "solve" or "certify"
    argv: List[str]
    expected_exit: int
    repeats: int = 1


@dataclass
class Instance:
    workload: str
    index: int
    out: Path
    calls: List[Call]
    meta: Dict = field(default_factory=dict)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _write_problem(path: Path, cfg: dict) -> None:
    # yaml.safe_dump writes floats the YAML 1.1 loader reads back as floats
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False, width=1 << 20)


def _signed_sum(terms: List[Tuple[float, str]]) -> str:
    text = ""
    for coef, atom in terms:
        if not text:
            text = "%r*%s" % (coef, atom)
        else:
            text += " %s %r*%s" % ("-" if coef < 0 else "+", abs(coef), atom)
    return text


def newton_dense_config(rng: np.random.Generator) -> dict:
    """A_i(x) = b_i + 0.3 sum_j W_ij sin(x_j) with unit l1 rows, so M = K = 0.3."""
    n = NEWTON_DIM
    W = rng.uniform(-1.0, 1.0, size=(n, n))
    W /= np.sum(np.abs(W), axis=1, keepdims=True)
    b = rng.uniform(-1.0, 1.0, size=n)
    operator = ["%r + 0.3*(%s)" % (float(b[i]),
                                   _signed_sum([(float(W[i, j]), "sin(x%d)" % (j + 1))
                                                for j in range(n)]))
                for i in range(n)]
    derivative = [["0.3*%r*cos(x%d)" % (float(W[i, j]), j + 1) for j in range(n)]
                  for i in range(n)]
    return {
        "name": "newton-dense",
        "kind": "fixed_point",
        "dim": n,
        "operator": operator,
        "derivative": derivative,
        "x0": [0.0] * n,
        "norm": "sup",
        "scheme": "newton",
        "constants": {"M": 0.3, "K": 0.3},
        "perturbation": {"mode": "additive-seeded-random",
                         "seed": int(rng.integers(1 << 31)),
                         "eps": {"kind": "geometric", "c": 1.0e-3, "ratio": 0.5}},
        "stop": {"max_n": 60, "residual_tol": RESIDUAL_TOL},
        "certificates": [{"regime": r, "witnesses": "search"} for r in NEWTON_REGIMES],
    }


# plastic-number lattice steps: consecutive instances fill the (c, w) square
# evenly, so any run's instances span the 12..16 Picard steps these kernels need
_R2 = (1.0 / 1.324717957244746, 1.0 / 1.324717957244746 ** 2)


def fredholm_config(seed: int, index: int) -> dict:
    """x(t) = int_0^1 c exp(-w (t-s)^2) (0.5 sin x(s) + 1) ds; contraction <= 0.2.

    (c, w) in [0.2, 0.4] x [0.5, 2] follow a low-discrepancy sequence with a
    random shift drawn from the seed.
    """
    shift = np.random.default_rng(seed).random(2)
    u = (shift + index * np.array(_R2)) % 1.0
    c = 0.2 + 0.2 * float(u[0])
    w = 0.5 + 1.5 * float(u[1])
    return {
        "name": "fredholm-sweep",
        "kind": "integral",
        "dim": 1,
        "operator": ["0.5*sin(x1) + 1"],
        "x0": [0.0],
        "integral": {"kernel": "%r*exp(-%r*(t - s)^2)" % (c, w), "T_end": 1.0,
                     "m": FREDHOLM_MS[0]},
        "stop": {"max_n": 60, "residual_tol": RESIDUAL_TOL},
    }


def noisy_config() -> dict:
    return {
        "catalog": "perturbed-linear-random",
        "stop": {"max_n": NOISY_STEPS},
        "certificates": [{"regime": r, "witnesses": "search"} for r in ALL_REGIMES],
    }


def make_instance(workload: str, seed: int, index: int, out: Path) -> Instance:
    """Write instance `index` of `workload` under `out` and return its CLI calls."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, index)
    problem = out / "problem.yaml"
    trace = str(out / "trace")
    if workload == "newton-dense":
        _write_problem(problem, newton_dense_config(rng))
        calls = [Call("solve", ["run", str(problem), "--out", trace], 0),
                 Call("certify", ["certify", str(problem), "--trace", trace,
                                  "--horizon", str(NEWTON_HORIZON)], 1)]
        return Instance(workload, index, out, calls)
    if workload == "fredholm-sweep":
        _write_problem(problem, fredholm_config(seed, index))
        # certify rejects integral traces (exit 1) before touching the majorant;
        # that rejection, once per sweep output, is this pipeline's certify step
        calls = [Call("solve", ["sweep", str(problem), "--param", "m", "--values",
                                ",".join(str(m) for m in FREDHOLM_MS), "--out", trace], 0)]
        calls += [Call("certify", ["certify", str(problem), "--trace",
                                   str(out / "trace" / ("m=%d" % m))], 1, FREDHOLM_CERTIFY_REPEATS)
                  for m in FREDHOLM_MS]
        return Instance(workload, index, out, calls)
    if workload == "noisy-certify":
        _write_problem(problem, noisy_config())
        noise_seed = str(int(rng.integers(1 << 31)))
        calls = [Call("solve", ["run", str(problem), "--out", trace, "--seed", noise_seed], 0),
                 Call("certify", ["certify", str(problem), "--trace", trace,
                                  "--horizon", str(NOISY_HORIZON), "--seed", noise_seed], 1)]
        return Instance(workload, index, out, calls)
    raise ValueError("unknown workload %r" % workload)


# every workload make_instance can build; BENCHMARK.json names the measured ones
WORKLOADS = ("newton-dense", "fredholm-sweep", "noisy-certify")


# ---------------------------------------------------------------------------
# output checks


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_certify(report: dict, expected_valid: set) -> List[str]:
    problems = []
    got = {c["regime"]: c for c in report.get("certificates", [])}
    valid = {r for r, c in got.items() if c["valid"]}
    if valid != expected_valid:
        problems.append("valid regimes %s, expected %s" % (sorted(valid), sorted(expected_valid)))
    slack = report["slack"]
    for regime in sorted(valid):
        margin = got[regime]["min_margin_measured"]
        if margin is not None and margin < -slack:
            problems.append("%s: measured margin %r below -slack %r" % (regime, margin, slack))
    return problems


def _check_run(run: dict, stop_reason: str) -> List[str]:
    if run.get("stop_reason") != stop_reason:
        return ["run stopped on %r, expected %r" % (run.get("stop_reason"), stop_reason)]
    if stop_reason == "residual_tol" and not run["final_residual"] <= RESIDUAL_TOL:
        return ["final residual %r above %r" % (run["final_residual"], RESIDUAL_TOL)]
    return []


def _read_solution(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["value"]) for row in csv.DictReader(fh)])


def check_instance(inst: Instance) -> Tuple[List[str], int]:
    """Check the artifacts of a finished instance.

    Returns (problems found, outer or Picard steps the solve phase completed).
    Tolerances, not byte equality, so that a later change of evaluation order
    does not count as a failure.
    """
    trace = inst.out / "trace"
    if inst.workload == "fredholm-sweep":
        problems, steps = [], 0
        for m in FREDHOLM_MS:
            run = _load_json(trace / ("m=%d" % m) / "run.json")
            problems += ["m=%d: %s" % (m, p) for p in _check_run(run, "residual_tol")]
            steps += run["steps"]
            inst.meta.setdefault("steps_by_m", {})[m] = run["steps"]
        with open(trace / "summary.csv", newline="") as fh:
            exits = [row["exit"] for row in csv.DictReader(fh)]
        if exits != ["0"] * len(FREDHOLM_MS):
            problems.append("sweep job exit codes %s" % exits)
        coarse = _read_solution(trace / ("m=%d" % FREDHOLM_MS[-2]) / "solution.csv")
        fine = _read_solution(trace / ("m=%d" % FREDHOLM_MS[-1]) / "solution.csv")
        gap = float(np.max(np.abs(fine[::2] - coarse)))
        if not gap <= FREDHOLM_GRID_TOL:
            problems.append("m=%d and m=%d solutions differ by %r at shared nodes"
                            % (FREDHOLM_MS[-2], FREDHOLM_MS[-1], gap))
        return problems, steps
    run = _load_json(trace / "run.json")
    if inst.workload == "newton-dense":
        problems = _check_run(run, "residual_tol")
        problems += _check_certify(_load_json(trace / "certify.json"), NEWTON_VALID)
    else:
        problems = _check_run(run, "max_n")
        if run["steps"] != NOISY_STEPS:
            problems.append("run made %d steps, expected %d" % (run["steps"], NOISY_STEPS))
        problems += _check_certify(_load_json(trace / "certify.json"), NOISY_VALID)
    inst.meta["steps"] = run["steps"]
    return problems, run["steps"]


def artifact_bytes(inst: Instance) -> int:
    return sum(p.stat().st_size for p in (inst.out / "trace").rglob("*") if p.is_file())
