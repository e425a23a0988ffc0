"""Run the artifact pipelines and print one sha256 line per written file.

    python3 scripts/artifact_digests.py SRC_DIR OUT_DIR > digests.txt

SRC_DIR is the `src` directory of the fpcert tree to exercise, so two trees
(say, before and after a refactor) can be compared by diffing the printed
lines.  The pipelines are:

- every non-integral catalog problem: `run`, then `certify` with all five
  regimes by witness search at horizons 200 and 500;
- newton-dense and noisy-certify instances 0-2 of seed 1, and fredholm-sweep
  instance 0 of seed 1, exactly as `bench/run.py` calls them;
- catalog references with overrides, each a `run`: volterra-exp at its own
  mesh and at m = 100, damped-root at alpha 0.25 (also `certify`) and 0.5,
  seed, stop and mode overrides of the perturbed entries, a name plus scheme
  override, a null perturbation block, a newton run of averaged-cos, and an
  eps override of linear-contraction written `c: 1e-3`, which YAML 1.1 reads
  as a string and the number rule as 0.001 (also `certify`), and a zero
  geometric eps of perturbed-linear with ratio 2, run for 1100 steps, past
  the index where 2^n leaves the float range (also `certify`);
- the paths the catalog defaults miss, each `run` then `certify` with all five
  regimes at horizon 200: newton and modified_newton overrides with eps, sigma
  and gamma budgets in both injection modes, file problems with an `estimate`
  constants block, a file root problem with the newton gamma and no
  `derivative`, a geometric request whose witness grid overflows, a run
  whose start step of 5e199 has a square past the float range, and a newton
  sigma and a contraction eps table whose entry past horizon 200 is zero,
  which no certificate at that horizon may read, a newton problem whose
  operator and derivative use every token and node kind of the expression
  grammar, a contraction and a newton problem with a malformed
  `derivative` entry, which `run` rejects before any output, and a
  contraction whose operator subtracts literals and literal-led products
  with coefficients -0.0, 5e-324 and +-1e308 (the forms the compiled code
  turns into additions), stopped after 14 steps, and run on until, at step
  15, its `5e-324*exp(x1)` overflows and the walk reports it;
- file problems that between them set every key of every problem-file block
  (`constants` with `M_star`/`K_star`, an estimate block with all four
  settings, `stop.r_tol`, a damped root `gamma` with
  `alpha`, an integral block with an expression kernel), each `run` then
  `certify` with all five regimes at horizon 200;
- the refusals, each a call that reports one `error:` line and exits 1,
  except the failing sweep: `certify` of linear-contraction against
  cos-fixed-point's trace (a digest mismatch), file problems run and then
  certified where `certify` finds no completed step (a run started at its
  fixed point) or no majorant (a newton problem with M = 1.5, which still
  writes `certify.json`), a `sweep` with an empty value list, and a seed
  `sweep` whose two jobs both fail at step 1 and are recorded in
  `summary.csv`, which exits 0; then a `run` with an infinite
  `--inner-tol`, and `certify` of three copies of linear-contraction's trace:
  one whose `run.json` has an infinite `inner_tol`, one with every `r_n`
  of `trace.csv` halved, and one whose x_0 = -1e308 and x_1 = 1e308 differ
  by more than the float range, with r_0 = inf; then a `run` whose
  `stop.max_n` is `true`, which the number rule refuses, a newton `run`
  whose sigma term 2 is past the float range, which fails at step 3, a `run`
  whose perturbation seed is -3, and an m `sweep` of volterra-exp whose
  values 50 and 50.0 would both write `m=50/`;
- integral file problems: a `run` that starts from `x0: 0.5`, and the `run`
  refusals of a `scheme`, a `norm` and each noise key of the `perturbation`
  block, which an integral problem does not take, then a `sweep` of
  volterra-exp over `eps`, refused before it writes anything;
- two sweeps whose value list starts with a negative number that is no plain
  decimal, which must be read as the list and refused for its value:
  damped-root over alpha `-1,0,2` and linear-contraction over eps `-1e-3`;
- a dim-12 linear contraction in the `one` norm and in the `euclidean` norm,
  each `run` then `certify` with all five regimes at horizon 200, so that
  the r_n certify recomputes from `iterates.csv` are pinned in every norm.

Exit codes are printed too, with the last line a call wrote to stderr (the
error a failing `run` reports), or the exception a call raised; paths are
relative to OUT_DIR.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import yaml

# spelled out rather than imported: the tree under test may predate majorant.REGIMES
REGIMES = ("bounded", "uniform_max", "sandwich", "geometric", "quadratic")
BENCH_INSTANCES = (("newton-dense", 3), ("noisy-certify", 3), ("fredholm-sweep", 1))
BUDGETS = {"eps": {"kind": "geometric", "c": 1e-3, "ratio": 0.5},
           "sigma": {"kind": "geometric", "c": 1e-2, "ratio": 0.5},
           "gamma": {"kind": "geometric", "c": 1e-2, "ratio": 0.5}}
ESTIMATE = {"estimate": {"radius": 0.5, "samples": 30, "seed": 2}}


CATALOG_OVERRIDES = (
    ("volterra-exp", {"catalog": "volterra-exp"}),
    ("volterra-exp-m100", {"catalog": "volterra-exp", "integral": {"m": 100}}),
    ("damped-root-alpha0.25", {"catalog": "damped-root", "gamma": {"alpha": 0.25}}),
    ("damped-root-alpha0.5", {"catalog": "damped-root", "gamma": {"alpha": 0.5}}),
    ("perturbed-linear-random-seed-stop", {"catalog": "perturbed-linear-random",
                                           "perturbation": {"seed": 11},
                                           "stop": {"max_n": 100}}),
    ("perturbed-linear-mode", {"catalog": "perturbed-linear",
                            "perturbation": {"mode": "additive-seeded-random"}}),
    ("cos-fixed-point-named", {"catalog": "cos-fixed-point", "name": "renamed",
                               "scheme": "modified_newton"}),
    ("linear-contraction-null-perturbation", {"catalog": "linear-contraction",
                                              "perturbation": None}),
    ("averaged-cos-newton", {"catalog": "averaged-cos", "scheme": "newton"}),
    # the string "1e-3" is dumped as a plain 1e-3, which YAML 1.1 reads back as a string
    ("linear-contraction-eps-1e-3", {"catalog": "linear-contraction", "perturbation": {
        "mode": "additive-deterministic", "eps": {"kind": "constant", "c": "1e-3"}}}),
    # 0 * 2^n is 0 at every step, also past n = 1023, where 2^n leaves the float range
    ("perturbed-linear-zero-eps", {"catalog": "perturbed-linear", "perturbation": {
        "eps": {"kind": "geometric", "c": 0.0, "ratio": 2.0}}, "stop": {"max_n": 1100}}),
)
CERTIFIED_OVERRIDES = ("damped-root-alpha0.25", "linear-contraction-eps-1e-3",
                       "perturbed-linear-zero-eps")


def extra_problems():
    """(name, problem mapping) for the paths the catalog defaults leave out."""
    for name in ("two-dim-system", "gentle-newton", "sqrt2-root"):
        for scheme in ("newton", "modified_newton"):
            for mode in ("additive-deterministic", "additive-seeded-random"):
                yield ("%s-%s-%s" % (name, scheme, mode.split("-")[1]),
                       {"catalog": name, "scheme": scheme,
                        "perturbation": dict(BUDGETS, mode=mode, seed=3)})
    yield "estimate-twodim-newton", {
        "operator": ["0.3*cos(x2)", "0.3*sin(x1)"],
        "derivative": [["0", "-0.3*sin(x2)"], ["0.3*cos(x1)", "0"]],
        "x0": [0.0, 0.0], "scheme": "newton", "constants": ESTIMATE,
        "stop": {"max_n": 30, "residual_tol": 1e-13}}
    for scheme, constants in (("newton", ESTIMATE), ("contraction", {"M": 0.14, "K": 0.82})):
        yield "file-root-%s" % scheme, {
            "kind": "root", "operator": "x1^2 - 2", "x0": 1.5, "gamma": {"kind": "newton"},
            "scheme": scheme, "constants": constants,
            "stop": {"max_n": 30, "residual_tol": 1e-13}}
    yield "geometric-overflow", {
        "catalog": "linear-contraction", "scheme": "newton",
        "perturbation": {"mode": "additive-deterministic", "eps": BUDGETS["eps"],
                         "sigma": BUDGETS["sigma"]}}
    # r0^2 is past the float range: no certificate may square the start step
    yield "huge-r0", {"operator": "0.5*x1 + 1", "x0": [1.0e200], "stop": {"max_n": 50},
                      "constants": {"M": 0.5}}
    # lambda_201 = 0 and rho_201 = 0, one index past what horizon 200 reads
    yield "sigma-zero-past-horizon", {
        "operator": "0.5*x1 + 1", "derivative": [["0.5"]], "x0": 0.0, "scheme": "newton",
        "constants": {"M": 0.5, "K": 0.0},
        "perturbation": {"sigma": {"kind": "table", "entries": [0.01] * 201 + [0.0]}}}
    yield "eps-zero-past-horizon", {
        "operator": "0.2*x1 + 1", "x0": 0.0, "constants": {"M": 0.2},
        "perturbation": {"eps": {"kind": "table", "entries": [0.1] * 201 + [0.0]}}}
    # unary-minus chains, ^ with a negative exponent, .5, 5. and 1E-3 literals,
    # nested calls of all six functions, tabs and repeated spaces
    yield "grammar-coverage", {
        "operator": ["0.1\t*  sqrt(exp(log(1 + abs(sin(cos(x1)))^2)))  - -x2/5. + 1E-3",
                     "---.25*(1 + x1^2)^-1 +\t.5"],
        "derivative": [["-0.1*sin(cos(x1))*cos(cos(x1))*sin(x1) / sqrt(1 + sin(cos(x1))^2)",
                        "1/5."],
                       ["\t.5*x1*(1  +  x1^2)^-2", "-(-0)"]],
        "x0": [0.0, 0.0], "scheme": "newton", "constants": ESTIMATE,
        "stop": {"max_n": 30, "residual_tol": 1e-13}}
    # x1 grows about 1.5-fold a step, until exp(x1) overflows at step 15;
    # stopped one step before, the run writes a trace to certify
    for max_n in (14, 40):
        yield "subtracted-literals-max%d" % max_n, {
            "operator": "1 + 2.5*x1 - (1e300*x1 - 1e308 - -1e308)*1e-300 - -0.0 - 5e-324"
                        " - -0.0*x1 - 5e-324*x1 - 1e308*(1e-308*x1) - -1e308*(1e-308*x1)"
                        " - 5e-324*exp(x1)",
            "x0": 0.0, "constants": {"M": 0.5}, "stop": {"max_n": max_n}}
    for scheme in ("contraction", "newton"):
        yield "bad-derivative-%s" % scheme, {
            "operator": ["0.3*cos(x2)", "0.3*sin(x1)"],
            "derivative": [["0", "-0.3*sin(x2)"], ["0.3*cos(x1", "0"]],
            "x0": [0.0, 0.0], "scheme": scheme, "constants": {"M": 0.3, "K": 0.3}}


def every_key_problems():
    """(name, problem mapping) for file problems that set every block key between them."""
    stop = {"max_n": 40, "r_tol": 1e-15, "residual_tol": 1e-13}
    yield "file-every-key", {
        "name": "every-key", "kind": "fixed_point", "dim": 2,
        "operator": ["0.3*cos(x2)", "0.3*sin(x1)"],
        "derivative": [["0", "-0.3*sin(x2)"], ["0.3*cos(x1)", "0"]],
        "x0": [0.0, 0.0], "norm": "euclidean", "scheme": "modified_newton",
        "constants": {"M": 0.3, "K": 0.3, "M_star": 0.35, "K_star": 0.3},
        "perturbation": dict(BUDGETS, mode="additive-seeded-random", seed=5),
        "stop": stop}
    yield "file-estimate-every-setting", {
        "operator": "0.5*x1 + 1", "x0": 0.0, "scheme": "newton", "stop": stop,
        "constants": {"estimate": {"radius": 0.5, "samples": 30, "seed": 2, "safety": 1.25}}}
    yield "file-damped-root", {
        "kind": "root", "operator": "x1^2 - 2", "derivative": [["2*x1"]], "x0": 1.5,
        "gamma": {"kind": "damped", "alpha": 0.3}, "constants": {"M": 0.2, "K": 0.6},
        "stop": stop}
    yield "file-integral-expression", {
        "kind": "integral", "operator": "x1 + 1", "x0": 0.0,
        "integral": {"kernel": "0.2*cos(t - s)", "T_end": 1.5, "m": 60},
        "stop": {"max_n": 40, "residual_tol": 1e-10}}


# `run` then `certify`, where certify refuses: no completed step, no majorant
REFUSED_CERTIFY = (
    ("no-completed-steps", {"operator": "0.5*x1 + 1", "x0": 2.0,
                            "stop": {"residual_tol": 1e-12}}),
    ("no-majorant", {"operator": "cos(x1)", "x0": 0.5, "scheme": "newton",
                     "constants": {"M": 1.5, "K": 1.0}}),
)


# sigma term 2 = 1e-3 * (1e300)^2 is past the float range, so step 3 fails naming it
SIGMA_PAST_FLOAT_RANGE = {
    "operator": ["0.5*x1 + 1", "0.25*x2"], "derivative": [["0.5", "0"], ["0", "0.25"]],
    "x0": [0.0, 0.0], "scheme": "newton", "constants": {"M": 0.5},
    "perturbation": {"mode": "additive-seeded-random", "seed": 3,
                     "sigma": {"kind": "geometric", "c": 1.0e-3, "ratio": 1.0e300}},
    "stop": {"max_n": 5}}


INTEGRAL = {"kind": "integral", "operator": "x1 + 1", "x0": 0.0,
            "integral": {"kernel": "0.2*exp(-(t-s)^2)", "T_end": 1.0, "m": 8}}
# integral problems an integral `run` refuses, each for one key it does not take
REFUSED_INTEGRAL = (
    ("scheme", {"scheme": "newton"}),
    ("norm", {"norm": "euclidean"}),
    ("eps", {"perturbation": {"mode": "additive-deterministic", "eps": 0.5}}),
    ("sigma", {"perturbation": {"sigma": {"kind": "table", "entries": [0.0, 0.1]}}}),
    ("gamma", {"perturbation": {"gamma": {"kind": "geometric", "c": 0.1, "ratio": 0.5}}}),
    ("mode", {"perturbation": {"mode": "additive-seeded-random"}}),
)


def linear_dim12(norm: str) -> dict:
    """x_i -> 0.5 x_i + 0.1 x_{i+1} + i/10, indices mod 12: a contraction by 0.6
    in the sup, one and euclidean norms."""
    return {"operator": ["0.5*x%d + 0.1*x%d + %r" % (i + 1, (i + 1) % 12 + 1, 0.1 * i)
                         for i in range(12)],
            "x0": [0.0] * 12, "norm": norm, "constants": {"M": 0.6}}


def edit_inner_tol(trace: Path) -> None:
    """Set run.json's inner_tol to infinity, which JSON writes as Infinity."""
    info = json.loads((trace / "run.json").read_text())
    info["inner_tol"] = float("inf")
    (trace / "run.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")


def edit_csv(path: Path, edit) -> None:
    """Rewrite the CSV file at path with edit(rows) applied to its rows, header included."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def halve_r(trace: Path) -> None:
    """Halve every r_n of trace.csv."""
    def edit(rows):
        for row in rows[1:]:
            if row[1]:
                row[1] = format(float(row[1]) / 2, ".17g")
    edit_csv(trace / "trace.csv", edit)


def overflow_step(trace: Path) -> None:
    """Set x_0 = -1e308 and x_1 = 1e308, whose difference is past the float
    range, and r_0 = inf."""
    def iterates(rows):
        rows[1:3] = [["0", "-1e308"], ["1", "1e308"]]

    def r(rows):
        rows[1][1] = "inf"
    edit_csv(trace / "iterates.csv", iterates)
    edit_csv(trace / "trace.csv", r)


# certify of an edited copy of linear-contraction's trace, which certify refuses
EDITED_TRACES = (("inner-tol-infinite", edit_inner_tol), ("r-n-halved", halve_r),
                 ("step-overflow", overflow_step))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from fpcert.cli import main as cli_main
    from fpcert.problems import CATALOG
    import workloads

    def call(argv):
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcome = "exit %d" % cli_main(argv)
        except Exception as exc:  # an outcome to compare, not a reason to stop
            outcome = "raised %s" % type(exc).__name__
        lines = err.getvalue().splitlines()
        if lines:
            outcome += " (%s)" % lines[-1].replace(str(out), "OUT")
        print("%s: %s" % (outcome, " ".join(a.replace(str(out), "OUT") for a in argv)))

    def run_and_certify(d, problem, horizons):
        d.mkdir(parents=True, exist_ok=True)
        path = d / "problem.yaml"
        path.write_text(yaml.safe_dump(dict(problem, certificates=[
            {"regime": r, "witnesses": "search"} for r in REGIMES])))
        call(["run", str(path), "--out", str(d / "trace")])
        for horizon in horizons:
            call(["certify", str(path), "--trace", str(d / "trace"),
                  "--horizon", str(horizon), "--out", str(d / ("h%d" % horizon))])

    for name, entry in CATALOG.items():
        if entry.kind != "integral":
            run_and_certify(out / "catalog" / name, {"catalog": name}, (200, 500))
    for workload, count in BENCH_INSTANCES:
        for index in range(count):
            inst = workloads.make_instance(workload, 1, index, out / workload / str(index))
            for c in inst.calls:
                call(c.argv)
    for label, problem in CATALOG_OVERRIDES:
        d = out / "override" / label
        d.mkdir(parents=True)
        path = d / "problem.yaml"
        path.write_text(yaml.safe_dump(problem))
        call(["run", str(path), "--out", str(d / "trace")])
        if label in CERTIFIED_OVERRIDES:
            call(["certify", str(path), "--trace", str(d / "trace"), "--out", str(d / "h200")])
    for name, problem in extra_problems():
        run_and_certify(out / "extra" / name, problem, (200,))
    for name, problem in every_key_problems():
        run_and_certify(out / "every-key" / name, problem, (200,))
    refusal = out / "refusal"
    call(["certify", "linear-contraction",
          "--trace", str(out / "catalog" / "cos-fixed-point" / "trace"),
          "--out", str(refusal / "digest-mismatch")])
    for name, problem in REFUSED_CERTIFY:
        run_and_certify(refusal / name, problem, (200,))
    call(["sweep", "linear-contraction", "--param", "eps", "--values", ",",
          "--out", str(refusal / "sweep-no-values")])
    d = refusal / "sweep-failing-jobs"
    d.mkdir(parents=True)
    (d / "problem.yaml").write_text(yaml.safe_dump({"operator": "log(x1) + 1", "x0": 0.0}))
    call(["sweep", str(d / "problem.yaml"), "--param", "seed", "--values", "1,2",
          "--out", str(d / "sweep")])
    call(["run", "linear-contraction", "--inner-tol", "inf",
          "--out", str(refusal / "run-inner-tol-infinite")])
    for name, edit in EDITED_TRACES:
        trace = refusal / name / "trace"
        shutil.copytree(out / "catalog" / "linear-contraction" / "trace", trace)
        edit(trace)
        call(["certify", "linear-contraction", "--trace", str(trace),
              "--out", str(refusal / name / "h200")])
    d = refusal / "max-n-boolean"
    d.mkdir(parents=True)
    (d / "problem.yaml").write_text(yaml.safe_dump(
        {"operator": "0.5*x1 + 1", "x0": 0.0, "stop": {"max_n": True}}))
    call(["run", str(d / "problem.yaml"), "--out", str(d / "trace")])
    d = refusal / "sigma-past-float-range"
    d.mkdir(parents=True)
    (d / "problem.yaml").write_text(yaml.safe_dump(SIGMA_PAST_FLOAT_RANGE))
    call(["run", str(d / "problem.yaml"), "--out", str(d / "trace")])
    d = refusal / "seed-negative"
    d.mkdir(parents=True)
    (d / "problem.yaml").write_text(yaml.safe_dump(
        {"catalog": "perturbed-linear-random", "perturbation": {"seed": -3}}))
    call(["run", str(d / "problem.yaml"), "--out", str(d / "trace")])
    call(["sweep", "volterra-exp", "--param", "m", "--values", "50,50.0",
          "--out", str(refusal / "sweep-repeated-value")])
    d = out / "integral" / "x0-half"
    d.mkdir(parents=True)
    (d / "problem.yaml").write_text(yaml.safe_dump(dict(INTEGRAL, x0=0.5)))
    call(["run", str(d / "problem.yaml"), "--out", str(d / "trace")])
    for key, extra in REFUSED_INTEGRAL:
        d = refusal / ("integral-" + key)
        d.mkdir(parents=True)
        (d / "problem.yaml").write_text(yaml.safe_dump(dict(INTEGRAL, **extra)))
        call(["run", str(d / "problem.yaml"), "--out", str(d / "trace")])
    call(["sweep", "volterra-exp", "--param", "eps", "--values", "0.1,0.5",
          "--out", str(refusal / "integral-sweep-eps")])
    call(["sweep", "damped-root", "--param", "alpha", "--values", "-1,0,2",
          "--out", str(refusal / "sweep-negative-alpha")])
    call(["sweep", "linear-contraction", "--param", "eps", "--values", "-1e-3",
          "--out", str(refusal / "sweep-negative-eps")])
    for norm in ("one", "euclidean"):
        run_and_certify(out / "norm" / ("linear-dim12-" + norm), linear_dim12(norm), (200,))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print("%s  %s" % (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
