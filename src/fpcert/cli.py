"""Command line front end: problems in, traces and certificate reports out.

Artifacts are plain CSV/JSON with 17-significant-digit decimal floats so that
every number round-trips exactly and repeated runs with the same seed produce
byte-identical files.

Exit codes: 0 run completed (including stagnation at max_n), 1 validation or
step failure, 2 divergence/non-contraction guard.

Every failure is an exception that main reports in one `error:` line with
exit 1; cmd_sweep alone catches one, a failing job's, for its summary row.

main(argv) may be called any number of times in one process.  It builds its
parser on the first call and keeps it, and it runs the cmd_<command> function
it finds in this module at call time, so a wrapper put in place of cmd_run,
say, after a first call still sees every later one.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from .core import OperatorEvaluationError, row_norms
from .greens import GreensError, GridFunction, IntegralTrace, run_integral_iteration
from .majorant import (MajorantError, certify as run_certificate, majorant_from_constants,
                       precheck, tail_bound)
from .problems import (CATALOG, CertRequest, ProblemError, ResolvedProblem, load_config,
                       override_param, resolve_config, var_names)
from .schemes import IterationTrace, StepFailure, run_outer

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2

_GUARD_REASONS = ("diverged", "non_contraction")
# how a run fails once it has started; the rest fail before any step
_RUN_FAILURES = (StepFailure, GreensError, OperatorEvaluationError)


def _fmt(v) -> str:
    return format(float(v), ".17g")


class CliError(ValueError):
    pass


def _load(source: str, seed: Optional[int]) -> dict:
    """The problem config of a catalog name or YAML file, with --seed applied."""
    cfg = load_config(source)
    return cfg if seed is None else override_param(cfg, "seed", seed)


def _resolve_for_run(cfg: dict) -> ResolvedProblem:
    """resolve_config with the derivative block parsed too, so that a run rejects
    a malformed entry before any step; certify parses it only if it builds a Jacobian."""
    resolved = resolve_config(cfg)
    resolved.parse_derivative()
    return resolved


# ---------------------------------------------------------------------------
# artifact writers/readers


def _write_csv(path: Path, header: List[str], rows: Iterable[list]):
    """Write a header and rows; a float cell goes through _fmt and None is an empty field.

    csv quotes only a field that holds a comma, a quote or a newline, such as
    an error naming a kernel point (t=..., s=...); rows of numbers stay plain.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else _fmt(v) if isinstance(v, float) else v
                             for v in row])


def _write_trace_csv(path: Path, trace: IterationTrace):
    sums = trace.partial_sums()
    _write_csv(path, ["n", "r_n", "R_n", "r_tilde_n", "residual_n", "inner_defect_n",
                      "injected_n"],
               ([n,
                 trace.r[n] if n < len(trace.r) else None,
                 sums[n] if n < len(trace.r) else None,
                 trace.r_tilde[n],
                 trace.residual[n],
                 trace.inner_defect[n - 1] if n >= 1 else None,
                 trace.injected[n - 1] if n >= 1 else None]
                for n in range(trace.steps + 1)))


def _write_iterates_csv(path: Path, trace: IterationTrace):
    _write_csv(path, ["n"] + var_names(trace.iterates[0].dim),
               ([n] + x.coords.tolist() for n, x in enumerate(trace.iterates)))


def _write_integral_trace_csv(path: Path, trace: IntegralTrace):
    _write_csv(path, ["n", "r_n", "r_tilde_n", "residual_n"],
               ([n,
                 trace.r[n] if n < len(trace.r) else None,
                 trace.r_tilde[n],
                 trace.residual[n]]
                for n in range(trace.steps + 1)))


def _write_solution_csv(path: Path, g: GridFunction):
    _write_csv(path, ["node", "value"], zip(g.nodes, g.values))


def _read_artifact(path: Path):
    """run.json as parsed JSON, or a CSV artifact as its rows of fields."""
    try:
        if path.suffix == ".json":
            with open(path) as fh:
                return json.load(fh)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except FileNotFoundError:
        raise CliError("no %s in the trace directory (run `fpcert run` first)" % path.name)
    except (OSError, ValueError, csv.Error) as exc:  # a directory, or no UTF-8 text or JSON
        raise CliError("cannot read %s: %s" % (path, _reason(exc)))


def _read_run(trace_dir: Path, resolved: ResolvedProblem) -> Tuple[List[float], float]:
    """The r_n of trace.csv and the inner_tol of run.json, once trace_dir is
    checked against the problem.

    Every r_n must be ||x_{n+1} - x_n|| of iterates.csv.  `run` computes it
    that way and writes both files with 17 significant digits, which
    round-trip, so a trace as written matches bit for bit."""
    info_path = trace_dir / "run.json"
    info = _read_artifact(info_path)
    if not isinstance(info, dict):
        raise CliError("cannot read %s: it holds no JSON object" % info_path)
    if info.get("digest") != resolved.digest:
        raise CliError("trace digest %s does not match problem digest %s"
                       % (info.get("digest"), resolved.digest))
    path = trace_dir / "trace.csv"
    rows = _read_artifact(path)
    r = []
    if rows and "r_n" in rows[0]:
        # a header that repeats r_n gives its last column
        col = len(rows[0]) - 1 - rows[0][::-1].index("r_n")
        for line, row in enumerate(rows[1:], 2):
            cell = row[col] if col < len(row) else None
            if cell:
                try:
                    r.append(float(cell))
                except ValueError:
                    raise CliError("%s, line %d: r_n %r is not a number" % (path, line, cell))
    if not r:
        raise CliError("trace has no completed steps to certify")
    try:
        inner_tol = float(info.get("inner_tol", 1e-12))
    except (TypeError, ValueError):
        raise CliError("cannot read %s: inner_tol %r is not a number"
                       % (info_path, info["inner_tol"]))
    if not (math.isfinite(inner_tol) and inner_tol >= 0.0):
        # certify's slack grows with it: an infinite one would pass every margin
        raise CliError("cannot read %s: inner_tol %r is not a finite number >= 0"
                       % (info_path, info["inner_tol"]))

    path = trace_dir / "iterates.csv"
    rows = _read_artifact(path)
    header = ["n"] + var_names(resolved.x0.dim)
    if not rows or rows[0] != header:
        raise CliError("%s, line 1: the header is not %s" % (path, ",".join(header)))
    xs = _iterates(path, rows, len(header))
    with np.errstate(over="ignore"):  # an overflowed difference is refused below
        steps = xs[1:] - xs[:-1]
        # the r_n `run` wrote, bit for bit, for every step whose difference is finite
        recomputed = row_norms(steps, resolved.norm)
    finite = np.isfinite(steps).all(axis=1)
    checked = min(len(r), len(steps))
    # != holds for a NaN r_n: no recomputed norm is NaN
    bad = np.flatnonzero(~finite[:checked] | (recomputed[:checked] != r[:checked]))
    if bad.size:
        n = int(bad[0])
        if not finite[n]:  # every iterate is finite, so their difference overflowed
            raise CliError("step %d: x_%d - x_%d of %s is past the float range"
                           % (n, n + 1, n, path))
        raise CliError("step %d: trace.csv has r_%d = %s, but iterates.csv gives %s"
                       % (n, n, _fmt(r[n]), _fmt(recomputed[n])))
    n = len(steps)
    if n < len(r):
        raise CliError("step %d: %s has no x_%d to check r_%d against" % (n, path, n + 1, n))
    if n > len(r):
        raise CliError("step %d: %s has x_%d, but trace.csv has no r_%d"
                       % (len(r), path, len(r) + 1, len(r)))
    return r, inner_tol


def _iterates(path: Path, rows: List[List[str]], width: int) -> np.ndarray:
    """The coordinates of iterates.csv, one row per iterate, from its rows of
    `width` fields, the header first.

    All fields are read with Python's float in one pass.  Only a file that
    pass refuses is walked line by line, to name its first bad line; the walk
    reads no n field, so it returns the coordinates of a file whose only
    fault is an n that is no number."""
    body = rows[1:]
    if set(map(len, body)) <= {width}:
        try:
            xs = np.array(list(map(float, chain.from_iterable(body)))).reshape(-1, width)[:, 1:]
        except ValueError:
            pass
        else:
            if np.isfinite(xs).all():
                return xs
    walked = []
    for line, row in enumerate(body, 2):
        try:
            if len(row) != width:
                raise ValueError("%d fields where the header has %d" % (len(row), width))
            x = list(map(float, row[1:]))
            if not all(map(math.isfinite, x)):  # Vector's message, without building one
                raise ValueError("vector entries must be finite, got %r" % (np.array(x),))
        except ValueError as exc:
            raise CliError("%s, line %d: %s" % (path, line, exc))
        walked.append(x)
    return np.array(walked).reshape(-1, width - 1)


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise CliError("cannot create output directory %s: %s" % (path, _reason(exc)))


def _reason(exc: Exception) -> str:
    """Why reading or writing failed, without the path an OSError repeats."""
    return getattr(exc, "strerror", None) or str(exc)


def _dump_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run


def _execute_run(resolved: ResolvedProblem, out_dir: Path, inner_tol: float) -> Tuple[int, dict]:
    """Run the problem, then write its artifacts to out_dir, made only once the
    run has returned, so that a run that fails leaves no directory behind."""
    if resolved.kind == "integral":
        return _execute_integral(resolved, out_dir)
    trace = run_outer(resolved.operator, resolved.scheme, resolved.x0,
                      plan=resolved.plan, stop=resolved.stop, norm=resolved.norm,
                      inner_tol=inner_tol, custom_factory=resolved.custom_factory())
    _make_dir(out_dir)
    _write_trace_csv(out_dir / "trace.csv", trace)
    _write_iterates_csv(out_dir / "iterates.csv", trace)
    return _write_run_json(out_dir, resolved, trace, scheme=resolved.scheme.value,
                           norm=resolved.norm.value, seed=resolved.plan.seed,
                           inner_tol=inner_tol)


def _execute_integral(resolved: ResolvedProblem, out_dir: Path) -> Tuple[int, dict]:
    setup = resolved.integral
    x0 = GridFunction.uniform(setup.T_end, setup.m, fill=resolved.x0[0])
    trace = run_integral_iteration(setup.kernel(), resolved.operator, x0, resolved.stop)
    _make_dir(out_dir)
    _write_integral_trace_csv(out_dir / "trace.csv", trace)
    _write_solution_csv(out_dir / "solution.csv", trace.grids[-1])
    own = {"m": setup.m, "T_end": setup.T_end}
    if setup.exact is not None:
        final = trace.grids[-1]
        own["sup_error_vs_exact"] = float(max(abs(final.values - setup.exact(final.nodes))))
    return _write_run_json(out_dir, resolved, trace, **own)


def _write_run_json(out_dir: Path, resolved: ResolvedProblem,
                    trace: Union[IterationTrace, IntegralTrace], **own) -> Tuple[int, dict]:
    """Write run.json, the keys every run has plus the runner's own; return (exit, it)."""
    code = EXIT_DIVERGED if trace.stop_reason in _GUARD_REASONS else EXIT_OK
    summary = dict(own, problem=resolved.name, digest=resolved.digest, kind=resolved.kind,
                   stop_reason=trace.stop_reason, steps=trace.steps,
                   final_residual=trace.residual[-1],
                   final_r=trace.r[-1] if trace.r else None, exit=code)
    _dump_json(out_dir / "run.json", summary)
    return code, summary


def cmd_run(args) -> int:
    resolved = _resolve_for_run(_load(args.problem, args.seed))
    out_dir = Path(args.out) if args.out else Path("fpcert-out") / resolved.name
    code, summary = _execute_run(resolved, out_dir, args.inner_tol)
    print("%s: %d steps, stopped on %s, final residual %s -> %s"
          % (resolved.name, summary["steps"], summary["stop_reason"],
             _fmt(summary["final_residual"]), out_dir))
    return code


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    resolved = resolve_config(_load(args.problem, args.seed))
    if resolved.kind == "integral":
        raise CliError("certificates apply to fixed_point/root runs; integral runs "
                       "are checked by bound propagation")
    trace_dir = Path(args.trace)
    r_meas, inner_tol = _read_run(trace_dir, resolved)
    slack = 10.0 * inner_tol + 1e-12
    horizon = args.horizon

    constants = resolved.constants()
    report = {
        "problem": resolved.name,
        "digest": resolved.digest,
        "horizon": horizon,
        "slack": slack,
        "precheck": [{"name": e.name, "status": e.status, "detail": e.detail}
                     for e in precheck(constants, r0=r_meas[0]).entries],
        "certificates": [],
        "tail_bounds": None,
    }
    est = resolved.constants_cfg.get("estimate")
    if est is not None:
        report["constants_note"] = (
            "constants estimated by sampling (%d pairs, seed %d), safety factor %s"
            % (est["samples"], est["seed"], _fmt(est["safety"])))

    out_dir = Path(args.out) if args.out else trace_dir
    _make_dir(out_dir)
    try:
        p = majorant_from_constants(constants, resolved.scheme, r0=r_meas[0], horizon=horizon)
    except MajorantError as exc:
        report["error"] = str(exc)
        _dump_json(out_dir / "certify.json", report)
        raise

    report["majorant"] = {"eta": p.eta, "r0": p.r0,
                          "lambda_0": p.lam(0), "rho_0": p.rho(0)}

    requests = resolved.cert_requests or [CertRequest("bounded")]
    all_ok = True
    for req in requests:
        cert = run_certificate(p, req.regime, horizon, witnesses=req.witnesses)
        entry = {
            "regime": cert.regime,
            "valid": cert.valid,
            "premises_ok": cert.premises_ok,
            "bounds_ok": cert.bounds_ok,
            "witnesses": cert.witnesses,
            "checked_horizon": cert.checked_horizon,
            "min_margin_sim": cert.min_margin if math.isfinite(cert.min_margin) else None,
            "detail": cert.detail,
        }
        measured = None
        if cert.valid:
            margins = [cert.upper[n] - r_meas[n]
                       for n in range(1, min(len(r_meas), horizon + 1))
                       if math.isfinite(cert.upper[n])]
            measured = min(margins) if margins else None
        entry["min_margin_measured"] = measured
        ok = cert.valid and (measured is None or measured >= -slack)
        entry["ok"] = ok
        all_ok = all_ok and ok
        report["certificates"].append(entry)
        print("%s: %s%s" % (req.regime,
                            "valid" if cert.valid else "invalid",
                            "" if measured is None else ", measured margin %s" % _fmt(measured)))

    tails = []
    for n in range(1, len(r_meas) + 1):
        try:
            t = tail_bound(r_meas, p, n, horizon=horizon)
        except MajorantError:
            t = math.inf
        tails.append(t if math.isfinite(t) else None)
    report["tail_bounds"] = tails
    report["all_valid"] = all_ok

    _dump_json(out_dir / "certify.json", report)
    return EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# sweep and catalog


def _parse_values(text: str) -> List[float]:
    vals = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vals.append(float(chunk))
        except ValueError:
            raise CliError("sweep value %r is not a number" % chunk)
    return vals


def _value_label(param: str, value: float) -> str:
    if param in ("m", "seed"):
        return "%s=%d" % (param, int(value))
    return "%s=%s" % (param, _fmt(value))


def cmd_sweep(args) -> int:
    cfg = _load(args.problem, args.seed)
    values = _parse_values(args.values)
    if not values:
        raise CliError("sweep needs a nonempty values list")
    # resolve everything up front so validation failures abort before any run
    jobs = [(v, _resolve_for_run(override_param(cfg, args.param, v))) for v in values]
    # labelled only once resolved: an m or seed that is no whole number has no label
    labels = [_value_label(args.param, v) for v in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise CliError("sweep values write %s/ twice" % label)
    out_root = Path(args.out) if args.out else Path("fpcert-out") / ("sweep-" + jobs[0][1].name)
    _make_dir(out_root)
    # one after another, in value order: each run is mostly Python code, which
    # holds the interpreter lock, so threads could not overlap them
    results = []
    for label, (v, resolved) in zip(labels, jobs):
        try:
            results.append(_execute_run(resolved, out_root / label, args.inner_tol))
        except _RUN_FAILURES as exc:
            results.append((EXIT_VALIDATION, {"error": str(exc)}))

    _write_csv(out_root / "summary.csv",
               ["param", "value", "steps", "stop_reason", "final_residual", "final_r", "exit"],
               ([args.param, v,
                 summary.get("steps"),
                 summary.get("stop_reason", summary.get("error")),
                 summary.get("final_residual"),
                 summary.get("final_r"),
                 code]
                for v, (code, summary) in zip(values, results)))
    print("sweep of %s over %d values -> %s" % (args.param, len(jobs), out_root))
    return EXIT_OK


def cmd_catalog(args) -> int:
    for name, entry in CATALOG.items():
        print("%-24s %-12s %s" % (name, entry.kind, entry.summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _inner_tol(text: str) -> float:
    """An --inner-tol value, a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("must be a finite number >= 0, got %r" % text)
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with '-' for an option unless it
        # is a plain decimal.  No fpcert flag starts with -<digit> or
        # -.<digit>, so such a token is a value, as in `--values -1,0,2`.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on usage errors, which collides with the
    # divergence-guard exit code; route usage errors through CliError instead
    def error(self, message):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The fpcert parser; args.command is the subcommand's name, which main
    maps to its cmd_ function."""
    parser = _Parser(prog="fpcert",
                     description="Inexact fixed-point iteration runner with "
                                 "convergence-rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a problem and write trace artifacts")
    run_p.add_argument("problem", help="catalog name or YAML problem file")
    run_p.add_argument("--out", help="output directory (default fpcert-out/<name>)")
    run_p.add_argument("--seed", type=int, help="override the perturbation seed")
    run_p.add_argument("--inner-tol", type=_inner_tol, default=1e-12,
                       help="inner solve tolerance (default 1e-12)")

    cert_p = sub.add_parser("certify", help="check certificates against a recorded trace")
    cert_p.add_argument("problem")
    cert_p.add_argument("--trace", required=True, help="directory written by `fpcert run`")
    cert_p.add_argument("--out", help="where to write certify.json (default: trace dir)")
    cert_p.add_argument("--horizon", type=int, default=200,
                        help="side-condition horizon (default 200)")
    cert_p.add_argument("--seed", type=int, help="seed used for the run, if overridden")

    sweep_p = sub.add_parser("sweep", help="run a problem across one scalar parameter")
    sweep_p.add_argument("problem")
    sweep_p.add_argument("--param", required=True, help="eps, m, alpha or seed")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--inner-tol", type=_inner_tol, default=1e-12)

    sub.add_parser("catalog", help="list built-in problems")
    return parser


# the parser of every main call, built by the first one rather than at import
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        # looked up now, not bound into the cached parser, so that a function
        # put in place of cmd_<command> (the benchmark tracer's) is the one called
        return globals()["cmd_" + args.command](args)
    except (CliError, ProblemError, MajorantError) + _RUN_FAILURES as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
