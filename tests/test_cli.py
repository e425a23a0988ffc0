import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fpcert import cli
from fpcert.cli import main
from fpcert.problems import load_config
from fpcert.schemes import StepFailure


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_yaml(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- run -----------------------------------------------------------------


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "lin"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    for fname in ("trace.csv", "iterates.csv", "run.json"):
        assert (out / fname).exists()
    info = read_json(out / "run.json")
    assert info["problem"] == "linear-contraction"
    assert info["scheme"] == "contraction"
    assert info["stop_reason"] == "residual_tol"
    assert info["exit"] == 0
    assert len(info["digest"]) == 64

    with open(out / "trace.csv") as fh:
        header = fh.readline().rstrip("\n")
    assert header == "n,r_n,R_n,r_tilde_n,residual_n,inner_defect_n,injected_n"
    rows = read_rows(out / "trace.csv")
    first = rows[0]
    assert first["n"] == "0"
    assert float(first["r_n"]) == 1.0
    assert float(first["R_n"]) == 1.0
    assert float(first["r_tilde_n"]) == 0.0
    assert first["inner_defect_n"] == "" and first["injected_n"] == ""
    # the last row records the final iterate: no forward step from it
    assert rows[-1]["r_n"] == "" and rows[-1]["R_n"] == ""
    assert float(rows[-1]["residual_n"]) <= 1e-12


def test_trace_floats_are_canonical_17g(tmp_path):
    out = tmp_path / "cos"
    assert run_cli("run", "cos-fixed-point", "--out", str(out)) == 0
    for path in (out / "trace.csv", out / "iterates.csv"):
        rows = read_rows(path)
        for row in rows:
            for key, text in row.items():
                if key == "n" or text == "":
                    continue
                assert format(float(text), ".17g") == text, (path, key, text)


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "perturbed-linear-random", "--seed", "5", "--out", str(a)) == 0
    assert run_cli("run", "perturbed-linear-random", "--seed", "5", "--out", str(b)) == 0
    for fname in ("trace.csv", "iterates.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    c = tmp_path / "c"
    assert run_cli("run", "perturbed-linear-random", "--seed", "6", "--out", str(c)) == 0
    assert (a / "iterates.csv").read_bytes() != (c / "iterates.csv").read_bytes()


def test_run_divergence_exits_2(tmp_path):
    out = tmp_path / "exp"
    assert run_cli("run", "expanding", "--out", str(out)) == 2
    info = read_json(out / "run.json")
    assert info["stop_reason"] == "diverged"
    assert info["exit"] == 2


def test_run_reports_bad_expression_with_position(tmp_path, capsys):
    src = write_yaml(tmp_path, "bad.yaml", "operator: 0.5*x9 + 1\nx0: 0.0\n")
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "x9" in err and "position" in err


def test_run_reports_deep_nesting_with_position(tmp_path, capsys):
    depth = 400
    src = write_yaml(tmp_path, "deep.yaml",
                     'operator: ["%sx1%s"]\nx0: 0.0\n' % ("(" * depth, ")" * depth))
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested more than 100 levels deep (at position 100)" in err


_DERIVATIVE_PROBLEMS = {
    "newton": 'operator: ["0.5*cos(x2)", "0.5*sin(x1)"]\nx0: [0, 0]\nscheme: newton\n',
    # no contraction step reads the derivative, yet a run still rejects it
    "contraction": 'operator: ["0.5*cos(x2)", "0.5*sin(x1)"]\nx0: [0, 0]\n',
    # the newton wrap has no derivative of its own: the check reaches P's
    "root": 'kind: root\noperator: ["x1^2 - 2", "x2^2 - 3"]\nx0: [1.5, 1.5]\n',
}
_DERIVATIVE_ERRORS = {
    "syntax": ('[["0", "-0.5*sin(x2)"], ["0.5*cos(x1)", "sin(x1"]]',
               "row 2, column 2: expected ')' after argument of 'sin' (at position 6)"),
    "unknown-variable": ('[["0", "-0.5*sin(x3)"], ["0.5*cos(x1)", "0"]]',
                         "row 1, column 2: unknown variable 'x3' (at position 9)"),
}


@pytest.mark.parametrize("error", sorted(_DERIVATIVE_ERRORS))
@pytest.mark.parametrize("command, problem", [("run", "newton"), ("run", "contraction"),
                                              ("run", "root"), ("sweep", "newton")])
def test_bad_derivative_entry_rejected_before_any_output(tmp_path, capsys, command, problem,
                                                         error):
    matrix, message = _DERIVATIVE_ERRORS[error]
    src = write_yaml(tmp_path, "p.yaml",
                     _DERIVATIVE_PROBLEMS[problem] + "derivative: %s\n" % matrix)
    out = tmp_path / "o"
    extra = ["--param", "eps", "--values", "0,1e-3,1e-2"] if command == "sweep" else []
    assert run_cli(command, src, *extra, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: bad derivative expression at %s\n" % message
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, problem", [("run", "newton"), ("run", "root"),
                                              ("sweep", "newton")])
def test_derivative_number_rejected_before_any_output(tmp_path, capsys, command, problem):
    # a YAML number where an expression string belongs; the strings before it are fine
    src = write_yaml(tmp_path, "p.yaml", _DERIVATIVE_PROBLEMS[problem]
                     + 'derivative: [["0", 0.5], ["0.5*cos(x1)", "0"]]\n')
    out = tmp_path / "o"
    extra = ["--param", "eps", "--values", "0,1e-3,1e-2"] if command == "sweep" else []
    assert run_cli(command, src, *extra, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: derivative entry at row 1, column 2 must be an "
                            "expression string, got 0.5\n")
    assert captured.out == ""
    assert not out.exists()


def test_run_reports_malformed_yaml_with_line(tmp_path, capsys):
    src = write_yaml(tmp_path, "bad.yaml", "operator: [x1\nx0: 1.0\n")
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse %s: " % src) and "line 2" in err


def test_run_missing_source(tmp_path, capsys):
    assert run_cli("run", str(tmp_path / "nope.yaml")) == 1
    assert "neither a catalog problem" in capsys.readouterr().err


def test_run_integral_problem(tmp_path):
    src = write_yaml(tmp_path, "vol.yaml",
                     "catalog: volterra-exp\nintegral: {m: 100}\n")
    out = tmp_path / "vol"
    assert run_cli("run", src, "--out", str(out)) == 0
    assert (out / "solution.csv").exists()
    info = read_json(out / "run.json")
    assert info["kind"] == "integral"
    assert info["m"] == 100
    assert info["sup_error_vs_exact"] < 5e-3
    rows = read_rows(out / "solution.csv")
    assert list(rows[0]) == ["node", "value"]
    assert len(rows) == 101


@pytest.mark.parametrize("text, key", [
    ("scheme: halley\n", "scheme"),
    ("norm: manhattan\n", "norm"),
    ("perturbation: {mode: multiplicative}\n", "perturbation mode"),
    ("stop: {max_n: 0}\n", "max_n"),
    ("kind: root\ngamma: {kind: halley}\n", "gamma"),
    ("stop: {max_n: abc}\n", "stop.max_n"),
    ("x0: [abc]\n", "x0"),
    ("constants: {M: x}\n", "constants.M"),
    ("certificates: [{regime: sandwich, witnesses: {C1: abc, C2: 1.0}}]\n", "C1"),
    # witness keys are checked before the run, not when certify reaches the request
    ("certificates: [{regime: quadratic, witnesses: {chi: 0.5, mu: 0.1, typo: 3}}]\n",
     "quadratic witnesses are chi, mu; unknown: typo; missing: none"),
    ("certificates: [{regime: sandwich, witnesses: {C1: 0.5}}]\n",
     "sandwich witnesses are C1, C2; unknown: none; missing: C2"),
    ("certificates: [{regime: bounded, witnesses: {C: 1.0}}]\n",
     "bounded witnesses are none; unknown: C; missing: none"),
    ("certificates: [{regime: sandwich, witness: {C1: 0.5, C2: 9.0}}]\n",
     "unknown certificate request keys: witness"),
    ("constants: {estimate: {samples: abc}}\n", "constants.estimate.samples"),
    ("perturbation: {eps0: 0.5}\n", "unknown perturbation keys: eps0"),
    ("perturbation: {seed: abc}\n", "perturbation.seed"),
    ("kind: root\ngamma: {kind: damped, alpha: abc}\n", "gamma.alpha"),
    ("kind: integral\nintegral: {T_end: abc}\n", "integral.T_end"),
    ("kind: integral\nintegral: {m: abc}\n", "integral.m"),
    ("kind: integral\nintegral: {m: 0}\n", "integral.m"),
    ("kind: integral\nintegral: {m: 10.5}\n", "integral.m must be an integer, got 10.5"),
    ("stop: {max_n: 2.5}\n", "stop.max_n must be an integer, got 2.5"),
    ("kind: integral\nintegral: {T_end: -1}\n", "integral.T_end"),
    ("kind: integral\nintegral: {T_end: .inf}\n", "integral.T_end"),
    ("kind: integral\nintegral: {kernel: 5}\n",
     "integral.kernel must be a string (volterra_unit or an expression), got 5"),
    ("constants: {estimate: {samples: 3}}\n", "constants.estimate.samples"),
    ("constants: {estimate: {safety: 0.5}}\n", "constants.estimate.safety"),
    ("constants: {estimate: {radius: -1}}\n", "constants.estimate.radius"),
    ("constants: {estimate: {radius: .inf}}\n", "constants.estimate.radius"),
    ("perturbation: {mode: additive-deterministic, eps: .inf}\n", "perturbation"),
    ("perturbation: {eps: {kind: geometric, c: .nan, ratio: 0.5}}\n", "perturbation"),
])
def test_run_bad_enum_value_is_a_validation_error(tmp_path, capsys, text, key):
    src = write_yaml(tmp_path, "bad.yaml", "operator: 0.5*x1 + 1\nx0: 0.0\n" + text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_run_scalar_string_x0_is_named(tmp_path, capsys):
    # YAML 1.1 reads a float only with a signed exponent, so 1.0e200 is a string
    src = write_yaml(tmp_path, "x0.yaml", "operator: 0.5*x1 + 1\nx0: 1.0e200\n")
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        "error: x0 must be a number or a list of numbers, got '1.0e200'\n")


def test_run_step_failure_is_reported_once(tmp_path, capsys):
    # A'(1) = 1, so the newton step's I - D is singular at x0
    src = write_yaml(tmp_path, "f.yaml", "operator: 0.5*x1^2 + 0.5\nderivative: [[x1]]\n"
                                         "x0: 1.0\nscheme: newton\n")
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 failed: ") and err.count("failed") == 1
    assert "singular" in err


@pytest.mark.parametrize("text, step", [
    # x_2 = 1 + log(1 + log(0.5)) = -0.18, so the residual of x_2 leaves the domain
    ("operator: [\"1 + log(x1)\"]\nx0: [0.5]\n", 2),
    ("operator: [\"log(x1)\"]\nx0: [-1.0]\n", 1),
], ids=["third-iterate", "start-point"])
def test_run_residual_failure_names_the_step(tmp_path, capsys, text, step):
    src = write_yaml(tmp_path, "f.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step %d failed: " % step) and err.count("\n") == 1
    assert "log of nonpositive value" in err


@pytest.mark.parametrize("text, message", [
    ("operator: [\"sin(x1*1e308*10)\"]\nx0: [0.5]\n",
     "sin of inf is undefined (at position 0)"),
    ("operator: [\"(-2)^(x1*1e308*10 - x1*1e308*10)\"]\nx0: [0.5]\n",
     "negative base with non-integer exponent (at position 4)"),
    ("kind: integral\noperator: [\"0.5*sin(x1) + 1\"]\nx0: [0.0]\n"
     "integral: {kernel: \"cos(t*1e308*10)\", m: 10}\n",
     "kernel failed at (t=0.2, s=0.0): cos of inf is undefined (at position 0)"),
    ("kind: integral\noperator: [\"log(x1)\"]\nx0: [0.0]\nintegral: {kernel: t*s, m: 10}\n",
     "log of nonpositive value 0.0 (at position 0)"),
], ids=["sin-of-inf", "negative-base-nan-exponent", "kernel-cos-of-inf", "integral-operator"])
def test_run_math_domain_error_is_one_error_line(tmp_path, capsys, text, message):
    src = write_yaml(tmp_path, "f.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_run_with_table_perturbation(tmp_path):
    src = write_yaml(tmp_path, "tab.yaml", (
        "catalog: perturbed-linear\n"
        "perturbation: {eps: {kind: table, entries: [0.01, 0.001, 0.0]}}\n"))
    out = tmp_path / "tab"
    assert run_cli("run", src, "--out", str(out)) == 0
    injected = [float(r["injected_n"]) for r in read_rows(out / "trace.csv") if r["injected_n"]]
    assert injected[:3] == pytest.approx([0.01, 0.001, 0.0])
    assert not any(injected[3:])     # constant zero beyond the last entry


def test_run_inner_tol_recorded(tmp_path):
    out = tmp_path / "avg"
    assert run_cli("run", "averaged-linear", "--inner-tol", "1e-6",
                   "--out", str(out)) == 0
    assert read_json(out / "run.json")["inner_tol"] == 1e-6
    rows = read_rows(out / "trace.csv")
    defects = [float(r["inner_defect_n"]) for r in rows if r["inner_defect_n"]]
    assert defects and all(d <= 1e-6 for d in defects)


@pytest.mark.parametrize("command", [
    ["run", "gentle-newton"],
    ["sweep", "gentle-newton", "--param", "seed", "--values", "1,2"],
], ids=["run", "sweep"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-1e-9", "abc"])
def test_inner_tol_must_be_a_finite_number_at_least_0(tmp_path, capsys, command, value):
    # certify's slack grows with inner_tol, so an infinite one would pass every margin
    out = tmp_path / "out"
    assert run_cli(*command, "--inner-tol=" + value, "--out", str(out)) == 1
    assert_one_error_line(capsys, "error: argument --inner-tol: must be a finite number >= 0, "
                                  "got %r" % value)
    assert not out.exists()


def test_inner_tol_0_runs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "gentle-newton", "--inner-tol", "0", "--out", str(out)) == 0
    assert read_json(out / "run.json")["inner_tol"] == 0.0


# -- certify ----------------------------------------------------------------


def certified_setup(tmp_path, problem_yaml, run_name="t"):
    src = write_yaml(tmp_path, "prob.yaml", problem_yaml)
    out = tmp_path / run_name
    rc = run_cli("run", src, "--out", str(out))
    return src, out, rc


def test_certify_valid_bounded(tmp_path):
    src, out, rc = certified_setup(tmp_path, (
        "catalog: linear-contraction\n"
        "certificates:\n"
        "  - {regime: bounded, witnesses: search}\n"
        "  - {regime: geometric, witnesses: search}\n"))
    assert rc == 0
    assert run_cli("certify", src, "--trace", str(out)) == 0
    rep = read_json(out / "certify.json")
    assert rep["all_valid"] is True
    assert [c["regime"] for c in rep["certificates"]] == ["bounded", "geometric"]
    for c in rep["certificates"]:
        assert c["valid"] and c["ok"]
        assert c["min_margin_measured"] > 0.0
    assert all(e["status"] == "pass" for e in rep["precheck"]
               if e["name"] != "first step bound")
    tails = rep["tail_bounds"]
    assert tails and all(t is not None and t > 0 for t in tails)
    # tail bounds must dominate the measured remaining travel distance
    rows = read_rows(out / "trace.csv")
    r = [float(x["r_n"]) for x in rows if x["r_n"]]
    for n in range(1, len(r) + 1):
        assert tails[n - 1] >= sum(r[n:]) * (1 - 1e-12)


def test_certify_digest_mismatch(tmp_path, capsys):
    src, out, rc = certified_setup(tmp_path, "catalog: linear-contraction\n")
    assert rc == 0
    assert run_cli("certify", "cos-fixed-point", "--trace", str(out)) == 1
    assert "digest" in capsys.readouterr().err


def test_certify_invalid_regime_exits_1(tmp_path):
    # quadratic cannot hold here: eta r0 > 1 from this start
    src, out, rc = certified_setup(tmp_path, (
        "catalog: cos-fixed-point\n"
        "certificates:\n"
        "  - {regime: quadratic, witnesses: search}\n"))
    assert rc == 0
    assert run_cli("certify", src, "--trace", str(out)) == 1
    rep = read_json(out / "certify.json")
    assert rep["all_valid"] is False
    assert rep["certificates"][0]["valid"] is False


def test_certify_negative_horizon_is_a_validation_error(tmp_path, capsys):
    src, out, rc = certified_setup(tmp_path, "catalog: linear-contraction\n")
    assert rc == 0
    capsys.readouterr()
    assert run_cli("certify", src, "--trace", str(out), "--horizon", "-1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "horizon" in err


def test_certify_integral_unsupported(tmp_path, capsys):
    out = tmp_path / "vol"
    assert run_cli("run", "volterra-exp", "--out", str(out)) == 0
    assert run_cli("certify", "volterra-exp", "--trace", str(out)) == 1
    assert "bound propagation" in capsys.readouterr().err


def test_certify_without_majorant_writes_its_report_then_one_error_line(tmp_path, capsys):
    src, out, rc = certified_setup(tmp_path, "operator: cos(x1)\nx0: 0.5\nscheme: newton\n"
                                             "constants: {M: 1.5, K: 1.0}\n")
    assert rc == 0
    capsys.readouterr()
    assert run_cli("certify", src, "--trace", str(out)) == 1
    assert_one_error_line(capsys, "no majorant: M_star = 1.5 >= 1")
    rep = read_json(out / "certify.json")
    assert rep["error"].startswith("no majorant") and rep["certificates"] == []


def test_run_failure_is_an_exception_until_main(tmp_path):
    src = write_yaml(tmp_path, "f.yaml", "operator: log(x1) + 1\nx0: 0.0\n")
    with pytest.raises(StepFailure, match="step 1 failed: ") as info:
        cli._execute_run(cli._resolve_for_run(load_config(src)), tmp_path / "o", 1e-12)
    assert info.value.step == 1


def test_sweep_records_each_failing_job_and_exits_0(tmp_path, capsys):
    src = write_yaml(tmp_path, "f.yaml", "operator: log(x1) + 1\nx0: 0.0\n")
    out = tmp_path / "sw"
    assert run_cli("sweep", src, "--param", "seed", "--values", "1,2", "--out", str(out)) == 0
    assert "error" not in capsys.readouterr().err
    rows = read_rows(out / "summary.csv")
    assert [(r["value"], r["exit"]) for r in rows] == [("1", "1"), ("2", "1")]
    assert all(r["stop_reason"].startswith("step 1 failed: ") for r in rows)
    assert [p.name for p in out.iterdir()] == ["summary.csv"]


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    src = write_yaml(tmp_path, "f.yaml", "operator: log(x1) + 1\nx0: 0.0\n")
    out = tmp_path / "o"
    assert run_cli("run", src, "--out", str(out)) == 1
    assert "step 1 failed: " in capsys.readouterr().err
    assert not out.exists()


def test_failed_integral_run_leaves_no_output_directory(tmp_path, capsys):
    src = write_yaml(tmp_path, "f.yaml", "kind: integral\noperator: log(x1)\nx0: 0.0\n"
                                         "integral: {m: 4}\n")
    out = tmp_path / "o"
    assert run_cli("run", src, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_INTEGRAL = ("kind: integral\noperator: x1 + 1\n"
             "integral: {kernel: \"0.2*exp(-(t-s)^2)\", T_end: 1.0, m: 8}\n")


def test_integral_run_starts_from_x0(tmp_path):
    from fpcert.greens import GridFunction, run_integral_iteration
    from fpcert.problems import load_problem
    traces = {}
    for x0 in (0.5, 0.0):
        src = write_yaml(tmp_path, "x0-%s.yaml" % x0, _INTEGRAL + "x0: %r\n" % x0)
        out = tmp_path / ("x0-%s" % x0)
        assert run_cli("run", src, "--out", str(out)) == 0
        traces[x0] = (out / "trace.csv").read_text()
        r = [float(row["r_n"]) for row in read_rows(out / "trace.csv") if row["r_n"]]
        resolved = load_problem(src)
        setup = resolved.integral
        want = run_integral_iteration(setup.kernel(), resolved.operator,
                                      GridFunction.uniform(setup.T_end, setup.m, x0),
                                      resolved.stop)
        assert want.grids[0].values.tolist() == [x0] * (setup.m + 1)
        assert r == want.r
    assert traces[0.5] != traces[0.0]


@pytest.mark.parametrize("text, message", [
    ("scheme: newton\n", "scheme newton is not available for integral problems"),
    ("scheme: modified_newton\n", "scheme modified_newton is not available for integral"),
    ("norm: euclidean\n", "norm euclidean is not available for integral problems"),
    ("norm: one\n", "norm one is not available for integral problems"),
    ("perturbation: {eps: 0.5}\n", "perturbation.eps is not available for integral"),
    ("perturbation: {mode: additive-deterministic, eps: 0.5}\n",
     "perturbation.eps is not available for integral"),
    ("perturbation: {sigma: {kind: table, entries: [0, 0.1]}}\n",
     "perturbation.sigma is not available for integral"),
    ("perturbation: {gamma: {kind: geometric, c: 0.1, ratio: 0.5}}\n",
     "perturbation.gamma is not available for integral"),
    ("perturbation: {mode: additive-seeded-random}\n",
     "perturbation.mode additive-seeded-random is not available for integral"),
])
def test_integral_problem_refuses_scheme_norm_and_noise(tmp_path, capsys, text, message):
    src = write_yaml(tmp_path, "p.yaml", _INTEGRAL + "x0: 0.0\n" + text)
    out = tmp_path / "o"
    assert run_cli("run", src, "--out", str(out)) == 1
    assert_one_error_line(capsys, "error: " + message)
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "scheme: contraction\nnorm: sup\n",
    "perturbation: {seed: 3}\n",
    "perturbation: {mode: none, eps: 0, sigma: {kind: zero}, gamma: {kind: geometric, c: 0,"
    " ratio: 2}}\n",
])
def test_integral_problem_takes_the_noise_free_defaults(tmp_path, text):
    src = write_yaml(tmp_path, "p.yaml", _INTEGRAL + "x0: 0.0\n" + text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 0


def test_integral_catalog_run_with_a_seed(tmp_path):
    out = tmp_path / "v"
    assert run_cli("run", "volterra-exp", "--seed", "3", "--out", str(out)) == 0
    assert read_json(out / "run.json")["stop_reason"] == "residual_tol"


def test_integral_eps_sweep_is_refused_before_any_output(tmp_path, capsys):
    out = tmp_path / "sw"
    assert run_cli("sweep", "volterra-exp", "--param", "eps", "--values", "0.1,0.5",
                   "--out", str(out)) == 1
    assert_one_error_line(capsys, "error: perturbation.eps is not available for integral")
    assert not out.exists()


def test_certify_needs_existing_trace(tmp_path, capsys):
    assert run_cli("certify", "linear-contraction",
                   "--trace", str(tmp_path / "missing")) == 1
    assert "run.json" in capsys.readouterr().err


# -- unreadable inputs: one error line naming the file, exit 1 --------------------


def assert_one_error_line(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for part in parts:
        assert part in err, err


def test_problem_path_that_is_a_directory(tmp_path, capsys):
    assert run_cli("run", str(tmp_path), "--out", str(tmp_path / "out")) == 1
    assert_one_error_line(capsys, "cannot read %s: Is a directory" % tmp_path)


def test_problem_file_that_is_no_utf8(tmp_path, capsys):
    src = tmp_path / "latin1.yaml"
    src.write_bytes("operator: 0.5*x1 + 1  # \u00bd\nx0: 0.0\n".encode("latin-1"))
    assert run_cli("run", str(src), "--out", str(tmp_path / "out")) == 1
    assert_one_error_line(capsys, "cannot read %s: " % src, "can't decode byte 0xbd")


@pytest.mark.parametrize("argv", [
    ["run", "linear-contraction"],
    ["certify", "linear-contraction", "--trace", "TRACE"],
    ["sweep", "linear-contraction", "--param", "eps", "--values", "0"],
], ids=["run", "certify", "sweep"])
def test_out_naming_an_existing_file(tmp_path, capsys, argv):
    trace = tmp_path / "trace"
    assert run_cli("run", "linear-contraction", "--out", str(trace)) == 0
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    argv = [str(trace) if a == "TRACE" else a for a in argv]
    assert run_cli(*argv, "--out", str(taken)) == 1
    assert_one_error_line(capsys, "cannot create output directory %s: File exists" % taken)
    assert taken.read_text() == ""


@pytest.mark.parametrize("content, reason", [
    ("{\"problem\": ", "Expecting value: line 1 column 13 (char 12)"),
    ("[1, 2]", "it holds no JSON object"),
    ({"inner_tol": "abc"}, "inner_tol 'abc' is not a number"),
    ({"inner_tol": float("inf")}, "inner_tol inf is not a finite number >= 0"),
    ({"inner_tol": float("nan")}, "inner_tol nan is not a finite number >= 0"),
    ({"inner_tol": -1e-6}, "inner_tol -1e-06 is not a finite number >= 0"),
], ids=["cut-short", "array", "inner-tol", "inner-tol-inf", "inner-tol-nan", "inner-tol-neg"])
def test_certify_run_json_that_cannot_be_read(tmp_path, capsys, content, reason):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    if isinstance(content, dict):  # the run's own run.json with content's values
        content = json.dumps(dict(read_json(out / "run.json"), **content))
    (out / "run.json").write_text(content)
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "cannot read %s: %s" % (out / "run.json", reason))


def test_certify_trace_with_r_n_that_is_no_number(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[1] = "0.1x"
    lines[3] = ",".join(cells)
    (out / "trace.csv").write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "%s, line 4: r_n '0.1x' is not a number" % (out / "trace.csv"))


def edit_csv(path, edit):
    """Rewrite the CSV file at path with edit(rows) applied to its rows, header included."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_r(factor, first):
    """An edit_csv edit: every r_n from n = first on times factor."""
    def edit(rows):
        for row in rows[1 + first:]:
            if row[1]:
                row[1] = repr(float(row[1]) * factor)
    return edit


@pytest.mark.parametrize("factor, first, step", [(0.5, 0, 0), (1000.0, 1, 1)],
                         ids=["halved", "later-times-1000"])
def test_certify_refuses_r_n_that_the_iterates_do_not_give(tmp_path, capsys, factor, first,
                                                            step):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    r = [float(row["r_n"]) for row in read_rows(out / "trace.csv") if row["r_n"]]
    edit_csv(out / "trace.csv", scale_r(factor, first))
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "error: step %d: trace.csv has r_%d = %s, but iterates.csv "
                                  "gives %s" % (step, step, cli._fmt(r[step] * factor),
                                                cli._fmt(r[step])))
    assert not (out / "certify.json").exists()


def test_certify_refuses_an_infinite_inner_tol_before_the_r_n_check(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    edit_csv(out / "trace.csv", scale_r(1000.0, 1))
    info = dict(read_json(out / "run.json"), inner_tol=float("inf"))
    (out / "run.json").write_text(json.dumps(info))
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "cannot read %s: inner_tol inf is not a finite number >= 0"
                          % (out / "run.json"))


def drop_last(rows):
    del rows[-1]


def add_row(rows):
    rows.append([str(len(rows) - 1)] + rows[-1][1:])


def bad_value(rows):
    rows[3][1] = "0.1x"


def short_row(rows):
    del rows[3][1]


def bad_header(rows):
    rows[0][1] = "y1"


@pytest.mark.parametrize("edit, message", [
    (None, "no iterates.csv in the trace directory (run `fpcert run` first)"),
    (drop_last, "step %(last)d: ITER has no x_%(steps)d to check r_%(last)d against"),
    (add_row, "step %(steps)d: ITER has x_%(next)d, but trace.csv has no r_%(steps)d"),
    (bad_value, "ITER, line 4: could not convert string to float: '0.1x'"),
    (short_row, "ITER, line 4: 1 fields where the header has 2"),
    (bad_header, "ITER, line 1: the header is not n,x1"),
], ids=["missing", "row-missing", "row-added", "not-a-number", "short-row", "header"])
def test_certify_refuses_iterates_it_cannot_check_r_n_against(tmp_path, capsys, edit,
                                                              message):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    steps = read_json(out / "run.json")["steps"]
    iterates = out / "iterates.csv"
    if edit is None:
        iterates.unlink()
    else:
        edit_csv(iterates, edit)
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "error: " + message.replace("ITER", str(iterates)) % {
        "steps": steps, "last": steps - 1, "next": steps + 1})


def test_certify_refuses_an_iterate_that_is_not_finite(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli("run", "two-dim-system", "--out", str(out)) == 0
    iterates = out / "iterates.csv"
    x = [float(v) for v in list(csv.reader(iterates.read_text().splitlines()))[3][1:]]
    edit_csv(iterates, lambda rows: rows[3].__setitem__(2, "nan"))
    capsys.readouterr()
    assert run_cli("certify", "two-dim-system", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "error: %s, line 4: vector entries must be finite, got %r"
                          % (iterates, np.array([x[0], float("nan")])))


def test_certify_refuses_iterates_whose_difference_is_past_the_float_range(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli("run", "linear-contraction", "--out", str(out)) == 0
    iterates = out / "iterates.csv"

    def overflow(rows):
        rows[1:3] = [["0", "-1e308"], ["1", "1e308"]]
    edit_csv(iterates, overflow)
    edit_csv(out / "trace.csv", lambda rows: rows[1].__setitem__(1, "inf"))
    capsys.readouterr()
    assert run_cli("certify", "linear-contraction", "--trace", str(out)) == 1
    assert_one_error_line(capsys, "error: step 0: x_1 - x_0 of %s is past the float range"
                          % iterates)
    assert not (out / "certify.json").exists()


_DIM3 = ("operator: [\"0.3*cos(x2) + 0.1*x3\", \"0.3*sin(x1)\", \"0.2*cos(x1 + x2)\"]\n"
         "derivative: [[\"0\", \"-0.3*sin(x2)\", \"0.1\"], [\"0.3*cos(x1)\", \"0\", \"0\"],"
         " [\"-0.2*sin(x1 + x2)\", \"-0.2*sin(x1 + x2)\", \"0\"]]\n"
         "x0: [0.5, -0.25, 1.0]\nscheme: newton\nconstants: {M: 0.5, K: 0.5}\n")


@pytest.mark.parametrize("norm", ["one", "euclidean"])
def test_certify_rechecks_r_n_in_the_problem_norm(tmp_path, capsys, norm):
    src = write_yaml(tmp_path, "p.yaml", _DIM3 + "norm: %s\n" % norm)
    out = tmp_path / "t"
    assert run_cli("run", src, "--out", str(out)) == 0
    capsys.readouterr()
    # past the recheck: certify writes its report, whether or not every certificate holds
    run_cli("certify", src, "--trace", str(out))
    assert capsys.readouterr().err == ""
    assert (out / "certify.json").exists()
    # the recheck ran in this norm: a sup-norm r_0 is refused
    rows = list(csv.reader((out / "iterates.csv").read_text().splitlines()))
    sup = cli._fmt(max(abs(float(a) - float(b)) for a, b in zip(rows[2][1:], rows[1][1:])))
    edit_csv(out / "trace.csv", lambda rows: rows[1].__setitem__(1, sup))
    assert run_cli("certify", src, "--trace", str(out)) == 1
    assert_one_error_line(capsys, "error: step 0: trace.csv has r_0 = %s, but iterates.csv "
                                  "gives " % sup)


def test_certify_with_estimated_constants(tmp_path):
    src, out, rc = certified_setup(tmp_path, (
        "operator: 0.5*x1 + 1\n"
        "x0: 0.0\n"
        "stop: {max_n: 40, residual_tol: 1e-13}\n"
        "constants: {estimate: {radius: 2.0, samples: 100}}\n"
        "certificates:\n"
        "  - {regime: bounded, witnesses: search}\n"))
    assert rc == 0
    assert run_cli("certify", src, "--trace", str(out)) == 0
    rep = read_json(out / "certify.json")
    assert "constants_note" in rep
    assert "safety factor" in rep["constants_note"]


def test_certify_overflowing_geometric_bound_is_invalid(tmp_path):
    # the geometric grid tries mu up to 1/sup(lambda) - 1, and sigma -> 0 makes
    # sup(lambda) tiny: (1+mu)^n overflows, which must fail the candidate
    src, out, rc = certified_setup(tmp_path, (
        "catalog: linear-contraction\n"
        "scheme: newton\n"
        "perturbation: {mode: additive-deterministic,"
        " eps: {kind: geometric, c: 0.001, ratio: 0.5},"
        " sigma: {kind: geometric, c: 0.01, ratio: 0.5}}\n"
        "certificates: [{regime: geometric}]\n"))
    assert rc == 0
    assert run_cli("certify", src, "--trace", str(out)) == 1
    rep = read_json(out / "certify.json")
    assert rep["certificates"][0]["regime"] == "geometric"
    assert rep["certificates"][0]["valid"] is False


def test_certify_sandwich_search_over_a_growing_budget_is_invalid(tmp_path, capsys):
    # rho passes 1e154 inside horizon 1100, so the C2 the ratio premise needs
    # (rho_k^2 / rho_{k+1}) is +inf: the search has no candidate and the
    # fallback report names C2
    src, out, rc = certified_setup(tmp_path, (
        "catalog: linear-contraction\n"
        "perturbation: {eps: {kind: geometric, c: 1.0e-30, ratio: 2.0}}\n"
        "certificates: [{regime: sandwich, witnesses: search}]\n"))
    assert rc == 0
    capsys.readouterr()
    assert run_cli("certify", src, "--trace", str(out), "--horizon", "1100") == 1
    assert "Traceback" not in capsys.readouterr().err
    entry = read_json(out / "certify.json")["certificates"][0]
    assert entry["regime"] == "sandwich" and entry["valid"] is False
    assert entry["witnesses"]["C2"] == float("inf")
    assert any("C2" in line for line in entry["detail"])


# -- sweep ---------------------------------------------------------------------


def test_sweep_preserves_input_order(tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", "linear-contraction", "--param", "eps",
                   "--values", "1e-2,1e-4,1e-3", "--out", str(out)) == 0
    rows = read_rows(out / "summary.csv")
    assert [r["value"] for r in rows] == ["0.01", "0.0001", "0.001"]
    assert all(r["param"] == "eps" for r in rows)
    assert all(r["exit"] == "0" for r in rows)
    for r in rows:
        assert (out / ("eps=" + r["value"]) / "trace.csv").exists()
    # stagnation level tracks the injected budget: residual ~ eps
    final = {r["value"]: float(r["final_residual"]) for r in rows}
    assert final["0.01"] > final["0.001"] > final["0.0001"]


def test_sweep_aborts_on_bad_value_before_running(tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", "linear-contraction", "--param", "eps",
                   "--values", "1e-2,banana", "--out", str(out)) == 1
    assert not out.exists()


def test_sweep_aborts_on_bad_param(tmp_path, capsys):
    out = tmp_path / "sw"
    assert run_cli("sweep", "linear-contraction", "--param", "theta",
                   "--values", "0.5", "--out", str(out)) == 1
    assert "unknown sweep param" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_alpha_on_catalog_root_problem(tmp_path):
    out = tmp_path / "swa"
    assert run_cli("sweep", "damped-root", "--param", "alpha",
                   "--values", "0.25,0.5", "--out", str(out)) == 0
    rows = read_rows(out / "summary.csv")
    assert [r["exit"] for r in rows] == ["0", "0"]
    digests = {read_json(out / ("alpha=" + v) / "run.json")["digest"] for v in ("0.25", "0.5")}
    assert len(digests) == 2
    # the entry's own alpha is 0.5: the override leaves its digest alone
    assert run_cli("run", "damped-root", "--out", str(tmp_path / "plain")) == 0
    assert read_json(tmp_path / "plain" / "run.json")["digest"] in digests


@pytest.mark.parametrize("text", [
    "catalog: linear-contraction\ngamma: {alpha: 0.5}\n",   # not a root problem
    "catalog: sqrt2-root\ngamma: {alpha: 0.25}\n",          # newton gamma has no alpha
    "catalog: damped-root\ngamma: {alpha: abc}\n",
    "catalog: damped-root\ngamma: {alpha: null}\n",
])
def test_bad_catalog_gamma_override_rejected(tmp_path, capsys, text):
    src = write_yaml(tmp_path, "g.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma" in err


@pytest.mark.parametrize("text, key", [
    ("catalog: volterra-exp\nintegral: 5\n", "integral"),
    ("catalog: volterra-exp\nintegral: {T_end: 5}\n", "T_end"),
    ("catalog: linear-contraction\nstop: 5\n", "stop"),
    ("catalog: linear-contraction\nperturbation: [1]\n", "perturbation"),
    ("catalog: damped-root\ngamma: 5\n", "gamma"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nstop: 5\n", "stop"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nperturbation: [1]\n", "perturbation"),
    ("kind: root\noperator: x1\nx0: 1.0\ngamma: 5\n", "gamma"),
])
def test_block_that_is_no_mapping_rejected(tmp_path, capsys, text, key):
    src = write_yaml(tmp_path, "b.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("text, block", [
    ("operator: 0.5*x1 + 1\nx0: 0.0\n1: x\n", "problem"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nperturbation: {1: 2}\n", "perturbation"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nstop: {1: 2}\n", "stop"),
    ("catalog: linear-contraction\n1: x\n", "catalog"),
], ids=["top-level", "perturbation", "stop", "catalog"])
def test_non_string_key_rejected(tmp_path, capsys, text, block):
    src = write_yaml(tmp_path, "k.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and block in err and err.rstrip().endswith(": 1")


@pytest.mark.parametrize("text, block, key", [
    ("operator: 0.5*x1 + 1\nx0: 0.0\nconstants: {M: 0.5, k: 0.1}\n", "constants", "k"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nconstants: {estimate: {radus: 0.5}}\n",
     "constants.estimate", "radus"),
    ("kind: root\noperator: x1\nx0: 1.0\ngamma: {kind: damped, alpa: 0.5}\n", "gamma", "alpa"),
    ("kind: integral\noperator: x1 + 1\nx0: 0.0\nintegral: {T_end: 1.0, mm: 50}\n",
     "integral", "mm"),
    ("catalog: perturbed-linear\nperturbation: {sed: 3}\n", "perturbation", "sed"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\n"
     "perturbation: {mode: additive-deterministic, eps: {kind: constant, c: 0.01, ratio: 0.5}}\n",
     "perturbation.eps", "ratio"),
    ("operator: 0.5*x1 + 1\nx0: 0.0\nconstants: {M: 0.5, estimate: {samples: 20}}\n",
     "estimate", "M"),
], ids=["constants", "constants.estimate", "gamma", "integral", "catalog-perturbation",
        "eps-sequence", "M-and-estimate"])
def test_unknown_or_ignored_key_rejected(tmp_path, capsys, text, block, key):
    src = write_yaml(tmp_path, "u.yaml", text)
    assert run_cli("run", src, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and block in err and key in err


def test_certify_reports_failed_sampling(tmp_path, capsys):
    # sqrt leaves its domain on the radius-2 ball around x0 = 1
    src = write_yaml(tmp_path, "s.yaml", "operator: sqrt(x1)\nx0: 1.0\nstop: {max_n: 5}\n"
                                         "constants: {estimate: {radius: 2.0}}\n")
    out = tmp_path / "s"
    assert run_cli("run", src, "--out", str(out)) == 0
    assert run_cli("certify", src, "--trace", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: constants.estimate: sampling failed") and "sqrt" in err


def test_certify_refuses_catalog_constants_at_overridden_alpha(tmp_path, capsys):
    # damped-root's M = 0.5 holds only at alpha = 0.5; at 0.25 the wrap contracts by 0.75
    src = write_yaml(tmp_path, "a.yaml", "catalog: damped-root\ngamma: {alpha: 0.25}\n")
    out = tmp_path / "a"
    assert run_cli("run", src, "--out", str(out)) == 0
    assert run_cli("certify", src, "--trace", str(out)) == 1
    assert "neither analytic constants" in capsys.readouterr().err


@pytest.mark.parametrize("param, value, key", [
    ("eps", "inf", "perturbation"), ("eps", "nan", "perturbation"), ("m", "0", "integral.m"),
])
def test_sweep_rejects_out_of_range_value(tmp_path, capsys, param, value, key):
    problem = "volterra-exp" if param == "m" else "linear-contraction"
    out = tmp_path / "sw"
    assert run_cli("sweep", problem, "--param", param, "--values", value,
                   "--out", str(out)) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, value, key", [
    ("m", "10.5", "integral.m"), ("m", "nan", "integral.m"), ("m", "inf", "integral.m"),
    ("m", "-inf", "integral.m"), ("seed", "1.5", "perturbation.seed"),
    ("seed", "nan", "perturbation.seed"),
])
def test_sweep_integer_param_rejects_other_values(tmp_path, capsys, param, value, key):
    problem = "volterra-exp" if param == "m" else "perturbed-linear-random"
    out = tmp_path / "sw"
    assert run_cli("sweep", problem, "--param", param, "--values", "20," + value,
                   "--out", str(out)) == 1
    assert_one_error_line(capsys, "%s must be an integer, got %s" % (key, value))
    assert not out.exists()


def test_sweep_summary_keeps_error_with_comma_in_one_field(tmp_path):
    src = write_yaml(tmp_path, "k.yaml",
                     "kind: integral\noperator: [\"0.5*sin(x1) + 1\"]\nx0: [0.0]\n"
                     "integral: {kernel: \"cos(t*1e308*10)\", m: 10}\n")
    out = tmp_path / "sw"
    assert run_cli("sweep", src, "--param", "m", "--values", "10,20", "--out", str(out)) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [7, 7, 7]
    for row in rows[1:]:
        assert row[3].startswith("kernel failed at (t=0.2, s=0.0): ")
        assert row[4:] == ["", "", "1"]


def test_sweep_integral_mesh(tmp_path):
    out = tmp_path / "swm"
    assert run_cli("sweep", "volterra-exp", "--param", "m",
                   "--values", "50,100", "--out", str(out)) == 0
    rows = read_rows(out / "summary.csv")
    assert [r["value"] for r in rows] == ["50", "100"]
    assert (out / "m=50" / "solution.csv").exists()


# -- artifact bytes ----------------------------------------------------------------

# CSV artifacts pinned byte for byte, so that any change to how the writers
# frame a file (quoting, empty fields, float format) shows.  These runs use
# only IEEE + - * /, abs, max and a sequential cumulative sum, with no libm
# call and no BLAS, so their bytes are the same on any host.
CSV_DATA = Path(__file__).parent / "data" / "csv"


def test_csv_artifacts_are_byte_identical(tmp_path):
    lin, sweep, volterra = tmp_path / "lin", tmp_path / "sweep", tmp_path / "volterra"
    assert run_cli("run", "linear-contraction", "--out", str(lin)) == 0
    assert run_cli("sweep", "linear-contraction", "--param", "eps", "--values", "0,0.25",
                   "--out", str(sweep)) == 0
    src = write_yaml(tmp_path, "v.yaml", "catalog: volterra-exp\nintegral: {m: 4}\n")
    assert run_cli("run", src, "--out", str(volterra)) == 0
    assert read_json(volterra / "run.json")["steps"] == 23
    written = {"linear-contraction-trace.csv": lin / "trace.csv",
               "linear-contraction-iterates.csv": lin / "iterates.csv",
               "linear-contraction-eps-sweep-summary.csv": sweep / "summary.csv",
               "volterra-exp-m4-trace.csv": volterra / "trace.csv",
               "volterra-exp-m4-solution.csv": volterra / "solution.csv"}
    for name, path in written.items():
        assert path.read_bytes() == (CSV_DATA / name).read_bytes(), name


# -- catalog and usage -----------------------------------------------------------


def test_catalog_lists_everything(capsys):
    from fpcert.problems import catalog_names
    assert run_cli("catalog") == 0
    text = capsys.readouterr().out
    for name in catalog_names():
        assert name in text


def test_usage_errors_exit_1(capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1
    assert run_cli("certify", "linear-contraction") == 1  # --trace required
    capsys.readouterr()
