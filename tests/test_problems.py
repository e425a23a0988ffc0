import copy
import importlib.util
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import fpcert
from fpcert import problems
from fpcert.core import BallDomain, NormKind, Vector
from fpcert.estimate import (SAFETY_FACTOR, estimate_lipschitz_K, estimate_lipschitz_M,
                             with_safety)
from fpcert.exprparse import _compile, parse_expr
from fpcert.problems import (CATALOG, CertRequest, ProblemError,
                             averaged_factory, catalog_names, constants_for,
                             get_entry, load_config, load_problem, operator_from_expressions,
                             override_param, resolve_config, sequence_from_config,
                             sequence_to_config)
from fpcert.regimes import WITNESSES
from fpcert.schemes import (InjectionMode, PerturbationPlan, SchemeKind,
                            StopRule, run_outer)
from fpcert.sequences import ScalarSequence


def minimal_cfg(**extra):
    cfg = {"name": "toy", "operator": "0.5*x1 + 1", "x0": 0.0}
    cfg.update(extra)
    return cfg


# -- expression operators --------------------------------------------------


def test_operator_from_expressions_values():
    op = operator_from_expressions(["x1 + x2", "x1 * x2"], 2)
    out = op.apply(Vector([2.0, 3.0]))
    assert out[0] == 5.0 and out[1] == 6.0


def test_operator_jacobian():
    op = operator_from_expressions(["x1^2", "x1 + 2*x2"], 2,
                                   deriv_exprs=[["2*x1", "0"], ["1", "2"]])
    d = op.derivative_at(Vector([3.0, 1.0]), Vector([1.0, 1.0]))
    assert d[0] == 6.0 and d[1] == 3.0


def test_operator_expression_count_must_match_dim():
    with pytest.raises(ProblemError):
        operator_from_expressions(["x1"], 2)


def test_operator_evaluation_domain_error_is_wrapped():
    from fpcert.core import OperatorEvaluationError
    op = operator_from_expressions(["log(x1)"], 1)
    with pytest.raises(OperatorEvaluationError):
        op.apply(Vector([-1.0]))


# -- averaging factory -------------------------------------------------------


def test_averaged_factory_anchors_at_previous_iterate():
    A = operator_from_expressions(["cos(x1)"], 1)
    factory = averaged_factory(A, 0.25)
    x_prev = Vector([0.8])
    B = factory(3, x_prev, Vector([1.0]))
    # B(x_prev) = theta A(x_prev) + (1-theta) A(x_prev) = A(x_prev) exactly
    assert B.apply(x_prev)[0] == A.apply(x_prev)[0]
    # away from the anchor only the theta share moves
    got = B.apply(Vector([0.5]))[0]
    want = 0.25 * math.cos(0.5) + 0.75 * math.cos(0.8)
    assert got == pytest.approx(want, rel=1e-15)


def test_averaged_factory_theta_range():
    A = operator_from_expressions(["x1"], 1)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ProblemError):
            averaged_factory(A, bad)


# -- scheme-implied constants -------------------------------------------------


def test_constants_for_contraction():
    A = operator_from_expressions(["0.5*x1 + 1"], 1)
    c = constants_for(0.5, 0.0, SchemeKind.CONTRACTION, PerturbationPlan(),
                      A, Vector([0.0]), NormKind.SUP)
    assert c.M == 0.5 and c.M_star == 0.0 and c.K_star == 0.0
    assert c.eps == 1.0  # measured ||A(x0) - x0||
    assert c.m_at(5) == 0.0  # per-step sequence pinned at zero


def test_constants_for_newton_adds_sigma_headroom():
    A = operator_from_expressions(["cos(x1)"], 1)
    plan = PerturbationPlan(sigma=ScalarSequence.constant(0.05))
    c = constants_for(0.84, 1.0, SchemeKind.NEWTON, plan, A, Vector([1.0]),
                      NormKind.SUP)
    assert c.M_star == pytest.approx(0.89)
    assert c.K_star == 1.0
    assert c.m_at(3) == pytest.approx(0.89)  # no per-step sequence: starred value


def test_constants_for_custom_scales_by_theta():
    A = operator_from_expressions(["cos(x1)"], 1)
    c = constants_for(0.84, 1.0, SchemeKind.CUSTOM, PerturbationPlan(),
                      A, Vector([1.0]), NormKind.SUP, theta=0.5)
    assert c.M_star == pytest.approx(0.42)
    assert c.m_at(9) == pytest.approx(0.42)
    with pytest.raises(ProblemError):
        constants_for(0.84, 1.0, SchemeKind.CUSTOM, PerturbationPlan(),
                      A, Vector([1.0]), NormKind.SUP)


def test_constants_for_explicit_star_overrides():
    A = operator_from_expressions(["0.5*x1 + 1"], 1)
    c = constants_for(0.5, 0.2, SchemeKind.NEWTON, PerturbationPlan(),
                      A, Vector([0.0]), NormKind.SUP, m_star=0.7, k_star=0.9)
    assert c.M_star == 0.7
    assert c.K_star == 0.9


# -- catalog -------------------------------------------------------------------


def test_catalog_has_enough_problems():
    assert len(catalog_names()) >= 8
    assert catalog_names() == list(CATALOG)


def test_catalog_unknown_name():
    with pytest.raises(ProblemError):
        get_entry("no-such-problem")


def test_catalog_fixed_points_are_fixed():
    for name in catalog_names():
        r = resolve_config({"catalog": name})
        if r.fixed_point is None or r.kind == "integral":
            continue
        moved = max(abs(r.operator.apply(r.fixed_point)[i] - r.fixed_point[i])
                    for i in range(r.operator.dim))
        assert moved < 1e-12, name


def test_catalog_operators_evaluate_at_start():
    for name in catalog_names():
        r = resolve_config({"catalog": name})
        out = r.operator.apply(r.x0)
        assert out.dim == len(CATALOG[name].config["operator"])


def test_cos_entry_constants():
    r = resolve_config({"catalog": "cos-fixed-point"})
    assert r.constants_cfg == {"M": 0.8414709848078966, "K": 1.0}
    c = r.constants()
    assert c.M == 0.8414709848078966 and c.K == 1.0


def test_sin1_is_the_least_double_not_below_sin_1():
    # sup |cos'| over the cos iterates is sin(1), so the declared M must not be below it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sin1 = mpmath.sin(1)
        assert mpmath.mpf(problems.SIN1) >= sin1
        assert mpmath.mpf(math.nextafter(problems.SIN1, 0.0)) < sin1


def test_catalog_entries_are_problem_files():
    # an entry's mapping, written out as a file, is the same problem
    for name, entry in CATALOG.items():
        if entry.theta is not None:
            continue    # the custom scheme needs the entry's averaging weight
        cat = resolve_config({"catalog": name})
        own = resolve_config(dict(entry.config, name=name))
        assert own.operator.apply(own.x0) == cat.operator.apply(cat.x0), name
        assert (own.kind, own.scheme, own.norm, own.x0) == (cat.kind, cat.scheme, cat.norm, cat.x0)
        assert own.plan == cat.plan and own.stop == cat.stop, name
        assert own.constants_cfg == cat.constants_cfg, name
        assert own.constants() == cat.constants(), name
        assert own.integral == cat.integral, name


def test_catalog_overrides_leave_entries_untouched():
    before = {name: copy.deepcopy(entry.config) for name, entry in CATALOG.items()}
    overrides = [
        {"catalog": "perturbed-linear-random", "perturbation": {"seed": 11},
         "stop": {"max_n": 100}, "certificates": [{"regime": "bounded"}]},
        {"catalog": "perturbed-linear", "perturbation": {"mode": "additive-seeded-random"}},
        {"catalog": "linear-contraction", "perturbation": None, "name": "other"},
        {"catalog": "volterra-exp", "integral": {"m": 100}},
        {"catalog": "damped-root", "gamma": {"alpha": 0.25}},
        {"catalog": "damped-root", "gamma": {}},
        {"catalog": "averaged-cos", "scheme": "newton"},
    ]
    for cfg in overrides:
        resolve_config(cfg)
    assert {name: entry.config for name, entry in CATALOG.items()} == before


def test_catalog_resolution_and_digest_stability():
    a = resolve_config({"catalog": "linear-contraction"})
    b = resolve_config({"catalog": "linear-contraction"})
    assert a.digest == b.digest
    assert a.scheme is SchemeKind.CONTRACTION
    assert a.fixed_point == Vector([2.0])


def test_catalog_scheme_override_changes_digest():
    base = resolve_config({"catalog": "cos-fixed-point"})
    over = resolve_config({"catalog": "cos-fixed-point", "scheme": "modified_newton"})
    assert over.scheme is SchemeKind.MODIFIED_NEWTON
    assert over.digest != base.digest


def test_catalog_rejects_structural_overrides():
    with pytest.raises(ProblemError):
        resolve_config({"catalog": "linear-contraction", "x0": [5.0]})


def test_catalog_custom_needs_theta():
    with pytest.raises(ProblemError):
        resolve_config({"catalog": "linear-contraction", "scheme": "custom"})
    ok = resolve_config({"catalog": "averaged-linear"})
    assert ok.theta == 0.5
    assert ok.custom_factory() is not None


def test_catalog_perturbation_override_merges_with_base():
    # overriding just the seed keeps the entry's eps schedule and mode
    r = resolve_config({"catalog": "perturbed-linear-random",
                        "perturbation": {"seed": 99}})
    assert r.plan.seed == 99
    assert r.plan.mode is InjectionMode.RANDOM
    assert r.plan.eps(0) == 0.01


@pytest.mark.parametrize("cfg, message", [
    ({"catalog": "perturbed-linear-random", "perturbation": {"seed": -3}},
     "perturbation.seed must be at least 0, got -3"),
    (minimal_cfg(perturbation={"seed": -1}), "perturbation.seed must be at least 0, got -1"),
    (minimal_cfg(perturbation={"seed": "-1e3"}),
     "perturbation.seed must be at least 0, got -1000"),
    (minimal_cfg(constants={"estimate": {"seed": -2}}),
     "constants.estimate.seed must be at least 0, got -2"),
], ids=["catalog-override", "file", "file-string", "estimate"])
def test_negative_seed_refused_where_the_problem_resolves(cfg, message):
    # numpy's generators refuse a negative seed; at the first step or sample, not here
    with pytest.raises(ProblemError) as info:
        resolve_config(cfg)
    assert str(info.value) == message


def test_seed_0_resolves():
    assert resolve_config(minimal_cfg(perturbation={"seed": 0})).plan.seed == 0
    est = resolve_config(minimal_cfg(constants={"estimate": {"seed": 0}}))
    assert est.constants_cfg["estimate"]["seed"] == 0


def test_catalog_integral_mesh_override():
    r = resolve_config({"catalog": "volterra-exp", "integral": {"m": 100}})
    assert r.integral.m == 100
    assert r.integral.T_end == 2.0
    with pytest.raises(ProblemError):
        resolve_config({"catalog": "linear-contraction", "integral": {"m": 10}})


# -- file problems ---------------------------------------------------------------


def test_minimal_file_problem_resolves_and_runs():
    r = resolve_config(minimal_cfg())
    assert r.scheme is SchemeKind.CONTRACTION
    assert r.norm is NormKind.SUP
    assert r.stop == StopRule(max_n=50)
    trace = run_outer(r.operator, r.scheme, r.x0, plan=r.plan, stop=r.stop,
                      norm=r.norm)
    assert trace.iterates[-1][0] == pytest.approx(2.0, abs=1e-12)


def test_unknown_keys_rejected():
    with pytest.raises(ProblemError) as exc:
        resolve_config(minimal_cfg(ball={"radius": 1.0}))
    assert "ball" in str(exc.value)


def test_bad_expression_reports_position():
    with pytest.raises(ProblemError) as exc:
        resolve_config(minimal_cfg(operator="0.5*x9 + 1"))
    assert "x9" in str(exc.value)
    assert "position" in str(exc.value)


def test_dim_and_x0_consistency():
    with pytest.raises(ProblemError):
        resolve_config({"operator": ["x1", "x2"], "dim": 3, "x0": [0, 0, 0]})
    with pytest.raises(ProblemError):
        resolve_config({"operator": ["x1", "x2"], "x0": [0.0]})
    with pytest.raises(ProblemError):
        resolve_config({"operator": "x1"})  # x0 missing


def test_root_problem_wraps_gamma():
    cfg = {"kind": "root", "operator": "x1^2 - 2", "x0": 1.5,
           "gamma": {"kind": "damped", "alpha": 0.25}}
    r = resolve_config(cfg)
    # A(x) = x - 0.25 (x^2 - 2)
    assert r.operator.apply(Vector([1.0]))[0] == pytest.approx(1.25)


def test_gamma_only_on_root_problems():
    with pytest.raises(ProblemError):
        resolve_config(minimal_cfg(gamma={"kind": "newton"}))


def test_integral_block_gatekeeping():
    with pytest.raises(ProblemError):
        resolve_config(minimal_cfg(integral={"m": 10}))
    with pytest.raises(ProblemError):
        resolve_config({"kind": "integral", "operator": "x1 + 1", "x0": 0.0})
    r = resolve_config({"kind": "integral", "operator": "x1 + 1", "x0": 0.0,
                        "integral": {"kernel": "volterra_unit", "T_end": 1.0, "m": 50}})
    assert r.integral.m == 50


@pytest.mark.parametrize("kernel", ["volterra_unit", "0.5*exp(-(t - s)^2)"])
def test_integral_kernel_is_built_once(kernel):
    r = resolve_config({"kind": "integral", "operator": "x1 + 1", "x0": 0.0,
                        "integral": {"kernel": kernel, "T_end": 1.0, "m": 10}})
    assert r.integral.kernel() is r.integral.kernel()
    assert r.integral.kernel().T_end == 1.0


def test_bad_kernel_expression_is_named():
    with pytest.raises(ProblemError, match=r"^bad kernel expression: "):
        resolve_config({"kind": "integral", "operator": "x1 + 1", "x0": 0.0,
                        "integral": {"kernel": "exp(t - ", "T_end": 1.0, "m": 10}})


def test_custom_scheme_reserved_for_catalog():
    with pytest.raises(ProblemError):
        resolve_config(minimal_cfg(scheme="custom"))


def test_constants_block_variants():
    r = resolve_config(minimal_cfg(constants={"M": 0.5, "K": 0.1,
                                              "M_star": 0.2, "K_star": 0.3}))
    assert r.constants_cfg == {"M": 0.5, "K": 0.1, "M_star": 0.2, "K_star": 0.3}
    c = r.constants()
    assert (c.M, c.K, c.M_star, c.K_star) == (0.5, 0.1, 0.2, 0.3)

    est = resolve_config(minimal_cfg(constants={"estimate": {"radius": 0.5,
                                                             "samples": 50}}))
    # the sampling settings the block leaves out are filled in when it resolves
    assert est.constants_cfg == {"estimate": {"radius": 0.5, "samples": 50, "seed": 0,
                                              "safety": SAFETY_FACTOR}}
    ball = BallDomain(est.x0, 0.5, est.norm)
    c = est.constants()
    assert c.M == with_safety(estimate_lipschitz_M(est.operator, ball, 50, 0))
    assert c.K == with_safety(estimate_lipschitz_K(est.operator, ball, 25, 0))
    assert c.M == pytest.approx(0.55)     # 0.5 x + 1 has Lipschitz constant 0.5

    assert resolve_config(minimal_cfg(constants=None)).constants_cfg is None

    for bad in ({"K": 0.1}, {}):
        with pytest.raises(ProblemError, match="constants block needs M"):
            resolve_config(minimal_cfg(constants=bad))


def test_certificate_requests():
    cfg = minimal_cfg(certificates=[
        {"regime": "bounded"},
        {"regime": "geometric", "witnesses": "search"},
        {"regime": "sandwich", "witnesses": {"C1": 0.5, "C2": 0.1}},
    ])
    r = resolve_config(cfg)
    assert r.cert_requests == [
        CertRequest("bounded", None),
        CertRequest("geometric", None),
        CertRequest("sandwich", {"C1": 0.5, "C2": 0.1}),
    ]
    with pytest.raises(ProblemError):
        resolve_config(minimal_cfg(certificates="search"))
    with pytest.raises(ProblemError):
        resolve_config(minimal_cfg(certificates=[{"regime": "cubic"}]))


# -- perturbation sequences ----------------------------------------------------


def test_sequence_from_config_forms():
    assert fpcert.sequence_from_config is sequence_from_config
    assert sequence_from_config(0.25)(7) == 0.25
    assert sequence_from_config(0)(3) == 0.0
    g = sequence_from_config({"kind": "geometric", "c": 1.0, "ratio": 0.5})
    assert g(2) == 0.25
    p = sequence_from_config({"kind": "power", "c": 2.0, "p": 2.0})
    assert p(2) == pytest.approx(0.5)
    z = sequence_from_config({"kind": "zero"})
    assert z(5) == 0.0
    t = sequence_from_config({"kind": "table", "entries": [0.5, 0.25, 0.1]})
    assert t == ScalarSequence.from_table([0.5, 0.25, 0.1])
    assert t(1) == 0.25 and t(9) == 0.1    # constant beyond the last entry
    for bad in ({"kind": "table"}, {"kind": "table", "entries": []},
                {"kind": "table", "entries": [0.1, "x"]}, {"kind": "table", "entries": [-0.1]},
                {"kind": "fourier"}, "not a sequence", math.inf, math.nan,
                {"kind": "constant", "c": math.inf}, {"kind": "geometric", "c": math.nan}):
        with pytest.raises(ProblemError):
            sequence_from_config(bad)


@pytest.mark.parametrize("value, message", [
    ({"kind": "constant", "c": -0.1},
     "perturbation.eps: constant sequence must be finite and nonnegative, got -0.1"),
    ({"kind": "geometric", "c": 0.1}, "perturbation.eps.ratio must be a number, got None"),
    ({"kind": "table", "entries": [0.1, "x"]},
     "perturbation.eps.entries[1] must be a number, got 'x'"),
    ({"kind": "table", "entries": 0.1},
     "perturbation.eps.entries must be a list of numbers, got 0.1"),
    ({"kind": "table", "entries": [0.01, True, False]},
     "perturbation.eps.entries[1] must be a number, got True"),
    ({"kind": "constant", "c": 0.1, "ratio": 0.5}, "unknown perturbation.eps keys: ratio"),
    ({"kind": "fourier"},
     "perturbation.eps.kind must be one of constant|geometric|power|table|zero, got 'fourier'"),
    ([0.1], "perturbation.eps must be a number, got [0.1]"),
])
def test_sequence_errors_name_their_path(value, message):
    with pytest.raises(ProblemError) as exc:
        resolve_config(minimal_cfg(perturbation={"eps": value}))
    assert str(exc.value) == message


_NONNEG = st.floats(min_value=0.0, max_value=1e300)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
FILE_SEQUENCES = st.one_of(
    st.just(ScalarSequence.zero()),
    st.builds(ScalarSequence.constant, _NONNEG),
    st.builds(ScalarSequence.geometric, _NONNEG, _NONNEG),
    st.builds(ScalarSequence.power, _NONNEG, _FINITE),
    st.builds(ScalarSequence.from_table, st.lists(_NONNEG, min_size=1, max_size=8)))


@given(seq=FILE_SEQUENCES)
def test_sequence_config_round_trip(seq):
    cfg = sequence_to_config(seq)
    assert sequence_from_config(cfg) == seq
    if seq.kind == "table":
        assert cfg["entries"] == list(seq.entries)     # a list, as a problem file has it


def test_combinators_are_written_as_their_kind_alone():
    base = ScalarSequence.geometric(0.5, 0.5)
    assert sequence_to_config(base.affine(2.0, 0.1)) == {"kind": "affine"}
    assert sequence_to_config(ScalarSequence.pair_sum(base, 0.5)) == {"kind": "pairsum"}


# -- the number rule -------------------------------------------------------------

_ROOT = {"kind": "root", "operator": "x1^2 - 2", "derivative": [["2*x1"]], "x0": 1.5,
         "gamma": {"kind": "damped"}}
_INTEGRAL = {"kind": "integral", "operator": "x1 + 1", "x0": 0.0, "integral": {}}
_BLOCK_BASES = {"perturbation": minimal_cfg(), "stop": minimal_cfg(), "gamma": _ROOT,
                "integral": _INTEGRAL, "constants": minimal_cfg(constants={"M": 0.5}),
                "constants.estimate": minimal_cfg(constants={"estimate": {}})}
_SEQUENCE_FIELDS = {"constant": {"c": 0.1}, "geometric": {"c": 0.1, "ratio": 0.5},
                    "power": {"c": 0.1, "p": 2.0}}


def _with_value(base: dict, path: str, value) -> dict:
    """A copy of base with value at the dotted path."""
    cfg = copy.deepcopy(base)
    *blocks, key = path.split(".")
    block = cfg
    for name in blocks:
        block = block.setdefault(name, {})
    block[key] = value
    return cfg


def _number_cases():
    """(test id, the key an error names, its type, value -> problem mapping) for
    every number a problem file states."""
    for block, keys in problems._KEYS.items():
        for key, convert in keys.items():
            path = "%s.%s" % (block, key)
            if convert is not None:
                yield path, path, convert, partial(_with_value, _BLOCK_BASES[block], path)
    yield "dim", "dim", int, lambda v: minimal_cfg(dim=v)
    yield "x0", "x0", float, lambda v: minimal_cfg(x0=[0.5, v], operator=["x1", "x2"])
    for regime, names in WITNESSES.items():
        for name in names:
            key = "%s witness %s" % (regime, name)
            yield key, key, float, lambda v, r=regime, ns=names, n=name: minimal_cfg(
                certificates=[{"regime": r, "witnesses": {**dict.fromkeys(ns, 0.5), n: v}}])
    for seq in ("eps", "sigma", "gamma"):
        path = "perturbation." + seq
        yield path, path, float, partial(_with_value, minimal_cfg(), path)
        for kind, fields in _SEQUENCE_FIELDS.items():
            for field in fields:
                yield ("%s.%s-%s" % (path, field, kind), "%s.%s" % (path, field), float,
                       lambda v, s=seq, k=kind, fs=fields, f=field: minimal_cfg(
                           perturbation={s: {"kind": k, **fs, f: v}}))
        yield (path + ".entries", path + ".entries[1]", float,
               lambda v, s=seq: minimal_cfg(perturbation={s: {"kind": "table",
                                                              "entries": [0.1, v]}}))


def _outcome(cfg):
    """What a problem mapping resolves to, or the error that refuses it."""
    try:
        r = resolve_config(cfg)
    except ProblemError as exc:
        return str(exc)
    return r.digest, r.constants_cfg, [c.witnesses for c in r.cert_requests]


_NUMBER_CASES = list(_number_cases())


@pytest.mark.parametrize("key, convert, build", [case[1:] for case in _NUMBER_CASES],
                         ids=[case[0] for case in _NUMBER_CASES])
def test_every_number_follows_one_rule(key, convert, build):
    # YAML 1.1 reads true/yes/on as a boolean: a number is due, so it is refused
    assert _outcome(build(yaml.safe_load("on"))) == "%s must be %s, got True" % (
        key, "an integer" if convert is int else "a number")
    # and reads a float only with a dot: 1e-3 stays a string, which reads as the number
    written, dotted = (("1e1", "1.0e+1") if convert is int else ("1e-3", "1.0e-3"))
    assert isinstance(yaml.safe_load(written), str)
    assert _outcome(build(yaml.safe_load(written))) == _outcome(build(yaml.safe_load(dotted)))


def test_digest_separates_problems_but_not_certificates():
    plain = resolve_config(minimal_cfg())
    with_certs = resolve_config(minimal_cfg(certificates=[{"regime": "bounded"}]))
    moved = resolve_config(minimal_cfg(x0=0.5))
    seeded = resolve_config(minimal_cfg(perturbation={"seed": 3}))
    assert plain.digest == with_certs.digest  # certs select reports, not runs
    assert plain.digest != moved.digest
    assert plain.digest != seeded.digest


# The digest is the sha256 of the resolved problem's JSON, so these values hold
# on any host.  A change that moves one invalidates every trace already written
# for that problem.
PINNED_CATALOG_DIGESTS = {
    "linear-contraction": "61cacae60cf13568925624c247a8646c0ee42a85dced40dce7b64784f2f41adb",
    "cos-fixed-point": "576c0358d7da82e41b2d35a63ca15dd0b2c55c771fe80d32b27a8fe6b9f8c7a5",
    "two-dim-system": "a631c57697ff84c875d16b931b779ed529997d2e6a075453bbbb66019254a561",
    "gentle-newton": "f1263a49450465d15deae7ea81672062724fa37a78680766e877ddc4ca378f88",
    "sqrt2-root": "2b0504e94c2cdc46c904a715e548bdf58a039a73674a0b9e448acd46c4de8cd6",
    "damped-root": "a7885be001eb9890470f51b5836306bbb88026956dc8ef2b5e7315017a711c1b",
    "volterra-exp": "4dd86b0f9d53961b0b39eed3dce7f8f8775c03fc55da3e8aca8cd5a335bc9326",
    "expanding": "a0b3d6b70b34aef0209a2d15d4f12c766f39c575a64eba8bb083644747162228",
    "perturbed-linear": "ad5bf8dbe87d1e488e31efad87146a196c15f2c027aebe022158614acfd6d9d7",
    "perturbed-linear-random":
        "a77f15ef0ea496e3292d4d550676240a4d2b31b1b6ba83475d96b6c8a17260db",
    "averaged-linear": "24636f50439d433a43bbfd2480f738a7188407b289c62edc37f78c03b1232799",
    "averaged-cos": "0e8576462fc22c4312ad0a21c2df61533d7838e137dcef669e3e7a5df6e21c44",
    "averaged-twodim": "2fdfc9eed672b91c481a6d67cd49f6ba531282e0cb1337c2efe2d4f56f3f0281",
}

# file problems whose perturbation budgets between them use every sequence
# form (a bare number, zero, constant, geometric, power, table), and an
# integral problem with an expression kernel
PINNED_FILE_DIGESTS = [
    (minimal_cfg(perturbation={"eps": 0.001, "sigma": {"kind": "zero"},
                               "gamma": {"kind": "constant", "c": 0.002}}),
     "ae62b5659820ebb0d35ed75c725a07bc4d4f774d31ebe86df0dc74fe966ba40d"),
    (minimal_cfg(scheme="newton",
                 perturbation={"eps": {"kind": "geometric", "c": 0.01, "ratio": 0.5},
                               "sigma": {"kind": "power", "c": 0.1, "p": 2},
                               "gamma": {"kind": "table", "entries": [0.3, 0.2, 0]}}),
     "4b598b5e45585b87e1e27850ff834a027015707bcd4ad2319d79d0f37e94ef10"),
    ({"name": "kernel", "kind": "integral", "operator": "x1 + 1", "x0": 0.0,
      "integral": {"kernel": "0.5*exp(-(t - s)^2)", "T_end": 1.0, "m": 20}},
     "6dc993a288918aedf379b7a0ce74ba5b3f1336b6660b9fa74c41b8c90483e5d2"),
]


def test_catalog_digests_are_pinned():
    assert {name: resolve_config({"catalog": name}).digest
            for name in CATALOG} == PINNED_CATALOG_DIGESTS


@pytest.mark.parametrize("cfg, digest", PINNED_FILE_DIGESTS,
                         ids=["number-zero-constant", "geometric-power-table",
                              "expression-kernel"])
def test_file_problem_digests_are_pinned(cfg, digest):
    assert resolve_config(cfg).digest == digest


def test_load_problem_catalog_and_missing_file():
    r = load_problem("linear-contraction")
    assert r.name == "linear-contraction"
    with pytest.raises(ProblemError):
        load_problem("/nonexistent/path/problem.yaml")


def test_load_problem_yaml_file(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("operator: 0.5*x1 + 1\nx0: 0.0\nstop: {max_n: 7}\n")
    r = load_problem(str(path))
    assert r.stop.max_n == 7


# -- derivative parsing ----------------------------------------------------------

DIM3_DERIVATIVE = [["0", "-0.5*sin(x2)", "0"], ["0", "0", "0.5*cos(x3)"],
                   ["-0.5*sin(x1)", "0", "0"]]


def dim3_newton(tmp_path, **extra) -> str:
    path = tmp_path / "dim3.yaml"
    path.write_text(yaml.safe_dump(dict(
        {"operator": ["0.5*cos(x2)", "0.5*sin(x3)", "0.5*cos(x1)"],
         "derivative": DIM3_DERIVATIVE, "x0": [0.0, 0.0, 0.0], "scheme": "newton",
         "constants": {"M": 0.5, "K": 0.5}, "stop": {"max_n": 6}}, **extra)))
    return str(path)


@pytest.fixture
def parses(monkeypatch):
    """The texts problems.parse_expr is called on, in order."""
    calls = []
    real = problems.parse_expr

    def counting(text, allowed):
        calls.append(text)
        return real(text, allowed)

    monkeypatch.setattr(problems, "parse_expr", counting)
    return calls


def test_load_problem_parses_only_the_operator_trees(tmp_path, parses):
    load_problem(dim3_newton(tmp_path))
    assert len(parses) == 3


def test_run_parses_each_tree_once_and_certify_only_the_operator(tmp_path, parses):
    from fpcert.cli import main
    src, trace = dim3_newton(tmp_path), str(tmp_path / "trace")
    assert main(["run", src, "--out", trace]) == 0
    # one parse per tree, however many Newton steps build a Jacobian
    assert json.loads((tmp_path / "trace" / "run.json").read_text())["steps"] >= 5
    assert len(parses) == 3 + 9
    del parses[:]
    assert main(["certify", src, "--trace", trace]) == 0
    assert len(parses) == 3


def test_certify_parses_the_derivative_its_sampling_reads(tmp_path, parses):
    from fpcert.cli import main
    src = dim3_newton(tmp_path, constants={"estimate": {"samples": 10}})
    trace = str(tmp_path / "trace")
    assert main(["run", src, "--out", trace]) == 0
    del parses[:]
    assert main(["certify", src, "--trace", trace]) == 0
    assert len(parses) == 3 + 9


def test_lazy_derivative_trees_equal_an_eager_parse(tmp_path):
    r = load_problem(dim3_newton(tmp_path))
    lazy = r.parse_derivative()
    eager = [parse_expr(t, ("x1", "x2", "x3")) for row in DIM3_DERIVATIVE for t in row]
    assert lazy == eager and repr(lazy) == repr(eager)
    assert r.parse_derivative() is lazy
    assert resolve_config(minimal_cfg()).parse_derivative() == []


def test_malformed_derivative_entry_fails_where_it_is_first_parsed():
    r = resolve_config(minimal_cfg(derivative=[["0.5*x2"]]))
    message = "bad derivative expression at row 1, column 1: unknown variable 'x2' (at position 4)"
    for read in (r.parse_derivative, lambda: r.operator.jacobian(r.x0)):
        with pytest.raises(ProblemError) as exc:
            read()
        assert str(exc.value) == message
    # so is every entry's type, before the shape
    for entry in (0.5, None, ["x1"]):
        with pytest.raises(ProblemError) as exc:
            resolve_config(minimal_cfg(derivative=[[entry]]))
        assert str(exc.value) == ("derivative entry at row 1, column 1 must be an "
                                  "expression string, got %r" % (entry,))
    # the matrix shape is still checked at resolve
    with pytest.raises(ProblemError, match="2x2 matrix"):
        resolve_config(minimal_cfg(operator=["x1", "x2"], x0=[0, 0], derivative=[["1"]]))


# -- the YAML loader ------------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_workloads():
    """bench/workloads.py, imported once by its path."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def pure_python_load(path):
    """The file's mapping as PyYAML's pure-Python SafeLoader reads it."""
    with open(path) as fh:
        return yaml.load(fh, Loader=yaml.SafeLoader)


def assert_same_values(got, want):
    # repr tells apart what == does not (0.0 and -0.0, 1 and 1.0, True and 1,
    # the order of a dict's keys) and equates what == does not (NaN and NaN)
    assert type(got) is dict
    assert repr(got) == repr(want)


YAML_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.718281828459045e-300])
YAML_STRINGS = st.text() | st.sampled_from(
    ["a: b", "key:value", "# not a comment", "x #y", "'single'", '"double"', "it's",
     'say "hi"', "yes", "no", "on", "null", "~", "", " ", "1e3", "1.5", "0x1f", "0o17",
     "1_000", ".inf", "-.nan", "2001-12-14", "<<", "- item", "[x1]", "{a: 1}", "x1^2 - 2"])
YAML_SCALARS = (YAML_FLOATS | st.integers() | YAML_STRINGS | st.booleans() | st.none())
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(YAML_STRINGS, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(cfg=st.dictionaries(YAML_STRINGS, YAML_VALUES, max_size=6),
       flow=st.sampled_from([None, True, False]))
def test_load_config_reads_what_the_pure_python_loader_reads(tmp_path_factory, cfg, flow):
    path = tmp_path_factory.getbasetemp() / "loader-property.yaml"
    path.write_text(yaml.safe_dump(cfg, default_flow_style=flow))
    assert_same_values(load_config(str(path)), pure_python_load(path))


# documents for problems._Loader, whose sequences of str scalars skip
# construct_object: plain, quoted and !!str strings, plain words that resolve
# to other types, numbers, booleans and nulls, in nested block and flow
# sequences, with anchors and aliases on scalars and flow sequences
PLAIN_WORDS = ["x1", "0.3*cos(x2)", "x1^2 - 2", "-0.5*sin(x3)", "abc def", "yes", "No", "on",
               "null", "~", "true", "1", "-2", "0x1f", "1.5", "1e3", "1.0e+3", ".inf", "-.nan",
               "1_000", "2001-12-14", "<<"]
PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
YAML_LEAVES = (st.tuples(st.sampled_from(["plain", "str"]), st.sampled_from(PLAIN_WORDS))
               | st.tuples(st.sampled_from(["single", "double"]), PRINTABLE)
               | st.tuples(st.just("number"), st.integers() | YAML_FLOATS)
               | st.tuples(st.just("bool"), st.booleans()) | st.just(("null", None)))
YAML_TREES = st.recursive(YAML_LEAVES, lambda inner: st.lists(inner, max_size=5), max_leaves=30)


class _Render:
    """YAML text of a tree of YAML_LEAVES, with anchors and aliases drawn from rnd."""

    def __init__(self, rnd):
        self.rnd, self.anchors = rnd, []

    def anchored(self, text):
        if self.anchors and self.rnd.random() < 0.15:
            return "*" + self.rnd.choice(self.anchors)
        if self.rnd.random() < 0.2:
            self.anchors.append("a%d" % len(self.anchors))
            return "&%s %s" % (self.anchors[-1], text)
        return text

    def flow(self, node):
        if isinstance(node, list):
            return self.anchored("[%s]" % ", ".join(self.flow(child) for child in node))
        kind, value = node
        text = {"plain": lambda: value, "str": lambda: "!!str " + value,
                "single": lambda: "'%s'" % value.replace("'", "''"),
                "double": lambda: json.dumps(value), "number": lambda: repr(value),
                "bool": lambda: "true" if value else "false", "null": lambda: "null"}[kind]()
        return self.anchored(text)

    def block(self, node, indent):
        """The lines of node as a block sequence at indent."""
        lines = []
        for child in node:
            if isinstance(child, list) and child and self.rnd.random() < 0.5:
                sub = self.block(child, indent + 2)
                lines.append(" " * indent + "- " + sub[0][indent + 2:])
                lines.extend(sub[1:])
            else:
                lines.append(" " * indent + "- " + self.flow(child))
        return lines

    def document(self, values):
        lines = []
        for i, value in enumerate(values):
            if isinstance(value, list) and value and self.rnd.random() < 0.5:
                lines.append("k%d:" % i)
                lines.extend(self.block(value, 0))
            else:
                lines.append("k%d: %s" % (i, self.flow(value)))
        return "\n".join(lines) + "\n"


def load_outcome(text, loader):
    """repr of what loader reads from text, with the lists it shares marked, or
    the error it raises."""
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    seen = []

    def lists(obj):   # each list as the index of its first occurrence, in document order
        if isinstance(obj, dict):
            return [lists(v) for v in obj.values()]
        if isinstance(obj, list):
            first = next((i for i, o in enumerate(seen) if o is obj), None)
            seen.append(obj)
            return [first, [lists(v) for v in obj]]
        return None
    return repr(data), lists(data)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(YAML_TREES, min_size=1, max_size=4), rnd=st.randoms())
def test_the_loader_reads_what_the_stock_loader_reads(values, rnd):
    text = _Render(rnd).document(values)
    stock = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert load_outcome(text, problems._Loader) == load_outcome(text, stock), text


@pytest.mark.parametrize("workload", ["newton-dense", "fredholm-sweep", "noisy-certify"])
def test_load_config_reads_benchmark_problems_like_the_pure_python_loader(tmp_path, workload):
    inst = bench_workloads().make_instance(workload, 1, 0, tmp_path)
    path = inst.out / "problem.yaml"
    assert_same_values(load_config(str(path)), pure_python_load(path))


def test_newton_dense_trees_compile_to_two_code_objects():
    # 30 operator rows that differ in coefficient signs and variables, and
    # 900 derivative entries that differ in their variable
    cfg = bench_workloads().newton_dense_config(np.random.default_rng([1, 0]))
    names = ["x%d" % (i + 1) for i in range(cfg["dim"])]
    rows = [_compile(parse_expr(t, names)) for t in cfg["operator"]]
    entries = [_compile(parse_expr(t, names)) for row in cfg["derivative"] for t in row]
    assert (len(rows), len(entries)) == (30, 900)
    assert len({fn.__code__ for fn in rows}) == len({fn.__code__ for fn in entries}) == 1
    assert len({fn.__code__ for fn in rows + entries}) == 2


def test_override_param():
    cfg = minimal_cfg()
    out = override_param(cfg, "eps", 1e-3)
    assert out["perturbation"]["eps"] == {"kind": "constant", "c": 1e-3}
    assert out["perturbation"]["mode"] == "additive-deterministic"
    assert "perturbation" not in cfg  # original untouched

    seeded = override_param(cfg, "seed", 11)
    assert seeded["perturbation"]["seed"] == 11

    with pytest.raises(ProblemError):
        override_param(cfg, "alpha", 0.5)
    with pytest.raises(ProblemError):
        override_param(cfg, "m", 100)
    with pytest.raises(ProblemError):
        override_param(cfg, "theta", 0.5)
