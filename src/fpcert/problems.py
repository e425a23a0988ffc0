"""Built-in problem catalog plus YAML problem-file loading.

A problem bundles everything a run needs: the operator (possibly wrapped from
a root problem), start point, norm, scheme, perturbation plan, stop rule and
the analytic Lipschitz data on a stated working ball.  Catalog entries define
their operators through the same expression parser as user files, so file and
built-in problems go down one code path.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .core import (BallDomain, CoreError, NormKind, OperatorEvaluationError, OperatorSpec,
                   Vector, norm_of)
from .exprparse import ExprError, eval_expr, parse_expr
from .greens import KernelSpec, build_volterra_kernel, kernel_from_expression
from .majorant import REGIMES, ProblemConstants
from .rootfind import GammaSpec, RootfindError, wrap_root_problem
from .schemes import InjectionMode, PerturbationPlan, SchemeError, SchemeKind, StopRule
from .sequences import ScalarSequence, SequenceError, sequence_from_config


class ProblemError(ValueError):
    pass


def _number(value, key: str, convert=float):
    """convert(value) for a problem-file value; ProblemError naming key if it is no number."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ProblemError("%s must be %s, got %r"
                           % (key, "an integer" if convert is int else "a number", value)) from None


def _var_names(dim: int) -> List[str]:
    return ["x%d" % (i + 1) for i in range(dim)]


def operator_from_expressions(exprs: Sequence[str], dim: int,
                              deriv_exprs: Optional[Sequence[Sequence[str]]] = None,
                              name: str = "") -> OperatorSpec:
    """Build an operator from one expression per output coordinate.

    deriv_exprs, when given, is the full Jacobian as a dim x dim matrix of
    expressions; the derivative map is then h -> J(x) h.
    """
    if len(exprs) != dim:
        raise ProblemError("operator needs %d expressions, got %d" % (dim, len(exprs)))
    names = _var_names(dim)
    allowed = set(names)
    trees = [parse_expr(t, allowed) for t in exprs]

    def bindings(x: Vector) -> Dict[str, float]:
        return {names[i]: x[i] for i in range(dim)}

    def evaluator(x: Vector) -> Vector:
        b = bindings(x)
        try:
            return Vector([eval_expr(t, b) for t in trees])
        except ExprError as exc:
            raise OperatorEvaluationError("operator %s: %s" % (name or "?", exc)) from exc

    derivative = None
    if deriv_exprs is not None:
        if len(deriv_exprs) != dim or any(len(row) != dim for row in deriv_exprs):
            raise ProblemError("derivative must be a %dx%d matrix of expressions" % (dim, dim))
        jac_trees = [[parse_expr(t, allowed) for t in row] for row in deriv_exprs]

        def derivative(x: Vector, h: Vector) -> Vector:
            b = bindings(x)
            try:
                jac = np.array([[eval_expr(t, b) for t in row] for row in jac_trees])
            except ExprError as exc:
                raise OperatorEvaluationError("derivative of %s: %s" % (name or "?", exc)) from exc
            return Vector(jac @ h.coords)

    return OperatorSpec(dim=dim, evaluator=evaluator, derivative=derivative, name=name)


def averaged_factory(A: OperatorSpec, theta: float) -> Callable[[int, Vector, Vector], OperatorSpec]:
    """Custom-scheme factory: B_{n-1}(x) = theta A(x) + (1-theta) A(x_{n-1}).

    B is anchored at the previous iterate (B_{n-1}(x_{n-1}) = A(x_{n-1}) exactly,
    so the value-inexactness budget is zero) and has Lipschitz constant theta
    times that of A.
    """
    if not (0.0 < theta < 1.0):
        raise ProblemError("averaging weight must be in (0, 1), got %r" % theta)

    def factory(n: int, x_prev: Vector, x0: Vector) -> OperatorSpec:
        anchor = A.apply(x_prev)

        def ev(x: Vector) -> Vector:
            return Vector(theta * A.apply(x).coords + (1.0 - theta) * anchor.coords)

        deriv = None
        if A.derivative is not None:
            def deriv(x: Vector, h: Vector) -> Vector:
                return Vector(theta * A.derivative_at(x, h).coords)

        return OperatorSpec(dim=A.dim, evaluator=ev, derivative=deriv,
                            name="averaged(%s)" % (A.name or "A"))

    return factory


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class IntegralSetup:
    kernel_kind: str     # volterra_unit | expression text
    T_end: float
    m: int
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)

    def kernel(self) -> KernelSpec:
        if self.kernel_kind == "volterra_unit":
            return build_volterra_kernel(self.T_end)
        return kernel_from_expression(self.kernel_kind, self.T_end)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    kind: str                                  # fixed_point | root | integral
    dim: int
    operator_exprs: Tuple[str, ...]            # A for fixed_point/integral, P for root
    deriv_exprs: Optional[Tuple[Tuple[str, ...], ...]]
    x0: Tuple[float, ...]
    norm: NormKind
    M: Optional[float]                         # None once a gamma override voids them
    K: Optional[float]
    ball: Optional[BallDomain]
    scheme: SchemeKind
    plan: PerturbationPlan
    stop: StopRule
    gamma: Optional[GammaSpec] = None          # root kind only
    theta: Optional[float] = None              # custom scheme only
    integral: Optional[IntegralSetup] = None
    fixed_point: Optional[Tuple[float, ...]] = None

    def build_operator(self) -> OperatorSpec:
        base = operator_from_expressions(list(self.operator_exprs), self.dim,
                                         self.deriv_exprs, name=self.name)
        if self.kind == "root":
            return wrap_root_problem(base, self.gamma)
        return base


def _entry(name, summary, kind, exprs, deriv, x0, M, K, ball_center, ball_radius,
           scheme, norm=NormKind.SUP, plan=None, stop=None, gamma=None, theta=None,
           integral=None, fixed_point=None) -> CatalogEntry:
    dim = len(x0)
    ball = None
    if ball_center is not None:
        ball = BallDomain(Vector(ball_center), ball_radius, norm)
    return CatalogEntry(
        name=name, summary=summary, kind=kind, dim=dim,
        operator_exprs=tuple(exprs),
        deriv_exprs=tuple(tuple(r) for r in deriv) if deriv else None,
        x0=tuple(float(v) for v in x0), norm=norm, M=M, K=K, ball=ball,
        scheme=scheme, plan=plan or PerturbationPlan.exact(),
        stop=stop or StopRule(max_n=50, residual_tol=1e-12),
        gamma=gamma, theta=theta, integral=integral,
        fixed_point=tuple(fixed_point) if fixed_point is not None else None)


SIN1 = math.sin(1.0)
DOTTIE = 0.7390851332151607  # fixed point of cos, to double precision


def _build_catalog() -> Dict[str, CatalogEntry]:
    entries = [
        _entry("linear-contraction",
               "affine scalar contraction 0.5 x + 1, fixed point 2",
               "fixed_point", ["0.5*x1 + 1"], [["0.5"]], [0.0],
               M=0.5, K=0.0, ball_center=[1.0], ball_radius=2.0,
               scheme=SchemeKind.CONTRACTION, fixed_point=[2.0]),
        _entry("cos-fixed-point",
               "x = cos(x) near the Dottie point",
               "fixed_point", ["cos(x1)"], [["-sin(x1)"]], [1.0],
               M=SIN1, K=1.0, ball_center=[0.77], ball_radius=0.23,
               scheme=SchemeKind.NEWTON, fixed_point=[DOTTIE]),
        _entry("two-dim-system",
               "coupled 2-D trig system, sup norm, contraction factor 0.3",
               "fixed_point", ["0.3*cos(x2)", "0.3*sin(x1)"],
               [["0", "-0.3*sin(x2)"], ["0.3*cos(x1)", "0"]], [0.0, 0.0],
               M=0.3, K=0.3, ball_center=[0.0, 0.0], ball_radius=0.5,
               scheme=SchemeKind.CONTRACTION),
        _entry("gentle-newton",
               "mildly nonlinear scalar map with small curvature",
               "fixed_point", ["0.9 + 0.1*sin(x1)"], [["0.1*cos(x1)"]], [0.0],
               M=0.1, K=0.1, ball_center=[0.5], ball_radius=1.0,
               scheme=SchemeKind.NEWTON),
        _entry("sqrt2-root",
               "root of x^2 - 2 via the newton wrap (Heron iteration)",
               "root", ["x1^2 - 2"], [["2*x1"]], [1.5],
               M=0.14, K=0.82, ball_center=[1.5], ball_radius=0.15,
               scheme=SchemeKind.CONTRACTION, gamma=GammaSpec.newton(),
               fixed_point=[math.sqrt(2.0)]),
        _entry("damped-root",
               "root of P(x) = x with damped gamma, alpha = 0.5",
               "root", ["x1"], [["1"]], [1.0],
               M=0.5, K=0.0, ball_center=[0.0], ball_radius=2.0,
               scheme=SchemeKind.CONTRACTION, gamma=GammaSpec.damped(0.5),
               fixed_point=[0.0]),
        _entry("volterra-exp",
               "x' = x + 1, x(0) = 0 on [0, 2] as a Volterra integral equation",
               "integral", ["x1 + 1"], [["1"]], [0.0],
               M=1.0, K=0.0, ball_center=None, ball_radius=0.0,
               scheme=SchemeKind.CONTRACTION,
               stop=StopRule(max_n=60, residual_tol=1e-9),
               integral=IntegralSetup("volterra_unit", 2.0, 400, exact=np.expm1)),
        _entry("expanding",
               "A(x) = 2x from x0 = 1: the iteration must trip the divergence guard",
               "fixed_point", ["2*x1"], [["2"]], [1.0],
               M=2.0, K=0.0, ball_center=[0.0], ball_radius=10.0,
               scheme=SchemeKind.CONTRACTION, stop=StopRule(max_n=50),
               fixed_point=[0.0]),
        _entry("perturbed-linear",
               "linear contraction with constant 1e-2 worst-case additive noise",
               "fixed_point", ["0.5*x1 + 1"], [["0.5"]], [0.0],
               M=0.5, K=0.0, ball_center=[1.0], ball_radius=2.0,
               scheme=SchemeKind.CONTRACTION,
               plan=PerturbationPlan(eps=ScalarSequence.constant(0.01),
                                     mode=InjectionMode.DETERMINISTIC),
               stop=StopRule(max_n=200), fixed_point=[2.0]),
        _entry("perturbed-linear-random",
               "linear contraction with constant 1e-2 seeded random noise",
               "fixed_point", ["0.5*x1 + 1"], [["0.5"]], [0.0],
               M=0.5, K=0.0, ball_center=[1.0], ball_radius=2.0,
               scheme=SchemeKind.CONTRACTION,
               plan=PerturbationPlan(eps=ScalarSequence.constant(0.01),
                                     mode=InjectionMode.RANDOM, seed=7),
               stop=StopRule(max_n=200), fixed_point=[2.0]),
        _entry("averaged-linear",
               "custom scheme: half-averaged relaxation of the linear contraction",
               "fixed_point", ["0.5*x1 + 1"], [["0.5"]], [0.0],
               M=0.5, K=0.0, ball_center=[1.0], ball_radius=2.0,
               scheme=SchemeKind.CUSTOM, theta=0.5, fixed_point=[2.0]),
        _entry("averaged-cos",
               "custom scheme: half-averaged relaxation of x = cos(x)",
               "fixed_point", ["cos(x1)"], [["-sin(x1)"]], [1.0],
               M=SIN1, K=1.0, ball_center=[0.77], ball_radius=0.23,
               scheme=SchemeKind.CUSTOM, theta=0.5, fixed_point=[DOTTIE]),
        _entry("averaged-twodim",
               "custom scheme: half-averaged relaxation of the 2-D trig system",
               "fixed_point", ["0.3*cos(x2)", "0.3*sin(x1)"],
               [["0", "-0.3*sin(x2)"], ["0.3*cos(x1)", "0"]], [0.0, 0.0],
               M=0.3, K=0.3, ball_center=[0.0, 0.0], ball_radius=0.5,
               scheme=SchemeKind.CUSTOM, theta=0.5),
    ]
    return {e.name: e for e in entries}


CATALOG: Dict[str, CatalogEntry] = _build_catalog()


def catalog_names() -> List[str]:
    return list(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise ProblemError("unknown catalog problem %r (see `fpcert catalog`)" % name)


# ---------------------------------------------------------------------------
# scheme-dependent constants


def constants_for(M: float, K: float, scheme: SchemeKind, plan: PerturbationPlan,
                  operator: OperatorSpec, x0: Vector, norm: NormKind,
                  theta: Optional[float] = None,
                  m_star: Optional[float] = None,
                  k_star: Optional[float] = None) -> ProblemConstants:
    """Assemble ProblemConstants with the starred constants the scheme implies.

    contraction: B is a constant map (M_n = K_n = 0).  newton/modified: B is
    A's linearization, so ||B'|| is at most M plus the injected derivative
    budget; K_star is kept at K (conservative: the affine B has K_n = 0).
    custom averaged: both constants scale by theta.  Explicit m_star/k_star
    replace the scheme-implied values (the per-index sequences stay implied).
    """
    eps_meas = norm_of(operator.apply(x0) - x0, norm)
    zero = ScalarSequence.zero()
    if scheme is SchemeKind.CONTRACTION:
        m_imp, m_seq = 0.0, zero
        k_imp, k_seq = 0.0, zero
    elif scheme is SchemeKind.NEWTON:
        m_imp, m_seq = M + plan.sigma.sup_tail(0), None
        k_imp, k_seq = K, None
    elif scheme is SchemeKind.MODIFIED_NEWTON:
        m_imp, m_seq = M + plan.gamma.sup_tail(0), None
        k_imp, k_seq = K, None
    elif scheme is SchemeKind.CUSTOM:
        if theta is None:
            raise ProblemError("custom scheme needs the averaging weight theta")
        m_imp, m_seq = theta * M, ScalarSequence.constant(theta * M)
        k_imp, k_seq = theta * K, ScalarSequence.constant(theta * K)
    else:
        raise ProblemError("unknown scheme %r" % scheme)
    if m_star is not None:
        m_imp = float(m_star)
    if k_star is not None:
        k_imp = float(k_star)
    return ProblemConstants(M=M, M_star=m_imp, K=K, K_star=k_imp, eps=eps_meas,
                            eps_seq=plan.eps, sigma_seq=plan.sigma, gamma_seq=plan.gamma,
                            M_seq=m_seq, K_seq=k_seq)


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class CertRequest:
    regime: str
    witnesses: Optional[Dict[str, float]] = None   # None -> grid search


@dataclass
class ResolvedProblem:
    name: str
    kind: str
    operator: OperatorSpec
    scheme: SchemeKind
    norm: NormKind
    x0: Vector
    plan: PerturbationPlan
    stop: StopRule
    M: Optional[float]
    K: Optional[float]
    theta: Optional[float]
    ball: Optional[BallDomain]
    estimate_cfg: Optional[dict]
    cert_requests: List[CertRequest]
    integral: Optional[IntegralSetup]
    fixed_point: Optional[Vector]
    digest: str
    entry: Optional[CatalogEntry]
    m_star: Optional[float] = None
    k_star: Optional[float] = None

    def custom_factory(self):
        if self.scheme is not SchemeKind.CUSTOM:
            return None
        return averaged_factory(self.operator, self.theta)

    def constants(self) -> ProblemConstants:
        if self.M is None:
            raise ProblemError("problem %r declares no analytic constants "
                               "(request an estimate block)" % self.name)
        return constants_for(self.M, self.K or 0.0, self.scheme, self.plan,
                             self.operator, self.x0, self.norm, self.theta,
                             m_star=self.m_star, k_star=self.k_star)


def _seq_to_config(seq: ScalarSequence):
    k = seq.kind
    if k == "zero":
        return {"kind": "zero"}
    if k == "constant":
        return {"kind": "constant", "c": seq.c}
    if k == "geometric":
        return {"kind": "geometric", "c": seq.c, "ratio": seq.ratio}
    if k == "power":
        return {"kind": "power", "c": seq.c, "p": seq.p}
    if k == "table":
        return {"kind": "table", "entries": list(seq.entries)}
    return {"kind": k}


def _plan_config(plan: PerturbationPlan) -> dict:
    return {"mode": plan.mode.value, "seed": plan.seed, "eps0": plan.eps0,
            "eps": _seq_to_config(plan.eps), "sigma": _seq_to_config(plan.sigma),
            "gamma": _seq_to_config(plan.gamma)}


def _digest(plan: PerturbationPlan, stop: StopRule, integral: Optional[IntegralSetup],
            **problem) -> str:
    """sha256 over the resolved problem: its own fields plus the run settings."""
    canonical = dict(
        problem, perturbation=_plan_config(plan),
        stop={"max_n": stop.max_n, "r_tol": stop.r_tol, "residual_tol": stop.residual_tol},
        integral=({"kernel": integral.kernel_kind, "T_end": integral.T_end, "m": integral.m}
                  if integral else None))
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def _parse_plan(cfg: dict, base: Optional[PerturbationPlan] = None) -> PerturbationPlan:
    """Plan from config keys; keys absent from cfg keep the base plan's values."""
    base = base or PerturbationPlan.exact()
    extra = set(cfg) - {"mode", "seed", "eps0", "eps", "sigma", "gamma"}
    if extra:
        raise ProblemError("unknown perturbation keys: %s" % ", ".join(sorted(extra)))
    try:
        return PerturbationPlan(
            eps0=_number(cfg["eps0"], "perturbation.eps0") if "eps0" in cfg else base.eps0,
            eps=sequence_from_config(cfg["eps"]) if "eps" in cfg else base.eps,
            sigma=sequence_from_config(cfg["sigma"]) if "sigma" in cfg else base.sigma,
            gamma=sequence_from_config(cfg["gamma"]) if "gamma" in cfg else base.gamma,
            mode=InjectionMode.parse(cfg["mode"]) if "mode" in cfg else base.mode,
            seed=_number(cfg["seed"], "perturbation.seed", int) if "seed" in cfg else base.seed)
    except SequenceError as exc:
        raise ProblemError("bad perturbation block: %s" % exc)


def _parse_stop(cfg: dict) -> StopRule:
    extra = set(cfg) - {"max_n", "r_tol", "residual_tol"}
    if extra:
        raise ProblemError("unknown stop keys: %s" % ", ".join(sorted(extra)))
    return StopRule(max_n=_number(cfg.get("max_n", 50), "stop.max_n", int),
                    r_tol=_number(cfg.get("r_tol", 0.0), "stop.r_tol"),
                    residual_tol=_number(cfg.get("residual_tol", 0.0), "stop.residual_tol"))


def _parse_certs(cfg) -> List[CertRequest]:
    if cfg is None:
        return []
    if not isinstance(cfg, list):
        raise ProblemError("certificates must be a list")
    out = []
    for item in cfg:
        if not isinstance(item, dict) or "regime" not in item:
            raise ProblemError("each certificate request needs a regime key: %r" % (item,))
        regime = item["regime"]
        if regime not in REGIMES:
            raise ProblemError("unknown certificate regime %r (expected one of %s)"
                               % (regime, ", ".join(REGIMES)))
        wit = item.get("witnesses")
        if wit == "search":
            wit = None
        if wit is not None:
            if not isinstance(wit, dict):
                raise ProblemError("witnesses must be a mapping or \"search\"")
            wit = {k: _number(v, "%s witness %s" % (regime, k)) for k, v in wit.items()}
        out.append(CertRequest(regime=regime, witnesses=wit))
    return out


def _resolve_catalog(cfg: dict) -> ResolvedProblem:
    name = cfg["catalog"]
    entry = get_entry(name)
    allowed = {"catalog", "scheme", "perturbation", "stop", "certificates", "integral", "name",
               "gamma"}
    extra = set(cfg) - allowed
    if extra:
        raise ProblemError("catalog problems only accept %s overrides; got: %s"
                           % (", ".join(sorted(allowed - {"catalog", "name"})),
                              ", ".join(sorted(extra))))
    scheme = SchemeKind.parse(cfg["scheme"]) if "scheme" in cfg else entry.scheme
    if scheme is SchemeKind.CUSTOM and entry.theta is None:
        raise ProblemError("problem %r has no averaging weight; custom scheme unavailable"
                           % name)
    plan = _parse_plan(cfg.get("perturbation") or {}, base=entry.plan)
    stop = _parse_stop(cfg["stop"]) if "stop" in cfg else entry.stop
    certs = _parse_certs(cfg.get("certificates"))
    integral = entry.integral
    if "integral" in cfg:
        if entry.integral is None:
            raise ProblemError("problem %r is not an integral problem" % name)
        m = _number(cfg["integral"].get("m", entry.integral.m), "integral.m", int)
        integral = IntegralSetup(entry.integral.kernel_kind, entry.integral.T_end, m,
                                 exact=entry.integral.exact)
    if "gamma" in cfg:
        gcfg = cfg["gamma"]
        if (entry.kind != "root" or entry.gamma.kind != "damped" or not isinstance(gcfg, dict)
                or set(gcfg) - {"alpha"}):
            raise ProblemError("gamma override %r: only damped-gamma root problems take one, "
                               "as {alpha: value}" % (gcfg,))
        alpha = _number(gcfg.get("alpha", entry.gamma.alpha), "gamma.alpha")
        if alpha != entry.gamma.alpha:
            # the entry's analytic M and K hold only at its own alpha
            entry = replace(entry, gamma=GammaSpec(entry.gamma.kind, alpha), M=None, K=None)
    problem = {"catalog": name, "scheme": scheme.value, "norm": entry.norm.value,
               "x0": list(entry.x0), "operator": list(entry.operator_exprs)}
    if entry.gamma != CATALOG[name].gamma:
        # only an overridden gamma enters the digest, so default runs keep theirs
        problem["gamma"] = {"kind": entry.gamma.kind, "alpha": entry.gamma.alpha}
    return ResolvedProblem(
        name=name, kind=entry.kind, operator=entry.build_operator(), scheme=scheme,
        norm=entry.norm, x0=Vector(entry.x0), plan=plan, stop=stop,
        M=entry.M, K=entry.K, theta=entry.theta, ball=entry.ball, estimate_cfg=None,
        cert_requests=certs, integral=integral,
        fixed_point=Vector(entry.fixed_point) if entry.fixed_point else None,
        digest=_digest(plan, stop, integral, **problem), entry=entry)


# the sampling settings an estimate block may carry, and their types
_ESTIMATE_KEYS = {"radius": float, "samples": int, "seed": int, "safety": float}

_TOP_KEYS = {"name", "kind", "dim", "operator", "derivative", "x0", "norm", "scheme",
             "perturbation", "constants", "stop", "certificates", "gamma", "integral"}


def resolve_config(cfg: dict) -> ResolvedProblem:
    """Validate a problem mapping and build everything a run needs.

    Raises ProblemError on the first validation failure; expression errors
    carry the offending position, and rejected enum or range values (scheme,
    norm, perturbation mode, stop, gamma) the field they came from.
    """
    if not isinstance(cfg, dict):
        raise ProblemError("problem file must contain a mapping, got %r" % type(cfg).__name__)
    try:
        return _resolve_catalog(cfg) if "catalog" in cfg else _resolve_file(cfg)
    except (CoreError, RootfindError, SchemeError) as exc:
        raise ProblemError(str(exc)) from exc


def _resolve_file(cfg: dict) -> ResolvedProblem:
    extra = set(cfg) - _TOP_KEYS
    if extra:
        raise ProblemError("unknown problem keys: %s" % ", ".join(sorted(extra)))
    kind = cfg.get("kind", "fixed_point")
    if kind not in ("fixed_point", "root", "integral"):
        raise ProblemError("kind must be fixed_point, root or integral, got %r" % kind)
    name = str(cfg.get("name", "unnamed"))

    exprs = cfg.get("operator")
    if exprs is None:
        raise ProblemError("problem needs an operator block (or a catalog reference)")
    if isinstance(exprs, str):
        exprs = [exprs]
    if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
        raise ProblemError("operator must be an expression string or list of them")
    dim = _number(cfg.get("dim", len(exprs)), "dim", int)
    if dim != len(exprs):
        raise ProblemError("dim = %d but %d operator expressions given" % (dim, len(exprs)))

    deriv = cfg.get("derivative")
    if deriv is not None:
        if (not isinstance(deriv, list) or not all(isinstance(r, list) for r in deriv)):
            raise ProblemError("derivative must be a matrix (list of lists) of expressions")

    norm = NormKind.parse(cfg.get("norm", "sup"))
    scheme = SchemeKind.parse(cfg.get("scheme", "contraction"))
    if scheme is SchemeKind.CUSTOM:
        raise ProblemError("the custom scheme is only available on catalog problems")

    x0_cfg = cfg.get("x0")
    if x0_cfg is None:
        raise ProblemError("problem needs an x0 start point")
    if isinstance(x0_cfg, (int, float)):
        x0_cfg = [x0_cfg]
    if len(x0_cfg) != dim:
        raise ProblemError("x0 has %d coordinates, dim is %d" % (len(x0_cfg), dim))
    x0 = Vector([_number(v, "x0") for v in x0_cfg])

    try:
        base = operator_from_expressions(exprs, dim, deriv, name=name)
    except ExprError as exc:
        raise ProblemError("bad operator expression: %s" % exc)

    gamma = None
    operator = base
    if kind == "root":
        gcfg = cfg.get("gamma") or {}
        gamma = GammaSpec(kind=gcfg.get("kind", "newton"),
                          alpha=_number(gcfg.get("alpha", 1.0), "gamma.alpha"))
        operator = wrap_root_problem(base, gamma)
    elif "gamma" in cfg:
        raise ProblemError("gamma block is only meaningful for root problems")

    integral = None
    if kind == "integral":
        icfg = cfg.get("integral")
        if not isinstance(icfg, dict):
            raise ProblemError("integral problems need an integral block (kernel, T_end, m)")
        kernel_kind = icfg.get("kernel", "volterra_unit")
        T_end = _number(icfg.get("T_end", 1.0), "integral.T_end")
        m = _number(icfg.get("m", 100), "integral.m", int)
        if kernel_kind != "volterra_unit":
            try:
                parse_expr(kernel_kind, {"t", "s"})
            except ExprError as exc:
                raise ProblemError("bad kernel expression: %s" % exc)
        if dim != 1:
            raise ProblemError("integral problems are scalar (dim 1) in this version")
        integral = IntegralSetup(kernel_kind, T_end, m)
    elif "integral" in cfg:
        raise ProblemError("integral block is only meaningful for integral problems")

    M = K = m_star = k_star = None
    estimate_cfg = None
    ccfg = cfg.get("constants")
    if ccfg is not None:
        if not isinstance(ccfg, dict):
            raise ProblemError("constants must be a mapping")
        if "estimate" in ccfg:
            block = ccfg["estimate"] or {}
            if not isinstance(block, dict):
                raise ProblemError("constants.estimate must be a mapping")
            estimate_cfg = dict(block)
            for key, convert in _ESTIMATE_KEYS.items():
                if key in estimate_cfg:
                    estimate_cfg[key] = _number(estimate_cfg[key], "constants.estimate." + key,
                                                convert)
        else:
            if "M" not in ccfg:
                raise ProblemError("constants block needs M (or an estimate sub-block)")
            M = _number(ccfg["M"], "constants.M")
            K = _number(ccfg.get("K", 0.0), "constants.K")
            if "M_star" in ccfg:
                m_star = _number(ccfg["M_star"], "constants.M_star")
            if "K_star" in ccfg:
                k_star = _number(ccfg["K_star"], "constants.K_star")

    plan = _parse_plan(cfg.get("perturbation") or {})
    stop = _parse_stop(cfg.get("stop") or {})
    certs = _parse_certs(cfg.get("certificates"))

    digest = _digest(plan, stop, integral, name=name, kind=kind, operator=list(exprs),
                     derivative=deriv, x0=[float(v) for v in x0_cfg], norm=norm.value,
                     scheme=scheme.value,
                     gamma={"kind": gamma.kind, "alpha": gamma.alpha} if gamma else None)
    ball = None
    if estimate_cfg is not None:
        radius = estimate_cfg.get("radius", 1.0)
        ball = BallDomain(x0, radius, norm)
    return ResolvedProblem(
        name=name, kind=kind, operator=operator, scheme=scheme, norm=norm, x0=x0,
        plan=plan, stop=stop, M=M, K=K, theta=None, ball=ball,
        estimate_cfg=estimate_cfg, cert_requests=certs, integral=integral,
        fixed_point=None, digest=digest, entry=None,
        m_star=m_star, k_star=k_star)


def load_config(source) -> dict:
    """The raw problem mapping of a catalog name or a YAML problem file path."""
    text_name = str(source)
    if text_name in CATALOG:
        return {"catalog": text_name}
    try:
        with open(source, "r") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ProblemError("%r is neither a catalog problem nor a readable file" % text_name)
    except yaml.YAMLError as exc:
        raise ProblemError("cannot parse %s: %s" % (text_name, exc))
    if not isinstance(cfg, dict):
        raise ProblemError("problem file %s must contain a mapping" % text_name)
    return cfg


def load_problem(source) -> ResolvedProblem:
    """Resolve a catalog name or a YAML problem file path."""
    return resolve_config(load_config(source))


def override_param(cfg: dict, param: str, value: float) -> dict:
    """Return a copy of a raw problem config with one sweepable scalar replaced."""
    out = copy.deepcopy(cfg)
    if param == "eps":
        pert = out.setdefault("perturbation", {})
        pert["eps"] = {"kind": "constant", "c": float(value)}
        if pert.get("mode", "none") == "none":
            pert["mode"] = "additive-deterministic"
    elif param == "m":
        if "integral" not in out and "catalog" not in out:
            raise ProblemError("param m needs an integral problem")
        out.setdefault("integral", {})["m"] = int(value)
    elif param == "alpha":
        if "gamma" not in out and "catalog" not in out:
            raise ProblemError("param alpha needs a root problem with a gamma block")
        out["gamma"] = dict(out.get("gamma") or {}, alpha=float(value))
    elif param == "seed":
        out["perturbation"] = dict(out.get("perturbation") or {}, seed=int(value))
    else:
        raise ProblemError("unknown sweep param %r (expected eps, m, alpha or seed)" % param)
    return out
