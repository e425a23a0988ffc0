"""Built-in problem catalog plus YAML problem-file loading.

A problem bundles everything a run needs: the operator (possibly wrapped from
a root problem), start point, norm, scheme, perturbation plan, stop rule and
analytic or estimated Lipschitz constants.  Each catalog entry is the
problem-file mapping a user would write, plus what a file cannot state (an
averaging weight, a known solution).  A catalog reference becomes that mapping
with its overrides applied, and one resolver turns every mapping, built-in or
from a file, into a ResolvedProblem; only the digest's identity fields tell
the two apart.  `_block` and `_sequence` check every block's keys, and every
number of a file goes through `_number`, which names the key at fault.

Loading a problem imports `core`, `exprparse`, `regimes`, `schemes` and
`sequences`.  A `certificates` block is checked against `regimes.WITNESSES`,
so the certificates themselves (`majorant`) load only where `constants_for`
builds a problem's constants; `greens`, `rootfind` and `estimate` load where
an integral problem, a root problem or an estimate block resolves.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .core import (BallDomain, CoreError, Frozen, NormKind, OperatorEvaluationError,
                   OperatorSpec, Record, Vector, norm_of)
from .exprparse import ExprError, eval_expr, parse_expr
from .regimes import WITNESSES
from .schemes import InjectionMode, PerturbationPlan, SchemeError, SchemeKind, StopRule
from .sequences import ScalarSequence, SequenceError

# greens, rootfind and estimate are imported where an integral problem, a root
# problem or an estimate block is resolved, and majorant where constants_for
# builds the constants, so a problem loads only what it uses
if TYPE_CHECKING:
    from .greens import KernelSpec
    from .majorant import ProblemConstants


class ProblemError(ValueError):
    pass


def _number(value, key: str, convert=float):
    """convert(value) for a problem-file value, read as a float first if it is a string (YAML
    1.1 reads 1e-3 and 1e3 as strings, for want of a dot); ProblemError naming key if it is no
    number, a boolean (YAML 1.1's yes/no/on/off) or for int no whole one (int drops a fraction)."""
    try:
        v = float(value) if isinstance(value, str) else value
        if isinstance(v, bool) or (convert is int and isinstance(v, float) and not v.is_integer()):
            raise ValueError(value)
        return convert(v)
    except (TypeError, ValueError, OverflowError):
        raise ProblemError("%s must be %s, got %r"
                           % (key, "an integer" if convert is int else "a number", value)) from None


def var_names(dim: int) -> List[str]:
    """The variable names x1..x<dim>, which are also the coordinate columns of iterates.csv."""
    return ["x%d" % (i + 1) for i in range(dim)]


def operator_from_expressions(exprs: Sequence[str], dim: int,
                              deriv_exprs: Optional[Sequence[Sequence[str]]] = None,
                              name: str = "") -> OperatorSpec:
    """Build an operator from one expression per output coordinate.

    deriv_exprs, when given, is the full Jacobian as a dim x dim matrix of
    expressions; the derivative map is then h -> J(x) h.  Its entries are
    parsed on the first Jacobian build (see _expression_operator).
    """
    return _expression_operator(exprs, dim, deriv_exprs, name)[0]


def _expression_operator(exprs: Sequence[str], dim: int,
                         deriv_exprs: Optional[Sequence[Sequence[str]]],
                         name: str) -> Tuple[OperatorSpec, Callable[[], list]]:
    """operator_from_expressions, and the function that parses the derivative block.

    The operator trees are parsed here.  The derivative entries are parsed on
    the first call of the returned function, which the first Jacobian build
    makes, and kept for every later one; a malformed entry raises ProblemError
    naming its row and column.  Without a derivative block it returns [].
    """
    if len(exprs) != dim:
        raise ProblemError("operator needs %d expressions, got %d" % (dim, len(exprs)))
    names = var_names(dim)
    allowed = frozenset(names)
    trees = [parse_expr(t, allowed) for t in exprs]

    def bindings(x: Vector) -> Dict[str, float]:
        return dict(zip(names, x.coords.tolist()))

    def evaluator(x: Vector) -> Vector:
        b = bindings(x)
        try:
            return Vector([eval_expr(t, b) for t in trees])
        except ExprError as exc:
            raise OperatorEvaluationError("operator %s: %s" % (name or "?", exc)) from exc

    if deriv_exprs is not None and (len(deriv_exprs) != dim
                                    or any(len(row) != dim for row in deriv_exprs)):
        raise ProblemError("derivative must be a %dx%d matrix of expressions" % (dim, dim))
    jac_trees = [] if deriv_exprs is None else None

    def parse_derivative() -> list:
        nonlocal jac_trees
        if jac_trees is None:
            # row-major, so that the entries parse and evaluate, and fail, in matrix order
            parsed = []
            for i, row in enumerate(deriv_exprs, 1):
                for j, text in enumerate(row, 1):
                    try:
                        parsed.append(parse_expr(text, allowed))
                    except ExprError as exc:
                        raise ProblemError("bad derivative expression at row %d, column %d: %s"
                                           % (i, j, exc)) from None
            jac_trees = parsed
        return jac_trees

    derivative = None
    if deriv_exprs is not None:
        def derivative(x: Vector, h: Vector) -> Vector:
            b = bindings(x)
            try:
                entries = [eval_expr(t, b) for t in parse_derivative()]
            except ExprError as exc:
                raise OperatorEvaluationError("derivative of %s: %s" % (name or "?", exc)) from exc
            return Vector(np.fromiter(entries, float, dim * dim).reshape(dim, dim) @ h.coords)

    return (OperatorSpec(dim=dim, evaluator=evaluator, derivative=derivative, name=name),
            parse_derivative)


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


class IntegralSetup(Frozen):
    _fields = ("kernel_kind", "T_end", "m", "spec", "exact")
    _compare = ("kernel_kind", "T_end", "m")
    _shown = ("kernel_kind", "T_end", "m", "exact")

    def __init__(self, kernel_kind: str,  # volterra_unit | expression text
                 T_end: float, m: int,
                 spec: KernelSpec,        # built once by the resolver
                 exact: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self._fill(kernel_kind, T_end, m, spec, exact)

    def kernel(self) -> KernelSpec:
        return self.spec


class CatalogEntry(Frozen):
    """A built-in problem: the problem-file mapping a user would write, plus
    what a file cannot state (an averaging weight, a known solution)."""
    _fields = ("summary", "config", "theta", "fixed_point", "exact")

    def __init__(self, summary: str,
                 config: dict,                    # the YAML problem-file schema
                 theta: Optional[float] = None,   # custom scheme only
                 fixed_point: Optional[Tuple[float, ...]] = None,
                 exact: Optional[Callable[[np.ndarray], np.ndarray]] = None):  # integral only
        self._fill(summary, config, theta, fixed_point, exact)

    @property
    def kind(self) -> str:
        return self.config.get("kind", "fixed_point")


SIN1 = 0.8414709848078966  # the double just above sin(1); math.sin(1.0) is one ulp below
DOTTIE = 0.7390851332151607  # fixed point of cos, to double precision

# shared parts of the catalog mappings; resolving never mutates them
_STOP = {"max_n": 50, "residual_tol": 1e-12}
_LINEAR = {"operator": ["0.5*x1 + 1"], "derivative": [["0.5"]], "x0": [0.0],
           "constants": {"M": 0.5, "K": 0.0}}
_COS = {"operator": ["cos(x1)"], "derivative": [["-sin(x1)"]], "x0": [1.0],
        "constants": {"M": SIN1, "K": 1.0}}
_TWODIM = {"operator": ["0.3*cos(x2)", "0.3*sin(x1)"],
           "derivative": [["0", "-0.3*sin(x2)"], ["0.3*cos(x1)", "0"]], "x0": [0.0, 0.0],
           "constants": {"M": 0.3, "K": 0.3}}
_NOISE = {"eps": {"kind": "constant", "c": 0.01}}

CATALOG: Dict[str, CatalogEntry] = {
    "linear-contraction": CatalogEntry(
        "affine scalar contraction 0.5 x + 1, fixed point 2",
        dict(_LINEAR, scheme="contraction", stop=_STOP), fixed_point=(2.0,)),
    "cos-fixed-point": CatalogEntry(
        "x = cos(x) near the Dottie point",
        dict(_COS, scheme="newton", stop=_STOP), fixed_point=(DOTTIE,)),
    "two-dim-system": CatalogEntry(
        "coupled 2-D trig system, sup norm, contraction factor 0.3",
        dict(_TWODIM, scheme="contraction", stop=_STOP)),
    "gentle-newton": CatalogEntry(
        "mildly nonlinear scalar map with small curvature",
        {"operator": ["0.9 + 0.1*sin(x1)"], "derivative": [["0.1*cos(x1)"]], "x0": [0.0],
         "constants": {"M": 0.1, "K": 0.1}, "scheme": "newton", "stop": _STOP}),
    "sqrt2-root": CatalogEntry(
        "root of x^2 - 2 via the newton wrap (Heron iteration)",
        {"kind": "root", "operator": ["x1^2 - 2"], "derivative": [["2*x1"]], "x0": [1.5],
         "gamma": {"kind": "newton"}, "constants": {"M": 0.14, "K": 0.82},
         "scheme": "contraction", "stop": _STOP}, fixed_point=(math.sqrt(2.0),)),
    "damped-root": CatalogEntry(
        "root of P(x) = x with damped gamma, alpha = 0.5",
        {"kind": "root", "operator": ["x1"], "derivative": [["1"]], "x0": [1.0],
         "gamma": {"kind": "damped", "alpha": 0.5}, "constants": {"M": 0.5, "K": 0.0},
         "scheme": "contraction", "stop": _STOP}, fixed_point=(0.0,)),
    "volterra-exp": CatalogEntry(
        "x' = x + 1, x(0) = 0 on [0, 2] as a Volterra integral equation",
        {"kind": "integral", "operator": ["x1 + 1"], "derivative": [["1"]], "x0": [0.0],
         "integral": {"kernel": "volterra_unit", "T_end": 2.0, "m": 400},
         "constants": {"M": 1.0, "K": 0.0}, "scheme": "contraction",
         "stop": {"max_n": 60, "residual_tol": 1e-9}}, exact=np.expm1),
    "expanding": CatalogEntry(
        "A(x) = 2x from x0 = 1: the iteration must trip the divergence guard",
        {"operator": ["2*x1"], "derivative": [["2"]], "x0": [1.0],
         "constants": {"M": 2.0, "K": 0.0}, "scheme": "contraction", "stop": {"max_n": 50}},
        fixed_point=(0.0,)),
    "perturbed-linear": CatalogEntry(
        "linear contraction with constant 1e-2 worst-case additive noise",
        dict(_LINEAR, scheme="contraction", stop={"max_n": 200},
             perturbation=dict(_NOISE, mode="additive-deterministic")), fixed_point=(2.0,)),
    "perturbed-linear-random": CatalogEntry(
        "linear contraction with constant 1e-2 seeded random noise",
        dict(_LINEAR, scheme="contraction", stop={"max_n": 200},
             perturbation=dict(_NOISE, mode="additive-seeded-random", seed=7)),
        fixed_point=(2.0,)),
    "averaged-linear": CatalogEntry(
        "custom scheme: half-averaged relaxation of the linear contraction",
        dict(_LINEAR, scheme="custom", stop=_STOP), theta=0.5, fixed_point=(2.0,)),
    "averaged-cos": CatalogEntry(
        "custom scheme: half-averaged relaxation of x = cos(x)",
        dict(_COS, scheme="custom", stop=_STOP), theta=0.5, fixed_point=(DOTTIE,)),
    "averaged-twodim": CatalogEntry(
        "custom scheme: half-averaged relaxation of the 2-D trig system",
        dict(_TWODIM, scheme="custom", stop=_STOP), theta=0.5),
}


def catalog_names() -> List[str]:
    return list(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):
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
    from .majorant import ProblemConstants
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
        m_imp = m_star
    if k_star is not None:
        k_imp = k_star
    return ProblemConstants(M=M, M_star=m_imp, K=K, K_star=k_imp, eps=eps_meas,
                            eps_seq=plan.eps, sigma_seq=plan.sigma, gamma_seq=plan.gamma,
                            M_seq=m_seq, K_seq=k_seq)


# ---------------------------------------------------------------------------
# problem files


class CertRequest(Frozen):
    _fields = ("regime", "witnesses")

    def __init__(self, regime: str,
                 witnesses: Optional[Dict[str, float]] = None):  # None -> grid search
        self._fill(regime, witnesses)


class ResolvedProblem(Record):
    """constants_cfg is the constants block: M (K, M_star, K_star), or
    estimate with all four sampling settings filled in; None when the problem
    declares none.  parse_derivative parses the derivative block, once, and
    returns its entry trees (row-major; [] without one); the first Jacobian
    build of the operator calls it, and a run calls it up front, so that a
    malformed entry fails before any step."""

    _fields = ("name", "kind", "operator", "scheme", "norm", "x0", "plan", "stop", "theta",
               "constants_cfg", "cert_requests", "integral", "fixed_point", "digest",
               "parse_derivative")

    def __init__(self, name: str, kind: str, operator: OperatorSpec, scheme: SchemeKind,
                 norm: NormKind, x0: Vector, plan: PerturbationPlan, stop: StopRule,
                 theta: Optional[float], constants_cfg: Optional[dict],
                 cert_requests: List[CertRequest], integral: Optional[IntegralSetup],
                 fixed_point: Optional[Vector], digest: str,
                 parse_derivative: Callable[[], list]):
        self._fill(name, kind, operator, scheme, norm, x0, plan, stop, theta, constants_cfg,
                   cert_requests, integral, fixed_point, digest, parse_derivative)

    def custom_factory(self):
        if self.scheme is not SchemeKind.CUSTOM:
            return None
        return averaged_factory(self.operator, self.theta)

    def constants(self) -> ProblemConstants:
        """The analytic constants, or constants sampled as the estimate block says."""
        c = self.constants_cfg
        if c is None:
            raise ProblemError("problem %r has neither analytic constants nor an estimate block"
                               % self.name)
        est = c.get("estimate")
        if est is None:
            M, K = c["M"], c.get("K", 0.0)
        else:
            from .estimate import estimate_lipschitz_K, estimate_lipschitz_M, with_safety
            ball = BallDomain(self.x0, est["radius"], self.norm)
            samples, seed = est["samples"], est["seed"]
            try:
                M = estimate_lipschitz_M(self.operator, ball, samples, seed)
                K = estimate_lipschitz_K(self.operator, ball, max(10, samples // 2), seed)
            except CoreError as exc:
                raise ProblemError("constants.estimate: sampling failed: %s" % exc) from exc
            M, K = with_safety(M, est["safety"]), with_safety(K, est["safety"])
        return constants_for(M, K, self.scheme, self.plan, self.operator, self.x0, self.norm,
                             self.theta, m_star=c.get("M_star"), k_star=c.get("K_star"))


def _plan_config(plan: PerturbationPlan) -> dict:
    # eps0 is not a problem-file key: every problem that still resolves had 0.0
    # here, so hashing 0.0 changes no digest and written traces still certify
    return {"mode": plan.mode.value, "seed": plan.seed, "eps0": 0.0,
            "eps": sequence_to_config(plan.eps), "sigma": sequence_to_config(plan.sigma),
            "gamma": sequence_to_config(plan.gamma)}


def _digest(plan: PerturbationPlan, stop: StopRule, integral: Optional[IntegralSetup],
            **problem) -> str:
    """sha256 over the resolved problem: its own fields plus the run settings."""
    canonical = dict(
        problem, perturbation=_plan_config(plan),
        stop={"max_n": stop.max_n, "r_tol": stop.r_tol, "residual_tol": stop.residual_tol},
        integral=({"kernel": integral.kernel_kind, "T_end": integral.T_end, "m": integral.m}
                  if integral else None))
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def _parse_plan(cfg: dict) -> PerturbationPlan:
    block = _block(cfg, "perturbation")
    seqs = {k: _sequence(block.get(k), "perturbation." + k) for k in ("eps", "sigma", "gamma")}
    return PerturbationPlan(**{**block, **seqs,
                               "mode": InjectionMode.parse(block.get("mode", "none"))})


# each kind a sequence mapping can name: its constructor, and the keys the
# mapping takes besides kind, which are the constructor's arguments in order
# and the names of the fields that hold them
_KINDS = {"zero": (ScalarSequence.zero, ()),
          "constant": (ScalarSequence.constant, ("c",)),
          "geometric": (ScalarSequence.geometric, ("c", "ratio")),
          "power": (ScalarSequence.power, ("c", "p")),
          "table": (ScalarSequence.from_table, ("entries",))}


def sequence_from_config(cfg) -> ScalarSequence:
    """The sequence a problem-file value states (see _sequence), named "sequence" in errors."""
    return _sequence(cfg, "sequence")


def _sequence(value, path: str) -> ScalarSequence:
    """The sequence stated at path: zero if absent, a constant if a bare number, else a
    mapping {kind, ...} with the keys _KINDS gives, each number read under its own path."""
    if value is None:
        return ScalarSequence.zero()
    if not isinstance(value, dict):
        make, args = ScalarSequence.constant, [_number(value, path)]
    else:
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ProblemError("%s.kind must be one of %s, got %r"
                               % (path, "|".join(sorted(_KINDS)), kind))
        make, keys = _KINDS[kind]
        extra = set(value) - {"kind", *keys}
        if extra:
            raise ProblemError("unknown %s keys: %s" % (path, _listed(extra)))
        args = [_number(value.get(k), "%s.%s" % (path, k)) for k in keys if k != "entries"]
        if kind == "table":
            entries = value.get("entries")
            _require(isinstance(entries, list), path + ".entries", "a list of numbers", entries)
            args = [[_number(v, "%s.entries[%d]" % (path, i)) for i, v in enumerate(entries)]]
    try:
        return make(*args)
    except SequenceError as exc:
        raise ProblemError("%s: %s" % (path, exc)) from None


def sequence_to_config(seq: ScalarSequence) -> dict:
    """The mapping sequence_from_config reads back as seq; the affine and pairsum
    combinators have no file form and are written as their kind alone."""
    keys = _KINDS[seq.kind][1] if seq.kind in _KINDS else ()
    return {"kind": seq.kind, **{k: list(getattr(seq, k)) if k == "entries" else getattr(seq, k)
                                 for k in keys}}


def _parse_certs(cfg) -> List[CertRequest]:
    if cfg is None:
        return []
    if not isinstance(cfg, list):
        raise ProblemError("certificates must be a list")
    out = []
    for item in cfg:
        if not isinstance(item, dict) or "regime" not in item:
            raise ProblemError("each certificate request needs a regime key: %r" % (item,))
        extra = set(item) - {"regime", "witnesses"}
        if extra:
            raise ProblemError("unknown certificate request keys: %s" % _listed(extra))
        regime = item["regime"]
        if regime not in WITNESSES:
            raise ProblemError("unknown certificate regime %r (expected one of %s)"
                               % (regime, ", ".join(WITNESSES)))
        wit = item.get("witnesses")
        if wit == "search":
            wit = None
        if wit is not None:
            if not isinstance(wit, dict):
                raise ProblemError("witnesses must be a mapping or \"search\"")
            names = WITNESSES[regime]
            unknown = _listed(set(wit) - set(names))
            missing = ", ".join(k for k in names if k not in wit)
            if unknown or missing:
                raise ProblemError("%s witnesses are %s; unknown: %s; missing: %s"
                                   % (regime, ", ".join(names) or "none", unknown or "none",
                                      missing or "none"))
            wit = {k: _number(v, "%s witness %s" % (regime, k)) for k, v in wit.items()}
        out.append(CertRequest(regime=regime, witnesses=wit))
    return out


_TOP_KEYS = {"name", "kind", "dim", "operator", "derivative", "x0", "norm", "scheme",
             "perturbation", "constants", "stop", "certificates", "gamma", "integral"}

_CATALOG_OVERRIDES = {"scheme", "perturbation", "stop", "certificates", "integral", "gamma"}


# the problem-file schema below the top level: each block's keys, and the
# type _number converts a key's value to (None: checked where it is used)
_KEYS = {
    "perturbation": {"mode": None, "seed": int, "eps": None, "sigma": None, "gamma": None},
    "stop": {"max_n": int, "r_tol": float, "residual_tol": float},
    "gamma": {"kind": None, "alpha": float},
    "integral": {"kernel": None, "T_end": float, "m": int},
    "constants": {"M": float, "K": float, "M_star": float, "K_star": float, "estimate": None},
    "constants.estimate": {"radius": float, "samples": int, "seed": int, "safety": float},
}

# the sampling settings of an estimate block that leaves them out, but for
# safety, which defaults to estimate.SAFETY_FACTOR
_ESTIMATE_DEFAULTS = {"radius": 1.0, "samples": 200, "seed": 0}


def _listed(keys) -> str:
    """Mapping keys for a message; YAML keys need not be strings."""
    return ", ".join(sorted(map(str, keys)))


def _block(cfg: dict, path: str) -> dict:
    """The block at path in cfg, its keys checked against _KEYS and its numbers converted.

    cfg is the mapping that holds the block: the problem, or the constants
    block for constants.estimate.  An absent or null block reads as {}.
    """
    block = cfg.get(path.rpartition(".")[2])
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ProblemError("%s must be a mapping, got %r" % (path, block))
    keys = _KEYS[path]
    extra = set(block) - set(keys)
    if extra:
        raise ProblemError("unknown %s keys: %s" % (path, _listed(extra)))
    return {k: v if keys[k] is None else _number(v, "%s.%s" % (path, k), keys[k])
            for k, v in block.items()}


def _require(ok: bool, key: str, what: str, value):
    if not ok:
        raise ProblemError("%s must be %s, got %r" % (key, what, value))


def resolve_config(cfg: dict) -> ResolvedProblem:
    """Validate a problem mapping and build everything a run needs.

    Raises ProblemError on the first validation failure; expression errors
    carry the offending position, and rejected enum or range values (scheme,
    norm, perturbation mode, stop, gamma) the field they came from.  The
    derivative block's shape is checked here, but its entries are parsed only
    by the result's parse_derivative, which the first Jacobian build calls.
    """
    if not isinstance(cfg, dict):
        raise ProblemError("problem file must contain a mapping, got %r" % type(cfg).__name__)
    try:
        if "catalog" in cfg:
            entry = get_entry(cfg["catalog"])
            return _resolve(_from_catalog(cfg, entry), entry)
        return _resolve(cfg)
    except (CoreError, SchemeError) as exc:
        raise ProblemError(str(exc)) from exc


def _from_catalog(cfg: dict, entry: CatalogEntry) -> dict:
    """The entry's problem mapping with the overrides of a catalog reference applied."""
    extra = set(cfg) - _CATALOG_OVERRIDES - {"catalog", "name"}
    if extra:
        raise ProblemError("catalog problems only accept %s overrides; got: %s"
                           % (_listed(_CATALOG_OVERRIDES), _listed(extra)))
    # null blocks override nothing; name is the catalog name whatever cfg says
    over = {k: v for k, v in cfg.items() if k in _CATALOG_OVERRIDES and v is not None}
    out = dict(entry.config, name=cfg["catalog"])
    out.update((k, over[k]) for k in ("scheme", "stop", "certificates") if k in over)
    if "perturbation" in over:
        out["perturbation"] = {**_block(entry.config, "perturbation"),
                               **_block(over, "perturbation")}
    if "integral" in over:
        icfg = _block(over, "integral")
        if set(icfg) - {"m"}:
            raise ProblemError("a catalog integral override takes only m, got: %s"
                               % _listed(set(icfg) - {"m"}))
        out["integral"] = {**_block(entry.config, "integral"), **icfg}
    if "gamma" in over:
        gcfg, own = _block(over, "gamma"), _block(entry.config, "gamma")
        if own.get("kind") != "damped" or set(gcfg) - {"alpha"}:
            raise ProblemError("gamma override %r: only damped-gamma root problems take one, "
                               "as {alpha: value}" % (gcfg,))
        alpha = gcfg.get("alpha", own["alpha"])
        if alpha != own["alpha"]:
            # the entry's analytic M and K hold only at its own alpha
            out["gamma"] = dict(own, alpha=alpha)
            out.pop("constants", None)
    return out


def _resolve(cfg: dict, entry: Optional[CatalogEntry] = None) -> ResolvedProblem:
    """Resolve a problem-file mapping; entry is the catalog entry it came from, if any."""
    extra = set(cfg) - _TOP_KEYS
    if extra:
        raise ProblemError("unknown problem keys: %s" % _listed(extra))
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
        for i, row in enumerate(deriv, 1):
            for j, text in enumerate(row, 1):
                if not isinstance(text, str):
                    raise ProblemError("derivative entry at row %d, column %d must be an "
                                       "expression string, got %r" % (i, j, text))

    norm = NormKind.parse(cfg.get("norm", "sup"))
    scheme = SchemeKind.parse(cfg.get("scheme", "contraction"))
    theta = entry.theta if entry else None
    if scheme is SchemeKind.CUSTOM and theta is None:
        raise ProblemError("the custom scheme needs an averaging weight; "
                           "only the averaged-* catalog problems have one")

    x0_cfg = cfg.get("x0")
    if x0_cfg is None:
        raise ProblemError("problem needs an x0 start point")
    if isinstance(x0_cfg, (int, float)):
        x0_cfg = [x0_cfg]
    elif not isinstance(x0_cfg, list):
        raise ProblemError("x0 must be a number or a list of numbers, got %r" % (x0_cfg,))
    if len(x0_cfg) != dim:
        raise ProblemError("x0 has %d coordinates, dim is %d" % (len(x0_cfg), dim))
    x0 = Vector([_number(v, "x0") for v in x0_cfg])

    try:
        # parse_derivative reads the unwrapped expression derivative, which a root wrap hides
        operator, parse_derivative = _expression_operator(exprs, dim, deriv, name)
    except ExprError as exc:
        raise ProblemError("bad operator expression: %s" % exc)

    gamma = None
    if kind == "root":
        from .rootfind import GammaSpec, RootfindError, wrap_root_problem
        try:
            gamma = GammaSpec(**{"kind": "newton", **_block(cfg, "gamma")})
        except RootfindError as exc:
            raise ProblemError(str(exc)) from exc
        operator = wrap_root_problem(operator, gamma)
    elif "gamma" in cfg:
        raise ProblemError("gamma block is only meaningful for root problems")

    integral = None
    if kind == "integral":
        if cfg.get("integral") is None:
            raise ProblemError("integral problems need an integral block (kernel, T_end, m)")
        icfg = _block(cfg, "integral")
        kernel_kind = icfg.get("kernel", "volterra_unit")
        _require(isinstance(kernel_kind, str), "integral.kernel",
                 "a string (volterra_unit or an expression)", kernel_kind)
        T_end = icfg.get("T_end", 1.0)
        _require(0.0 < T_end < math.inf, "integral.T_end", "positive and finite", T_end)
        m = icfg.get("m", 100)
        _require(m >= 1, "integral.m", "at least 1", m)
        from .greens import build_volterra_kernel, kernel_from_expression
        if kernel_kind == "volterra_unit":
            spec = build_volterra_kernel(T_end)
        else:
            try:
                spec = kernel_from_expression(kernel_kind, T_end)
            except ExprError as exc:
                raise ProblemError("bad kernel expression: %s" % exc)
        if dim != 1:
            raise ProblemError("integral problems are scalar (dim 1) in this version")
        # the Picard iteration of greens takes the sup norm and no noise
        if scheme is not SchemeKind.CONTRACTION:
            raise ProblemError("scheme %s is not available for integral problems, which run "
                               "the contraction iteration" % scheme.value)
        if norm is not NormKind.SUP:
            raise ProblemError("norm %s is not available for integral problems, which use "
                               "the sup norm" % norm.value)
        integral = IntegralSetup(kernel_kind, T_end, m, spec,
                                 exact=entry.exact if entry else None)
    elif "integral" in cfg:
        raise ProblemError("integral block is only meaningful for integral problems")

    constants_cfg = None
    if cfg.get("constants") is not None:
        constants_cfg = _block(cfg, "constants")
        if "estimate" in constants_cfg:
            analytic = set(constants_cfg) - {"estimate"}
            if analytic:
                raise ProblemError("constants block gives both estimate and %s; "
                                   "declare the constants or sample them, not both"
                                   % _listed(analytic))
            from .estimate import SAFETY_FACTOR
            est = {**_ESTIMATE_DEFAULTS, "safety": SAFETY_FACTOR,
                   **_block(constants_cfg, "constants.estimate")}
            for key, ok, what in (("radius", lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
                                  ("samples", lambda v: v >= 10, "at least 10"),
                                  ("safety", lambda v: v >= 1.0, ">= 1")):
                _require(ok(est[key]), "constants.estimate." + key, what, est[key])
            constants_cfg = {"estimate": est}
        elif "M" not in constants_cfg:
            raise ProblemError("constants block needs M (or an estimate sub-block)")

    plan = _parse_plan(cfg)
    if integral is not None:
        # a seed alone is harmless, so `run volterra-exp --seed 3` still runs
        for key in ("eps", "sigma", "gamma"):
            if getattr(plan, key).sup_tail(0) > 0.0:
                raise ProblemError("perturbation.%s is not available for integral problems, "
                                   "which take no noise" % key)
        if plan.mode is not InjectionMode.NONE:
            raise ProblemError("perturbation.mode %s is not available for integral problems, "
                               "which take no noise" % plan.mode.value)
    stop = StopRule(**_block(cfg, "stop"))
    certs = _parse_certs(cfg.get("certificates"))

    gamma_cfg = {"kind": gamma.kind, "alpha": gamma.alpha} if gamma else None
    identity = {"operator": list(exprs), "x0": x0.coords.tolist(), "norm": norm.value,
                "scheme": scheme.value}
    if entry is None:
        # a file problem is keyed by its content
        identity.update(name=name, kind=kind, derivative=deriv, gamma=gamma_cfg)
    else:
        # a catalog problem by its name; gamma only when overridden, so default runs keep theirs
        identity["catalog"] = name
        if cfg.get("gamma") != entry.config.get("gamma"):
            identity["gamma"] = gamma_cfg
    return ResolvedProblem(
        name=name, kind=kind, operator=operator, scheme=scheme, norm=norm, x0=x0,
        plan=plan, stop=stop, theta=theta, constants_cfg=constants_cfg,
        cert_requests=certs, integral=integral,
        fixed_point=Vector(entry.fixed_point) if entry and entry.fixed_point else None,
        digest=_digest(plan, stop, integral, **identity), parse_derivative=parse_derivative)


# libyaml's scanner and parser under PyYAML's safe constructor and resolver:
# the same values as yaml.safe_load, about ten times faster on large files.
# A PyYAML built without libyaml has only the pure-Python SafeLoader.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(source) -> dict:
    """The raw problem mapping of a catalog name or a YAML problem file path."""
    text_name = str(source)
    if text_name in CATALOG:
        return {"catalog": text_name}
    try:
        with open(source, "r") as fh:
            cfg = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise ProblemError("%r is neither a catalog problem nor a readable file" % text_name)
    except yaml.YAMLError as exc:
        raise ProblemError("cannot parse %s: %s" % (text_name, exc))
    except OSError as exc:  # a directory, say
        raise ProblemError("cannot read %s: %s" % (text_name, exc.strerror))
    except UnicodeDecodeError as exc:
        raise ProblemError("cannot read %s: %s" % (text_name, exc))
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
        out.setdefault("integral", {})["m"] = value
    elif param == "alpha":
        if "gamma" not in out and "catalog" not in out:
            raise ProblemError("param alpha needs a root problem with a gamma block")
        out["gamma"] = dict(out.get("gamma") or {}, alpha=float(value))
    elif param == "seed":
        out["perturbation"] = dict(out.get("perturbation") or {}, seed=value)
    else:
        raise ProblemError("unknown sweep param %r (expected eps, m, alpha or seed)" % param)
    return out
