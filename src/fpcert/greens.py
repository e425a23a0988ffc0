"""Integral reformulation x(t) = int_0^T G(t,s) A(x(s)) ds on a 1-D grid.

The built-in kernel is the Volterra unit kernel (G = 1 for s <= t, else 0),
the Green's function of d/dt with x(0) = 0.  Its iterations converge by
factorial decay even when M * T_end > 1, i.e. without any contraction
assumption; run_integral_iteration exists to exercise exactly that, plus the
nodewise bound-propagation inequality.

An expression kernel is evaluated once per grid entry, (m+1)^2 times per
quadrature, by the function exprparse.bind compiles from its tree at the
kernel's first evaluation.  That function gives the walk's bits; at a
failing (t, s) it raises the walk's positioned error, and
KernelSpec.evaluate adds the point.  The kernel's kind is decided at that
first evaluation too, so an entry costs one call of the kernel's function.

bound_propagate imports majorant when it runs, so that loading an integral
problem does not import the certificate machinery.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .core import Frozen, OperatorSpec, Record, Vector
from .exprparse import EvalDomainError, Expr, bind, parse_expr
from .schemes import SchemeKind, StopRule, guard_radius

if TYPE_CHECKING:
    from .majorant import ProblemConstants


class GreensError(ValueError):
    pass


class GridFunction(Frozen):
    """Values on a strictly increasing node set starting at t = 0."""

    _fields = ("nodes", "values")

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GreensError("need at least 2 grid nodes")
        if nodes[0] != 0.0:
            raise GreensError("grid must start at t = 0, got %r" % nodes[0])
        if not np.all(np.diff(nodes) > 0):
            raise GreensError("grid nodes must be strictly increasing")
        if values.shape != nodes.shape:
            raise GreensError("values shape %r does not match nodes %r"
                              % (values.shape, nodes.shape))
        if not np.all(np.isfinite(values)):
            raise GreensError("grid values must be finite")
        self._fill(nodes, values)
        self.nodes.setflags(write=False)
        self.values.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GridFunction) and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.values, other.values))

    __hash__ = Frozen.__hash__  # hash((nodes, values)), which numpy refuses

    @staticmethod
    def uniform(T_end: float, m: int, fill: float = 0.0) -> "GridFunction":
        """m intervals (m+1 nodes) on [0, T_end], constant fill value."""
        if T_end <= 0:
            raise GreensError("T_end must be positive")
        if m < 1:
            raise GreensError("need at least 1 interval")
        nodes = np.linspace(0.0, float(T_end), m + 1)
        return GridFunction(nodes, np.full(m + 1, float(fill)))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.nodes, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def sup_distance(self, other: "GridFunction") -> float:
        if not np.array_equal(self.nodes, other.nodes):
            raise GreensError("grid functions live on different node sets")
        return float(np.max(np.abs(self.values - other.values)))


def _unit_kernel(t: float, s: float) -> float:
    return 1.0 if s <= t else 0.0


class KernelSpec(Frozen):
    """A kernel G(t, s) on [0, T_end]: the Volterra unit kernel or a parsed expression.

    The first evaluation picks the kernel's function of (t, s) once: the
    unit kernel's, or the function an expression kernel compiles from its
    tree (`exprparse.bind`); not when the kernel is built, so resolving a
    problem that never builds a kernel matrix (certify) compiles nothing.
    Kernels are equal when their kind, T_end and expression are.
    """
    _fields = ("kind", "T_end", "expr")

    def __init__(self, kind: str,  # "volterra_unit" | "expression"
                 T_end: float, expr: Optional[Expr] = None):
        if kind not in ("volterra_unit", "expression"):
            raise GreensError("kernel kind must be volterra_unit or expression")
        if T_end <= 0:
            raise GreensError("T_end must be positive")
        if kind == "expression" and expr is None:
            raise GreensError("expression kernel needs a parsed expression")
        self._fill(kind, T_end, expr)
        # a plain attribute, read per entry: the stub until the first evaluation
        object.__setattr__(self, "_kernel", self._first)

    def _first(self, t: float, s: float) -> float:
        """The _kernel before the kernel's function: picks it, keeps it as
        _kernel and calls it."""
        kernel = _unit_kernel if self.kind == "volterra_unit" else bind(self.expr, ("t", "s"))
        object.__setattr__(self, "_kernel", kernel)
        return kernel(t, s)

    def evaluate(self, t: float, s: float) -> float:
        try:
            return self._kernel(t, s)
        except EvalDomainError as exc:
            raise GreensError("kernel failed at (t=%r, s=%r): %s" % (t, s, exc)) from exc


def build_volterra_kernel(T_end: float) -> KernelSpec:
    return KernelSpec("volterra_unit", float(T_end))


def kernel_from_expression(text: str, T_end: float) -> KernelSpec:
    return KernelSpec("expression", float(T_end), expr=parse_expr(text, {"t", "s"}))


def _pointwise(A: OperatorSpec, values: np.ndarray) -> np.ndarray:
    if A.dim != 1:
        raise GreensError("integral iteration uses pointwise scalar operators (dim 1)")
    return np.array([A.apply(Vector([v]))[0] for v in values])


def _cumtrap(nodes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Composite trapezoid of f over [0, t_i] for every node, half-weight at t_i."""
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(nodes), out=out[1:])
    return out


def _kernel_quadrature(k: KernelSpec, nodes: np.ndarray, f: np.ndarray,
                       absolute: bool = False) -> np.ndarray:
    """Trapezoid values of s -> G(t_i, s) f(s) (optionally |G|) at every node."""
    if k.kind == "volterra_unit":
        return _cumtrap(nodes, f)
    n = nodes.size
    ts = nodes.tolist()
    gmat = np.empty((n, n))
    # row by row: the evaluations keep their row-major order, and only one
    # row of Python floats is held at a time
    ev = k.evaluate
    for i, t in enumerate(ts):
        gmat[i] = [ev(t, s) for s in ts]
    if absolute:
        np.abs(gmat, out=gmat)
    w = np.empty(n)
    dn = np.diff(nodes)
    w[0] = 0.5 * dn[0]
    w[-1] = 0.5 * dn[-1]
    w[1:-1] = 0.5 * (dn[1:] + dn[:-1])
    return gmat @ (w * f)


def apply_integral_operator(k: KernelSpec, A: OperatorSpec, x: GridFunction) -> GridFunction:
    """Trapezoidal quadrature of s -> G(t_i, s) A(x(s)) at every node t_i."""
    return x.with_values(_kernel_quadrature(k, x.nodes, _pointwise(A, x.values)))


class IntegralTrace(Record):
    _fields = ("grids", "r", "r_tilde", "residual", "stop_reason")

    def __init__(self, grids: List[GridFunction],
                 r: List[float],          # sup node distance between consecutive iterates
                 r_tilde: List[float],
                 residual: List[float],   # sup |T(x_n) - x_n| per iterate
                 stop_reason: str):
        self._fill(grids, r, r_tilde, residual, stop_reason)

    @property
    def steps(self) -> int:
        return len(self.grids) - 1

    def step_function(self, n: int) -> GridFunction:
        """Nodewise |x_{n+1} - x_n| as a grid function (r_n pointwise)."""
        a, b = self.grids[n], self.grids[n + 1]
        return a.with_values(np.abs(b.values - a.values))


def run_integral_iteration(k: KernelSpec, A: OperatorSpec, x0: GridFunction,
                           stop: Optional[StopRule] = None) -> IntegralTrace:
    """Picard iteration x <- T(x); only the contraction scheme is wired here.

    Besides the usual divergence guard there is a non-contraction guard: ten
    consecutive non-decreasing step norms above tolerance stop the run, which
    is how a kernel without the Volterra property announces itself.
    """
    stop = stop or StopRule(max_n=60)
    if abs(x0.nodes[-1] - k.T_end) > 1e-12 * (1.0 + k.T_end):
        raise GreensError("grid ends at %r but kernel domain ends at %r"
                          % (float(x0.nodes[-1]), k.T_end))
    trace = IntegralTrace(grids=[x0], r=[], r_tilde=[0.0], residual=[], stop_reason="max_n")
    guard = guard_radius(x0.sup_norm())
    floor = max(stop.r_tol, stop.residual_tol, 1e-13)
    flat = 0
    x = x0
    for _ in range(stop.max_n):
        y = apply_integral_operator(k, A, x)
        rn = y.sup_distance(x)
        trace.grids.append(y)
        trace.r.append(rn)
        trace.r_tilde.append(y.sup_distance(x0))
        trace.residual.append(rn)  # residual of x_n: T(x_n) - x_n = y - x
        x = y
        flat = flat + 1 if (trace.r[-2:-1] and rn >= trace.r[-2] * (1.0 - 1e-12)
                            and rn > floor) else 0
        reason = ("diverged" if x.sup_norm() > guard else
                  "non_contraction" if flat >= 10 else stop.reached(rn, rn))
        if reason is not None:
            trace.stop_reason = reason
            break
    final = apply_integral_operator(k, A, x)
    trace.residual.append(final.sup_distance(x))
    return trace


class BoundReport(Record):
    _fields = ("n", "scheme", "margins", "min_margin", "slack", "ok")

    def __init__(self, n: int, scheme: SchemeKind, margins: np.ndarray, min_margin: float,
                 slack: float, ok: bool):
        self._fill(n, scheme, margins, min_margin, slack, ok)


def bound_propagate(k: KernelSpec, constants: ProblemConstants, r_prev: GridFunction,
                    r_cur: GridFunction, scheme: SchemeKind, n: int) -> BoundReport:
    """Nodewise check of r_n(t) <= int |G(t,s)| (step-inequality integrand) ds.

    The integrand is M_n r_n plus majorant.step_inequality (Lipschitz form for
    contraction/custom, curvature form for newton); margins below -h^2 fail,
    anything inside that quadrature slack passes.
    """
    from .majorant import PreconditionError, step_inequality
    if not np.array_equal(r_prev.nodes, r_cur.nodes):
        raise GreensError("grid functions live on different node sets")
    try:
        rest = step_inequality(constants, scheme, n, r_prev.values)
    except PreconditionError:
        raise GreensError("bound propagation is not wired for scheme %r" % scheme) from None
    integrand = constants.m_at(n) * r_cur.values + rest
    rhs = _kernel_quadrature(k, r_cur.nodes, integrand, absolute=True)
    margins = rhs - r_cur.values
    h = float(np.max(np.diff(r_cur.nodes)))
    slack = h * h
    mn = float(np.min(margins))
    return BoundReport(n=n, scheme=scheme, margins=margins, min_margin=mn,
                       slack=slack, ok=mn >= -slack)
