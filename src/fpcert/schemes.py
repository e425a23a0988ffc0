"""Outer iteration schemes: x_n solves x = B_{n-1}(x) for varying B.

Index convention used throughout: the step producing x_n (n >= 1) uses the
operator B_{n-1} built at x_{n-1}; its value-inexactness budget is eps(n-1),
its derivative budgets sigma(n-1) (at x_{n-1}) and gamma(n-1) (at x_0).
r_n = ||x_{n+1} - x_n||, r_tilde_n = ||x_n - x_0||.

How a run ends has two owners, also for greens.run_integral_iteration:
guard_radius is the divergence radius and StopRule.reached names the
tolerance met.  The guard is tested first, the tolerances last.
"""
from __future__ import annotations

import enum
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import Frozen, NormKind, OperatorSpec, Record, Vector, norm_of, parse_enum
from .sequences import ScalarSequence


class SchemeError(ValueError):
    pass


class SingularLinearSystemError(SchemeError):
    """The inner linear system I - D is singular or numerically hopeless."""


class InnerDivergenceError(SchemeError):
    """The inner fixed-point solve for a custom B failed to settle."""


class StepFailure(SchemeError):
    """Wraps any step error with the failing outer step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__("step %d failed: %s" % (step, cause))
        self.step = step


class SchemeKind(enum.Enum):
    CONTRACTION = "contraction"
    MODIFIED_NEWTON = "modified_newton"
    NEWTON = "newton"
    CUSTOM = "custom"

    @staticmethod
    def parse(name: str) -> "SchemeKind":
        return parse_enum(SchemeKind, name, "scheme", SchemeError)


class InjectionMode(enum.Enum):
    NONE = "none"
    DETERMINISTIC = "additive-deterministic"
    RANDOM = "additive-seeded-random"

    @staticmethod
    def parse(name: str) -> "InjectionMode":
        return parse_enum(InjectionMode, name, "perturbation mode", SchemeError)


class PerturbationPlan(Frozen):
    """Declared inexactness budgets plus how to exercise them.

    eps, sigma, gamma are per-step budgets; injection draws perturbations of
    exactly the budgeted size (deterministic mode points the additive noise
    against the current step direction, the worst case for a contraction;
    random mode uses the seeded generator).
    """

    _fields = ("eps", "sigma", "gamma", "mode", "seed")

    def __init__(self, eps: Optional[ScalarSequence] = None,
                 sigma: Optional[ScalarSequence] = None,
                 gamma: Optional[ScalarSequence] = None,
                 mode: InjectionMode = InjectionMode.NONE, seed: int = 0):
        # a budget left out is a fresh zero sequence
        zero = ScalarSequence.zero
        self._fill(zero() if eps is None else eps, zero() if sigma is None else sigma,
                   zero() if gamma is None else gamma, mode, seed)


class StopRule(Frozen):
    _fields = ("max_n", "r_tol", "residual_tol")

    def __init__(self, max_n: int = 50, r_tol: float = 0.0, residual_tol: float = 0.0):
        if max_n < 1:
            raise SchemeError("max_n must be >= 1")
        if r_tol < 0 or residual_tol < 0:
            raise SchemeError("tolerances must be >= 0")
        self._fill(max_n, r_tol, residual_tol)

    def reached(self, r: float, residual: float) -> Optional[str]:
        """The tolerance a step of size r ending at this residual meets, r_tol
        tested before residual_tol; None if neither.  A tolerance of 0 is off."""
        if self.r_tol > 0.0 and r <= self.r_tol:
            return "r_tol"
        if self.residual_tol > 0.0 and residual <= self.residual_tol:
            return "residual_tol"
        return None


def guard_radius(size: float) -> float:
    """An iterate beyond this norm diverged from a start of norm size."""
    return 1e6 * (1.0 + size)


class IterationTrace(Record):
    """Everything a run produced, index-aligned as documented in the module."""

    _fields = ("iterates", "r", "r_tilde", "residual", "inner_defect", "injected",
               "stop_reason")

    def __init__(self, iterates: List[Vector],
                 r: List[float],             # r[n] = ||x_{n+1} - x_n||, n = 0..steps-1
                 r_tilde: List[float],       # r_tilde[n] = ||x_n - x_0||, n = 0..steps
                 residual: List[float],      # ||A(x_n) - x_n||, n = 0..steps
                 inner_defect: List[float],  # defect of the step producing x_n, n = 1..steps
                 injected: List[float],      # additive noise norm of that step, n = 1..steps
                 stop_reason: str):
        self._fill(iterates, r, r_tilde, residual, inner_defect, injected, stop_reason)

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1

    def partial_sums(self) -> List[float]:
        """R_n = sum_{k<=n} r_k."""
        out, acc = [], 0.0
        for v in self.r:
            acc += v
            out.append(acc)
        return out


def _unit(vec: np.ndarray, kind: NormKind) -> np.ndarray:
    """vec scaled to norm 1; e_0 for the zero vector."""
    n = norm_of(Vector(vec), kind) if np.any(vec) else 0.0
    if n == 0.0:
        u = np.zeros(vec.size)
        u[0] = 1.0
        return u
    return vec / n


def _additive_noise(dim: int, amount: float, direction_hint: np.ndarray,
                    mode: InjectionMode, kind: NormKind,
                    rng: np.random.Generator) -> np.ndarray:
    if amount <= 0.0 or mode is InjectionMode.NONE:
        return np.zeros(dim)
    if mode is InjectionMode.DETERMINISTIC:
        # oppose the step direction: pushes the iterate back toward where it
        # came from, the worst case for a contraction (stagnation at eps/(1-q))
        return -amount * _unit(direction_hint, kind)
    return amount * _unit(rng.standard_normal(dim), kind)


def _value_and_noise(A: OperatorSpec, x_prev: Vector, n: int, plan: PerturbationPlan,
                     norm: NormKind, rng: np.random.Generator
                     ) -> Tuple[Vector, np.ndarray, float]:
    """A(x_{n-1}), the additive noise of the step producing x_n, and its norm."""
    fx = A.apply(x_prev)
    e = _additive_noise(A.dim, plan.eps(n - 1), fx.coords - x_prev.coords,
                        plan.mode, norm, rng)
    return fx, e, norm_of(Vector(e), norm)


def _rank_one(dim: int, amount: float, mode: InjectionMode,
              rng: np.random.Generator) -> np.ndarray:
    """Matrix c * e_i e_j^T: induced norm is exactly c in sup/euclidean/one."""
    E = np.zeros((dim, dim))
    if amount <= 0.0 or mode is InjectionMode.NONE:
        return E
    if mode is InjectionMode.DETERMINISTIC:
        i = j = 0
        sign = 1.0
    else:
        i = int(rng.integers(dim))
        j = int(rng.integers(dim))
        sign = 1.0 if rng.integers(2) else -1.0
    E[i, j] = sign * amount
    return E


def _solve_affine(D: np.ndarray, rhs: np.ndarray, kind: NormKind,
                  inner_tol: float) -> Tuple[np.ndarray, float]:
    """Solve (I - D) x = rhs with a defect check and one refinement pass."""
    S = np.eye(D.shape[0]) - D

    def solve(b: np.ndarray) -> np.ndarray:
        try:
            x = np.linalg.solve(S, b)
        except np.linalg.LinAlgError as exc:
            raise SingularLinearSystemError("I - D is singular: %s" % exc)
        if not np.all(np.isfinite(x)):
            raise SingularLinearSystemError("inner solve produced non-finite iterate")
        return x

    x = solve(rhs)
    defect = norm_of(Vector(rhs - S @ x), kind)
    if defect > inner_tol:
        x = x + solve(rhs - S @ x)
        defect = norm_of(Vector(rhs - S @ x), kind)
        if defect > inner_tol:
            raise SingularLinearSystemError(
                "inner defect %.3e above inner_tol %.3e after refinement" % (defect, inner_tol))
    return x, defect


def step_contraction(A: OperatorSpec, x_prev: Vector, n: int, plan: PerturbationPlan,
                     norm: NormKind, rng: np.random.Generator) -> Tuple[Vector, float, float]:
    """x_n = A(x_{n-1}) + noise; B_{n-1} is the constant map, defect is 0."""
    fx, e, injected = _value_and_noise(A, x_prev, n, plan, norm, rng)
    return Vector(fx.coords + e), 0.0, injected


def _affine_step(A: OperatorSpec, x_prev: Vector, n: int, D: np.ndarray,
                 plan: PerturbationPlan, norm: NormKind, inner_tol: float,
                 rng: np.random.Generator) -> Tuple[Vector, float, float]:
    """Solve x = D x - D x_{n-1} + A(x_{n-1}) + noise: the affine B_{n-1} of both Newtons."""
    fx, e, injected = _value_and_noise(A, x_prev, n, plan, norm, rng)
    x, defect = _solve_affine(D, fx.coords + e - D @ x_prev.coords, norm, inner_tol)
    return Vector(x), defect, injected


def step_newton(A: OperatorSpec, x_prev: Vector, n: int, plan: PerturbationPlan,
                norm: NormKind, inner_tol: float,
                rng: np.random.Generator) -> Tuple[Vector, float, float]:
    """Affine step with D = A'(x_{n-1}) plus the sigma perturbation."""
    D = A.jacobian(x_prev) + _rank_one(A.dim, plan.sigma(n - 1), plan.mode, rng)
    return _affine_step(A, x_prev, n, D, plan, norm, inner_tol, rng)


def step_modified_newton(A: OperatorSpec, x_prev: Vector, n: int, D0: np.ndarray,
                         plan: PerturbationPlan, norm: NormKind, inner_tol: float,
                         rng: np.random.Generator) -> Tuple[Vector, float, float]:
    """Affine step with the derivative D0 frozen at x_0 plus the gamma perturbation."""
    D = D0 + _rank_one(D0.shape[0], plan.gamma(n - 1), plan.mode, rng)
    return _affine_step(A, x_prev, n, D, plan, norm, inner_tol, rng)


MAX_INNER = 5000


def step_custom(B: OperatorSpec, x_prev: Vector, noise: np.ndarray, norm: NormKind,
                inner_tol: float) -> Tuple[Vector, float]:
    """Solve x = B(x) + noise by at most MAX_INNER fixed-point iterations from x_prev."""
    guard = guard_radius(norm_of(x_prev, norm))
    y = x_prev
    defect = math.inf
    for _ in range(MAX_INNER):
        by = Vector(B.apply(y).coords + noise)
        defect = norm_of(by - y, norm)
        y = by
        if defect <= inner_tol:
            return y, defect
        if norm_of(y, norm) > guard:
            raise InnerDivergenceError(
                "inner iterate left the guard ball (defect %.3e)" % defect)
    raise InnerDivergenceError(
        "inner solve did not reach %.1e in %d iterations (defect %.3e)"
        % (inner_tol, MAX_INNER, defect))


def run_outer(A: OperatorSpec, scheme: SchemeKind, x0: Vector,
              plan: Optional[PerturbationPlan] = None,
              stop: Optional[StopRule] = None,
              norm: NormKind = NormKind.SUP,
              inner_tol: float = 1e-12,
              custom_factory: Optional[Callable[[int, Vector, Vector], OperatorSpec]] = None,
              ) -> IterationTrace:
    """Drive the outer iteration and record the full trace.

    custom_factory(n, x_prev, x0) must return the operator B_{n-1} for the
    step producing x_n; required iff scheme is CUSTOM.  Raises StepFailure
    (with .step) if a step errors out; divergence is not an exception but a
    stop_reason, so callers can still inspect the partial trace.
    """
    plan = plan or PerturbationPlan()
    stop = stop or StopRule()
    if scheme is SchemeKind.CUSTOM and custom_factory is None:
        raise SchemeError("custom scheme needs a custom_factory")
    rng = np.random.default_rng(plan.seed)

    def resid(x: Vector) -> float:
        return norm_of(A.apply(x) - x, norm)

    # what x_0 needs is built before step 1, so its failures are step 1's
    try:
        residual0 = resid(x0)
        D0 = A.jacobian(x0) if scheme is SchemeKind.MODIFIED_NEWTON else None
    except Exception as exc:
        raise StepFailure(1, exc) from exc
    trace = IterationTrace(iterates=[x0], r=[], r_tilde=[0.0], residual=[residual0],
                           inner_defect=[], injected=[], stop_reason="max_n")
    guard = guard_radius(norm_of(x0, norm))
    # no step exists at x_0, so only its residual can stop the run there
    reason = stop.reached(math.inf, residual0)
    x_prev = x0
    for n in range(1, stop.max_n + 1):
        if reason is not None:
            break
        try:
            if scheme is SchemeKind.CONTRACTION:
                x, defect, injected = step_contraction(A, x_prev, n, plan, norm, rng)
            elif scheme is SchemeKind.NEWTON:
                x, defect, injected = step_newton(A, x_prev, n, plan, norm, inner_tol, rng)
            elif scheme is SchemeKind.MODIFIED_NEWTON:
                x, defect, injected = step_modified_newton(A, x_prev, n, D0, plan,
                                                           norm, inner_tol, rng)
            else:
                B = custom_factory(n, x_prev, x0)
                _, noise, injected = _value_and_noise(A, x_prev, n, plan, norm, rng)
                x, defect = step_custom(B, x_prev, noise, norm, inner_tol)
            residual = resid(x)
        except Exception as exc:
            raise StepFailure(n, exc) from exc

        budget = plan.eps(n - 1)
        assert injected <= budget * (1.0 + 1e-12) + 1e-300, \
            "injected noise %r exceeds declared budget %r at step %d" % (injected, budget, n)

        trace.iterates.append(x)
        trace.r.append(norm_of(x - x_prev, norm))
        trace.r_tilde.append(norm_of(x - x0, norm))
        trace.residual.append(residual)
        trace.inner_defect.append(defect)
        trace.injected.append(injected)

        reason = "diverged" if norm_of(x, norm) > guard else stop.reached(trace.r[-1], residual)
        x_prev = x
    trace.stop_reason = reason or "max_n"
    return trace
