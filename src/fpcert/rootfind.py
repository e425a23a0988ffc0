"""Root problems P(x) = 0 recast as fixed-point problems x = x - Gamma(x, P(x)).

Gamma is restricted to the two shapes that can be checked to satisfy
Gamma(x, 0) = 0: damped (alpha * y) and newton (solve P'(x) z = y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorSpec, Vector


class RootfindError(ValueError):
    pass


class SingularDerivativeError(RootfindError):
    """P'(x) is numerically singular at the attached point."""

    def __init__(self, x: Vector):
        super().__init__("P' is singular at %r" % x)
        self.x = x


@dataclass(frozen=True)
class GammaSpec:
    kind: str            # "damped" | "newton"
    alpha: float = 1.0   # damped only

    def __post_init__(self):
        if self.kind not in ("damped", "newton"):
            raise RootfindError("gamma kind must be damped or newton, got %r" % self.kind)
        if self.kind == "damped" and not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise RootfindError("damped gamma needs alpha > 0, got %r" % self.alpha)

    @staticmethod
    def damped(alpha: float) -> "GammaSpec":
        return GammaSpec("damped", alpha=alpha)

    @staticmethod
    def newton() -> "GammaSpec":
        return GammaSpec("newton")


def wrap_root_problem(P: OperatorSpec, g: GammaSpec) -> OperatorSpec:
    """A(x) = x - Gamma(x, P(x)); fixed points of A are exactly zeros of P."""
    if g.kind == "damped":
        a = g.alpha

        def eval_damped(x: Vector) -> Vector:
            return Vector(x.coords - a * P.apply(x).coords)

        def deriv_damped(x: Vector, h: Vector) -> Vector:
            return Vector(h.coords - a * P.derivative_at(x, h).coords)

        return OperatorSpec(dim=P.dim, evaluator=eval_damped, derivative=deriv_damped,
                            name="damped(%s)" % (P.name or "P"))

    def eval_newton(x: Vector) -> Vector:
        jac = P.jacobian(x)
        px = P.apply(x).coords
        try:
            z = np.linalg.solve(jac, px)
        except np.linalg.LinAlgError:
            raise SingularDerivativeError(x)
        if not np.all(np.isfinite(z)):
            raise SingularDerivativeError(x)
        return Vector(x.coords - z)

    # no analytic derivative for the newton wrap: the finite-difference
    # fallback is accurate enough for the M/K roles it plays downstream
    return OperatorSpec(dim=P.dim, evaluator=eval_newton, derivative=None,
                        name="newton-wrap(%s)" % (P.name or "P"))
