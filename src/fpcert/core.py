"""Vectors, norms, ball domains, operators and directional derivatives."""
from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np


class CoreError(ValueError):
    pass


class OperatorEvaluationError(CoreError):
    """Operator evaluation failed or returned a non-finite / wrong-shape value."""


def parse_enum(cls, name: str, what: str, error) -> enum.Enum:
    """The member of enum cls whose value is name; else error listing the choices."""
    for kind in cls:
        if kind.value == name:
            return kind
    raise error("unknown %s %r (expected %s)" % (what, name, "|".join(k.value for k in cls)))


class NormKind(enum.Enum):
    SUP = "sup"
    EUCLIDEAN = "euclidean"
    ONE = "one"

    @staticmethod
    def parse(name: str) -> "NormKind":
        return parse_enum(NormKind, name, "norm", CoreError)


class Record:
    """Equality and repr read from a field list, as a dataclass generates them,
    but with no per-class source: each @dataclass compiles its methods with
    exec when its module is imported, which a fresh process pays for every
    class on the load path.

    A subclass names its fields in constructor order in _fields and stores
    them from its own __init__ with _fill.  _compare names the fields that
    equality (and a Frozen record's hash) reads, and _shown those that repr
    shows; None means all of them.  A Record is mutable and unhashable."""

    _fields: Tuple[str, ...] = ()
    _compare: Optional[Tuple[str, ...]] = None
    _shown: Optional[Tuple[str, ...]] = None

    def _fill(self, *values) -> None:
        # one attribute at a time: updating __dict__ as a whole would give the
        # instance a dict of its own, which every later attribute read pays for
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, n) for n in self._compare or self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (n, getattr(self, n)) for n in self._shown or self._fields]))


class Frozen(Record):
    """A Record that hashes its compared fields and, once built, refuses
    assignment and deletion as a frozen dataclass does."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)


class Vector(Frozen):
    """Immutable finite point in R^d, d >= 1."""

    _fields = ("coords",)

    def __init__(self, coords: Union[Sequence[float], np.ndarray]):
        arr = np.array(coords, dtype=float)  # a copy: no caller's array can change it
        if arr.ndim != 1 or arr.size < 1:
            raise CoreError("vector must be one-dimensional with d >= 1, got shape %r" % (arr.shape,))
        # one C call: ndarray.all() goes through numpy's Python-level _methods
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise CoreError("vector entries must be finite, got %r" % (arr,))
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.size

    def __getitem__(self, i: int) -> float:
        return float(self.coords[i])

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.coords + other.coords)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(self.coords - other.coords)

    def scale(self, a: float) -> "Vector":
        return Vector(a * self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and np.array_equal(self.coords, other.coords)

    __hash__ = Frozen.__hash__  # hash((coords,)), which numpy refuses

    def __repr__(self) -> str:
        return "Vector(%s)" % np.array2string(self.coords, separator=", ")


def norm_of(v: Vector, kind: NormKind) -> float:
    a = v.coords
    if kind is NormKind.SUP:
        return float(np.max(np.abs(a)))
    if kind is NormKind.EUCLIDEAN:
        return float(np.linalg.norm(a))
    if kind is NormKind.ONE:
        return float(np.sum(np.abs(a)))
    raise CoreError("unknown norm kind %r" % kind)


class BallDomain(Frozen):
    """Closed ball around center with given radius in a chosen norm."""

    _fields = ("center", "radius", "norm")

    def __init__(self, center: Vector, radius: float, norm: NormKind):
        if radius < 0 or not math.isfinite(radius):
            raise CoreError("ball radius must be finite and >= 0, got %r" % radius)
        self._fill(center, radius, norm)


class OperatorSpec(Frozen):
    """An operator A: R^d -> R^d with an optional analytic derivative.

    evaluator maps Vector -> Vector; derivative, when present, maps
    (x, h) -> directional derivative A'(x)h.  When absent, derivative_at
    falls back to a central finite difference.
    """

    _fields = ("dim", "evaluator", "derivative", "name")
    _compare = ("dim", "name")

    def __init__(self, dim: int, evaluator: Callable[[Vector], Vector],
                 derivative: Optional[Callable[[Vector, Vector], Vector]] = None,
                 name: str = ""):
        if dim < 1:
            raise CoreError("operator dim must be >= 1")
        self._fill(dim, evaluator, derivative, name)

    def apply(self, x: Vector) -> Vector:
        if x.dim != self.dim:
            raise OperatorEvaluationError(
                "operator %s expects dim %d, got %d" % (self.name or "?", self.dim, x.dim))
        try:
            out = self.evaluator(x)
        except (ArithmeticError, CoreError) as exc:
            raise OperatorEvaluationError(
                "operator %s failed at %r: %s" % (self.name or "?", x, exc)) from exc
        if not isinstance(out, Vector):
            out = Vector(out)
        if out.dim != self.dim:
            raise OperatorEvaluationError(
                "operator %s returned dim %d, expected %d" % (self.name or "?", out.dim, self.dim))
        return out

    def derivative_at(self, x: Vector, h: Vector) -> Vector:
        if self.derivative is None:
            return gateaux_fd(self, x, h)
        out = self.derivative(x, h)
        if not isinstance(out, Vector):
            out = Vector(out)
        if out.dim != self.dim:
            raise OperatorEvaluationError("derivative of operator %s returned dim %d, expected %d"
                                          % (self.name or "?", out.dim, self.dim))
        return out

    def jacobian(self, x: Vector) -> np.ndarray:
        """A'(x) as a dim x dim matrix, one derivative_at call per coordinate."""
        return matrix_of(lambda h: self.derivative_at(x, h), self.dim)


def gateaux_fd(op: OperatorSpec, x: Vector, h: Vector, step: Optional[float] = None) -> Vector:
    """Central-difference directional derivative (A(x+t h) - A(x-t h)) / 2t.

    Exact for affine operators up to rounding; O(step^2) error otherwise.
    """
    if step is None:
        step = 1e-6 * (1.0 + float(np.max(np.abs(x.coords))))
    if step <= 0:
        raise CoreError("finite-difference step must be positive")
    plus = op.apply(Vector(x.coords + step * h.coords))
    minus = op.apply(Vector(x.coords - step * h.coords))
    return Vector((plus.coords - minus.coords) / (2.0 * step))


def matrix_of(linmap: Callable[[Vector], Vector], dim: int) -> np.ndarray:
    """Materialize a linear map column by column from coordinate directions."""
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        out = linmap(Vector(e))
        if not isinstance(out, Vector):
            out = Vector(out)
        cols.append(out.coords)
    return np.column_stack(cols)


def matrix_norm(mat: np.ndarray, kind: NormKind) -> float:
    """Exact induced norm of an explicit matrix."""
    if kind is NormKind.SUP:
        return float(np.max(np.sum(np.abs(mat), axis=1)))
    if kind is NormKind.ONE:
        return float(np.max(np.sum(np.abs(mat), axis=0)))
    return float(np.linalg.norm(mat, 2))


def identity_operator(dim: int) -> OperatorSpec:
    return OperatorSpec(dim=dim, evaluator=lambda x: x,
                        derivative=lambda x, h: h, name="identity")
