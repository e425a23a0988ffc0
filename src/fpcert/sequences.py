"""Nonnegative scalar sequences n -> value with closed-form tail sums.

Perturbation schedules and majorant coefficients are all sequences of this
shape.  Every reader takes its terms from one rule, `ScalarSequence.__call__`:
a geometric or power term with coefficient 0 is 0 at every index, and a term
past the float range reads +inf.  Closed forms (constant, geometric, power)
know their own tail sums; a table is constant beyond its last entry, so its
tail is summable exactly when that entry is zero; a sequence is summable when
its closed-form tail sum is finite.  The kind is checked once, when a sequence
is built.  This module is the arithmetic and tail analytics only; `problems`
reads and writes a sequence's problem-file form.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import Frozen


class SequenceError(ValueError):
    pass


_KINDS = frozenset(("zero", "constant", "geometric", "power", "table", "affine", "pairsum"))


class ScalarSequence(Frozen):
    """A map n -> float for n >= 0, with optional tail analytics.

    kind is one of: zero, constant, geometric, power, table,
    affine (scale*base + offset), pairsum (scale*(base(n) + base(n+1))).
    """

    _fields = ("kind", "c", "ratio", "p", "entries", "base", "scale", "offset")

    def __init__(self, kind: str, c: float = 0.0, ratio: float = 0.0, p: float = 0.0,
                 entries: tuple = (), base: Optional["ScalarSequence"] = None,
                 scale: float = 1.0, offset: float = 0.0):
        if kind not in _KINDS:
            raise SequenceError("unknown sequence kind %r" % (kind,))
        self._fill(kind, c, ratio, p, entries, base, scale, offset)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ScalarSequence":
        return ScalarSequence("zero")

    @staticmethod
    def constant(c: float) -> "ScalarSequence":
        if not 0 <= c < math.inf:
            raise SequenceError("constant sequence must be finite and nonnegative, got %r" % c)
        return ScalarSequence("constant", c=float(c))

    @staticmethod
    def geometric(c: float, ratio: float) -> "ScalarSequence":
        """c * ratio**n."""
        if not (0 <= c < math.inf and 0 <= ratio < math.inf):
            raise SequenceError("geometric sequence needs finite c >= 0 and ratio >= 0, got %r, %r"
                                % (c, ratio))
        return ScalarSequence("geometric", c=float(c), ratio=float(ratio))

    @staticmethod
    def power(c: float, p: float) -> "ScalarSequence":
        """c * n**(-p) for n >= 1; the value at n = 0 is c."""
        if not (0 <= c < math.inf and math.isfinite(p)):
            raise SequenceError("power sequence needs finite c >= 0 and finite p, got %r, %r"
                                % (c, p))
        return ScalarSequence("power", c=float(c), p=float(p))

    @staticmethod
    def from_table(values: Sequence[float]) -> "ScalarSequence":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise SequenceError("table sequence needs at least one entry")
        if not all(0 <= v < math.inf for v in vals):
            raise SequenceError("table entries must be finite and nonnegative, got %r" % (vals,))
        return ScalarSequence("table", entries=vals)

    def affine(self, scale: float, offset: float) -> "ScalarSequence":
        """scale * self(n) + offset, both nonnegative."""
        if scale < 0 or offset < 0:
            raise SequenceError("affine combinator needs nonnegative scale/offset")
        return ScalarSequence("affine", base=self, scale=float(scale), offset=float(offset))

    @staticmethod
    def pair_sum(base: "ScalarSequence", scale: float) -> "ScalarSequence":
        """scale * (base(n) + base(n+1))."""
        if scale < 0:
            raise SequenceError("pair_sum scale must be nonnegative")
        return ScalarSequence("pairsum", base=base, scale=float(scale))

    # -- evaluation ---------------------------------------------------

    def __call__(self, n: int) -> float:
        """Term n.  A geometric or power term with coefficient 0 is 0 at every
        index, and a term whose power is past the float range reads +inf."""
        if n < 0:
            raise SequenceError("sequence index must be >= 0, got %d" % n)
        k = self.kind
        if k == "zero":
            return 0.0
        if k == "constant":
            return self.c
        if k == "geometric" or k == "power":
            if self.c == 0.0:
                return 0.0
            try:
                if k == "geometric":
                    return self.c * self.ratio ** n
                return self.c if n == 0 else self.c * float(n) ** (-self.p)
            except OverflowError:
                return math.inf
        if k == "table":
            # constant extension beyond the table end
            return self.entries[min(n, len(self.entries) - 1)]
        if k == "affine":
            return self.scale * self.base(n) + self.offset
        return self.scale * (self.base(n) + self.base(n + 1))  # pairsum

    def values(self, n0: int, n1: int) -> list:
        """Terms n0..n1."""
        return [self(n) for n in range(n0, n1 + 1)]

    # -- tail analytics -----------------------------------------------

    def sup_tail(self, n0: int) -> float:
        """Upper bound for sup_{k >= n0} of the sequence; math.inf if unbounded."""
        k = self.kind
        if k == "zero":
            return 0.0
        if k == "constant":
            return self.c
        if k == "geometric":
            return math.inf if self.ratio > 1.0 and self.c > 0.0 else self(n0)
        if k == "power":
            return math.inf if self.p < 0.0 and self.c > 0.0 else self(n0)
        if k == "table":
            return max(self.entries[min(n0, len(self.entries) - 1):])
        if k == "affine":
            return self.scale * self.base.sup_tail(n0) + self.offset
        return self.scale * (self.base.sup_tail(n0) + self.base.sup_tail(n0 + 1))  # pairsum

    def tail_sum(self, n0: int) -> float:
        """Upper bound for sum_{k >= n0} of the sequence; math.inf if divergent."""
        k = self.kind
        if k == "zero":
            return 0.0
        if k == "constant":
            return 0.0 if self.c == 0.0 else math.inf
        if k == "geometric":
            if self.c == 0.0:
                return 0.0
            if self.ratio >= 1.0:
                return math.inf
            return self.c * self.ratio ** n0 / (1.0 - self.ratio)
        if k == "power":
            if self.c == 0.0:
                return 0.0
            if self.p <= 1.0:
                return math.inf
            # integral test: sum_{k>=m} k^-p <= m^-p + m^(1-p)/(p-1) for m >= 1
            m = max(n0, 1)
            bound = self.c * (float(m) ** (-self.p) + float(m) ** (1.0 - self.p) / (self.p - 1.0))
            if n0 == 0:
                bound += self.c
            return bound
        if k == "table":
            tail_beyond = 0.0 if self.entries[-1] == 0.0 else math.inf
            head = sum(self.entries[n] for n in range(n0, len(self.entries)))
            return head + tail_beyond
        if k == "affine":
            if self.offset > 0.0:
                return math.inf
            return self.scale * self.base.tail_sum(n0)
        return self.scale * (self.base.tail_sum(n0) + self.base.tail_sum(n0 + 1))  # pairsum

    def is_summable(self) -> bool:
        """Whether the closed-form tail sum from index 0 is finite."""
        return self.tail_sum(0) < math.inf
