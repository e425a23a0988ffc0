"""Sampled Lipschitz constants over a ball.

Sampling can only bound a Lipschitz constant from below, so results here are
labeled empirical and callers are expected to inflate them (default factor
1.1) before feeding them into any majorant construction.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import core
from .core import BallDomain, CoreError, OperatorSpec, Vector, matrix_norm

# norm_of is read through core at each call: problems imports this module only
# when an estimate block resolves, which may be while bench/tracer.py has
# core.norm_of wrapped, and a name bound then would keep the wrapper after
# uninstall() puts core's back

SAFETY_FACTOR = 1.1


def with_safety(estimate: float, factor: float = SAFETY_FACTOR) -> float:
    if factor < 1.0:
        raise CoreError("safety factor must be >= 1, got %r" % factor)
    return estimate * factor


def _sample_pair(ball: BallDomain, rng: np.random.Generator):
    """Two independent points in the ball; segment scaling keeps any norm kind inside."""
    pts = []
    for _ in range(2):
        raw = rng.uniform(-1.0, 1.0, size=ball.center.dim)
        n = core.norm_of(Vector(raw), ball.norm)
        if n == 0.0:
            pts.append(ball.center)
            continue
        t = rng.uniform(0.0, 1.0)
        pts.append(Vector(ball.center.coords + raw * (ball.radius * t / n)))
    return pts[0], pts[1]


def _max_ratio(gap_of_images: Callable[[Vector, Vector], float], ball: BallDomain,
               samples: int, seed: int) -> float:
    """max over sampled pairs (x, y) of gap_of_images(x, y) / ||x - y||."""
    if samples < 10:
        raise CoreError("need at least 10 sample pairs, got %d" % samples)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        x, y = _sample_pair(ball, rng)
        gap = core.norm_of(x - y, ball.norm)
        if gap == 0.0:
            continue
        ratio = gap_of_images(x, y) / gap
        if ratio > best:
            best = ratio
    return best


def estimate_lipschitz_M(A: OperatorSpec, ball: BallDomain, samples: int = 200,
                         seed: int = 0) -> float:
    """max over sampled pairs of ||A(x) - A(y)|| / ||x - y||.

    A lower estimate; deterministic per seed, and nondecreasing in `samples`
    because the pair stream is a prefix-stable function of the seed.
    """
    return _max_ratio(lambda x, y: core.norm_of(A.apply(x) - A.apply(y), ball.norm),
                      ball, samples, seed)


def estimate_lipschitz_K(A: OperatorSpec, ball: BallDomain, samples: int = 100,
                         seed: int = 0) -> float:
    """max over sampled pairs of ||A'(x) - A'(y)|| / ||x - y|| in the induced norm."""
    return _max_ratio(lambda x, y: matrix_norm(A.jacobian(x) - A.jacobian(y), ball.norm),
                      ball, samples, seed)
