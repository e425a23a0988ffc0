import math

import numpy as np
import pytest

from fpcert.core import NormKind, OperatorSpec, Vector, identity_operator
from fpcert.schemes import (InjectionMode, InnerDivergenceError,
                            IterationTrace, PerturbationPlan, SchemeError,
                            SchemeKind, SingularLinearSystemError, StepFailure,
                            StopRule, _solve_affine, guard_radius, run_outer,
                            step_custom)
from fpcert.sequences import ScalarSequence


def linear_half(shift=1.0):
    """A(x) = x/2 + shift, fixed point 2*shift, contraction factor 1/2."""
    return OperatorSpec(
        dim=1,
        evaluator=lambda x: Vector([0.5 * x[0] + shift]),
        derivative=lambda x, h: Vector([0.5 * h[0]]),
    )


def cos_op():
    return OperatorSpec(
        dim=1,
        evaluator=lambda x: Vector([math.cos(x[0])]),
        derivative=lambda x, h: Vector([-math.sin(x[0]) * h[0]]),
    )


def bisect_cos_root():
    """Root of cos(x) = x by plain bisection, independent of the package."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- exact traces --------------------------------------------------------


def test_contraction_linear_is_exact():
    trace = run_outer(linear_half(), SchemeKind.CONTRACTION, Vector([0.0]),
                      stop=StopRule(max_n=10))
    assert trace.steps == 10
    assert trace.stop_reason == "max_n"
    for n, x in enumerate(trace.iterates):
        assert x[0] == 2.0 - 2.0 ** (1 - n)
    for n, rn in enumerate(trace.r):
        assert rn == 2.0 ** (-n)
    for n, rt in enumerate(trace.r_tilde):
        assert rt == 2.0 - 2.0 ** (1 - n)
    # with no noise the residual at x_n equals the next step size
    assert trace.residual[:-1] == trace.r
    assert trace.inner_defect == [0.0] * 10
    assert trace.injected == [0.0] * 10
    sums = trace.partial_sums()
    for n, Rn in enumerate(sums):
        assert Rn == 2.0 - 2.0 ** (-n)


def test_stop_on_r_tol():
    trace = run_outer(linear_half(), SchemeKind.CONTRACTION, Vector([0.0]),
                      stop=StopRule(max_n=100, r_tol=1e-3))
    assert trace.stop_reason == "r_tol"
    assert trace.r[-1] <= 1e-3
    assert all(v > 1e-3 for v in trace.r[:-1])


def test_stop_on_residual_tol():
    trace = run_outer(linear_half(), SchemeKind.CONTRACTION, Vector([0.0]),
                      stop=StopRule(max_n=100, residual_tol=1e-6))
    assert trace.stop_reason == "residual_tol"
    assert trace.residual[-1] <= 1e-6


def test_divergence_is_a_stop_reason_not_an_exception():
    doubling = OperatorSpec(dim=1, evaluator=lambda x: Vector([2.0 * x[0] + 1.0]))
    trace = run_outer(doubling, SchemeKind.CONTRACTION, Vector([1.0]),
                      stop=StopRule(max_n=200))
    assert trace.stop_reason == "diverged"
    assert abs(trace.iterates[-1][0]) > 1e6


def test_stop_rule_reached_names_the_tolerance_met():
    both = StopRule(r_tol=1e-3, residual_tol=1e-6)
    assert both.reached(1e-3, 1e-6) == "r_tol"  # r_tol is tested first
    assert both.reached(2e-3, 1e-6) == "residual_tol"
    assert both.reached(2e-3, 2e-6) is None
    assert both.reached(math.inf, 1e-6) == "residual_tol"
    assert StopRule().reached(0.0, 0.0) is None  # a tolerance of 0 is off


def test_run_at_its_fixed_point_stops_at_x0_only_on_the_residual():
    x0 = Vector([2.0])  # the fixed point of x/2 + 1
    on_r = run_outer(linear_half(), SchemeKind.CONTRACTION, x0, stop=StopRule(max_n=5, r_tol=1.0))
    assert (on_r.steps, on_r.stop_reason) == (1, "r_tol")
    on_residual = run_outer(linear_half(), SchemeKind.CONTRACTION, x0,
                            stop=StopRule(max_n=5, residual_tol=1.0))
    assert (on_residual.steps, on_residual.stop_reason) == (0, "residual_tol")


def test_divergence_is_the_first_iterate_past_the_guard_radius():
    doubling = OperatorSpec(dim=1, evaluator=lambda x: Vector([2.0 * x[0] + 1.0]))
    trace = run_outer(doubling, SchemeKind.CONTRACTION, Vector([1.0]), stop=StopRule(max_n=200))
    sizes = [abs(x[0]) for x in trace.iterates]
    assert trace.stop_reason == "diverged" and guard_radius(1.0) == 2e6
    assert sizes[-1] > guard_radius(1.0) >= max(sizes[:-1])


def test_the_guard_is_tested_before_the_tolerances():
    jump = OperatorSpec(dim=1, evaluator=lambda x: Vector([1e7]))
    trace = run_outer(jump, SchemeKind.CONTRACTION, Vector([0.0]), stop=StopRule(r_tol=1e300))
    assert (trace.steps, trace.stop_reason) == (1, "diverged")


def test_stop_rule_validation():
    with pytest.raises(SchemeError):
        StopRule(max_n=0)
    with pytest.raises(SchemeError):
        StopRule(r_tol=-1.0)


def test_parse_names():
    assert SchemeKind.parse("newton") is SchemeKind.NEWTON
    assert SchemeKind.parse("modified_newton") is SchemeKind.MODIFIED_NEWTON
    assert InjectionMode.parse("additive-deterministic") is InjectionMode.DETERMINISTIC
    with pytest.raises(SchemeError, match=r"unknown scheme 'halley' \(expected "
                                          r"contraction\|modified_newton\|newton\|custom\)"):
        SchemeKind.parse("halley")
    with pytest.raises(SchemeError, match=r"unknown perturbation mode 'multiplicative' "
                                          r"\(expected none\|additive-deterministic\|"
                                          r"additive-seeded-random\)"):
        InjectionMode.parse("multiplicative")


# -- newton and modified newton ------------------------------------------


def test_newton_on_cos_is_quadratic():
    root = bisect_cos_root()
    trace = run_outer(cos_op(), SchemeKind.NEWTON, Vector([1.0]),
                      stop=StopRule(max_n=20, residual_tol=1e-14))
    assert trace.stop_reason == "residual_tol"
    assert trace.steps <= 6
    assert trace.iterates[-1][0] == pytest.approx(root, abs=1e-13)
    # e_{n+1} ~ cos(x*)/(2(1+sin(x*))) e_n^2 ~ 0.22 e_n^2
    for k in range(len(trace.r) - 1):
        if 1e-8 < trace.r[k] < 0.1:
            assert trace.r[k + 1] <= 0.5 * trace.r[k] ** 2


def test_modified_newton_rate_matches_frozen_derivative():
    root = bisect_cos_root()
    x0 = 1.0
    trace = run_outer(cos_op(), SchemeKind.MODIFIED_NEWTON, Vector([x0]),
                      stop=StopRule(max_n=40, residual_tol=1e-13))
    assert trace.iterates[-1][0] == pytest.approx(root, abs=1e-12)
    # the frozen-derivative map has slope (sin x0 - sin x*)/(1 + sin x0) at x*
    rate = (math.sin(x0) - math.sin(root)) / (1.0 + math.sin(x0))
    ratios = [trace.r[k + 1] / trace.r[k]
              for k in range(2, 8) if trace.r[k] > 1e-10]
    assert ratios
    for q in ratios:
        assert q == pytest.approx(rate, rel=0.05)


def test_newton_singular_system_raises_step_failure():
    shifted = OperatorSpec(dim=1, evaluator=lambda x: Vector([x[0] + 1.0]),
                           derivative=lambda x, h: h)
    with pytest.raises(StepFailure) as exc:
        run_outer(shifted, SchemeKind.NEWTON, Vector([0.0]))
    assert exc.value.step == 1


def test_affine_solve_overflow_is_a_singular_system():
    # I - D = 2^-52 is invertible, but rhs / 2^-52 overflows to inf
    with pytest.raises(SingularLinearSystemError, match="non-finite"):
        _solve_affine(np.array([[1 - 2**-52]]), np.array([1e300]), NormKind.SUP, 1e-12)


def test_gamma_perturbs_frozen_derivative():
    # gamma adds a rank-one +g at (0,0): for A(x) = x/2 + 1 the perturbed
    # affine solve still lands on the true fixed point, at rate g/(1/2 - g)
    g = 0.1
    plan = PerturbationPlan(gamma=ScalarSequence.constant(g),
                            mode=InjectionMode.DETERMINISTIC)
    trace = run_outer(linear_half(), SchemeKind.MODIFIED_NEWTON, Vector([0.0]),
                      plan=plan, stop=StopRule(max_n=40, residual_tol=1e-14))
    assert trace.iterates[-1][0] == pytest.approx(2.0, abs=1e-13)
    rate = g / (0.5 - g)
    for k in range(1, 6):
        assert trace.r[k + 1] / trace.r[k] == pytest.approx(rate, rel=1e-9)


# -- injected noise -------------------------------------------------------


def test_deterministic_noise_stagnates_at_eps_over_one_minus_q():
    eps = 1e-3
    plan = PerturbationPlan(eps=ScalarSequence.constant(eps),
                            mode=InjectionMode.DETERMINISTIC)
    trace = run_outer(linear_half(), SchemeKind.CONTRACTION, Vector([0.0]),
                      plan=plan, stop=StopRule(max_n=120))
    # noise opposes the pull toward 2, so the map becomes x/2 + 1 - eps
    # with fixed point 2 - 2 eps: the error floor is exactly eps/(1-q)
    assert trace.iterates[-1][0] == pytest.approx(2.0 - 2.0 * eps, abs=1e-14)
    assert trace.residual[-1] == pytest.approx(eps, abs=1e-14)
    assert all(v == pytest.approx(eps, abs=1e-16) for v in trace.injected)


def test_random_noise_is_seed_reproducible():
    plan = lambda seed: PerturbationPlan(eps=ScalarSequence.constant(1e-4),
                                         mode=InjectionMode.RANDOM, seed=seed)
    op = OperatorSpec(dim=3, evaluator=lambda x: Vector(0.5 * x.coords + 1.0))
    a = run_outer(op, SchemeKind.CONTRACTION, Vector([0.0, 0.0, 0.0]),
                  plan=plan(7), stop=StopRule(max_n=30))
    b = run_outer(op, SchemeKind.CONTRACTION, Vector([0.0, 0.0, 0.0]),
                  plan=plan(7), stop=StopRule(max_n=30))
    c = run_outer(op, SchemeKind.CONTRACTION, Vector([0.0, 0.0, 0.0]),
                  plan=plan(8), stop=StopRule(max_n=30))
    assert all(np.array_equal(x.coords, y.coords)
               for x, y in zip(a.iterates, b.iterates))
    assert a.injected == b.injected
    assert any(not np.array_equal(x.coords, y.coords)
               for x, y in zip(a.iterates, c.iterates))
    # draws are unit vectors scaled by the budget, so each hit is exact
    for v in a.injected:
        assert v == pytest.approx(1e-4, rel=1e-12)


# -- custom scheme --------------------------------------------------------


def averaged_factory(theta, A):
    def factory(n, x_prev, x0):
        fx_prev = A.apply(x_prev)
        return OperatorSpec(
            dim=A.dim,
            evaluator=lambda x: Vector(theta * A.apply(x).coords
                                       + (1.0 - theta) * fx_prev.coords),
            name="averaged",
        )
    return factory


def test_step_custom_solves_inner_fixed_point():
    A = linear_half()
    B = averaged_factory(0.5, A)(1, Vector([0.0]), Vector([0.0]))
    x, defect = step_custom(B, Vector([0.0]), np.zeros(1), NormKind.SUP, 1e-12)
    # closed form: x = (1 + (1-theta) x_prev / 2) / (1 - theta/2)
    assert defect <= 1e-12
    assert x[0] == pytest.approx(1.0 / 0.75, abs=1e-11)


def test_step_custom_detects_inner_divergence():
    B = OperatorSpec(dim=1, evaluator=lambda x: Vector([2.0 * x[0] + 1.0]))
    with pytest.raises(InnerDivergenceError):
        step_custom(B, Vector([1.0]), np.zeros(1), NormKind.SUP, 1e-12)


@pytest.mark.parametrize("slope, message", [
    (2.0, "step 1 failed: inner iterate left the guard ball (defect 1.049e+06)"),
    (-1.0, "step 1 failed: inner solve did not reach 1.0e-12 in 5000 iterations"
           " (defect 1.000e+00)"),
])
def test_inner_divergence_message_is_the_step_failure_text(slope, message):
    # the CLI error line, run.json and summary.csv print this text as it is
    B = OperatorSpec(dim=1, evaluator=lambda x: Vector([slope * x[0] + 1.0]))
    with pytest.raises(StepFailure) as exc:
        run_outer(linear_half(), SchemeKind.CUSTOM, Vector([1.0]),
                  custom_factory=lambda n, x_prev, x0: B)
    assert str(exc.value) == message


def test_custom_requires_factory():
    with pytest.raises(SchemeError):
        run_outer(linear_half(), SchemeKind.CUSTOM, Vector([0.0]))


def test_theta_averaged_custom_rate():
    theta = 0.5
    A = linear_half()
    trace = run_outer(A, SchemeKind.CUSTOM, Vector([0.0]),
                      stop=StopRule(max_n=40, residual_tol=1e-13),
                      custom_factory=averaged_factory(theta, A))
    assert trace.iterates[-1][0] == pytest.approx(2.0, abs=1e-11)
    # effective one-step map is affine with slope (1-theta)/(2-theta) = 1/3
    rate = (1.0 - theta) / (2.0 - theta)
    for k in range(1, 6):
        if trace.r[k] > 1e-4:
            assert trace.r[k + 1] / trace.r[k] == pytest.approx(rate, rel=1e-6)
    assert all(d <= 1e-12 for d in trace.inner_defect)
