import math

import numpy as np
import pytest

from fpcert import greens
from fpcert.cli import main
from fpcert.core import OperatorSpec, Vector
from fpcert.exprparse import _CODES, _walk
from fpcert.greens import (GreensError, GridFunction, KernelSpec, _kernel_quadrature,
                           apply_integral_operator, bound_propagate,
                           build_volterra_kernel, kernel_from_expression,
                           run_integral_iteration)
from fpcert.majorant import ProblemConstants
from fpcert.problems import load_problem
from fpcert.schemes import SchemeKind, StopRule


def pointwise(f):
    return OperatorSpec(dim=1, evaluator=lambda x: Vector([f(x[0])]))


# -- grid functions -------------------------------------------------------


def test_uniform_grid():
    g = GridFunction.uniform(1.0, 4, fill=2.0)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(g.values == 2.0)
    assert g.sup_norm() == 2.0


def test_grid_validation():
    with pytest.raises(GreensError):
        GridFunction([0.5, 1.0], [0.0, 0.0])       # must start at 0
    with pytest.raises(GreensError):
        GridFunction([0.0, 1.0, 0.5], [0.0] * 3)   # must increase
    with pytest.raises(GreensError):
        GridFunction([0.0], [0.0])                 # too short
    with pytest.raises(GreensError):
        GridFunction([0.0, 1.0], [0.0, math.inf])  # finite values only
    with pytest.raises(GreensError):
        GridFunction.uniform(0.0, 4)


def test_grid_is_read_only():
    g = GridFunction.uniform(1.0, 4)
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_sup_distance_requires_same_nodes():
    a = GridFunction.uniform(1.0, 4)
    b = GridFunction.uniform(1.0, 5)
    with pytest.raises(GreensError):
        a.sup_distance(b)
    c = a.with_values(a.values + 0.3)
    assert a.sup_distance(c) == pytest.approx(0.3)


def test_grid_functions_compare_by_value():
    a = GridFunction([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    b = GridFunction(np.linspace(0.0, 1.0, 3), np.arange(1.0, 4.0))
    assert a == b and not a != b
    assert a != a.with_values([1.0, 2.0, 4.0])
    assert a != GridFunction([0.0, 0.25, 1.0], [1.0, 2.0, 3.0])
    assert a != (a.nodes, a.values)


def test_integral_traces_compare_by_value():
    k, A, x0 = exp_growth_setup(20)
    first, again = (run_integral_iteration(k, A, x0, stop=StopRule(max_n=5)) for _ in range(2))
    assert first.grids[1] is not again.grids[1]
    assert first == again


# -- kernels ---------------------------------------------------------------


def test_volterra_kernel_is_the_indicator():
    k = build_volterra_kernel(1.0)
    assert k.evaluate(0.5, 0.3) == 1.0
    assert k.evaluate(0.5, 0.5) == 1.0
    assert k.evaluate(0.5, 0.7) == 0.0


def test_expression_kernel_evaluates():
    k = kernel_from_expression("exp(t - s)", 1.0)
    assert k.evaluate(0.7, 0.2) == pytest.approx(math.exp(0.5), rel=1e-15)


def test_expression_kernel_domain_error_names_the_point():
    k = kernel_from_expression("log(t - s)", 1.0)
    with pytest.raises(GreensError) as exc:
        k.evaluate(0.5, 0.5)
    assert "t=0.5" in str(exc.value)


def test_volterra_kernel_evaluates_through_its_function(monkeypatch):
    k = build_volterra_kernel(1.0)
    assert vars(k)["_kernel"] == k._first
    assert [k.evaluate(0.5, s) for s in (0.3, 0.5, 0.7)] == [1.0, 1.0, 0.0]
    assert vars(k)["_kernel"] is greens._unit_kernel
    # evaluate reads the kind no more: it calls the function picked once
    monkeypatch.setitem(vars(k), "_kernel", lambda t, s: 2.5)
    assert k.evaluate(0.5, 0.7) == 2.5


@pytest.mark.parametrize("source", ["volterra-exp", "fredholm"])
def test_resolving_picks_no_kernel_function(tmp_path, source):
    if source == "fredholm":
        source = tmp_path / "p.yaml"
        source.write_text(_FREDHOLM)
    spec = load_problem(str(source)).integral.kernel()
    assert vars(spec)["_kernel"] == spec._first
    spec.evaluate(0.25, 0.5)
    kernel = vars(spec)["_kernel"]
    if spec.kind == "volterra_unit":
        assert kernel is greens._unit_kernel
    else:
        assert kernel.__code__ in _CODES.values()


def test_failing_expression_kernel_names_the_point_at_every_evaluation():
    k = kernel_from_expression("0.5*(t - s)^-1", 1.0)
    for _ in range(3):
        with pytest.raises(GreensError, match=r"^kernel failed at \(t=0\.25, s=0\.25\): "
                                              r"zero raised to negative power \(at position 11\)$"):
            k.evaluate(0.25, 0.25)
        assert k.evaluate(0.75, 0.25) == 0.5 * (0.75 - 0.25) ** -1


def test_kernel_equality_takes_the_expression():
    a, b = kernel_from_expression("t", 1.0), kernel_from_expression("s", 1.0)
    assert a != b and len({a: 1, b: 2}) == 2
    # equal trees, as == reads them: positions are ignored
    c = kernel_from_expression("  t", 1.0)
    assert a == c and hash(a) == hash(c)
    assert a != kernel_from_expression("t", 2.0)
    assert build_volterra_kernel(1.0) == build_volterra_kernel(1.0) != a
    # a long sum compares and hashes without deep recursion
    text = " + ".join("%d.5*t" % i for i in range(1000))
    long_a, long_b = kernel_from_expression(text, 1.0), kernel_from_expression(text, 1.0)
    assert long_a == long_b and hash(long_a) == hash(long_b)
    assert long_a != kernel_from_expression(text + " + s", 1.0)


def test_kernel_spec_validation():
    with pytest.raises(GreensError):
        KernelSpec("fredholm", 1.0)
    with pytest.raises(GreensError):
        KernelSpec("volterra_unit", 0.0)
    with pytest.raises(GreensError):
        KernelSpec("expression", 1.0)


# -- quadrature -------------------------------------------------------------


def test_volterra_apply_exact_on_linear_integrand():
    # trapezoid integrates piecewise-linear integrands exactly: for x(s) = s
    # and identity A the image is t^2/2 at every node
    g = GridFunction.uniform(1.0, 50)
    x = g.with_values(g.nodes.copy())
    out = apply_integral_operator(build_volterra_kernel(1.0), pointwise(lambda u: u), x)
    assert np.allclose(out.values, 0.5 * g.nodes ** 2, atol=1e-15)


def test_expression_kernel_integrates_over_the_whole_interval():
    # G = 1 over [0, 1]: the image of any x is the constant mean of A(x)
    g = GridFunction.uniform(1.0, 40)
    x = g.with_values(g.nodes.copy())
    out = apply_integral_operator(kernel_from_expression("1", 1.0),
                                  pointwise(lambda u: u), x)
    assert np.allclose(out.values, 0.5, atol=1e-15)


def test_quadrature_error_is_second_order():
    # integrating s -> exp(s) up to t = 1: trapezoid error falls by 4x per
    # mesh halving
    k = build_volterra_kernel(1.0)
    errs = []
    for m in (50, 100, 200):
        g = GridFunction.uniform(1.0, m)
        x = g.with_values(np.exp(g.nodes))
        out = apply_integral_operator(k, pointwise(lambda u: u), x)
        errs.append(abs(out.values[-1] - (math.e - 1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def per_entry_quadrature(k, nodes, f, absolute=False):
    """_kernel_quadrature as a double loop storing one numpy entry at a time."""
    n = nodes.size
    gmat = np.empty((n, n))
    for i, t in enumerate(nodes):
        for j, s in enumerate(nodes):
            gmat[i, j] = k.evaluate(float(t), float(s))
    if absolute:
        np.abs(gmat, out=gmat)
    w = np.empty(n)
    dn = np.diff(nodes)
    w[0] = 0.5 * dn[0]
    w[-1] = 0.5 * dn[-1]
    w[1:-1] = 0.5 * (dn[1:] + dn[:-1])
    return gmat @ (w * f)


def recorded(monkeypatch, quadrature, *args):
    """quadrature(*args), and the (t, s) of every KernelSpec.evaluate call it made."""
    calls = []
    evaluate = KernelSpec.evaluate

    def recording(self, t, s):
        calls.append((t, s))
        return evaluate(self, t, s)

    with monkeypatch.context() as patch:
        patch.setattr(KernelSpec, "evaluate", recording)
        return quadrature(*args), calls


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7, 50])
@pytest.mark.parametrize("text", ["0.3*exp(-1.7*(t - s)^2)", "sin(3*t) - cos(2*s)*t"])
def test_kernel_quadrature_equals_per_entry_loop(monkeypatch, text, m, absolute):
    k = kernel_from_expression(text, 1.3)
    nodes = GridFunction.uniform(1.3, m).nodes
    f = np.cos(3.0 * nodes) - 0.4
    got, got_calls = recorded(monkeypatch, _kernel_quadrature, k, nodes, f, absolute)
    want, want_calls = recorded(monkeypatch, per_entry_quadrature, k, nodes, f, absolute)
    assert np.array_equal(got, want)
    # one evaluation per (t, s), row by row, on the same Python floats
    assert got_calls == want_calls and len(got_calls) == (m + 1) ** 2


def test_kernel_quadrature_names_the_first_failing_point():
    # 0.5 - t*s < 0 first at row t = 0.6, after six rows evaluate cleanly
    k = kernel_from_expression("sqrt(0.5 - t*s)", 1.0)
    nodes = GridFunction.uniform(1.0, 10).nodes
    f = np.ones_like(nodes)
    with pytest.raises(GreensError) as got:
        _kernel_quadrature(k, nodes, f)
    with pytest.raises(GreensError) as want:
        per_entry_quadrature(k, nodes, f)
    first = next((t, s) for t in nodes.tolist() for s in nodes.tolist() if 0.5 - t * s < 0.0)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("kernel failed at (t=%r, s=%r): " % first)
    assert first[0] > 0.5


def test_kernel_singularity_is_named_on_every_quadrature():
    # the diagonal t = s fails first at (0, 0); the first quadrature compiles
    # the kernel, the later ones run its code, and each names the point
    k = kernel_from_expression("1/(t - s)", 1.0)
    nodes = GridFunction.uniform(1.0, 4).nodes
    for _ in range(3):
        with pytest.raises(GreensError) as exc:
            _kernel_quadrature(k, nodes, np.ones_like(nodes))
        assert str(exc.value) == ("kernel failed at (t=0.0, s=0.0): "
                                  "division by zero (at position 1)")
    assert k.evaluate(0.75, 0.25) == 1.0 / (0.75 - 0.25)
    with pytest.raises(GreensError, match=r"\(t=0\.5, s=0\.5\): division by zero"):
        k.evaluate(0.5, 0.5)


_FREDHOLM = ('kind: integral\noperator: ["0.5*sin(x1) + 1"]\nx0: [0.0]\n'
             'integral: {kernel: "0.3*exp(-(t - s)^2)", m: 8}\n')


def test_kernel_code_is_bound_at_the_first_evaluation_only(monkeypatch, tmp_path):
    binds = []

    def recording(e, names):
        binds.append(names)
        return bind(e, names)

    bind = greens.bind
    monkeypatch.setattr(greens, "bind", recording)
    src = tmp_path / "p.yaml"
    src.write_text(_FREDHOLM)
    spec = load_problem(str(src)).integral.kernel()
    assert binds == [] and vars(spec)["_kernel"] == spec._first
    out = tmp_path / "o"
    assert main(["run", str(src), "--out", str(out)]) == 0
    assert binds == [("t", "s")]  # one bind for the run's every quadrature
    # certify resolves the kernel and rejects the integral trace; it binds nothing
    assert main(["certify", str(src), "--trace", str(out)]) == 1
    assert binds == [("t", "s")]
    spec.evaluate(0.5, 0.25)
    bound = vars(spec)["_kernel"]
    assert bound.__code__ in _CODES.values()
    spec.evaluate(0.25, 0.5)
    assert binds == [("t", "s")] * 2 and vars(spec)["_kernel"] is bound
    # later evaluations call the bound function itself
    monkeypatch.setitem(vars(spec), "_kernel", lambda t, s: 2.5)
    assert spec.evaluate(0.25, 0.5) == 2.5


def walked_evaluate(self, t, s):
    """KernelSpec.evaluate by the tree walk alone: the reference for the compiled kernel."""
    return _walk(self.expr, {"t": t, "s": s})


@pytest.mark.parametrize("text", ["0.83*exp(-3.7*(t - s)^2)", "sin(3*t) - cos(2*s)*t",
                                  "-0.4*abs(t - s)^0.5"])
def test_compiled_kernel_gives_the_walks_margins(monkeypatch, text):
    k, A, x0 = exp_growth_setup(60)
    trace = run_integral_iteration(k, A, x0, stop=StopRule(max_n=6))
    c = ProblemConstants(M=1.0, M_star=0.0)
    kernel = kernel_from_expression(text, 1.0)
    args = (kernel, c, trace.step_function(2), trace.step_function(3),
            SchemeKind.CONTRACTION, 3)
    # the first binds the kernel, the second reuses its function
    got = [bound_propagate(*args) for _ in range(2)]
    monkeypatch.setattr(KernelSpec, "evaluate", walked_evaluate)
    want = bound_propagate(*args)
    for rep in got:
        assert rep.margins.tobytes() == want.margins.tobytes()
        assert (rep.min_margin, rep.ok) == (want.min_margin, want.ok)


# -- iteration ---------------------------------------------------------------


def exp_growth_setup(m):
    """x = T(x) with (Tx)(t) = int_0^t (1 + x(s)) ds, solution e^t - 1."""
    k = build_volterra_kernel(1.0)
    A = pointwise(lambda u: 1.0 + u)
    return k, A, GridFunction.uniform(1.0, m)


def test_picard_converges_to_discrete_solution():
    k, A, x0 = exp_growth_setup(200)
    trace = run_integral_iteration(k, A, x0,
                                   stop=StopRule(max_n=80, residual_tol=1e-12))
    assert trace.stop_reason == "residual_tol"
    exact = np.exp(x0.nodes) - 1.0
    err = float(np.max(np.abs(trace.grids[-1].values - exact)))
    assert err < 5e-5  # trapezoid is second order: ~h^2 territory at m = 200
    assert trace.residual[-1] <= 1e-12


def test_mesh_refinement_shrinks_the_error_quadratically():
    errs = []
    for m in (100, 200, 400):
        k, A, x0 = exp_growth_setup(m)
        trace = run_integral_iteration(k, A, x0,
                                       stop=StopRule(max_n=80, residual_tol=1e-12))
        exact = np.exp(x0.nodes) - 1.0
        errs.append(float(np.max(np.abs(trace.grids[-1].values - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_non_contraction_guard_catches_flat_steps():
    # G = 1 with A(u) = u + 1 shifts any constant function up by one forever
    k = kernel_from_expression("1", 1.0)
    trace = run_integral_iteration(k, pointwise(lambda u: u + 1.0),
                                   GridFunction.uniform(1.0, 10),
                                   stop=StopRule(max_n=100))
    assert trace.stop_reason == "non_contraction"
    assert all(v == pytest.approx(1.0, rel=1e-12) for v in trace.r)


def test_divergence_guard():
    # squaring outruns the guard radius well before ten flat steps accumulate
    k = kernel_from_expression("1", 1.0)
    trace = run_integral_iteration(k, pointwise(lambda u: u * u),
                                   GridFunction.uniform(1.0, 10, fill=2.0),
                                   stop=StopRule(max_n=100))
    assert trace.stop_reason == "diverged"
    assert trace.steps < 10


def test_grid_kernel_domain_mismatch():
    k = build_volterra_kernel(1.0)
    with pytest.raises(GreensError):
        run_integral_iteration(k, pointwise(lambda u: u), GridFunction.uniform(2.0, 10))


def test_step_function_is_nodewise_difference():
    k, A, x0 = exp_growth_setup(20)
    trace = run_integral_iteration(k, A, x0, stop=StopRule(max_n=5))
    sf = trace.step_function(2)
    want = np.abs(trace.grids[3].values - trace.grids[2].values)
    assert np.array_equal(sf.values, want)
    assert sf.sup_norm() == pytest.approx(trace.r[2], rel=1e-15)


# -- propagated bound ---------------------------------------------------------


def test_bound_propagate_accepts_true_picard_steps():
    # for the contraction scheme with M = 1 (A = 1 + u is 1-Lipschitz) the
    # inequality r_n(t) <= int_0^t [M r_{n-1}](s) ds holds exactly in the
    # continuum; the discrete margins must sit inside the quadrature slack
    k, A, x0 = exp_growth_setup(100)
    trace = run_integral_iteration(k, A, x0, stop=StopRule(max_n=12))
    c = ProblemConstants(M=1.0, M_star=0.0)
    for n in range(1, 6):
        rep = bound_propagate(k, c, trace.step_function(n - 1),
                              trace.step_function(n), SchemeKind.CONTRACTION, n)
        assert rep.ok
        assert rep.min_margin >= -rep.slack
        assert rep.margins.shape == x0.nodes.shape


def test_bound_propagate_rejects_understated_lipschitz():
    k, A, x0 = exp_growth_setup(100)
    trace = run_integral_iteration(k, A, x0, stop=StopRule(max_n=12))
    c = ProblemConstants(M=0.05, M_star=0.0)
    rep = bound_propagate(k, c, trace.step_function(0),
                          trace.step_function(1), SchemeKind.CONTRACTION, 1)
    assert not rep.ok


def test_bound_propagate_validates_grids_and_scheme():
    k, A, x0 = exp_growth_setup(10)
    other = GridFunction.uniform(1.0, 11)
    c = ProblemConstants(M=1.0, M_star=0.0)
    with pytest.raises(GreensError):
        bound_propagate(k, c, x0, other, SchemeKind.CONTRACTION, 1)
    with pytest.raises(GreensError):
        bound_propagate(k, c, x0, x0, SchemeKind.MODIFIED_NEWTON, 1)
