import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fpcert.core import (BallDomain, CoreError, NormKind, OperatorEvaluationError,
                         OperatorSpec, Vector, gateaux_fd, identity_operator, matrix_norm,
                         matrix_of, norm_of)
from fpcert.schemes import SchemeKind, StepFailure, run_outer


def scalar_op(f, df=None):
    deriv = None
    if df is not None:
        def deriv(x, h):
            return Vector([df(x[0]) * h[0]])
    return OperatorSpec(dim=1, evaluator=lambda x: Vector([f(x[0])]), derivative=deriv)


# -- vectors and norms -------------------------------------------------


def test_vector_rejects_non_finite():
    with pytest.raises(CoreError):
        Vector([1.0, math.nan])
    with pytest.raises(CoreError):
        Vector([math.inf])
    with pytest.raises(CoreError):
        Vector([])


FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from((-0.0, 5e-324, -2.2e-308, sys.float_info.max, -sys.float_info.max)))


@given(coords=st.lists(FINITE, min_size=1, max_size=64), data=st.data())
def test_vector_refuses_exactly_the_non_finite(coords, data):
    arr = np.array(coords)
    v = Vector(arr)
    # a read-only copy with every entry's bits, signed zeros and subnormals too
    assert [x.hex() for x in v.coords.tolist()] == [x.hex() for x in coords]
    assert not v.coords.flags.writeable and not np.shares_memory(v.coords, arr)
    k = data.draw(st.integers(0, len(coords) - 1))
    coords[k] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    with pytest.raises(CoreError) as exc:
        Vector(coords)
    assert str(exc.value) == "vector entries must be finite, got %r" % (np.array(coords),)


def test_vector_is_immutable():
    v = Vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coords[0] = 5.0
    assert not v.coords.flags.writeable
    # the vector keeps its own copy of an ndarray it is built from
    src = np.array([1.0, 2.0])
    w = Vector(src)
    src[0] = 5.0
    assert w.coords.tolist() == [1.0, 2.0]


def test_vector_accepts_lists_tuples_arrays_and_numpy_scalars():
    want = [1.0, -2.5, 0.0]
    for coords in (want, tuple(want), np.array(want), [np.float64(1.0), np.float32(-2.5), 0],
                   np.array([1, -2.5, 0], dtype=np.float32)):
        v = Vector(coords)
        assert v.coords.dtype == np.float64
        assert v.coords.tolist() == want


def test_vector_error_messages():
    with pytest.raises(CoreError, match=r"^vector entries must be finite, got array\(\[ 1., nan\]\)$"):
        Vector([1.0, math.nan])
    with pytest.raises(CoreError, match=r"^vector must be one-dimensional with d >= 1, "
                                        r"got shape \(0,\)$"):
        Vector([])
    with pytest.raises(CoreError, match=r"got shape \(2, 1\)$"):
        Vector([[1.0], [2.0]])


def test_norm_examples():
    v = Vector([3.0, -4.0])
    assert norm_of(v, NormKind.EUCLIDEAN) == 5.0
    assert norm_of(v, NormKind.SUP) == 4.0
    assert norm_of(Vector([0.0, 0.0, 0.0]), NormKind.ONE) == 0.0


def test_norm_axioms_random():
    rng = np.random.default_rng(42)
    for kind in NormKind:
        for _ in range(1000):
            u = Vector(rng.standard_normal(4))
            v = Vector(rng.standard_normal(4))
            a = float(rng.standard_normal())
            nu, nv = norm_of(u, kind), norm_of(v, kind)
            assert nu >= 0.0
            assert norm_of(u + v, kind) <= nu + nv + 1e-12 * (nu + nv)
            assert norm_of(u.scale(a), kind) == pytest.approx(abs(a) * nu, rel=1e-12)
    assert norm_of(Vector([0.0]), NormKind.SUP) == 0.0


def test_norm_parse():
    assert NormKind.parse("sup") is NormKind.SUP
    with pytest.raises(CoreError, match=r"unknown norm 'manhattan-ish' "
                                        r"\(expected sup\|euclidean\|one\)"):
        NormKind.parse("manhattan-ish")


# -- ball domains -------------------------------------------------------


def test_ball_rejects_bad_radius():
    with pytest.raises(CoreError):
        BallDomain(Vector([0.0]), -1.0, NormKind.SUP)


# -- operators and derivatives ------------------------------------------


def test_operator_dim_checks():
    op = identity_operator(2)
    with pytest.raises(CoreError):
        op.apply(Vector([1.0]))
    bad = OperatorSpec(dim=2, evaluator=lambda x: Vector([x[0]]))
    with pytest.raises(CoreError):
        bad.apply(Vector([1.0, 2.0]))


def test_gateaux_fd_square():
    op = scalar_op(lambda t: t * t)
    d = gateaux_fd(op, Vector([2.0]), Vector([1.0]), step=1e-5)
    assert d[0] == pytest.approx(4.0, abs=1e-8)


def test_gateaux_fd_identity_exact():
    op = identity_operator(2)
    d = gateaux_fd(op, Vector([3.0, -1.0]), Vector([1.0, 0.0]), step=0.25)
    assert d[0] == 1.0 and d[1] == 0.0


def test_gateaux_fd_cos():
    op = scalar_op(math.cos)
    d = gateaux_fd(op, Vector([1.0]), Vector([1.0]), step=1e-5)
    assert d[0] == pytest.approx(-math.sin(1.0), abs=1e-8)


def test_gateaux_fd_second_order():
    # halving the step cuts the truncation error by about 4x on exp
    op = scalar_op(math.exp)
    x, h = Vector([0.3]), Vector([1.0])
    exact = math.exp(0.3)
    e1 = abs(gateaux_fd(op, x, h, step=1e-3)[0] - exact)
    e2 = abs(gateaux_fd(op, x, h, step=5e-4)[0] - exact)
    assert 3.5 <= e1 / e2 <= 4.5


def test_derivative_at_prefers_analytic():
    op = scalar_op(lambda t: t * t, df=lambda t: 2.0 * t)
    d = op.derivative_at(Vector([2.0]), Vector([1.0]))
    assert d[0] == 4.0


def test_derivative_of_the_wrong_length_names_the_operator():
    calls = []

    def two_entries(x, h):
        calls.append(h)
        return Vector([h[0], h[0]])

    bad = OperatorSpec(dim=1, evaluator=lambda x: Vector([0.5 * x[0]]),
                       derivative=two_entries, name="bad")
    with pytest.raises(OperatorEvaluationError,
                       match=r"^derivative of operator bad returned dim 2, expected 1$"):
        bad.jacobian(Vector([1.0]))
    assert len(calls) == 1
    with pytest.raises(StepFailure, match=r"^step 1 failed: derivative of operator bad "
                                          r"returned dim 2, expected 1$"):
        run_outer(bad, SchemeKind.NEWTON, Vector([1.0]))


def test_derivative_linearity_when_supplied():
    op = scalar_op(math.sin, df=math.cos)
    x = Vector([0.7])
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.standard_normal(2)
        u, v = Vector([1.0]), Vector([-2.0])
        lhs = op.derivative_at(x, Vector(a * u.coords + b * v.coords))
        rhs = op.derivative_at(x, u).scale(a) + op.derivative_at(x, v).scale(b)
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-12, abs=1e-12)


def test_jacobian_is_matrix_of_derivative_at():
    def f(x):
        return Vector([x[0] * x[1], math.sin(x[0]) + x[1] ** 3])

    def df(x, h):
        return Vector([x[1] * h[0] + x[0] * h[1],
                       math.cos(x[0]) * h[0] + 3.0 * x[1] ** 2 * h[1]])

    x = Vector([0.3, -1.2])
    analytic = OperatorSpec(dim=2, evaluator=f, derivative=df)
    fd = OperatorSpec(dim=2, evaluator=f)
    for op in (analytic, fd):
        want = matrix_of(lambda h: op.derivative_at(x, h), 2)
        assert np.array_equal(op.jacobian(x), want)
    exact = [[-1.2, 0.3], [math.cos(0.3), 3.0 * 1.44]]
    assert np.array_equal(analytic.jacobian(x), np.array(exact))
    assert np.allclose(fd.jacobian(x), exact, atol=1e-8)


# -- matrices and operator norms ----------------------------------------


def test_matrix_of_materializes_columns():
    mat = matrix_of(lambda h: Vector([2 * h[0] + h[1], h[1]]), 2)
    assert np.allclose(mat, [[2.0, 1.0], [0.0, 1.0]])


# the induced norm of a linear map is matrix_norm of the map materialized by matrix_of


def test_operator_norm_identity():
    assert matrix_norm(matrix_of(lambda h: h, 2), NormKind.SUP) == 1.0


def test_operator_norm_diagonal():
    lin = lambda h: Vector([2.0 * h[0], -3.0 * h[1]])
    for kind in NormKind:
        assert matrix_norm(matrix_of(lin, 2), kind) == pytest.approx(3.0, rel=1e-12)


def test_operator_norm_rotation():
    lin = lambda h: Vector([-h[1], h[0]])
    got = matrix_norm(matrix_of(lin, 2), NormKind.EUCLIDEAN)
    oracle = float(np.linalg.norm(np.array([[0.0, -1.0], [1.0, 0.0]]), 2))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_sampling_never_exceeds_exact():
    # every sampled ratio ||M g|| / ||g|| stays below the induced norm
    rng = np.random.default_rng(11)
    for _ in range(20):
        mat = rng.standard_normal((3, 3))
        for kind in NormKind:
            exact = matrix_norm(matrix_of(lambda h: Vector(mat @ h.coords), 3), kind)
            assert exact == matrix_norm(mat, kind)
            for _ in range(50):
                g = Vector(rng.standard_normal(3))
                sampled = norm_of(Vector(mat @ g.coords), kind) / norm_of(g, kind)
                assert sampled <= exact * (1.0 + 1e-12)


def test_matrix_norm_kinds():
    mat = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert matrix_norm(mat, NormKind.SUP) == 3.5          # max row sum
    assert matrix_norm(mat, NormKind.ONE) == 4.0          # max column sum
    assert matrix_norm(mat, NormKind.EUCLIDEAN) == pytest.approx(
        float(np.linalg.norm(mat, 2)), rel=1e-12)
