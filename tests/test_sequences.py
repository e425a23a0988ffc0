import math

import pytest

from fpcert.sequences import ScalarSequence, SequenceError


def brute_tail(seq, n0, terms=4000):
    return sum(seq(n) for n in range(n0, n0 + terms))


def test_zero_and_constant():
    z = ScalarSequence.zero()
    c = ScalarSequence.constant(0.3)
    assert z(0) == 0.0 and z(17) == 0.0
    assert c(0) == 0.3 and c(1000) == 0.3
    assert z.tail_sum(0) == 0.0
    assert math.isinf(c.tail_sum(0))


def test_geometric_values_and_tail():
    g = ScalarSequence.geometric(2.0, 0.5)
    assert g(0) == 2.0
    assert g(3) == 0.25
    # closed form: sum_{n>=n0} 2*0.5^n = 4*0.5^n0
    assert g.tail_sum(0) == pytest.approx(4.0, rel=1e-12)
    assert g.tail_sum(3) == pytest.approx(0.5, rel=1e-12)
    assert g.tail_sum(2) == pytest.approx(brute_tail(g, 2, 200), rel=1e-12)


def test_geometric_ratio_one_or_more_diverges():
    g = ScalarSequence.geometric(1.0, 1.0)
    assert math.isinf(g.tail_sum(0))
    assert g.is_summable() is False


def test_values_read_a_term_past_the_float_range_as_inf():
    g = ScalarSequence.geometric(1.0, 2.0)
    with pytest.raises(OverflowError):
        g(1024)
    assert g.values(1022, 1024) == [2.0 ** 1022, 2.0 ** 1023, math.inf]


def test_power_sequence():
    p = ScalarSequence.power(1.0, 2.0)   # 1/n^2, value at n=0 is c by convention
    assert p(0) == 1.0
    assert p(2) == pytest.approx(0.25)
    assert p.is_summable() is True
    # integral-test closed form is an upper bound, not the exact series sum
    true_tail = brute_tail(p, 1, 400000)
    assert true_tail <= p.tail_sum(1) <= 2.0 * true_tail
    h = ScalarSequence.power(1.0, 1.0)   # harmonic
    assert h.is_summable() is False
    assert math.isinf(h.tail_sum(1))


def test_table_sequence_extends_with_last_entry():
    t = ScalarSequence.from_table([0.5, 0.25, 0.1])
    assert t(1) == 0.25
    assert t(5) == 0.1
    assert math.isinf(t.tail_sum(1))    # nonzero constant extension
    z = ScalarSequence.from_table([0.5, 0.25, 0.0])
    assert z.tail_sum(1) == pytest.approx(0.25, rel=1e-12)
    assert z.is_summable() is True


def test_unknown_kind_cannot_decide_tail():
    # every kind the constructors build has a closed form; anything else refuses
    f = ScalarSequence("bogus")
    for ask in (lambda: f(3), lambda: f.sup_tail(0), lambda: f.tail_sum(0), f.is_summable):
        with pytest.raises(SequenceError, match="bogus"):
            ask()


def test_affine_and_pair_sum():
    g = ScalarSequence.geometric(1.0, 0.5)
    a = g.affine(2.0, 0.1)
    assert a(2) == pytest.approx(2.0 * 0.25 + 0.1)
    s = ScalarSequence.pair_sum(g, 0.5)
    # s(n) = 0.5 * (g(n) + g(n+1))
    assert s(1) == pytest.approx(0.5 * (0.5 + 0.25))
    assert s.tail_sum(0) == pytest.approx(brute_tail(s, 0, 200), rel=1e-12)


def test_sup_tail_upper_bounds_samples():
    cases = [
        ScalarSequence.zero(),
        ScalarSequence.constant(0.7),
        ScalarSequence.geometric(2.0, 0.3),
        ScalarSequence.power(1.0, 1.5),
        ScalarSequence.from_table([0.5, 0.9, 0.2, 0.1]),
        ScalarSequence.pair_sum(ScalarSequence.geometric(1.0, 0.5), 1.0),
        ScalarSequence.geometric(1.0, 0.5).affine(2.0, 0.05),
    ]
    for seq in cases:
        for n0 in (0, 1, 3, 10):
            cap = seq.sup_tail(n0)
            worst = max(seq(n) for n in range(n0, n0 + 300))
            assert worst <= cap + 1e-12 * (1.0 + abs(cap)), seq.kind


def test_sup_tail_growing_geometric_is_infinite():
    g = ScalarSequence.geometric(1.0, 1.5)
    assert math.isinf(g.sup_tail(0))


def test_negative_parameters_rejected():
    with pytest.raises(SequenceError):
        ScalarSequence.constant(-0.1)
    with pytest.raises(SequenceError):
        ScalarSequence.geometric(1.0, -0.5)
    with pytest.raises(SequenceError):
        ScalarSequence.from_table([0.1, -0.2])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_rejected(bad):
    for build in (lambda: ScalarSequence.constant(bad),
                  lambda: ScalarSequence.geometric(bad, 0.5),
                  lambda: ScalarSequence.geometric(1.0, bad),
                  lambda: ScalarSequence.power(bad, 2.0),
                  lambda: ScalarSequence.power(1.0, bad),
                  lambda: ScalarSequence.from_table([0.1, bad])):
        with pytest.raises(SequenceError):
            build()

