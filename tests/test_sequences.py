import math

import pytest
from hypothesis import given, settings, strategies as st
from oracle import exact_sum

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
    # the term rule of __call__, which values reads too
    g = ScalarSequence.geometric(1.0, 2.0)
    assert g(1024) == math.inf
    assert g.values(1022, 1024) == [2.0 ** 1022, 2.0 ** 1023, math.inf]
    assert ScalarSequence.power(1.0, -400.0).values(5, 6) == [5.0 ** 400, math.inf]
    # a zero coefficient is 0 at every index, past the float range of its ratio too
    assert ScalarSequence.geometric(0.0, 2.0).values(1022, 1025) == [0.0] * 4
    assert ScalarSequence.power(0.0, -400.0).values(5, 6) == [0.0, 0.0]


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
    # every kind the constructors build has a closed form; any other is refused when built
    with pytest.raises(SequenceError, match="unknown sequence kind 'bogus'"):
        ScalarSequence("bogus")


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


# -- the term rule: every reader gets the terms __call__ gives ----------------

_COEFFICIENT = st.just(0.0) | st.floats(0.0, 1e300)
_HUGE = st.floats(0.0, 1e300)
FILE_KINDS = st.one_of(
    st.just(ScalarSequence.zero()),
    st.builds(ScalarSequence.constant, _COEFFICIENT),
    st.builds(ScalarSequence.geometric, _COEFFICIENT, st.sampled_from([1.0, 2.0]) | _HUGE),
    st.builds(ScalarSequence.power, _COEFFICIENT, st.floats(-400.0, 400.0)),
    st.builds(ScalarSequence.from_table, st.lists(_COEFFICIENT, min_size=1, max_size=6)))
_SCALE = st.floats(0.0, 1e300, exclude_min=True)


def combined(bases):
    """bases, and affine and pair sums of them with scale > 0."""
    return bases | st.builds(lambda b, s, o: b.affine(s, o), bases, _SCALE, _COEFFICIENT) \
        | st.builds(ScalarSequence.pair_sum, bases, _SCALE)


def zero_everywhere(seq) -> bool:
    """Whether seq's parameters make every term 0."""
    if seq.kind == "table":
        return not any(seq.entries)
    if seq.kind in ("affine", "pairsum"):
        return seq.offset == 0.0 and zero_everywhere(seq.base)
    return seq.c == 0.0


K = 40


@settings(max_examples=400, deadline=None)
@given(seq=combined(FILE_KINDS), n0=st.integers(0, 1100))
def test_every_reader_gets_the_terms_of_the_term_rule(seq, n0):
    terms = [seq(n) for n in range(n0, n0 + K + 1)]
    assert seq.values(n0, n0 + K) == terms
    assert all(v >= 0.0 for v in terms)
    if zero_everywhere(seq):
        assert terms == [0.0] * (K + 1)
    assert seq.sup_tail(n0) >= max(terms)


# -- tail sums against the exact sum of their terms (tests/oracle.py) --------

CLOSED_TAILS = combined(st.one_of(
    st.just(ScalarSequence.zero()), st.builds(ScalarSequence.constant, _COEFFICIENT),
    st.builds(ScalarSequence.power, _COEFFICIENT, st.floats(-400.0, 400.0))))


@settings(max_examples=400, deadline=None)
@given(seq=CLOSED_TAILS, n0=st.integers(0, 60))
def test_tail_sum_is_at_least_the_exact_sum_of_its_terms(seq, n0):
    tail = seq.tail_sum(n0)
    assert tail == math.inf or exact_sum(seq, n0, n0 + K) <= tail


# tail_sum rounds its closed form to nearest, so for these kinds it can fall
# about an ulp below the exact sum of the very terms it bounds
TAIL_BELOW_EXACT = {
    # 1/(1 - 0.2) rounds to 1.25, 1.7e-17 relative below the exact sum of the doubles
    "geometric": ScalarSequence.geometric(1.0, 0.2),
    # 0.1 + 0.7 rounds to 0.7999999999999999
    "table": ScalarSequence.from_table([0.1, 0.7, 0.0]),
}


@pytest.mark.xfail(strict=True, reason="tail sums are not rounded up")
@pytest.mark.parametrize("case", sorted(TAIL_BELOW_EXACT))
def test_tail_sums_are_at_least_the_exact_sum_of_their_terms(case):
    seq = TAIL_BELOW_EXACT[case]
    assert exact_sum(seq, 0, 200) <= seq.tail_sum(0)
