import dataclasses
import itertools
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from oracle import exact_recurrence

from fpcert import majorant
from fpcert.majorant import (Certificate, MajorantError, MajorantParams,
                             NoValidMajorantError, PreconditionError,
                             ProblemConstants, RecurrenceOverflowError,
                             audit_step_inequalities, certify, cert_bounded,
                             cert_geometric, cert_quadratic, cert_sandwich,
                             cert_uniform_max, majorant_from_constants,
                             precheck, recurrence_step, search_witnesses,
                             simulate_capped, simulate_recurrence, tail_bound)
from fpcert.schemes import SchemeKind
from fpcert.problems import sequence_from_config
from fpcert.sequences import ScalarSequence


def params(eta=0.0, lam=0.5, rho=0.0, r0=1.0):
    mk = lambda v: v if isinstance(v, ScalarSequence) else ScalarSequence.constant(v)
    return MajorantParams(eta=eta, lam=mk(lam), rho=mk(rho), r0=r0)


def own_sim(p, N):
    """Reference simulation written out longhand."""
    vals = [p.r0]
    for n in range(1, N + 1):
        vals.append(p.eta * vals[-1] ** 2 + p.lam(n - 1) * vals[-1] + p.rho(n - 1))
    return vals


# -- recurrence ----------------------------------------------------------


def test_simulate_exact_geometric():
    p = params()
    sim = simulate_recurrence(p, 20)
    for n, v in enumerate(sim):
        assert v == 2.0 ** (-n)


def test_simulate_matches_reference_with_all_terms():
    p = params(eta=0.3, lam=ScalarSequence.geometric(0.4, 0.5),
               rho=ScalarSequence.power(0.01, 2.0), r0=0.2)
    assert simulate_recurrence(p, 30) == own_sim(p, 30)


def test_recurrence_overflow():
    p = params(eta=1.0, lam=0.0, rho=0.0, r0=2.0)
    with pytest.raises(RecurrenceOverflowError) as exc:
        simulate_recurrence(p, 50)
    assert exc.value.index >= 1
    vals, first_bad = simulate_capped(p, 50)
    assert len(vals) == 51
    assert first_bad == exc.value.index
    assert vals[-1] == math.inf
    assert exc.value.partial == vals[:first_bad]
    vals[0] = -1.0     # each call hands out its own list
    assert simulate_capped(p, 50)[0][0] == 2.0


def test_budget_past_the_float_range_is_a_recurrence_overflow():
    # rho_n = 2^n + 2^(n+1) leaves the float range at n = 1023, inside the lam
    # and rho a horizon of 1100 reads; the recurrence escapes the cap first
    p = params(lam=0.5, rho=ScalarSequence.pair_sum(ScalarSequence.geometric(1.0, 2.0), 1.0),
               r0=0.0)
    with pytest.raises(RecurrenceOverflowError) as exc:
        simulate_recurrence(p, 1100)
    assert exc.value.index == 996
    vals, first_bad = simulate_capped(p, 1100)
    assert first_bad == 996 and vals[996:] == [math.inf] * 105
    assert exc.value.partial == vals[:996]
    assert cert_bounded(p, 1100).valid is False


def test_a_horizon_evaluates_each_sequence_once_per_index():
    calls = []

    class Counting(ScalarSequence):
        def __call__(self, n):
            calls.append((self.kind, n))
            return super().__call__(n)

    def fresh():
        return MajorantParams(eta=0.1, lam=Counting("constant", c=0.5),
                              rho=Counting("geometric", c=0.1, ratio=0.5), r0=1.0)

    # indices 0..N of lam and of rho, once each: 2·(20+1) = 42 calls
    once = sorted((kind, n) for kind in ("constant", "geometric") for n in range(21))
    certify(fresh(), "bounded", 20)
    assert sorted(calls) == once
    calls.clear()
    p = fresh()
    sim = simulate_recurrence(p, 20)
    certify(p, "bounded", 20)      # reads the horizon the simulation built
    assert sorted(calls) == once
    assert sim == own_sim(p, 20)


# -- the horizon contract: a horizon-N certificate reads lambda, rho at 0..N ----


def outcome(p, regime, N):
    """repr of what certify reports (exact floats, NaN equal to NaN)."""
    cert = certify(p, regime, N)
    return repr((cert.valid, cert.premises_ok, cert.bounds_ok, cert.witnesses, cert.detail))


LAM_ENTRY = st.floats(0.0, 0.95)
RHO_ENTRY = st.floats(0.0, 0.1)
PAST_ENTRY = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), N=st.integers(0, 6), eta=st.just(0.0) | st.floats(0.0, 2.0),
       r0=st.floats(0.0, 0.2) | st.floats(0.0, 2.0))
def test_no_certificate_reads_past_the_horizon(data, N, eta, r0):
    lam = data.draw(st.lists(LAM_ENTRY, min_size=N + 1, max_size=N + 1))
    rho = data.draw(st.lists(RHO_ENTRY, min_size=N + 1, max_size=N + 1))
    past = [data.draw(st.lists(PAST_ENTRY, min_size=2, max_size=2)) for _ in range(2)]

    def with_past(i):
        # index N+1 onwards, as a table repeats its last entry
        return MajorantParams(eta, ScalarSequence.from_table(lam + [past[i][0]]),
                              ScalarSequence.from_table(rho + [past[i][1]]), r0)

    for regime in majorant.REGIMES:
        assert outcome(with_past(0), regime, N) == outcome(with_past(1), regime, N)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), N=st.integers(1, 8), eta=st.just(0.0) | st.floats(0.0, 0.5),
       r0=st.floats(0.0, 0.1))
def test_sandwich_search_finds_the_least_witnesses(data, N, eta, r0):
    lam = data.draw(st.lists(st.floats(0.0, 0.9), min_size=N + 2, max_size=N + 2))
    rho = data.draw(st.lists(st.floats(1e-6, 0.1), min_size=N + 2, max_size=N + 2))
    p = MajorantParams(eta, ScalarSequence.from_table(lam), ScalarSequence.from_table(rho), r0)
    # the least C1 and C2 the ratio premises of k = 0..N-1 admit
    C1 = max(lam[k + 1] * rho[k] / rho[k + 1] for k in range(N)) * (1.0 + 1e-9)
    C2 = max(rho[k] * rho[k] / rho[k + 1] for k in range(N)) * (1.0 + 1e-9)
    if cert_sandwich(p, N, C1, C2).valid:
        assert certify(p, "sandwich", N).valid


def test_sandwich_search_tries_a_least_C1_near_one():
    # the least C1 is 0.9999995 (1 + 1e-9): a grid that capped it at 0.999999
    # failed the lambda_1 ratio premise with every C1 it tried
    p = MajorantParams(0.0, ScalarSequence.from_table([0.5, 0.9999995]),
                       ScalarSequence.constant(0.1), 0.01)
    assert certify(p, "sandwich", 1).valid


def test_geometric_search_ignores_lambda_past_the_horizon():
    p = MajorantParams(0.0, ScalarSequence.from_table([0.5] * 11 + [0.0]),
                       ScalarSequence.zero(), 10.0)
    assert certify(p, "geometric", 10).valid


@pytest.mark.parametrize("regime", sorted(majorant.REGIMES))
def test_every_regime_checks_a_horizon_of_zero(regime):
    # no certificate reads r_1's bound at N = 0: the geometric anchor raised IndexError
    for p in (params(), params(eta=0.1, rho=0.01, r0=0.1)):
        cert = certify(p, regime, 0)
        assert cert.checked_horizon == 0 and len(cert.upper) == 1


@pytest.mark.parametrize("regime", sorted(majorant.REGIMES))
def test_a_negative_horizon_is_a_precondition_error(regime):
    with pytest.raises(PreconditionError, match="horizon"):
        certify(params(rho=0.1), regime, -1)
    with pytest.raises(PreconditionError, match="horizon"):
        simulate_capped(params(rho=0.1), -1)


def test_recurrence_step_rejects_negative():
    with pytest.raises(PreconditionError):
        recurrence_step(-1.0, 0.0, 0.5, 0.0)


# -- constants to coefficients --------------------------------------------


def test_contraction_coefficients():
    eps = ScalarSequence.geometric(1e-3, 0.5)
    c = ProblemConstants(M=0.4, M_star=0.2, eps_seq=eps)
    p = majorant_from_constants(c, SchemeKind.CONTRACTION, r0=0.7)
    assert p.eta == 0.0
    assert p.r0 == 0.7
    q = (0.4 + 0.2) / 0.8
    for n in range(10):
        assert p.lam(n) == pytest.approx(q, rel=1e-15)
        assert p.rho(n) == pytest.approx((eps(n) + eps(n + 1)) / 0.8, rel=1e-15)


def test_newton_coefficients():
    sig = ScalarSequence.constant(0.02)
    c = ProblemConstants(M=0.3, M_star=0.1, K=1.5, K_star=0.5, sigma_seq=sig)
    p = majorant_from_constants(c, SchemeKind.NEWTON, r0=0.1)
    assert p.eta == pytest.approx(0.5 * 2.0 / 0.9, rel=1e-15)
    assert p.lam(3) == pytest.approx(0.02 / 0.9, rel=1e-15)


def test_modified_newton_exact_data_collapses_to_newton_lambda_zero():
    c = ProblemConstants(M=0.3, M_star=0.1, K=1.5, K_star=0.5)
    p = majorant_from_constants(c, SchemeKind.MODIFIED_NEWTON, r0=0.1)
    assert p.eta == pytest.approx(0.5 * 2.0 / 0.9, rel=1e-15)
    for n in range(5):
        assert p.lam(n) == 0.0


def test_modified_newton_lambda_carries_distance_cap():
    # with constant eps the distance-from-start recurrence has the constant
    # inhomogeneity (eps_n + eps)/(1 - M_star); its uniform cap is the lower
    # root of eta z^2 - z + rho_bar, which feeds the step-lambda
    eps_val, eps0 = 1e-4, 2e-4
    c = ProblemConstants(M=0.3, M_star=0.1, K=1.5, K_star=0.5, eps=eps0,
                         eps_seq=ScalarSequence.constant(eps_val),
                         gamma_seq=ScalarSequence.constant(0.01))
    p = majorant_from_constants(c, SchemeKind.MODIFIED_NEWTON, r0=0.1)
    denom = 0.9
    eta = 0.5 * 2.0 / denom
    lam_t = 0.01 / denom
    rho_bar = (eps_val + eps0) / denom
    disc = (1.0 - lam_t) ** 2 - 4.0 * eta * rho_bar
    cap = 2.0 * rho_bar / ((1.0 - lam_t) + math.sqrt(disc))
    want = (0.01 + 2.0 * cap) / denom
    assert p.lam(7) == pytest.approx(want, rel=1e-12)


def test_m_star_at_least_one_is_rejected():
    c = ProblemConstants(M=0.5, M_star=1.0)
    with pytest.raises(PreconditionError):
        majorant_from_constants(c, SchemeKind.CONTRACTION, r0=1.0)


def test_q_property():
    assert ProblemConstants(M=0.4, M_star=0.2).q == pytest.approx(0.75)
    with pytest.raises(PreconditionError):
        _ = ProblemConstants(M=0.4, M_star=1.5).q


# -- bounded -------------------------------------------------------------


def test_bounded_valid_with_root_oracle():
    p = params(eta=1.0, lam=0.1, rho=0.01, r0=0.05)
    cert = cert_bounded(p, 40)
    assert cert.valid and cert.premises_ok and cert.bounds_ok
    lower_root = 2.0 * 0.01 / (0.9 + math.sqrt(0.81 - 0.04))
    upper_root = (0.9 + math.sqrt(0.81 - 0.04)) / 2.0
    C = cert.witnesses["C"]
    assert C == max(0.05, lower_root)
    assert C <= upper_root
    sim = own_sim(p, 40)
    assert all(v <= C for v in sim)
    assert cert.upper == [C] * 41
    assert cert.min_margin == pytest.approx(min(min(C - v for v in sim),
                                                min(sim)), rel=1e-12)


def test_bounded_rejects_escape():
    cert = cert_bounded(params(eta=1.0, lam=0.0, rho=0.0, r0=2.0), 30)
    assert not cert.valid and not cert.premises_ok
    assert any("no admissible C" in d for d in cert.detail)


def test_bounded_rejects_nonpositive_discriminant():
    cert = cert_bounded(params(eta=1.0, lam=0.0, rho=0.3, r0=0.1), 30)
    assert not cert.valid
    assert any("discriminant" in d for d in cert.detail)


def test_bounded_rejects_lambda_at_least_one():
    cert = cert_bounded(params(lam=1.0, rho=0.0, r0=1.0), 10)
    assert not cert.valid
    assert any("sup lambda" in d for d in cert.detail)


# -- uniform max ----------------------------------------------------------


def test_uniform_max_linear_case():
    p = params(eta=0.0, lam=0.5, rho=ScalarSequence.geometric(0.1, 0.5), r0=0.0)
    cert = cert_uniform_max(p, 60)
    assert cert.valid
    assert cert.witnesses["max_bound"] == pytest.approx(0.2)
    sim = own_sim(p, 60)
    assert all(v <= 0.2 + 1e-15 for v in sim)


def test_uniform_max_needs_monotone_coefficients():
    growing = ScalarSequence.from_table([0.1, 0.2, 0.3])
    cert = cert_uniform_max(params(lam=growing, rho=0.0, r0=0.5), 10)
    assert not cert.valid
    assert any("not nonincreasing" in d for d in cert.detail)


def test_uniform_max_detects_escape_honestly():
    # r0 above the upper root: the recurrence genuinely blows up
    p = params(eta=1.0, lam=0.0, rho=0.1, r0=1.5)
    up0 = (1.0 + math.sqrt(1.0 - 0.4)) / 2.0
    assert p.r0 > up0
    cert = cert_uniform_max(p, 30)
    assert not cert.valid
    assert any("escapes" in d for d in cert.detail)
    vals, first_bad = simulate_capped(p, 30)
    assert first_bad is not None


# -- sandwich -------------------------------------------------------------


def sandwich_params():
    return params(eta=0.1, lam=ScalarSequence.geometric(0.2, 0.5),
                  rho=ScalarSequence.geometric(0.1, 0.5), r0=0.5)


def test_sandwich_valid_with_hand_witnesses():
    p = sandwich_params()
    cert = cert_sandwich(p, 40, C1=0.5, C2=0.25)
    assert cert.valid
    c_rho = (0.5 + math.sqrt(0.25 - 4.0 * 0.1 * 0.25)) / (2.0 * 0.1 * 0.25)
    assert cert.witnesses["C_rho"] == pytest.approx(c_rho, rel=1e-15)
    sim = own_sim(p, 40)
    for j in range(1, 41):
        rho_prev = 0.1 * 0.5 ** (j - 1)
        assert cert.lower[j] == rho_prev
        assert cert.upper[j] == pytest.approx(c_rho * rho_prev, rel=1e-15)
        assert rho_prev <= sim[j] <= c_rho * rho_prev * (1 + 1e-12)


def test_sandwich_search_finds_witnesses():
    cert = certify(sandwich_params(), "sandwich", 40)
    assert cert.valid
    assert 0.0 <= cert.witnesses["C1"] < 1.0


def test_sandwich_needs_positive_rho():
    cert = cert_sandwich(params(rho=0.0), 10, 0.5, 0.1)
    assert not cert.valid
    assert any("positive" in d for d in cert.detail)


def test_sandwich_rejects_bad_window():
    p = sandwich_params()
    cert = cert_sandwich(p, 20, C1=0.999, C2=1e6)
    assert not cert.valid


# -- geometric ------------------------------------------------------------


def test_geometric_exact_decay_is_tight():
    p = params()  # eta 0, lambda 1/2, rho 0, r0 1
    cert = cert_geometric(p, 30, chi=0.0, mu=0.0, lambda0_tilde=1.0, C_mu=1.0)
    assert cert.valid
    for j in range(31):
        assert cert.lower[j] == 2.0 ** (-j)
        assert cert.upper[j] == 2.0 ** (-j)
    assert cert.min_margin == 0.0


def test_geometric_search_handles_exact_decay():
    cert = certify(params(), "geometric", 30)
    assert cert.valid


def test_geometric_with_noise_floors():
    p = params(lam=0.5, rho=ScalarSequence.geometric(1e-3, 0.25), r0=1.0)
    cert = certify(p, "geometric", 25)
    assert cert.valid
    sim = own_sim(p, 25)
    for j in range(1, 26):
        assert cert.lower[j] <= sim[j] * (1 + 1e-12)
        assert sim[j] <= cert.upper[j] * (1 + 1e-12)


def test_geometric_rejects_lambda_with_zero():
    p = params(lam=ScalarSequence.from_table([0.5, 0.0]), r0=1.0)
    cert = cert_geometric(p, 10, 0.0, 0.0, 1.0, 1.0)
    assert not cert.valid
    assert any("positive" in d for d in cert.detail)


def test_geometric_mu_window_depends_on_sup_lambda():
    cert = cert_geometric(params(), 10, chi=0.5, mu=1.5, lambda0_tilde=1.0, C_mu=1.0)
    assert not cert.valid  # mu must stay within 1/sup(lambda) - 1 = 1


# -- quadratic ------------------------------------------------------------


def test_quadratic_pure_newton_square():
    p = params(eta=1.0, lam=0.0, rho=0.0, r0=0.5)
    cert = cert_quadratic(p, 6, chi=0.5, mu=0.0)
    assert cert.valid
    for j in range(7):
        want = 0.5 ** (2 ** j)
        assert cert.lower[j] == want
        assert cert.upper[j] == want
    sim = own_sim(p, 6)
    assert sim == cert.lower


def test_quadratic_with_budgeted_perturbations():
    # the perturbations must stay well inside the budgets: the inflated bound
    # (1+mu)^n grows geometrically while the slack compounds by squaring
    theta, chi, mu = 0.5, 0.5, 0.5
    lam_tab = [0.01 * chi * mu * theta ** (2 ** k) for k in range(6)] + [0.0]
    rho_tab = [0.01 * (1 - chi) * mu * theta ** (2 ** (k + 1)) for k in range(6)] + [0.0]
    p = params(eta=1.0, lam=ScalarSequence.from_table(lam_tab),
               rho=ScalarSequence.from_table(rho_tab), r0=0.5)
    cert = cert_quadratic(p, 8, chi=chi, mu=mu)
    assert cert.valid
    sim = own_sim(p, 8)
    for j in range(9):
        assert cert.lower[j] <= sim[j] * (1 + 1e-12)
        assert sim[j] <= cert.upper[j] * (1 + 1e-12)


def test_quadratic_needs_eta_positive_and_contractive_start():
    c1 = cert_quadratic(params(eta=0.0, r0=0.5), 5, 0.5, 0.0)
    assert not c1.valid and any("eta > 0" in d for d in c1.detail)
    c2 = cert_quadratic(params(eta=1.0, lam=0.0, rho=0.0, r0=1.5), 5, 0.5, 0.0)
    assert not c2.valid and any("eta*r0 < 1" in d for d in c2.detail)


def test_overflowing_inflation_is_an_invalid_certificate():
    # tiny lambda lets the geometric grid try mu near 1e70: (1+mu)^5 overflows
    p = MajorantParams(0.0, ScalarSequence.constant(1e-70), ScalarSequence.zero(), 0.0)
    cert = cert_geometric(p, 5, 0.5, 1e70, 1.0, 1.0)
    assert not cert.valid and not cert.premises_ok
    assert any("overflows at n = 5" in d for d in cert.detail)
    # witness search skips the overflowing candidates and still finds the exact one
    found = certify(p, "geometric", 5)
    assert found.valid and found.witnesses["mu"] == 0.0
    # quadratic: (1+mu)^n with mu = 1 overflows once n reaches 1024
    q = params(eta=1.0, lam=0.0, rho=0.0, r0=0.5)
    cert = certify(q, "quadratic", 1100, {"chi": 0.5, "mu": 1.0})
    assert not cert.valid and any("overflows at n = 1024" in d for d in cert.detail)
    assert certify(q, "quadratic", 1100).valid


# -- dispatcher and search -------------------------------------------------


def test_certify_unknown_regime():
    with pytest.raises(MajorantError):
        certify(params(), "cubic", 10)


def test_certify_missing_witness_key():
    with pytest.raises(MajorantError):
        certify(params(), "sandwich", 10, witnesses={"C1": 0.5})


def test_certify_reports_failure_when_search_comes_up_empty():
    # lambda above 1: nothing can certify, but we still get a report back
    cert = certify(params(lam=1.2), "geometric", 10)
    assert isinstance(cert, Certificate)
    assert not cert.valid
    assert cert.detail


def test_search_witnesses_none_when_impossible():
    assert search_witnesses(params(lam=1.2), "bounded", 10) is None


# -- witness-search screens ---------------------------------------------------
# search_witnesses skips the grid candidates its regime's screen drops; the
# reference loop below runs every candidate, as the search did before screens.

SEARCHED = ("sandwich", "geometric", "quadratic")


def unscreened_search(p, regime, N, grid=16):
    for witnesses in majorant.REGIMES[regime].grid(p, N, grid):
        cert = majorant._run(regime, p, N, witnesses)
        if cert.valid:
            return cert
    return None


def search_outcome(search, p, regime, N):
    """Each field's repr of the certificate found, None, or the error raised."""
    try:
        cert = search(p, regime, N)
    except (ArithmeticError, MajorantError) as exc:
        return repr(exc)
    return cert and [repr(getattr(cert, f.name)) for f in dataclasses.fields(Certificate)]


NEAR_SLACK = st.floats(1e-310, 1e-290)
UNIT = st.floats(0.0, 1.0)


@st.composite
def screened_params(draw):
    """Majorant shapes that put the screens' premises near their edges."""
    shape = draw(st.sampled_from(["newton-dense", "eta-zero", "tiny-lambda", "near-1e-300",
                                  "table"]))
    eta = draw(st.just(0.0) | st.floats(0.0, 2.0))
    r0 = draw(st.floats(0.0, 3.0))
    if shape == "newton-dense":
        # lambda = 0 and a halving rho: theta^(2^n) underflows long before rho does
        lam = ScalarSequence.zero()
        rho = ScalarSequence.pair_sum(ScalarSequence.geometric(draw(st.floats(1e-6, 0.1)), 0.5),
                                      draw(st.floats(1.0, 2.0)))
        eta = draw(st.floats(1e-3, 2.0))
    elif shape == "eta-zero":
        eta = 0.0
        lam = ScalarSequence.geometric(draw(st.floats(0.0, 0.99)), draw(UNIT))
        rho = ScalarSequence.geometric(draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 2.0)))
    elif shape == "tiny-lambda":
        # products of lambda underflow within a few indices
        lam = ScalarSequence.geometric(draw(st.floats(1e-250, 1e-5)), draw(UNIT))
        rho = ScalarSequence.geometric(draw(st.floats(0.0, 0.1)), draw(UNIT))
    elif shape == "near-1e-300":
        lam = ScalarSequence.constant(draw(st.floats(0.0, 0.99) | NEAR_SLACK))
        rho = ScalarSequence.geometric(draw(NEAR_SLACK), draw(st.floats(0.0, 2.0)))
        r0 = draw(NEAR_SLACK | st.floats(0.0, 3.0))
        eta = draw(st.just(0.0) | NEAR_SLACK | st.floats(0.0, 2.0))
    else:
        lam = ScalarSequence.from_table(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                                      max_size=8)))
        rho = ScalarSequence.from_table(draw(st.lists(st.floats(0.0, 0.1), min_size=1,
                                                      max_size=8)))
    return MajorantParams(eta, lam, rho, r0)


@settings(max_examples=150, deadline=None)
@given(p=screened_params(), N=st.integers(0, 60))
def test_screened_search_finds_what_the_unscreened_grid_finds(p, N):
    for regime in SEARCHED:
        assert search_outcome(search_witnesses, p, regime, N) == \
            search_outcome(unscreened_search, p, regime, N)


@settings(max_examples=150, deadline=None)
@given(p=screened_params(), N=st.integers(0, 60))
def test_every_candidate_a_screen_drops_fails_its_certificate(p, N):
    for regime in SEARCHED:
        spec = majorant.REGIMES[regime]
        keep = spec.screen(p, N)
        for witnesses in spec.grid(p, N, 16):
            if keep is None or not keep(witnesses):
                assert not majorant._run(regime, p, N, witnesses).valid, (regime, witnesses)


# the majorant of newton-dense instance 0 (seed 1): M = M_star = K = K_star = 0.3,
# newton, eps_n = 1e-3 * 0.5^n; and that of noisy-certify instance 0
NEWTON_DENSE = majorant_from_constants(
    ProblemConstants(0.3, 0.3, 0.3, 0.3, eps_seq=ScalarSequence.geometric(1e-3, 0.5)),
    SchemeKind.NEWTON, r0=1.0196881747876978)
NOISY = params(0.0, 0.5, 0.02, 1.01)


def count_cert_calls(monkeypatch):
    """Count the calls of each cert_<regime> that _run looks up."""
    calls = dict.fromkeys(SEARCHED, 0)
    for regime in SEARCHED:
        real = getattr(majorant, "cert_" + regime)

        def counted(*args, _real=real, _regime=regime):
            calls[_regime] += 1
            return _real(*args)
        monkeypatch.setattr(majorant, "cert_" + regime, counted)
    return calls


def grid_size(p, regime, N):
    return sum(1 for _ in majorant.REGIMES[regime].grid(p, N, 16))


def test_newton_dense_quadratic_search_runs_no_candidate(monkeypatch):
    # theta^(2^n) underflows to 0 while rho_n > 0, so every candidate fails
    # the rho budget; certify runs only the fallback
    assert grid_size(NEWTON_DENSE, "quadratic", 200) == 257
    calls = count_cert_calls(monkeypatch)
    cert = certify(NEWTON_DENSE, "quadratic", 200)
    assert not cert.valid and cert.detail == ["rho budget fails at index 0"]
    assert calls == {"sandwich": 0, "geometric": 0, "quadratic": 1}


@pytest.mark.parametrize("N", [500, 1000])
def test_noisy_searches_run_no_candidate(monkeypatch, N):
    # eta = 0 rules out quadratic; every sandwich candidate fails the lambda
    # ratio or the start window, every geometric one the published rho premise
    assert [grid_size(NOISY, r, N) for r in SEARCHED] == [272, 960, 257]
    calls = count_cert_calls(monkeypatch)
    for regime in SEARCHED:
        assert not certify(NOISY, regime, N).valid
    assert calls == dict.fromkeys(SEARCHED, 1)


def test_the_grid_misses_a_valid_sandwich_witness():
    # the start window needs C_rho >= r_1/rho_0 = 26.25, that is C1 >= 0.9619
    assert cert_sandwich(NOISY, 500, 0.97, majorant._needed_c2(NOISY, 500)).valid


@pytest.mark.xfail(strict=True, reason="the sandwich grid stops at C1 = 15/16")
def test_sandwich_search_finds_the_witness_the_grid_misses():
    assert certify(NOISY, "sandwich", 500).valid


# -- asserted bounds against the exact recurrence ----------------------------
# tests/oracle.py recomputes the recurrence of a certificate's declared doubles
# at 50 digits; a valid certificate's bounds must hold for that value itself.


def test_geometric_lower_bound_is_below_the_exact_recurrence():
    p = params(0.0, 0.3, 0.0, 1.0)
    cert = certify(p, "geometric", 3)
    # r0 prod lambda rounds to 0.09, above the exact r_2 = 0.3^2 ~ 0.0899999999999999933
    assert cert.valid and cert.lower[2] < 0.09
    assert all(mpmath.mpf(lo) <= r for lo, r in zip(cert.lower, exact_recurrence(p, 3)))


def test_quadratic_lower_bound_is_below_the_exact_recurrence():
    p = params(0.5, 0.0, 0.0, 0.3)
    cert = certify(p, "quadratic", 4)
    # eta r0^2 rounds to 0.045, above the exact r_1 ~ 0.0449999999999999967
    assert cert.valid and cert.lower[1] < 0.045
    assert all(mpmath.mpf(lo) <= r for lo, r in zip(cert.lower, exact_recurrence(p, 4)))


_UNIT = st.floats(0.0, 1.0)
COEFFICIENTS = st.one_of(
    st.just(ScalarSequence.zero()), st.builds(ScalarSequence.constant, _UNIT),
    st.builds(ScalarSequence.geometric, _UNIT, _UNIT),
    st.builds(ScalarSequence.from_table, st.lists(_UNIT, min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(eta=st.just(0.0) | st.floats(0.01, 2.0), lam=COEFFICIENTS, rho=COEFFICIENTS,
       r0=_UNIT, N=st.integers(1, 40))
def test_valid_lower_bounds_are_below_the_exact_recurrence(eta, lam, rho, r0, N):
    p = MajorantParams(eta=eta, lam=lam, rho=rho, r0=r0)
    exact = None
    for regime in majorant.REGIMES:
        cert = certify(p, regime, N)
        if cert.valid:
            exact = exact or exact_recurrence(p, N)
            for j, (lo, r) in enumerate(zip(cert.lower, exact)):
                assert not mpmath.mpf(lo) > r, (regime, j, lo)


# The upper bounds are rounded to nearest and compared with the blanket slack
# of _le, so a valid certificate can still assert an upper bound below the
# exact recurrence; each reproducer is the smallest case found of one regime.
UPPER_BELOW_EXACT = {
    # C is the rounded lower root; the exact r_6..r_10 exceed it by about 2e-17
    "bounded": (params(0.5, 0.0, 0.002, 0.0), "bounded", 10),
    # the cap rho/(1-lambda) rounds to 0.5; the exact r_n pass it from n = 24 on
    "uniform_max": (params(0.0, 0.2, 0.4, 0.0), "uniform_max", 30),
    # theta^(2^11) underflows to 0, where the exact r_11 is about 1.5e-617
    "quadratic-underflow": (params(2.0, 0.0, 0.0, 0.25), "quadratic", 12),
    # the rounded (1+mu)^j prod lambda falls below the exact r_j from j = 108 on
    "geometric": (params(0.0, 0.001, 0.0, 1.0), "geometric", 120),
}


@pytest.mark.xfail(strict=True, reason="upper bounds are not rounded up")
@pytest.mark.parametrize("case", sorted(UPPER_BELOW_EXACT))
def test_valid_upper_bounds_are_above_the_exact_recurrence(case):
    p, regime, N = UPPER_BELOW_EXACT[case]
    cert = certify(p, regime, N)
    assert cert.valid
    assert all(mpmath.mpf(up) >= r for up, r in zip(cert.upper, exact_recurrence(p, N)))


# -- detail text ------------------------------------------------------------
# Certificate calls that between them reach every detail line majorant writes
# (premise failures, notes and closings), with the outcome each gave before
# the regimes shared one premise log; a refactor keeps every one.

GEO, RHO_GEO = ScalarSequence.geometric, ScalarSequence.geometric(0.1, 0.5)
STEP = ScalarSequence.from_table([0.5, 0.5, 0.5, 0.001])
# lambda_3 < 0, past the constructor's check and beyond what a 3-step simulation reads
NEG_LAM = ScalarSequence("table", entries=(0.5, 0.5, 0.5, -0.1))

DETAIL_CASES = {
    "bounded-held": lambda: cert_bounded(params(lam=0.5, rho=0.1, r0=0.1), 10),
    "bounded-negative-lambda": lambda: cert_bounded(params(lam=NEG_LAM), 3),
    "bounded-sup-lambda": lambda: cert_bounded(params(lam=1.2), 10),
    "bounded-discriminant": lambda: cert_bounded(params(eta=1.0, rho=1.0), 10),
    "bounded-no-cap": lambda: cert_bounded(params(eta=1.0, lam=0.0, rho=0.1, r0=2.0), 10),
    "uniform-max-lambda-rises": lambda: cert_uniform_max(params(lam=GEO(0.1, 1.1)), 5),
    "uniform-max-rho-rises": lambda: cert_uniform_max(params(rho=GEO(0.01, 2.0)), 5),
    "uniform-max-discriminant": lambda: cert_uniform_max(params(eta=1.0, rho=1.0), 10),
    "uniform-max-limit-root": lambda: cert_uniform_max(params(rho=0.1, r0=0.1), 10),
    "uniform-max-escapes": lambda: cert_uniform_max(
        params(eta=1.0, lam=0.0, rho=0.1, r0=2.0), 10),
    "uniform-max-eta": lambda: cert_uniform_max(params(eta=0.1, rho=0.01, r0=0.1), 10),
    "sandwich-C1-range": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10, 1.5, 0.25),
    "sandwich-C2-range": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10, 0.5, -1.0),
    "sandwich-C2-infinite": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10,
                                                  0.5, math.inf),
    "sandwich-rho-zero": lambda: cert_sandwich(params(0.0, 0.2, 0.0, 0.1), 10, 0.5, 0.25),
    "sandwich-limit-root": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10, 0.5, 0.25),
    "sandwich-lambda-ratio": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10,
                                                   0.1, 0.25),
    "sandwich-rho-ratio": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 0.1), 10, 0.5, 0.1),
    "sandwich-start-window": lambda: cert_sandwich(params(0.0, 0.2, RHO_GEO, 10.0), 10,
                                                   0.5, 0.25),
    "sandwich-eta": lambda: cert_sandwich(params(0.1, 0.2, RHO_GEO, 0.1), 10, 0.5, 0.25),
    "sandwich-blanket-and-C1": lambda: cert_sandwich(params(0.0, 1.2, RHO_GEO, 0.1), 10,
                                                     1.5, 0.25),
    "geometric-lambda-zero": lambda: cert_geometric(params(lam=0.0), 8, 0.5, 0.0, 1.0, 1.0),
    "geometric-chi": lambda: cert_geometric(params(), 8, 2.0, 0.0, 1.0, 1.0),
    "geometric-mu": lambda: cert_geometric(params(lam=0.9), 8, 0.5, 0.5, 1.0, 1.0),
    "geometric-negative-witness": lambda: cert_geometric(params(), 8, 0.5, 0.0, 1.0, -1.0),
    "geometric-blanket-chi-witness": lambda: cert_geometric(params(lam=1.2), 8,
                                                            2.0, 0.0, 1.0, -1.0),
    "geometric-published-base": lambda: cert_geometric(params(r0=0.01), 8,
                                                       0.0, 0.0, 1.0, 1e-3),
    "geometric-published-eta-1": lambda: cert_geometric(params(eta=0.01, r0=0.01), 8,
                                                        0.0, 0.0, 1.0, 0.01),
    "geometric-published-rho-1": lambda: cert_geometric(params(rho=1e-3, r0=0.01), 8,
                                                        0.0, 0.0, 1.0, 0.01),
    "geometric-published-rho-3": lambda: cert_geometric(params(rho=1e-3, r0=0.01), 8,
                                                        0.5, 0.1, 1.0, 0.1),
    "geometric-published-eta-2": lambda: cert_geometric(params(0.01, STEP, 0.0, 0.01), 8,
                                                        0.0, 0.1, 1.0, 0.1),
    "geometric-inflation-overflow": lambda: cert_geometric(params(lam=1e-70), 10,
                                                           0.5, 1e60, 1.0, 1.0),
    "geometric-anchor": lambda: cert_geometric(params(0.0, 0.5, GEO(1e-3, 0.5), 0.01), 8,
                                               1.0, 0.1, 1.0, 0.01),
    "geometric-anchored-rho": lambda: cert_geometric(params(0.0, 0.5, GEO(0.1, 0.3), 0.01), 8,
                                                     1.0, 0.1, 1.0, 1.0),
    "geometric-anchored-eta": lambda: cert_geometric(params(0.01, STEP, 0.0, 0.01), 8,
                                                     0.5, 0.5, 1.0, 0.1),
    "geometric-valid": lambda: cert_geometric(params(r0=0.01), 8, 0.0, 0.0, 1.0, 0.01),
    "quadratic-eta": lambda: cert_quadratic(params(), 5, 0.5, 0.0),
    "quadratic-theta": lambda: cert_quadratic(params(eta=1.0, r0=2.0), 5, 0.5, 0.0),
    "quadratic-chi": lambda: cert_quadratic(params(eta=1.0, r0=0.5), 5, 2.0, 0.0),
    "quadratic-eta-and-mu": lambda: cert_quadratic(params(), 5, 0.5, -1.0),
    "quadratic-lambda-budget": lambda: cert_quadratic(params(eta=1.0, r0=0.5), 5, 0.5, 0.5),
    "quadratic-rho-budget": lambda: cert_quadratic(params(1.0, 0.0, 0.1, 0.5), 5, 0.5, 0.5),
    "quadratic-inflation-overflow": lambda: cert_quadratic(params(1.0, 0.0, 0.0, 0.5), 3,
                                                           0.5, 1e300),
    "quadratic-broke": lambda: cert_quadratic(params(1.0, 0.05, 0.0, 0.9), 3, 1.0, 0.1),
    "quadratic-valid": lambda: cert_quadratic(params(1.0, 0.0, 0.0, 0.5), 5, 0.5, 0.0),
    "certify-sandwich-fallback": lambda: certify(params(lam=1.2, rho=RHO_GEO), "sandwich", 10),
    "certify-geometric-search": lambda: certify(params(rho=RHO_GEO, r0=0.1), "geometric", 10),
    "certify-quadratic-witnesses": lambda: certify(params(1.0, 0.0, 0.0, 0.5), "quadratic", 5,
                                                   {"chi": 0.5, "mu": 0.0}),
}

nan, inf = math.nan, math.inf
DETAIL_EXPECTED = {
    'bounded-held':
        (True, True, True, {'C': 0.2},
         ['uniform cap C = 0.2 holds on the simulation']),
    'bounded-negative-lambda':
        (False, False, False, {'C': 1.0},
         ['negative lambda value -0.1']),
    'bounded-sup-lambda':
        (False, False, False, {'C': 1.0},
         ['sup lambda = 1.2 >= 1 over the horizon']),
    'bounded-discriminant':
        (False, False, False, {'C': 1.0},
         ['discriminant (1-lambda_0)^2 - 4*eta*rho_0 = -3.75 not positive']),
    'bounded-no-cap':
        (False, False, False, {'C': 2.0},
         ['no admissible C: need 2.0 <= C <= 0.8872983346207417']),
    'uniform-max-lambda-rises':
        (False, False, False, {'max_bound': nan},
         ['lambda sequence is not nonincreasing']),
    'uniform-max-rho-rises':
        (False, False, False, {'max_bound': nan},
         ['rho sequence is not nonincreasing']),
    'uniform-max-discriminant':
        (False, False, False, {'max_bound': nan},
         ['discriminant at index 0 is -3.75 < 0']),
    'uniform-max-limit-root':
        (True, True, True, {'max_bound': 0.2},
         ['eta = 0: upper root degenerates, using the finite limit root']),
    'uniform-max-escapes':
        (False, False, False, {'max_bound': 2.0},
         ['r0 = 2.0 exceeds the upper root 0.8872983346207417: recurrence escapes']),
    'uniform-max-eta':
        (True, True, True, {'max_bound': 4.979919353527449},
         []),
    'sandwich-C1-range':
        (False, False, False, {'C1': 1.5, 'C2': 0.25, 'C_rho': nan},
         ['need 0 <= C1 < 1, got 1.5']),
    'sandwich-C2-range':
        (False, False, False, {'C1': 0.5, 'C2': -1.0, 'C_rho': nan},
         ['need 0 <= C2 <= (1-C1)^2/(4 eta), got C2 = -1.0']),
    'sandwich-C2-infinite':
        (False, False, False, {'C1': 0.5, 'C2': inf, 'C_rho': nan},
         ['need 0 <= C2 <= (1-C1)^2/(4 eta), got C2 = inf']),
    'sandwich-rho-zero':
        (False, False, False, {'C1': 0.5, 'C2': 0.25, 'C_rho': nan},
         ['rho must stay positive for ratio conditions']),
    'sandwich-limit-root':
        (True, True, True, {'C1': 0.5, 'C2': 0.25, 'C_rho': 2.0},
         ['eta*C2 = 0: using the finite limit root 1/(1-C1)']),
    'sandwich-lambda-ratio':
        (False, False, False, {'C1': 0.1, 'C2': 0.25, 'C_rho': 1.1111111111111112},
         ['eta*C2 = 0: using the finite limit root 1/(1-C1)',
          'lambda_1 = 0.2 above C1*rho_1/rho_0 = 0.05']),
    'sandwich-rho-ratio':
        (False, False, False, {'C1': 0.5, 'C2': 0.1, 'C_rho': 2.0},
         ['eta*C2 = 0: using the finite limit root 1/(1-C1)',
          'rho_0 = 0.1 above C2*rho_1/rho_0 = 0.05']),
    'sandwich-start-window':
        (False, False, False, {'C1': 0.5, 'C2': 0.25, 'C_rho': 2.0},
         ['eta*C2 = 0: using the finite limit root 1/(1-C1)',
          'start window fails: r_1 value 2.1 above C_rho*rho_0 = 0.2']),
    'sandwich-eta':
        (True, True, True, {'C1': 0.5, 'C2': 0.25, 'C_rho': 17.745966692414832},
         []),
    'sandwich-blanket-and-C1':
        (False, False, False, {'C1': 1.5, 'C2': 0.25, 'C_rho': nan},
         ['sup lambda = 1.2 >= 1 over the horizon', 'need 0 <= C1 < 1, got 1.5']),
    'geometric-lambda-zero':
        (False, False, False, {'chi': 0.5, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 1.0},
         ['lambda must stay positive (products enter denominators)']),
    'geometric-chi':
        (False, False, False, {'chi': 2.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 1.0},
         ['need chi in [0,1], got 2.0']),
    'geometric-mu':
        (False, False, False, {'chi': 0.5, 'mu': 0.5, 'lambda0_tilde': 1.0, 'C_mu': 1.0},
         ['need mu in [0, 1/sup(lambda) - 1] = [0, 0.11111111111111116], got 0.5']),
    'geometric-negative-witness':
        (False, False, False, {'chi': 0.5, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': -1.0},
         ['witnesses must be nonnegative']),
    'geometric-blanket-chi-witness':
        (False, False, False, {'chi': 2.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': -1.0},
         ['sup lambda = 1.2 >= 1 over the horizon',
          'need chi in [0,1], got 2.0',
          'witnesses must be nonnegative']),
    'geometric-published-base':
        (False, False, False, {'chi': 0.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 0.001},
         ['published base premise fails: 0.005 > (1+mu)*lt0*C_mu = 0.001']),
    'geometric-published-eta-1':
        (False, False, False, {'chi': 0.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 0.01},
         ['published eta premise fails at n = 1']),
    'geometric-published-rho-1':
        (False, False, False, {'chi': 0.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 0.01},
         ['published rho premise fails at n = 1']),
    'geometric-published-rho-3':
        (False, False, False, {'chi': 0.5, 'mu': 0.1, 'lambda0_tilde': 1.0, 'C_mu': 0.1},
         ['published rho premise fails at n = 3']),
    'geometric-published-eta-2':
        (False, False, False, {'chi': 0.0, 'mu': 0.1, 'lambda0_tilde': 1.0, 'C_mu': 0.1},
         ['published eta premise fails at n = 2']),
    'geometric-inflation-overflow':
        (False, False, False, {'chi': 0.5, 'mu': 1e+60, 'lambda0_tilde': 1.0, 'C_mu': 1.0},
         ['printed bound overflows at n = 6: (1+mu)^6 with mu = 1e+60']),
    'geometric-anchor':
        (False, False, False, {'chi': 1.0, 'mu': 0.1, 'lambda0_tilde': 1.0, 'C_mu': 0.01},
         ['anchor fails: r_1 value 0.006 above the printed bound 0.0055000000000000005']),
    'geometric-anchored-rho':
        (False, False, False, {'chi': 1.0, 'mu': 0.1, 'lambda0_tilde': 1.0, 'C_mu': 1.0},
         ['anchored rho budget fails at n = 1']),
    'geometric-anchored-eta':
        (False, False, False, {'chi': 0.5, 'mu': 0.5, 'lambda0_tilde': 1.0, 'C_mu': 0.1},
         ['anchored eta budget fails at n = 3']),
    'geometric-valid':
        (True, True, True, {'chi': 0.0, 'mu': 0.0, 'lambda0_tilde': 1.0, 'C_mu': 0.01},
         []),
    'quadratic-eta':
        (False, False, False, {'chi': 0.5, 'mu': 0.0},
         ['quadratic regime needs eta > 0, got 0.0']),
    'quadratic-theta':
        (False, False, False, {'chi': 0.5, 'mu': 0.0},
         ['needs eta*r0 < 1, got 2.0']),
    'quadratic-chi':
        (False, False, False, {'chi': 2.0, 'mu': 0.0},
         ['need chi in [0,1] and mu >= 0']),
    'quadratic-eta-and-mu':
        (False, False, False, {'chi': 0.5, 'mu': -1.0},
         ['quadratic regime needs eta > 0, got 0.0', 'need chi in [0,1] and mu >= 0']),
    'quadratic-lambda-budget':
        (False, False, False, {'chi': 0.5, 'mu': 0.5},
         ['lambda budget fails at index 0']),
    'quadratic-rho-budget':
        (False, False, False, {'chi': 0.5, 'mu': 0.5},
         ['rho budget fails at index 0']),
    'quadratic-inflation-overflow':
        (False, False, False, {'chi': 0.5, 'mu': 1e+300},
         ['printed bound overflows at n = 2: (1+mu)^2 with mu = 1e+300']),
    'quadratic-broke':
        (False, True, False, {'chi': 1.0, 'mu': 0.1},
         ['printed inflation (1+mu)^n did not hold on the simulation']),
    'quadratic-valid':
        (True, True, True, {'chi': 0.5, 'mu': 0.0},
         []),
    'certify-sandwich-fallback':
        (False, False, False, {'C1': 0.5, 'C2': 0.20000000020000006, 'C_rho': nan},
         ['sup lambda = 1.2 >= 1 over the horizon']),
    'certify-geometric-search':
        (True, True, True,
         {'chi': 0.6875, 'mu': 0.125, 'lambda0_tilde': 1.0, 'C_mu': 2.1333333354666673},
         []),
    'certify-quadratic-witnesses':
        (True, True, True, {'chi': 0.5, 'mu': 0.0},
         []),
}


@pytest.mark.parametrize("case", DETAIL_CASES)
def test_detail_text_is_pinned(case):
    cert = DETAIL_CASES[case]()
    got = (cert.valid, cert.premises_ok, cert.bounds_ok, cert.witnesses, cert.detail)
    assert repr(got) == repr(DETAIL_EXPECTED[case])  # repr: NaN equals NaN


def test_huge_r0_with_eta_zero_does_not_overflow():
    # r0^2 is past the float range, but with eta = 0, r_1 = lambda_0 r0 + rho_0 is not
    p = params(0.0, 0.2, RHO_GEO, 1e200)
    assert cert_sandwich(p, 10, 0.5, 0.25).detail[-1] == (
        "start window fails: r_1 value 2e+199 above C_rho*rho_0 = 0.2")
    assert cert_geometric(p, 10, 0.5, 0.0, 1.0, 1e200).detail == [
        "published rho premise fails at n = 1"]
    assert certify(p, "geometric", 10).valid
    # the shape of a contraction trace that starts at 1e200 (rho = 0)
    p = params(0.0, 0.5, 0.0, 1e200)
    assert cert_geometric(p, 10, 0.5, 0.0, 1.0, 1e200).valid
    assert certify(p, "geometric", 10).valid


FIXED_WITNESSES = {"bounded": {}, "uniform_max": {}, "sandwich": {"C1": 0.5, "C2": 0.1},
                   "geometric": {"chi": 0.5, "mu": 0.2, "lambda0_tilde": 1.0, "C_mu": 2.0},
                   "quadratic": {"chi": 0.5, "mu": 0.5}}


def cert_fields(p, regime, N):
    """Each field's repr (exact for floats, NaN equal to NaN), or the error raised."""
    try:
        cert = certify(p, regime, N, FIXED_WITNESSES[regime])
    except (ArithmeticError, MajorantError) as exc:
        return repr(exc)
    return [repr(getattr(cert, f.name)) for f in dataclasses.fields(Certificate)]


def tail_outcomes(p, N, trace=(1.0, 0.5, 0.25)):
    """repr of each tail bound over trace at horizon N, or of the error raised."""
    out = []
    for n in range(1, len(trace) + 1):
        try:
            out.append(repr(tail_bound(trace, p, n, horizon=N)))
        except MajorantError as exc:
            out.append(repr(exc))
    return out


@settings(max_examples=100, deadline=None)
@given(eta=st.just(0.0) | st.floats(0.0, 2.0),
       lam_c=st.floats(0.0, 0.99), lam_ratio=st.none() | st.floats(0.0, 1.0),
       rho_c=st.floats(0.0, 0.1), rho_ratio=st.floats(0.0, 1.0),
       r0=st.floats(0.0, 2.0), horizons=st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_horizon_reuse_matches_fresh_params(eta, lam_c, lam_ratio, rho_c, rho_ratio, r0,
                                            horizons):
    def fresh(lam_scale=None):
        lam = (ScalarSequence.constant(lam_c) if lam_ratio is None
               else ScalarSequence.geometric(lam_c, lam_ratio))
        if lam_scale is not None:
            lam = lam.affine(lam_scale, 0.0)
        return MajorantParams(eta=eta, lam=lam, rho=ScalarSequence.geometric(rho_c, rho_ratio),
                              r0=r0)

    # twin has used's values under another structure; decoy has other values
    used, twin, decoy = fresh(), fresh(1.0), fresh(0.5)
    for N in horizons:
        for p in (used, decoy):
            for regime in FIXED_WITNESSES:
                try:
                    search_witnesses(p, regime, N, grid=4)
                except ArithmeticError:
                    pass
        for p in (used, twin, decoy):
            tail_outcomes(p, N)
    for N in horizons:
        for regime in FIXED_WITNESSES:
            assert cert_fields(used, regime, N) == cert_fields(fresh(), regime, N)
            assert cert_fields(twin, regime, N) == cert_fields(fresh(), regime, N)
        assert tail_outcomes(used, N) == tail_outcomes(fresh(), N)
        assert tail_outcomes(twin, N) == tail_outcomes(fresh(), N)
        assert tail_outcomes(decoy, N) == tail_outcomes(fresh(0.5), N)
        # lower bounds read the horizon's coefficients: check them against the
        # sequences themselves, with no memo in the way
        for p in (used, twin, decoy):
            r0_products = itertools.accumulate((p.lam(k) for k in range(N)),
                                               majorant._mul_down, initial=p.r0)
            assert certify(p, "geometric", N, FIXED_WITNESSES["geometric"]).lower == \
                list(r0_products)
            assert certify(p, "sandwich", N, FIXED_WITNESSES["sandwich"]).lower == \
                [0.0] + [p.rho(k) for k in range(N)]


# -- tail bound -----------------------------------------------------------


def test_tail_bound_matches_true_error_for_exact_contraction():
    trace = [2.0 ** (-n) for n in range(31)]
    p = params()
    for n in range(1, 30):
        # true distance to the fixed point of x/2 + 1 from x_n is 2^(1-n)
        assert tail_bound(trace, p, n) == 2.0 ** (1 - n)


def test_tail_bound_inf_when_rho_tail_diverges():
    p = params(lam=0.5, rho=0.1, r0=1.0)
    assert tail_bound([1.0, 0.6], p, 1) == math.inf


def test_tail_bound_refuses_lambda_at_least_one():
    with pytest.raises(NoValidMajorantError):
        tail_bound([1.0, 0.5], params(lam=1.2), 1)


def test_tail_bound_uses_uniform_cap_when_eta_positive():
    p = params(eta=1.0, lam=0.0, rho=0.0, r0=0.5)
    trace = own_sim(p, 10)
    # lambda_eff = eta * C with C = r0 = 1/2, so the bound is r_{n-1} itself
    got = tail_bound(trace, p, 3)
    assert got == pytest.approx(trace[2], rel=1e-15)
    assert got >= sum(trace[3:])


@pytest.mark.parametrize("rho", [0.0, 0.3])   # the cap holds; its discriminant is < 0
def test_tail_bounds_check_one_cap_per_params_and_horizon(monkeypatch, rho):
    checked = []

    def counting(p, N):
        checked.append(N)
        return cert_bounded(p, N)

    monkeypatch.setattr(majorant, "cert_bounded", counting)
    p = params(eta=1.0, lam=0.0, rho=rho, r0=0.1)
    first = tail_outcomes(p, 20)
    assert checked == [20]
    assert tail_outcomes(p, 20) == first
    assert checked == [20]
    tail_outcomes(p, 30)
    assert checked == [20, 30]
    # the same values, or the same error text, as on an instance with no memo
    assert first == tail_outcomes(params(eta=1.0, lam=0.0, rho=rho, r0=0.1), 20)
    if rho:
        cap = cert_bounded(p, 20)
        assert not cap.valid
        assert first == [repr(NoValidMajorantError(
            "eta > 0 and no uniform cap certificate: %s" % "; ".join(cap.detail)))] * 3


def test_tail_bound_argument_validation():
    with pytest.raises(PreconditionError):
        tail_bound([1.0], params(), 0)
    with pytest.raises(PreconditionError):
        tail_bound([1.0], params(), 5)


# -- precheck --------------------------------------------------------------


def test_precheck_all_pass():
    c = ProblemConstants(M=0.5, M_star=0.0)
    rep = precheck(c, r0=None)
    assert rep.ok
    assert rep.entry("M_star < 1").status == "pass"
    assert rep.entry("q < 1").status == "pass"
    assert rep.entry("eps series summable").status == "pass"
    assert rep.entry("K_star finite").status == "pass"
    assert rep.entry("first step bound").status == "skipped"


def test_precheck_flags_expansion():
    rep = precheck(ProblemConstants(M=1.5, M_star=1.2))
    assert not rep.ok
    assert rep.entry("M_star < 1").status == "fail"
    assert rep.entry("q < 1").status == "fail"


def test_precheck_flags_non_summable_eps():
    c = ProblemConstants(M=0.5, M_star=0.0,
                         eps_seq=ScalarSequence.power(0.1, 1.0))
    rep = precheck(c)
    assert rep.entry("eps series summable").status == "fail"


def test_precheck_first_step_bound_uses_measured_r0():
    c = ProblemConstants(M=0.5, M_star=0.0, eps=0.2)
    assert precheck(c, r0=0.1).entry("first step bound").status == "pass"
    assert precheck(c, r0=0.3).entry("first step bound").status == "fail"


_SIZE = st.floats(0.0, 1e3)
SEQUENCE_CONFIGS = st.one_of(
    st.none(), st.integers(0, 100), _SIZE, st.just({"kind": "zero"}),
    st.builds(lambda c: {"kind": "constant", "c": c}, _SIZE),
    st.builds(lambda c, ratio: {"kind": "geometric", "c": c, "ratio": ratio},
              _SIZE, st.floats(0.0, 2.0)),
    st.builds(lambda c, p: {"kind": "power", "c": c, "p": p}, _SIZE, st.floats(-3.0, 3.0)),
    st.builds(lambda entries: {"kind": "table", "entries": entries},
              st.lists(_SIZE, min_size=1, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(cfg=SEQUENCE_CONFIGS, scale=_SIZE, offset=st.just(0.0) | _SIZE,
       m_star=st.floats(0.0, 0.9))
def test_summability_is_always_decided(cfg, scale, offset, m_star):
    base = sequence_from_config(cfg)
    c = ProblemConstants(M=0.5, M_star=m_star, K=0.1, eps_seq=base, sigma_seq=base)
    p = majorant_from_constants(c, SchemeKind.NEWTON, r0=0.0)
    for seq in (base, base.affine(scale, offset), ScalarSequence.pair_sum(base, scale),
                ScalarSequence.pair_sum(base.affine(scale, offset), scale), p.lam, p.rho):
        summable = seq.is_summable()
        assert isinstance(summable, bool)
        entry = precheck(ProblemConstants(M=0.5, M_star=0.0, eps_seq=seq)).entry(
            "eps series summable")
        assert entry.status == ("pass" if summable else "fail")


# -- step inequality audit --------------------------------------------------


def test_audit_contraction_trace_passes():
    # exact run of x/2 + 1 from 0: r_n = 2^-n, M = 1/2, B constant so M_* = 0
    r = [2.0 ** (-n) for n in range(20)]
    rt = [0.0] + [2.0 - 2.0 ** (1 - n) for n in range(1, 21)]
    c = ProblemConstants(M=0.5, M_star=0.0, eps=1.0)
    rep = audit_step_inequalities(r, rt, c, SchemeKind.CONTRACTION)
    assert rep.ok
    assert not any(row.flagged for row in rep.rows)
    assert rep.rows[0].label == "start" and rep.rows[0].n == 0
    assert all(row.label == "lipschitz" for row in rep.rows[1:])
    assert all(row.rhs >= row.lhs for row in rep.rows)


def test_audit_flags_shifted_pairing_instead_of_failing():
    # M_seq drops sharply at the last index: the printed pairing multiplies
    # r_n by the small M_n while the shifted one uses M_{n-1}
    m_seq = ScalarSequence.from_table([0.9, 0.9, 0.0])
    c = ProblemConstants(M=0.0, M_star=0.9, M_seq=m_seq, eps=1.0)
    # r chosen so r_n = 0.9 r_n + 0.9 r_{n-1} holds with equality at n=1,2
    # (i.e. r_n = 9 r_{n-1}), then fails the printed pairing at n = 2
    r = [0.01, 0.09, 0.81]
    rt = [0.0, 0.01, 0.1]
    rep = audit_step_inequalities(r, rt, c, SchemeKind.CONTRACTION)
    row = [x for x in rep.rows if x.n == 2][0]
    assert row.flagged and row.ok
    assert [x.n for x in rep.rows if x.flagged] == [2]
    assert rep.ok


def test_audit_newton_quadratic_trace():
    # r_{n+1} = 0.3 r_n^2 exactly; K = K_* = 0.3 makes the curvature row tight
    r = [0.5]
    for _ in range(8):
        r.append(0.3 * r[-1] ** 2)
    rt = [0.0] + [sum(r[:k]) for k in range(1, 10)]
    c = ProblemConstants(M=0.0, M_star=0.0, K=0.3, K_star=0.3, eps=0.5)
    rep = audit_step_inequalities(r, rt, c, SchemeKind.NEWTON)
    assert rep.ok
    assert all(row.label == "curvature" for row in rep.rows[1:])


def test_audit_modified_newton_emits_two_rows_per_step():
    r = [2.0 ** (-n) for n in range(6)]
    rt = [0.0] + [2.0 - 2.0 ** (1 - n) for n in range(1, 7)]
    c = ProblemConstants(M=0.5, M_star=0.5, K=0.0, K_star=0.0, eps=1.0,
                         gamma_seq=ScalarSequence.constant(1.0))
    rep = audit_step_inequalities(r, rt, c, SchemeKind.MODIFIED_NEWTON)
    labels = [row.label for row in rep.rows]
    assert labels[0] == "start"
    assert labels[1:] == ["distance-from-start", "step"] * 5
    assert rep.ok


def test_audit_detects_genuine_violation():
    # a flat trace cannot satisfy the contraction inequality with tiny M
    r = [1.0, 1.0, 1.0]
    rt = [0.0, 1.0, 2.0]
    c = ProblemConstants(M=0.1, M_star=0.0)
    rep = audit_step_inequalities(r, rt, c, SchemeKind.CONTRACTION)
    assert not rep.ok
    assert any(row.rhs < row.lhs for row in rep.rows)
