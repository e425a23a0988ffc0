"""Majorant recurrences, convergence-rate certificates and step-inequality audits.

Everything here works on the scalar recurrence

    r_n = eta * r_{n-1}^2 + lambda_{n-1} * r_{n-1} + rho_{n-1}

whose equality simulation dominates the true step norms of an outer run once
the problem constants are honest.  Certificates check the side conditions of
one decay regime over a finite horizon, then verify the bounds they are about
to assert against the equality simulation itself; `valid` means both held.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .regimes import WITNESSES
from .schemes import SchemeKind
from .sequences import ScalarSequence, SequenceError

_OVERFLOW_CAP = 1e300
_REL_SLACK = 1e-12
_ABS_SLACK = 1e-300


class MajorantError(ValueError):
    pass


class PreconditionError(MajorantError):
    pass


class RecurrenceOverflowError(MajorantError):
    """The simulated recurrence left the representable range."""

    def __init__(self, index: int, partial: List[float]):
        super().__init__("recurrence diverged at index %d (last value %.6e)"
                         % (index, partial[-1] if partial else math.nan))
        self.index = index
        self.partial = partial


class NoValidMajorantError(MajorantError):
    pass


def _le(a: float, b: float) -> bool:
    """a <= b up to the blanket comparison slack."""
    return a <= b + _REL_SLACK * abs(b) + _ABS_SLACK


def _mul_down(a: float, b: float) -> float:
    """a*b rounded down, for a, b >= 0: the product if it is exact, else the double below."""
    x = a * b
    if math.isfinite(x):  # and so are a and b
        (na, da), (nb, db), (nx, dx) = (a.as_integer_ratio(), b.as_integer_ratio(),
                                        x.as_integer_ratio())
        if na * nb * dx == nx * da * db:
            return x
    return math.nextafter(x, 0.0)


# ---------------------------------------------------------------------------
# problem constants and recurrence parameters


@dataclass(frozen=True)
class ProblemConstants:
    """Lipschitz data of A and of the scheme operators B_n on the working ball.

    M, K bound A and A'; M_star, K_star bound every B_n, B_n'.  M_seq/K_seq
    give per-step values when known (default: the starred constants).  eps is
    a bound for ||A(x0) - x0||; the three schedules bound the per-step
    value/derivative inexactness (see schemes module for index conventions).
    """

    M: float
    M_star: float
    K: float = 0.0
    K_star: float = 0.0
    eps: float = 0.0
    eps_seq: ScalarSequence = field(default_factory=ScalarSequence.zero)
    sigma_seq: ScalarSequence = field(default_factory=ScalarSequence.zero)
    gamma_seq: ScalarSequence = field(default_factory=ScalarSequence.zero)
    M_seq: Optional[ScalarSequence] = None
    K_seq: Optional[ScalarSequence] = None

    def __post_init__(self):
        for name in ("M", "M_star", "K", "K_star", "eps"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise PreconditionError("%s must be finite and >= 0, got %r" % (name, v))

    def m_at(self, n: int) -> float:
        return self.M_seq(n) if self.M_seq is not None else self.M_star

    def k_at(self, n: int) -> float:
        return self.K_seq(n) if self.K_seq is not None else self.K_star

    @property
    def q(self) -> float:
        if self.M_star >= 1.0:
            raise PreconditionError("q undefined: M_star = %r >= 1" % self.M_star)
        return (self.M + self.M_star) / (1.0 - self.M_star)


@dataclass(frozen=True)
class MajorantParams:
    """Coefficients of the scalar majorant recurrence plus its start value."""

    eta: float
    lam: ScalarSequence
    rho: ScalarSequence
    r0: float
    # horizons built so far, and the uniform-cap certificates tail_bound
    # checked, by N.  They live on the instance and go with it; a cache keyed
    # by params equality would hold every params object it saw for the life
    # of the process.
    _horizons: Dict[int, "_Horizon"] = field(default_factory=dict, init=False, repr=False,
                                             compare=False)
    _caps: Dict[int, "Certificate"] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if not math.isfinite(self.eta) or self.eta < 0:
            raise PreconditionError("eta must be finite and >= 0, got %r" % self.eta)
        if not math.isfinite(self.r0) or self.r0 < 0:
            raise PreconditionError("r0 must be finite and >= 0, got %r" % self.r0)


def recurrence_step(r_prev: float, eta: float, lam: float, rho: float) -> float:
    if r_prev < 0 or eta < 0 or lam < 0 or rho < 0:
        raise PreconditionError("recurrence inputs must be nonnegative")
    return eta * r_prev * r_prev + lam * r_prev + rho


def simulate_recurrence(p: MajorantParams, N: int) -> List[float]:
    """Equality simulation r_0..r_N; overflow raises RecurrenceOverflowError."""
    vals, diverged = simulate_capped(p, N)
    if diverged is not None:
        raise RecurrenceOverflowError(diverged, vals[:diverged])
    return vals


def simulate_capped(p: MajorantParams, N: int) -> Tuple[List[float], Optional[int]]:
    """Like simulate_recurrence but pads a diverged tail with +inf.

    Returns (values of length N+1, index of first overflow or None).
    """
    h = _horizon(p, N)
    return list(h.sim), h.diverged


class _Horizon(NamedTuple):
    """What every certificate reads over a horizon N, whatever its witnesses.

    lam and rho hold indices 0..N, all that a horizon-N certificate, its
    witness search and its fallback read; sim is the horizon's own equality
    simulation r_0..r_N, run over lam and rho and padded with +inf from
    diverged, its first overflow index.  The rest are premise facts no witness
    changes: the first negative lambda (None if none), the sup of lambda,
    whether a lambda is <= 0, whether a rho is <= 0, theta^(2^j) with
    theta = eta r0, the products prod_{k<j} lambda_k and r0 times them, the
    last rounded down at every product, for j = 0..N.  r1 is
    eta r0^2 + lambda_0 r0 + rho_0 in recurrence_step's order, +inf (never
    OverflowError) past the float range.
    """

    lam: Tuple[float, ...]
    rho: Tuple[float, ...]
    sim: Tuple[float, ...]
    diverged: Optional[int]
    lam_neg: Optional[float]
    lam_sup: float
    lam_nonpos: bool
    rho_nonpos: bool
    theta_pow: Tuple[float, ...]
    prefix: Tuple[float, ...]
    r0_prefix: Tuple[float, ...]
    r1: float


def _horizon(p: MajorantParams, N: int) -> _Horizon:
    h = p._horizons.get(N)
    if h is None:
        if N < 0:
            raise PreconditionError("horizon N must be >= 0, got %d" % N)
        lam, rho = tuple(p.lam.values(0, N)), tuple(p.rho.values(0, N))
        sim, diverged = [p.r0], None
        for n in range(1, N + 1):
            nxt = recurrence_step(sim[-1], p.eta, lam[n - 1], rho[n - 1])
            if not math.isfinite(nxt) or nxt > _OVERFLOW_CAP:
                diverged = n
                sim.extend([math.inf] * (N + 1 - n))
                break
            sim.append(nxt)
        theta_pow, t = [], p.eta * p.r0   # underflow to 0 is fine
        for _ in range(N + 1):
            theta_pow.append(t)
            t = t * t
        prefix, r0_prefix = [1.0], [p.r0]
        for k in range(N):
            prefix.append(prefix[-1] * lam[k])
            r0_prefix.append(_mul_down(r0_prefix[-1], lam[k]))
        # tuples: every certificate of p reads the same horizon
        h = p._horizons[N] = _Horizon(
            lam, rho, tuple(sim), diverged,
            lam_neg=next((v for v in lam if v < 0), None), lam_sup=max(lam),
            lam_nonpos=any(v <= 0.0 for v in lam), rho_nonpos=any(v <= 0.0 for v in rho),
            theta_pow=tuple(theta_pow), prefix=tuple(prefix),
            r0_prefix=tuple(r0_prefix),
            r1=p.eta * p.r0 * p.r0 + lam[0] * p.r0 + rho[0])
    return h


def majorant_from_constants(c: ProblemConstants, scheme: SchemeKind, r0: float,
                            horizon: int = 200) -> MajorantParams:
    """Translate the applicable step inequality into recurrence coefficients.

    contraction/custom use the Lipschitz inequality (eta = 0, lambda = q);
    newton uses the curvature inequality (eta from K, lambda from sigma);
    modified_newton first caps r_tilde via its own recurrence and a bounded
    certificate, which can legitimately fail -> NoValidMajorantError.
    """
    if not math.isfinite(r0) or r0 < 0:
        raise PreconditionError("r0 must be finite and >= 0")
    if c.M_star >= 1.0:
        raise PreconditionError(
            "no majorant: M_star = %r >= 1 (every route divides by 1 - M_star)" % c.M_star)
    denom = 1.0 - c.M_star
    rho = ScalarSequence.pair_sum(c.eps_seq, 1.0 / denom)

    if scheme in (SchemeKind.CONTRACTION, SchemeKind.CUSTOM):
        return MajorantParams(eta=0.0, lam=ScalarSequence.constant(c.q), rho=rho, r0=r0)

    eta = 0.5 * (c.K + c.K_star) / denom
    if scheme is SchemeKind.NEWTON:
        lam = c.sigma_seq.affine(1.0 / denom, 0.0)
        return MajorantParams(eta=eta, lam=lam, rho=rho, r0=r0)

    if scheme is SchemeKind.MODIFIED_NEWTON:
        # r_tilde obeys its own recurrence started at 0; cap it first.
        tilde = MajorantParams(
            eta=eta,
            lam=c.gamma_seq.affine(1.0 / denom, 0.0),
            rho=c.eps_seq.affine(1.0 / denom, c.eps / denom),
            r0=0.0)
        cap = cert_bounded(tilde, horizon)
        if not cap.valid:
            raise NoValidMajorantError(
                "r_tilde cap certificate failed: %s" % "; ".join(cap.detail))
        tilde_bound = cap.witnesses["C"]
        lam = c.gamma_seq.affine(1.0 / denom, (c.K + c.K_star) * tilde_bound / denom)
        return MajorantParams(eta=eta, lam=lam, rho=rho, r0=r0)

    raise PreconditionError("unknown scheme %r" % scheme)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """Outcome of one decay-regime check over a finite horizon.

    lower/upper are the per-index bounds the regime asserts for the equality
    simulation (index 0 carries the trivial start bounds).  valid is True only
    when every side condition held AND the asserted bounds were verified
    against the simulation itself.
    """

    regime: str
    witnesses: Dict[str, float]
    checked_horizon: int
    valid: bool
    premises_ok: bool
    bounds_ok: bool
    lower: List[float]
    upper: List[float]
    min_margin: float
    detail: List[str] = field(default_factory=list)


def _verify_bounds(sim: Sequence[float], lower: List[float], upper: List[float],
                   first: int = 1) -> Tuple[bool, float]:
    ok = True
    margin = math.inf
    for j in range(first, len(sim)):
        if not _le(lower[j], sim[j]) or not _le(sim[j], upper[j]):
            ok = False
        if math.isfinite(upper[j]):
            margin = min(margin, upper[j] - sim[j])
        if math.isfinite(sim[j]):
            margin = min(margin, sim[j] - lower[j])
        else:
            margin = -math.inf
    return ok, margin


class _Premises:
    """One certificate's premise log: ok until the first fail(line), and every
    detail line in the order it was written (notes go straight to detail)."""

    __slots__ = ("ok", "detail")

    def __init__(self):
        self.ok = True
        self.detail: List[str] = []

    def fail(self, line: str) -> None:
        self.detail.append(line)
        self.ok = False


def _finish(regime: str, h: _Horizon, witnesses: Dict[str, float], log: _Premises,
            lower: List[float], upper: List[float], first: int = 1,
            held: str = "", broke: str = "") -> Certificate:
    """Verify the asserted bounds (only if the premises held) and build the report.

    held/broke is the regime's closing detail line when the bounds held/failed.
    """
    bounds_ok, margin = False, -math.inf
    if log.ok:
        bounds_ok, margin = _verify_bounds(h.sim, lower, upper, first)
        bounds_ok = bounds_ok and h.diverged is None
        closing = held if bounds_ok else broke
        if closing:
            log.detail.append(closing)
    return Certificate(regime, witnesses, len(h.sim) - 1, log.ok and bounds_ok, log.ok,
                       bounds_ok, lower, upper, margin, log.detail)


def _lambda_blanket(h: _Horizon, log: _Premises) -> None:
    """0 <= lambda_n < 1 for n = 0..N."""
    if h.lam_neg is not None:
        log.fail("negative lambda value %r" % h.lam_neg)
    elif h.lam_sup >= 1.0:
        log.fail("sup lambda = %r >= 1 over the horizon" % h.lam_sup)


def _roots(eta: float, lam: float, rho: float) -> Tuple[float, float, float]:
    """Lower/upper roots of eta z^2 - (1-lam) z + rho = 0 plus the discriminant.

    The rationalized lower-root formula is smooth at eta = 0 (limit
    rho/(1-lam)); the upper root is +inf there.
    """
    disc = (1.0 - lam) ** 2 - 4.0 * eta * rho
    if disc < 0.0:
        return math.nan, math.nan, disc
    s = math.sqrt(disc)
    denom_low = (1.0 - lam) + s
    low = 0.0 if rho == 0.0 else 2.0 * rho / denom_low
    up = math.inf if eta == 0.0 else denom_low / (2.0 * eta)
    return low, up, disc


def _inflation(mu: float, N: int, log: _Premises) -> Optional[List[float]]:
    """(1+mu)^j for j = 0..N; None, failing the log at j, once that overflows."""
    powers = []
    for j in range(N + 1):
        try:
            powers.append((1.0 + mu) ** j)
        except OverflowError:
            log.fail("printed bound overflows at n = %d: (1+mu)^%d with mu = %r" % (j, j, mu))
            return None
    return powers


def cert_bounded(p: MajorantParams, N: int) -> Certificate:
    """Uniform cap: r_n <= C with C between every lower root and every upper root."""
    h = _horizon(p, N)
    log = _Premises()
    _lambda_blanket(h, log)
    sup_low, inf_up = 0.0, math.inf
    if log.ok:
        for k in range(N):
            low, up, disc = _roots(p.eta, h.lam[k], h.rho[k])
            if disc <= 0.0:
                log.fail("discriminant (1-lambda_%d)^2 - 4*eta*rho_%d = %r not positive"
                         % (k, k, disc))
                break
            sup_low = max(sup_low, low)
            inf_up = min(inf_up, up)
    C = max(p.r0, sup_low)
    if log.ok and not _le(C, inf_up):
        log.fail("no admissible C: need %r <= C <= %r" % (C, inf_up))
    return _finish("bounded", h, {"C": C}, log, [0.0] * (N + 1), [C] * (N + 1),
                   first=0, held="uniform cap C = %r holds on the simulation" % C)


def cert_uniform_max(p: MajorantParams, N: int) -> Certificate:
    """max{r0, upper root at (lambda_0, rho_0)} for nonincreasing lambda, rho.

    Additional side condition r0 <= upper root: beyond it the recurrence
    escapes and no uniform bound of this shape exists.
    """
    h = _horizon(p, N)
    lam, rho = h.lam, h.rho
    log = _Premises()
    _lambda_blanket(h, log)
    for name, vals in (("lambda", lam), ("rho", rho)):
        if log.ok and any(cur > prev for prev, cur in zip(vals, vals[1:])):
            log.fail("%s sequence is not nonincreasing" % name)
    bound = math.nan
    if log.ok:
        _, up0, disc0 = _roots(p.eta, lam[0], rho[0])
        # monotone sequences push later discriminants up, so index 0 decides
        if disc0 < 0.0:
            log.fail("discriminant at index 0 is %r < 0" % disc0)
        else:
            if p.eta == 0.0:
                bound = max(p.r0, rho[0] / (1.0 - lam[0]) if rho[0] else 0.0)
                log.detail.append("eta = 0: upper root degenerates, using the finite limit root")
            else:
                bound = max(p.r0, up0)
            if not _le(p.r0, up0):
                log.fail("r0 = %r exceeds the upper root %r: recurrence escapes" % (p.r0, up0))
    upper = [bound if log.ok else math.nan] * (N + 1)
    return _finish("uniform_max", h, {"max_bound": bound}, log, [0.0] * (N + 1), upper,
                   first=0)


def _window_disc(eta: float, C1: float, C2: float) -> float:
    """(1-C1)^2 - 4 eta C2: the sandwich window C2 <= (1-C1)^2/(4 eta) holds iff >= 0."""
    return (1.0 - C1) ** 2 - 4.0 * eta * C2


def _c_rho(eta: float, C1: float, C2: float, disc: float) -> float:
    """The sandwich's upper constant for witnesses whose window disc is >= 0: the
    larger root ((1-C1) + sqrt(disc))/(2 eta C2), or its finite limit 1/(1-C1)
    when eta*C2 = 0."""
    if eta * C2 == 0.0:
        return 1.0 / (1.0 - C1)
    return ((1.0 - C1) + math.sqrt(disc)) / (2.0 * eta * C2)


def cert_sandwich(p: MajorantParams, N: int, C1: float, C2: float) -> Certificate:
    """Two-sided decay pinned to rho: rho_{n-1} <= r_n <= C_rho * rho_{n-1}.

    Side conditions as printed plus the start window
    eta r0^2 + lambda_0 r0 + rho_0 <= C_rho rho_0 (the induction base; the
    published window line is ambiguous, this is the reading that anchors the
    bound).  The asserted sandwich is the lag-one one, which is what the
    induction proves.
    """
    h = _horizon(p, N)
    lam, rho = h.lam, h.rho
    log = _Premises()
    _lambda_blanket(h, log)
    if not (0.0 <= C1 < 1.0):
        log.fail("need 0 <= C1 < 1, got %r" % C1)
    disc_w = _window_disc(p.eta, C1, C2)
    # not >=: an infinite C2 makes disc_w NaN when eta = 0
    if C2 < 0.0 or not disc_w >= 0.0:
        log.fail("need 0 <= C2 <= (1-C1)^2/(4 eta), got C2 = %r" % C2)
    if log.ok and h.rho_nonpos:
        log.fail("rho must stay positive for ratio conditions")
    C_rho = math.nan
    if log.ok:
        C_rho = _c_rho(p.eta, C1, C2, disc_w)
        if p.eta * C2 == 0.0:
            log.detail.append("eta*C2 = 0: using the finite limit root 1/(1-C1)")
        for k in range(N):
            ratio = rho[k + 1] / rho[k]
            if not _le(lam[k + 1], C1 * ratio):
                log.fail("lambda_%d = %r above C1*rho_%d/rho_%d = %r"
                         % (k + 1, lam[k + 1], k + 1, k, C1 * ratio))
                break
            if not _le(rho[k], C2 * ratio):
                log.fail("rho_%d = %r above C2*rho_%d/rho_%d = %r"
                         % (k, rho[k], k + 1, k, C2 * ratio))
                break
    if log.ok and not _le(h.r1, C_rho * rho[0]):
        log.fail("start window fails: r_1 value %r above C_rho*rho_0 = %r"
                 % (h.r1, C_rho * rho[0]))
    lower = [0.0, *rho[:N]]
    upper = [p.r0] + [(C_rho * rho[j - 1]) if log.ok else math.nan for j in range(1, N + 1)]
    return _finish("sandwich", h, {"C1": C1, "C2": C2, "C_rho": C_rho}, log, lower, upper)


def cert_geometric(p: MajorantParams, N: int, chi: float, mu: float,
                   lambda0_tilde: float, C_mu: float) -> Certificate:
    """Geometric sandwich r0 prod lambda <= r_n <= C_mu (1+mu)^n lt0 prod lambda.

    Checks the published premise scans and, in addition, the anchored set that
    actually carries the induction for the printed bound (base case with the
    lambda_0 factor; per-step eta and rho budgets against the bound value
    itself).  The published premises alone admit counterexamples.
    """
    h = _horizon(p, N)
    lam, rho = h.lam, h.rho
    log = _Premises()
    _lambda_blanket(h, log)
    if log.ok and h.lam_nonpos:
        log.fail("lambda must stay positive (products enter denominators)")
    lam_bar = h.lam_sup
    if not (0.0 <= chi <= 1.0):
        log.fail("need chi in [0,1], got %r" % chi)
    if log.ok and not (0.0 <= mu <= 1.0 / lam_bar - 1.0):
        log.fail("need mu in [0, 1/sup(lambda) - 1] = [0, %r], got %r"
                 % (1.0 / lam_bar - 1.0, mu))
    if lambda0_tilde < 0 or C_mu < 0:
        log.fail("witnesses must be nonnegative")
    z = lambda0_tilde * C_mu
    if log.ok:
        if not _le(h.r1, (1.0 + mu) * z):
            log.fail("published base premise fails: %r > (1+mu)*lt0*C_mu = %r"
                     % (h.r1, (1.0 + mu) * z))
        elif N >= 1 and not _le(p.eta * z, (1.0 - chi) * mu * lam[1]):
            log.fail("published eta premise fails at n = 1")
    if log.ok:
        prod1n = 1.0  # prod_{k=1}^{n} lambda_k
        for n in range(1, N):
            prod1n *= lam[n]
            if not _le(rho[n], chi * mu * z * prod1n):
                log.fail("published rho premise fails at n = %d" % n)
                break
            if not _le(p.eta * z * prod1n, (1.0 - chi) * mu * lam[n + 1]):
                log.fail("published eta premise fails at n = %d" % n)
                break
    inflation = _inflation(mu, N, log)
    if inflation is None:
        upper = [p.r0] + [math.inf] * N
    else:
        upper = [p.r0] + [z * inflation[j] * h.prefix[j] for j in range(1, N + 1)]
    if log.ok and N >= 1:
        # anchored set: the induction that the printed bound actually needs
        if not _le(h.r1, upper[1]):
            log.fail("anchor fails: r_1 value %r above the printed bound %r" % (h.r1, upper[1]))
        else:
            for n in range(1, N):
                if not _le(p.eta * upper[n], (1.0 - chi) * mu * lam[n]):
                    log.fail("anchored eta budget fails at n = %d" % n)
                    break
                if not _le(rho[n], chi * mu * lam[n] * upper[n]):
                    log.fail("anchored rho budget fails at n = %d" % n)
                    break
    wit = {"chi": chi, "mu": mu, "lambda0_tilde": lambda0_tilde, "C_mu": C_mu}
    return _finish("geometric", h, wit, log, list(h.r0_prefix), upper)


def cert_quadratic(p: MajorantParams, N: int, chi: float, mu: float) -> Certificate:
    """Doubly exponential sandwich around (eta r0)^(2^n)/eta; needs eta*r0 < 1.

    The printed inflation (1+mu)^n is verified against the simulation because
    it is not inductively stable for mu > 0; valid reports what actually held.
    """
    h = _horizon(p, N)
    lam, rho, theta_pow = h.lam, h.rho, h.theta_pow
    log = _Premises()
    if p.eta <= 0.0:
        log.fail("quadratic regime needs eta > 0, got %r" % p.eta)
    theta = p.eta * p.r0
    if log.ok and not theta < 1.0:
        log.fail("needs eta*r0 < 1, got %r" % theta)
    if not (0.0 <= chi <= 1.0) or mu < 0.0:
        log.fail("need chi in [0,1] and mu >= 0")
    if log.ok:
        for n in range(1, N + 1):
            if not _le(lam[n - 1], chi * mu * theta_pow[n - 1]):
                log.fail("lambda budget fails at index %d" % (n - 1))
                break
            if not _le(p.eta * rho[n - 1], (1.0 - chi) * mu * theta_pow[n]):
                log.fail("rho budget fails at index %d" % (n - 1))
                break
    inflation = _inflation(mu, N, log) if log.ok else None
    if inflation is None:
        lower = [0.0] * (N + 1)
        upper = [math.nan] * (N + 1)
    else:
        # theta^(2^j)/eta is s_j of s_{j+1} = eta s_j^2 from s_0 = r0, rounded down here
        lower = [p.r0]
        for _ in range(N):
            lower.append(_mul_down(p.eta, _mul_down(lower[-1], lower[-1])))
        upper = [inflation[j] * theta_pow[j] / p.eta for j in range(N + 1)]
    return _finish("quadratic", h, {"chi": chi, "mu": mu}, log, lower, upper,
                   first=0, broke="printed inflation (1+mu)^n did not hold on the simulation")


# ---------------------------------------------------------------------------
# regime table: dispatch, witness-search grids and fallback witnesses


def _needed_c2(p: MajorantParams, N: int) -> float:
    rho = _horizon(p, N).rho
    # rho_k * rho_k, not rho_k ** 2: a float ** raises OverflowError past 1e154
    vals = [rho[k] * rho[k] / rho[k + 1] for k in range(N) if rho[k + 1] > 0]
    return max(vals) * (1.0 + 1e-9) if vals else 0.0


def _sandwich_grid(p: MajorantParams, N: int, grid: int) -> Iterator[Dict[str, float]]:
    h = _horizon(p, N)
    lam, rho = h.lam, h.rho
    if h.rho_nonpos:
        return
    need_c1 = max((lam[k + 1] * rho[k] / rho[k + 1] for k in range(N)), default=0.0)
    need_c2 = _needed_c2(p, N)
    if not math.isfinite(need_c2):
        return
    for c1 in [need_c1 * (1.0 + 1e-9)] + [i / grid for i in range(grid)]:
        if not 0.0 <= c1 < 1.0:
            continue
        hi = math.inf if p.eta == 0.0 else (1.0 - c1) ** 2 / (4.0 * p.eta)
        if need_c2 > hi:
            continue
        yield {"C1": c1, "C2": need_c2}
        for i in range(1, grid):
            yield {"C1": c1,
                   "C2": need_c2 + (min(hi, need_c2 * 16 + 1.0) - need_c2) * i / grid}


def _geometric_grid(p: MajorantParams, N: int, grid: int) -> Iterator[Dict[str, float]]:
    h = _horizon(p, N)
    lam = h.lam
    if h.lam_nonpos or h.lam_sup >= 1.0:
        return
    mu_max = 1.0 / h.lam_sup - 1.0
    for i in range(1, grid + 1):
        mu = mu_max * i / grid
        # anchor decides the smallest usable witness product
        z = h.r1 / ((1.0 + mu) * lam[0]) * (1.0 + 1e-9)
        for j in range(1, grid):
            for scale in (1.0, 2.0, 4.0, 8.0):
                yield {"chi": j / grid, "mu": mu, "lambda0_tilde": 1.0, "C_mu": z * scale}
    if p.eta == 0.0 and all(v == 0.0 for v in h.rho):
        z = max(p.r0, h.r1 / lam[0] if lam[0] else 0.0)
        yield {"chi": 0.0, "mu": 0.0, "lambda0_tilde": 1.0, "C_mu": z}


def _quadratic_grid(p: MajorantParams, N: int, grid: int) -> Iterator[Dict[str, float]]:
    yield {"chi": 0.5, "mu": 0.0}
    for i in range(1, grid + 1):
        for j in range(grid):
            yield {"chi": j / grid, "mu": i / grid}


def _no_witnesses(p: MajorantParams, N: int, grid: int) -> Iterable[Dict[str, float]]:
    return ({},)


# screens: a screen built from (p, N) once per search returns a predicate that
# is False only for witnesses cert_<regime> rejects, or None when it rejects
# every witness.  Each test in a screen is one of cert_<regime>'s premises,
# evaluated with the float expression cert_<regime> evaluates it with, so no
# rounding margin is needed: a candidate a screen drops fails that premise in
# cert_<regime> too.  A horizon-wide premise is tested at one index, the one
# that asks the most of the witnesses (_binding).

_Screen = Callable[[Dict[str, float]], bool]


def _keep_all(p: MajorantParams, N: int) -> Optional[_Screen]:
    return lambda witnesses: True


def _binding(lhs: Sequence[float], scale: Sequence[float]) -> Optional[int]:
    """The index k whose premise lhs[k] <= c * scale[k] needs the largest c >= 0.

    That is the largest lhs[k]/scale[k], where a zero or underflowed scale
    needs an infinite c.  An lhs within _ABS_SLACK holds for every c >= 0 and
    is passed over; None if every lhs is.
    """
    best, need = None, -1.0
    for k, (a, s) in enumerate(zip(lhs, scale)):
        if a > _ABS_SLACK:
            r = a / s if s > 0.0 else math.inf
            if r > need:
                best, need = k, r
    return best


def _sandwich_screen(p: MajorantParams, N: int) -> Optional[_Screen]:
    """The lambda blanket and rho positivity, which no witness changes, then the
    witness ranges, the lambda-ratio premise at its binding index and the start
    window."""
    h = _horizon(p, N)
    if h.lam_neg is not None or h.lam_sup >= 1.0 or h.rho_nonpos:
        return None
    lam, rho = h.lam, h.rho
    ratios = [rho[k + 1] / rho[k] for k in range(N)]
    k = _binding(lam[1:], ratios)

    def keep(w: Dict[str, float]) -> bool:
        C1, C2 = w["C1"], w["C2"]
        disc = _window_disc(p.eta, C1, C2)
        if not (0.0 <= C1 < 1.0) or C2 < 0.0 or not disc >= 0.0:
            return False
        if k is not None and not _le(lam[k + 1], C1 * ratios[k]):
            return False
        return _le(h.r1, _c_rho(p.eta, C1, C2, disc) * rho[0])
    return keep


def _geometric_screen(p: MajorantParams, N: int) -> Optional[_Screen]:
    """The published eta premise at n = 1, and the published rho premise at its
    binding index."""
    h = _horizon(p, N)
    if h.lam_nonpos or h.lam_sup >= 1.0:
        return None
    lam, rho = h.lam, h.rho
    prods, prod = [], 1.0   # prod_{k=1}^{n} lambda_k, n = 1..N-1, as cert_geometric forms it
    for n in range(1, N):
        prod *= lam[n]
        prods.append(prod)
    k = _binding(rho[1:N], prods)

    def keep(w: Dict[str, float]) -> bool:
        chi, mu = w["chi"], w["mu"]
        z = w["lambda0_tilde"] * w["C_mu"]
        if N >= 1 and not _le(p.eta * z, (1.0 - chi) * mu * lam[1]):
            return False
        return k is None or _le(rho[k + 1], chi * mu * z * prods[k])
    return keep


def _quadratic_screen(p: MajorantParams, N: int) -> Optional[_Screen]:
    """eta > 0 and eta*r0 < 1, then the lambda and rho budgets at their binding
    indices."""
    h = _horizon(p, N)
    if p.eta <= 0.0 or not p.eta * p.r0 < 1.0:
        return None
    lam, theta_pow = h.lam, h.theta_pow
    eta_rho = [p.eta * v for v in h.rho[:N]]
    k = _binding(lam[:N], theta_pow)
    j = _binding(eta_rho, theta_pow[1:])

    def keep(w: Dict[str, float]) -> bool:
        chi, mu = w["chi"], w["mu"]
        return ((k is None or _le(lam[k], chi * mu * theta_pow[k]))
                and (j is None or _le(eta_rho[j], (1.0 - chi) * mu * theta_pow[j + 1])))
    return keep


class _Regime(NamedTuple):
    """witnesses: the names cert_<regime> takes after (p, N), in its argument
    order; grid: the search candidates in order; fallback: the witnesses whose
    failure certify reports when the search finds nothing (a witness-free
    regime has none: certify runs it directly); screen: the search's
    predicate on candidates (see the screens above).
    """

    witnesses: Tuple[str, ...]
    grid: Callable[[MajorantParams, int, int], Iterable[Dict[str, float]]]
    fallback: Optional[Callable[[MajorantParams, int], Dict[str, float]]] = None
    screen: Callable[[MajorantParams, int], Optional[_Screen]] = _keep_all


# the witness names come from regimes.WITNESSES; each regime adds its grid, fallback
# and screen
REGIMES: Dict[str, _Regime] = {name: _Regime(WITNESSES[name], *search) for name, search in {
    "bounded": (_no_witnesses,),
    "uniform_max": (_no_witnesses,),
    "sandwich": (_sandwich_grid, lambda p, N: {"C1": 0.5, "C2": _needed_c2(p, N)},
                 _sandwich_screen),
    "geometric": (_geometric_grid,
                  lambda p, N: {"chi": 0.5, "mu": 0.0, "lambda0_tilde": 1.0, "C_mu": 1.0},
                  _geometric_screen),
    "quadratic": (_quadratic_grid, lambda p, N: {"chi": 0.5, "mu": 0.0}, _quadratic_screen),
}.items()}


def _regime(regime: str) -> _Regime:
    try:
        return REGIMES[regime]
    except KeyError:
        raise MajorantError("unknown regime %r (expected one of %s)"
                            % (regime, ", ".join(REGIMES))) from None


def _run(regime: str, p: MajorantParams, N: int,
         witnesses: Optional[Dict[str, float]]) -> Certificate:
    """cert_<regime> on a witness mapping.  The function is looked up at call
    time, so wrappers installed on the module names (tracing, mocking) see
    every call."""
    args = []
    for name in REGIMES[regime].witnesses:
        if name not in witnesses:
            raise MajorantError("regime %r missing witness %r" % (regime, name))
        args.append(witnesses[name])
    return globals()["cert_" + regime](p, N, *args)


def certify(p: MajorantParams, regime: str, N: int,
            witnesses: Optional[Dict[str, float]] = None) -> Certificate:
    """Dispatch by regime name; witnesses=None triggers the grid search."""
    spec = _regime(regime)
    if witnesses is None and spec.fallback is not None:
        found = search_witnesses(p, regime, N)
        if found is not None:
            return found
        # report the failure of a fixed fallback witness set rather than nothing
        witnesses = spec.fallback(p, N)
    return _run(regime, p, N, witnesses)


def search_witnesses(p: MajorantParams, regime: str, N: int,
                     grid: int = 16) -> Optional[Certificate]:
    """Coarse witness search; returns the first valid certificate or None.

    The regime's screen skips, before their O(N) premise scans, the grid
    candidates that fail a premise of cert_<regime> it can test in O(1), and
    the whole grid when a premise no witness changes fails.  cert_<regime>
    still judges every candidate the screen keeps.  A skipped candidate is one
    cert_<regime> rejects, and rejected candidates are never reported, so the
    certificate found, and the fallback certify reports when none is, are the
    ones a search without the screen gives.
    """
    spec = _regime(regime)
    keep = spec.screen(p, N)
    if keep is None:
        return None
    for witnesses in spec.grid(p, N, grid):
        if keep(witnesses):
            cert = _run(regime, p, N, witnesses)
            if cert.valid:
                return cert
    return None


# ---------------------------------------------------------------------------
# a-posteriori tail bound and assumption precheck


def tail_bound(trace_r: Sequence[float], p: MajorantParams, n: int,
               horizon: int = 200) -> float:
    """Upper bound for ||x_n - x*|| = at most sum_{k>=n} r_k.

    Uses r_{n-1} from the measured trace and the majorant coefficients beyond
    it: with lambda_eff = sup lambda + eta * (uniform cap) < 1,
    tail <= (lambda_eff r_{n-1} + sum_{k>=n-1} rho_k) / (1 - lambda_eff).
    Returns +inf when the rho tail diverges; raises NoValidMajorantError when
    no lambda_eff < 1 can be certified.
    """
    if n < 1:
        raise PreconditionError("tail bound needs n >= 1")
    if len(trace_r) < n:
        raise PreconditionError("trace has %d step norms, need at least %d" % (len(trace_r), n))
    lam_sup = p.lam.sup_tail(n - 1)
    lam_eff = lam_sup
    if p.eta > 0.0:
        # one cap per params and horizon: every step of a trace reads the same one
        cap = p._caps.get(horizon)
        if cap is None:
            cap = p._caps[horizon] = cert_bounded(p, horizon)
        if not cap.valid:
            raise NoValidMajorantError(
                "eta > 0 and no uniform cap certificate: %s" % "; ".join(cap.detail))
        lam_eff = lam_sup + p.eta * cap.witnesses["C"]
    if lam_eff >= 1.0:
        raise NoValidMajorantError("effective lambda %r >= 1: tail not summable this way" % lam_eff)
    try:
        rho_tail = p.rho.tail_sum(n - 1)
    except SequenceError as exc:
        raise NoValidMajorantError("rho tail unavailable: %s" % exc)
    if math.isinf(rho_tail):
        return math.inf
    r_prev = trace_r[n - 1]
    return (lam_eff * r_prev + rho_tail) / (1.0 - lam_eff)


@dataclass
class PrecheckEntry:
    name: str
    status: str  # pass | fail | skipped
    detail: str


@dataclass
class PrecheckReport:
    entries: List[PrecheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def entry(self, name: str) -> PrecheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def precheck(c: ProblemConstants, r0: Optional[float] = None) -> PrecheckReport:
    """Report pass/fail per standing assumption before trusting any majorant."""
    entries: List[PrecheckEntry] = []

    if c.M_star < 1.0:
        entries.append(PrecheckEntry("M_star < 1", "pass", "M_star = %r" % c.M_star))
        q = c.q
        entries.append(PrecheckEntry("q < 1", "pass" if q < 1.0 else "fail",
                                     "q = (M + M_star)/(1 - M_star) = %r" % q))
    else:
        entries.append(PrecheckEntry("M_star < 1", "fail", "M_star = %r" % c.M_star))
        entries.append(PrecheckEntry("q < 1", "fail", "undefined: M_star >= 1"))

    entries.append(_summability_entry(c.eps_seq))

    ks = c.K_star
    entries.append(PrecheckEntry("K_star finite", "pass" if math.isfinite(ks) else "fail",
                                 "K_star = %r" % ks))

    if r0 is None:
        entries.append(PrecheckEntry("first step bound", "skipped", "no measured r_0 given"))
    else:
        m0 = c.m_at(0)
        if m0 >= 1.0:
            entries.append(PrecheckEntry("first step bound", "fail",
                                         "M_0 = %r >= 1, bound undefined" % m0))
        else:
            bound = (c.eps + c.eps_seq(0)) / (1.0 - m0)
            ok = _le(r0, bound)
            entries.append(PrecheckEntry(
                "first step bound", "pass" if ok else "fail",
                "r_0 = %r vs (eps + eps_0)/(1 - M_0) = %r" % (r0, bound)))
    return PrecheckReport(entries)


def _summability_entry(seq: ScalarSequence) -> PrecheckEntry:
    name = "eps series summable"
    if seq.is_summable():
        return PrecheckEntry(name, "pass", "closed form is summable")
    why = "closed form diverges"
    if seq.kind == "power" and seq.p <= 1.0:
        why = "harmonic-or-slower decay (p = %r <= 1)" % seq.p
    return PrecheckEntry(name, "fail", why)


# ---------------------------------------------------------------------------
# step-inequality audit


@dataclass
class AuditRow:
    part: int          # which step inequality (1, 2, 3, 4) was checked
    n: int
    lhs: float
    rhs: float
    ok: bool
    flagged: bool      # printed pairing failed but the index-shifted one held
    label: str = ""


@dataclass
class AuditReport:
    rows: List[AuditRow]

    @property
    def ok(self) -> bool:
        return all(row.ok or row.flagged for row in self.rows)


def step_inequality(c: ProblemConstants, scheme: SchemeKind, n: int, r_prev):
    """Right-hand side of the step inequality for r_n, without its M_n r_n term.

    Lipschitz form for contraction/custom, curvature form for newton; r_prev
    (r_{n-1}) is a float or an array.  modified_newton's inequality also needs
    r_tilde and is written out in audit_step_inequalities.
    """
    eps = c.eps_seq
    if scheme in (SchemeKind.CONTRACTION, SchemeKind.CUSTOM):
        return (c.M + c.m_at(n - 1)) * r_prev + eps(n - 1) + eps(n)
    if scheme is SchemeKind.NEWTON:
        return (0.5 * (c.K + c.k_at(n - 1)) * r_prev * r_prev
                + c.sigma_seq(n - 1) * r_prev + eps(n - 1) + eps(n))
    raise PreconditionError("no single-step inequality for scheme %r" % scheme)


def _audit_row(part: int, n: int, lhs: float, m_printed: float, m_shifted: float,
               common: float, slack: float, label: str) -> AuditRow:
    """lhs <= m_printed * lhs + common as printed; flagged if only m_shifted makes it hold."""
    rhs = m_printed * lhs + common
    ok = lhs <= rhs + slack
    flagged = not ok and lhs <= m_shifted * lhs + common + slack
    return AuditRow(part, n, lhs, rhs, ok or flagged, flagged, label)


def audit_step_inequalities(trace_r: Sequence[float], trace_rtilde: Sequence[float],
                            c: ProblemConstants, scheme: SchemeKind,
                            slack: float = 1e-12) -> AuditReport:
    """Check each step of a run against the inequality its scheme satisfies.

    Index 0 always gets the start inequality r_0 <= M_0 r_0 + eps + eps_0.
    The M pairing is checked exactly as stated for the scheme; if only the
    index-shifted pairing holds at some step the row is flagged, not failed.
    """
    rows: List[AuditRow] = []
    r = list(trace_r)
    rt = list(trace_rtilde)
    eps = c.eps_seq

    if r:
        rhs = c.m_at(0) * r[0] + c.eps + eps(0)
        rows.append(AuditRow(1, 0, r[0], rhs, r[0] <= rhs + slack, False, "start"))

    for n in range(1, len(r)):
        rn, rp = r[n], r[n - 1]
        m_n, m_prev = c.m_at(n), c.m_at(n - 1)
        if scheme is SchemeKind.MODIFIED_NEWTON:
            # distance-from-start inequality, printed with M_{n-1} against r_tilde_n
            rtn, rtp = rt[n], rt[n - 1]
            kk = c.K + c.k_at(n - 1)
            common_t = 0.5 * kk * rtp * rtp + c.gamma_seq(n - 1) * rtp + c.eps + eps(n - 1)
            rows.append(_audit_row(4, n, rtn, m_prev, m_n, common_t, slack,
                                   "distance-from-start"))
            common = (0.5 * kk * rp * rp
                      + (c.gamma_seq(n - 1) + kk * rtp) * rp + eps(n - 1) + eps(n))
            rows.append(_audit_row(4, n, rn, m_n, m_prev, common, slack, "step"))
        else:
            part, label = (3, "curvature") if scheme is SchemeKind.NEWTON else (2, "lipschitz")
            rows.append(_audit_row(part, n, rn, m_n, m_prev,
                                   step_inequality(c, scheme, n, rp), slack, label))
    return AuditReport(rows)
