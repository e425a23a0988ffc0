"""The majorant recurrence in high precision, to judge the bounds a certificate asserts.

exact_recurrence(p, N) runs r_{n+1} = eta r_n^2 + lambda_n r_n + rho_n in
mpmath at 50 significant digits, over the doubles a horizon-N certificate
reads: eta, r0, and lambda_n, rho_n for n = 0..N-1 as the sequences give them.
Its error is some 34 digits below an ulp of a double, so a bound that is
valid in exact arithmetic compares with it as with the exact recurrence, and
no exponent range cuts it off.
"""
import mpmath


def exact_recurrence(p, N: int, dps: int = 50) -> list:
    """r_0..r_N as mpmath numbers, computed at dps significant digits."""
    lam, rho = p.lam.values(0, N), p.rho.values(0, N)
    with mpmath.workdps(dps):
        eta, r = mpmath.mpf(p.eta), [mpmath.mpf(p.r0)]
        for n in range(N):
            r.append(eta * r[-1] ** 2 + mpmath.mpf(lam[n]) * r[-1] + mpmath.mpf(rho[n]))
    return r
