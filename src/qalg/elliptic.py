"""Complete elliptic integrals, singular moduli and the j-invariant.

K and E are computed by the arithmetic-geometric mean, which converges
quadratically (iteration count ~ log2(digits)).  The singular modulus
k_r is the unique x in (0,1) with K(sqrt(1-x^2))/K(x) = sqrt(r); it is
found by bisection followed by Newton on the logarithmic form, and every
value is checked against its defining residual before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .precision import HPReal, PrecisionContext, to_mpf
from .qengine import eta_paper, make_nome, _qpow


def _agm_KE(k: HPReal):
    """(K(k), E(k), iterations) from one AGM of (1, k') at the current
    working precision (0 <= k < 1).  E comes from the c-sum
    E/K = 1 - (k^2/2 + sum_n 2^(n-2) d_n^2), d_n = a_n - b_n.

    Stops a few ulps early (the difference stalls at rounding noise) and
    takes one extra quadratic step, which lands below working precision.
    """
    a, b = mp.mpf(1), mp.sqrt(1 - k * k)
    eps = mp.mpf(10) ** (-mp.mp.dps + 3)
    csum4 = 2 * k * k  # 4 times the c-sum
    pw = 1
    d = a - b
    iters = 0
    while abs(d) > eps * a:
        a, b = (a + b) / 2, mp.sqrt(a * b)
        csum4 += d * d * pw
        pw *= 2
        d = a - b
        iters += 1
        if iters > 10_000:
            raise ConvergenceError("AGM failed to converge")
    a, b = (a + b) / 2, mp.sqrt(a * b)
    csum4 += d * d * pw
    K = mp.pi / (a + b)
    return K, K * (1 - csum4 / 4), iters + 1


def agm_iterations(k, ctx: PrecisionContext) -> int:
    """Iterations the AGM needs for K(k); exposed for the convergence
    contract (<= ceil(log2(digits)) + 5 away from the endpoints)."""
    with ctx.workdps():
        return _agm_KE(mp.mpf(k))[2]


def ellint_K(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the first kind, K(k) for 0 <= k < 1."""
    with ctx.workdps():
        k = mp.mpf(k)
        if k < 0 or k >= 1:
            raise DomainError(f"K requires 0 <= k < 1, got {k}")
        return +_agm_KE(k)[0]


def ellint_E(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the second kind via the AGM c-sum."""
    with ctx.workdps():
        k = mp.mpf(k)
        if k < 0 or k >= 1:
            raise DomainError(f"E requires 0 <= k < 1, got {k}")
        return +_agm_KE(k)[1]


def _dK_dk(k: HPReal, K: HPReal, E: HPReal) -> HPReal:
    return (E - (1 - k * k) * K) / (k * (1 - k * k))


@lru_cache(maxsize=512)
def _singular_modulus_cached(r, ctx: PrecisionContext) -> HPReal:
    with ctx.workdps():
        sqrt_r = mp.sqrt(to_mpf(r) if isinstance(r, Fraction) else mp.mpf(r))
        target = mp.log(sqrt_r)

        def g(x):
            kp = mp.sqrt(1 - x * x)
            return mp.log(_agm_KE(kp)[0]) - mp.log(_agm_KE(x)[0]) - target

        # bisection to ~12 digits; g is strictly decreasing with
        # g -> +inf at 0+ and -inf at 1-, so the endpoint signs are known
        # and never evaluated (at the endpoints 1 - x^2 rounds to 1)
        eps0 = mp.mpf(10) ** (-ctx.digits)
        lo, hi = eps0, 1 - eps0
        for _ in range(60):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < mp.mpf(10) ** (-12):
                break
        x = (lo + hi) / 2

        # Newton on g; quadratic convergence from the 12-digit seed
        for _ in range(int(mp.ceil(mp.log(ctx.dps, 2))) + 3):
            kp = mp.sqrt(1 - x * x)
            Kx, Ex, _ = _agm_KE(x)
            Kp, Ep, _ = _agm_KE(kp)
            gx = mp.log(Kp) - mp.log(Kx) - target
            gpx = -x * _dK_dk(kp, Kp, Ep) / (kp * Kp) - _dK_dk(x, Kx, Ex) / Kx
            step = gx / gpx
            x = x - step
            if x <= 0 or x >= 1:
                raise ConvergenceError("Newton left the unit interval")
            if abs(step) < mp.mpf(10) ** (-ctx.dps):
                break

        kp = mp.sqrt(1 - x * x)
        resid = _agm_KE(kp)[0] / _agm_KE(x)[0] - sqrt_r
        if abs(resid) > mp.mpf(10) ** (-(ctx.digits - ctx.guard)):
            raise ConvergenceError(
                f"singular modulus residual {mp.nstr(abs(resid), 5)} too large"
            )
        return +x


def singular_modulus(r, ctx: PrecisionContext) -> HPReal:
    """The singular modulus k_r in (0,1) for positive r (rational or mpf)."""
    if isinstance(r, mp.mpf):
        if r <= 0:
            raise DomainError(f"r must be positive, got {r}")
        return _singular_modulus_cached(r, ctx)
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    return _singular_modulus_cached(r, ctx)


def inverse_singular_modulus(x, ctx: PrecisionContext) -> HPReal:
    """k_i(x) = (K(sqrt(1-x^2))/K(x))^2, the inverse of r -> k_r."""
    with ctx.workdps():
        x = to_mpf(x) if isinstance(x, (Fraction, int, str)) else mp.mpf(x)
        if not (0 < x < 1):
            raise DomainError(f"argument must lie in (0,1), got {x}")
        kp = mp.sqrt(1 - x * x)
        return +((ellint_K(kp, ctx) / ellint_K(x, ctx)) ** 2)


def elliptic_alpha(r, ctx: PrecisionContext) -> HPReal:
    """alpha(r) = E(k'_r)/K(k_r) - pi/(4 K(k_r)^2)."""
    with ctx.workdps():
        k = singular_modulus(r, ctx)
        kp = mp.sqrt(1 - k * k)
        K = ellint_K(k, ctx)
        return +(ellint_E(kp, ctx) / K - mp.pi / (4 * K * K))


def multiplier(r, n: int, ctx: PrecisionContext) -> HPReal:
    """m_{n^2 r} = K(k_{n^2 r}) / K(k_r) for a positive integer n."""
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    r = Fraction(r) if not isinstance(r, mp.mpf) else r
    with ctx.workdps():
        if n == 1:
            return mp.mpf(1)
        k1 = singular_modulus(r, ctx)
        k2 = singular_modulus(r * n * n, ctx)
        return +(ellint_K(k2, ctx) / ellint_K(k1, ctx))


def j_invariant(r, ctx: PrecisionContext, via: str = "modulus") -> HPReal:
    """Klein's j at parameter r, through either of two routes.

    via="modulus":  256 (k^2 + k'^4)^3 / (k k')^4 with k = k_r.
    via="eta":      the eta-quotient form
                    [ (q^(-1/24) eta(1)/eta(2))^16 + 16 (q^(1/24) eta(2)/eta(1))^8 ]^3
                    with the prefactor-free eta products.
    The two agree to working precision.
    """
    with ctx.workdps():
        if via == "modulus":
            k = singular_modulus(r, ctx)
            kp2 = 1 - k * k
            return +(256 * (k * k + kp2 * kp2) ** 3 / (k * k * kp2) ** 2)
        if via == "eta":
            nome = make_nome(r, ctx)
            q = nome.q
            e1 = eta_paper(1, nome)
            e2 = eta_paper(2, nome)
            t = _qpow(q, Fraction(-1, 24)) * e1 / e2
            u = _qpow(q, Fraction(1, 24)) * e2 / e1
            return +((t ** 16 + 16 * u ** 8) ** 3)
        raise DomainError(f"unknown j-invariant route {via!r}")


def theta_powersum_closed(m: int, r, ctx: PrecisionContext) -> HPReal:
    """Closed form of sum q^(n^2+mn) at q = exp(-pi sqrt(r)).

    Even m = 2t:  q^(-t^2) sqrt(2 K / pi).
    Odd  m:       2^(5/6) q^(-m^2/4) (k11 k12 k21)^(1/6) / k22^(1/3) sqrt(K/pi)
    with k11 = k_r, k12 = k'_r, k21 = (2 - k11^2 - 2 k12)/k11^2 (= k_{4r})
    and k22 = sqrt(1 - k21^2).
    """
    m = int(m)
    with ctx.workdps():
        nome = make_nome(r, ctx)
        q = nome.q
        k11 = singular_modulus(r, ctx)
        K = ellint_K(k11, ctx)
        if m % 2 == 0:
            t = m // 2
            return +(_qpow(q, Fraction(-t * t)) * mp.sqrt(2 * K / mp.pi))
        k12 = mp.sqrt(1 - k11 * k11)
        k21 = (2 - k11 * k11 - 2 * k12) / (k11 * k11)
        k22 = mp.sqrt(1 - k21 * k21)
        pref = mp.mpf(2) ** (mp.mpf(5) / 6) * _qpow(q, Fraction(-m * m, 4))
        return +(pref * (k11 * k12 * k21) ** (mp.mpf(1) / 6)
                 / k22 ** (mp.mpf(1) / 3) * mp.sqrt(K / mp.pi))
