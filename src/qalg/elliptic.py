"""Complete elliptic integrals, singular moduli and the j-invariant.

K and E are computed by the arithmetic-geometric mean, which converges
quadratically (iteration count ~ log2(digits)); the loop runs in fixed
point on Python integers, with math.isqrt for the square roots
(Brent-Zimmermann, Modern Computer Arithmetic, 3-4).  The singular modulus
k_r is the unique x in (0,1) with K(sqrt(1-x^2))/K(x) = sqrt(r).  It is
found by Newton on g(x) = K(x')/K(x) - sqrt(r) itself, whose derivative
Legendre's relation gives in closed form, so a step takes two AGMs, one
integer square root for x' and no logarithm.  Newton is seeded from a
30-digit theta quotient theta2^2/theta3^2 and run at precisions doubling
toward the working precision (Brent-Zimmermann, Modern Computer
Arithmetic, 4.2), so only the last step and the residual check run at
full precision.  For r < 1 the solve is for k'_r = k_{1/r}, so the
unknown always keeps full relative precision.  The theta quotient is only
a start: the root is that of K'/K, and every value is checked against its
defining residual before being returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import ConvergenceError, DomainError, InsufficientPrecision
from .precision import HPReal, PrecisionContext, exact, integer, to_mpf
from .qengine import eta_paper, make_nome, _qpow


def _agm_KE(k: HPReal, kp: HPReal):
    """(K(k), E(k), iterations) from one AGM of (1, k') at the current
    working precision, 0 <= k < 1, with kp = k' at full relative
    precision: for K(k'_r) that is k_r itself, which sqrt(1 - k'^2) would
    leave 2 |log10 k_r| digits short.  E comes from the c-sum
    E/K = 1 - (k^2/2 + sum_n 2^(n-2) d_n^2), d_n = a_n - b_n.

    The loop runs on integers scaled by 2^prec, square roots by
    math.isqrt.  prec is the working precision wp plus 20 guard bits plus
    the leading zero bits of b, so a tiny b keeps its relative precision.
    k_r has about 2.27 sqrt(r) zero bits, so while b/a < 2^-wp the steps
    run in mpf instead, each halving b's zero bits; E = K(1 - csum/4)
    then cancels log2 K bits, about the bit length of the zero count,
    which go into the guard.  Stops a few ulps early (the difference
    stalls at rounding noise) and takes one extra quadratic step, which
    lands below working precision.
    """
    wp, zeros = mp.mp.prec, -mp.mag(kp)
    prec, a, b, head, iters = wp + 20, mp.mpf(1), kp, mp.mpf(0), 0
    if zeros > wp:
        prec += zeros.bit_length()
        with mp.workprec(prec):
            while mp.mag(a) - mp.mag(b) > wp + 1:
                head += mp.ldexp((a - b) ** 2, iters)
                a, b = (a + b) / 2, mp.sqrt(a * b)
                iters += 1
    prec += max(0, -mp.mag(b))
    a, b, kf, head = (int(to_fixed(v._mpf_, prec)) for v in (a, b, k, head))
    eps = (1 << prec) // 10 ** (mp.mp.dps - 3)
    csum4 = (2 * kf * kf >> prec) + head  # 4 times the c-sum
    d = a - b
    while abs(d) > eps * a >> prec:
        a, b = (a + b) >> 1, math.isqrt(a * b)
        csum4 += d * d << iters >> prec  # d_n^2 2^n
        d = a - b
        iters += 1
        if iters > 10_000:
            raise ConvergenceError("AGM failed to converge")
    a, b = (a + b) >> 1, math.isqrt(a * b)
    csum4 += d * d << iters >> prec
    K = mp.pi / mp.ldexp(a + b, -prec)
    return K, K * mp.ldexp((4 << prec) - csum4, -prec - 2), iters + 1


def _exact_modulus(k) -> tuple[HPReal, HPReal]:
    """(k, k') at the working precision for an exact modulus 0 <= k < 1
    (see precision.exact).  1 - k^2 is formed before rounding: near k = 1
    that keeps the digits of k' that rounding k first would cancel away."""
    k = exact(k)
    if not (0 <= k < 1):
        raise DomainError(f"the modulus must satisfy 0 <= k < 1, got {k}")
    return to_mpf(k), mp.sqrt(to_mpf(1 - k * k))


def _modulus_agm(k, ctx: PrecisionContext):
    with ctx.workdps():
        return _agm_KE(*_exact_modulus(k))


def ellint_K(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the first kind, K(k) for 0 <= k < 1."""
    return _modulus_agm(k, ctx)[0]


def ellint_E(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the second kind via the AGM c-sum."""
    return _modulus_agm(k, ctx)[1]


_SEED_DIGITS = 25


def _theta_seed(s) -> HPReal:
    """k_s for s >= 1 to about _SEED_DIGITS digits: theta2^2/theta3^2 at
    q = exp(-pi sqrt(s)) <= e^-pi, summed to n = 5.  Computed at 30 digits
    rather than in floats, since k_s underflows a double past s ~ 2e5, and
    apart from qengine's theta sums, which k_r is checked against."""
    with mp.workdps(30):
        rt = mp.sqrt(s)
        q = mp.exp(-mp.pi * rt)
        t2 = 2 * mp.exp(-mp.pi * rt / 4) * sum(q ** (n * n + n) for n in range(6))
        t3 = 1 + 2 * sum(q ** (n * n) for n in range(1, 6))
        return (t2 / t3) ** 2


def _complement(x: HPReal) -> HPReal:
    """x' = sqrt(1 - x^2) at the working precision, by one math.isqrt on x
    scaled by 2^prec with ten guard bits.  For x = k_s, s >= 1, x' is at
    least about 1/sqrt(2), so the fixed point keeps its relative precision."""
    prec = mp.mp.prec + 10
    X = int(to_fixed(x._mpf_, prec))
    return +mp.ldexp(math.isqrt((1 << 2 * prec) - X * X), -prec)


def _newton_step(x: HPReal, rt: HPReal) -> HPReal:
    """The correction of one Newton step on g(x) = K(x')/K(x) - rt at the
    current working precision, x' = sqrt(1 - x^2).  By Legendre's relation
    g'(x) = -pi / (2 x x'^2 K(x)^2), so neither E nor a logarithm is
    needed."""
    xp = _complement(x)
    K = _agm_KE(x, xp)[0]
    Kp = _agm_KE(xp, x)[0]
    return (Kp / K - rt) * 2 * x * xp * xp * K * K / mp.pi


@lru_cache(maxsize=512)
def _singular_modulus_cached(r, ctx: PrecisionContext) -> tuple[HPReal, HPReal]:
    # Solve for x = k_s, s = max(r, 1/r), the smaller of k_r and
    # k'_r = k_{1/r}: x then carries full relative precision however small,
    # and the pair (k_r, k'_r) is returned so that neither is recomputed
    # from the other.  x moves by about pi sqrt(s)/2 times the relative
    # error of K'/K; the guard digits absorb that up to 10^(guard/2), and
    # past it the solve runs at the digits it costs, then rounds to ctx.
    log10_s = abs(math.log10(r.numerator) - math.log10(r.denominator))
    lost = int(math.log10(math.pi / 2) + log10_s / 2)
    wctx = PrecisionContext(ctx.digits + max(0, lost - ctx.guard // 2), ctx.guard)
    with wctx.workdps():
        rm = to_mpf(r)
        s = rm if rm >= 1 else 1 / rm
        rt = mp.sqrt(s)
        x = _theta_seed(s)
        if rm < 1 and mp.sqrt(1 - x * x) == 1:
            raise InsufficientPrecision(
                f"k_r rounds to 1 at {wctx.dps} working digits "
                f"(1 - k_r ~ {mp.nstr(x * x / 2, 3)})"
            )

    # Newton at precisions doubling toward wctx.dps: each step doubles the
    # correct digits, so only the last runs at full precision.  The +5
    # covers the 2-4 digits a step loses to the conditioning of g at tiny
    # x.  A full step is final once its correction is below half the
    # working digits, since the error after it is about the square.
    precs, p = [], wctx.dps
    while p > 2 * _SEED_DIGITS:
        p = p // 2 + 5
        precs.insert(0, p)
    for dps in precs + [wctx.dps] * ((wctx.dps - 1).bit_length() + 3):
        with mp.workdps(dps):
            step = _newton_step(+x, rt)
            x += step
            if x <= 0 or x >= 1:
                raise ConvergenceError("Newton left the unit interval")
            if dps == wctx.dps and abs(step) < x * mp.mpf(10) ** (-(dps // 2)):
                break

    with wctx.workdps():
        xp = _complement(x)
        K, Kp = _agm_KE(x, xp)[0], _agm_KE(xp, x)[0]
        resid = (Kp / K if rm >= 1 else K / Kp) - mp.sqrt(rm)
        if abs(resid) > mp.mpf(10) ** (-(wctx.digits - wctx.guard)):
            raise ConvergenceError(
                f"singular modulus residual {mp.nstr(abs(resid), 5)} too large"
            )
    with ctx.workdps():
        return (+x, +xp) if rm >= 1 else (+xp, +x)


def _modulus_pair(r, ctx: PrecisionContext) -> tuple[HPReal, HPReal]:
    """(k_r, k'_r), each to full relative precision: for r < 1, k'_r is
    tiny and sqrt(1 - k_r^2) would keep only its leading digits."""
    r = exact(r)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    return _singular_modulus_cached(r, ctx)


def singular_modulus(r, ctx: PrecisionContext) -> HPReal:
    """The singular modulus k_r in (0,1) for positive r (see precision.exact)."""
    return _modulus_pair(r, ctx)[0]


def singular_K(r, ctx: PrecisionContext) -> HPReal:
    """K(k_r), from the pair (k_r, k'_r) rather than from k_r alone."""
    with ctx.workdps():
        return _agm_KE(*_modulus_pair(r, ctx))[0]


def inverse_singular_modulus(x, ctx: PrecisionContext) -> HPReal:
    """k_i(x) = (K(sqrt(1-x^2))/K(x))^2, the inverse of r -> k_r."""
    with ctx.workdps():
        x, xp = _exact_modulus(x)
        if not x:
            raise DomainError("argument must lie in (0,1), got 0")
        return +((_agm_KE(xp, x)[0] / _agm_KE(x, xp)[0]) ** 2)


def elliptic_alpha(r, ctx: PrecisionContext) -> HPReal:
    """alpha(r) = E(k'_r)/K(k_r) - pi/(4 K(k_r)^2)."""
    with ctx.workdps():
        k, kp = _modulus_pair(r, ctx)
        K = singular_K(r, ctx)
        return +(_agm_KE(kp, k)[1] / K - mp.pi / (4 * K * K))


def multiplier(r, n: int, ctx: PrecisionContext) -> HPReal:
    """m_{n^2 r} = K(k_{n^2 r}) / K(k_r) for a positive integer n."""
    n = integer(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    r = exact(r)
    with ctx.workdps():
        if n == 1:
            return mp.mpf(1)
        return +(singular_K(r * n * n, ctx) / singular_K(r, ctx))


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
            k, kp = _modulus_pair(r, ctx)
            kp2 = kp * kp
            return +(256 * (k * k + kp2 * kp2) ** 3 / (k * k * kp2) ** 2)
        if via == "eta":
            nome = make_nome(r, ctx)
            e1 = eta_paper(1, nome)
            e2 = eta_paper(2, nome)
            t = _qpow(nome, Fraction(-1, 24)) * e1 / e2
            u = _qpow(nome, Fraction(1, 24)) * e2 / e1
            return +((t ** 16 + 16 * u ** 8) ** 3)
        raise DomainError(f"unknown j-invariant route {via!r}")


def theta_powersum_closed(m: int, r, ctx: PrecisionContext) -> HPReal:
    """Closed form of sum q^(n^2+mn) at q = exp(-pi sqrt(r)).

    Even m = 2t:  q^(-t^2) sqrt(2 K / pi).
    Odd  m:       2^(5/6) q^(-m^2/4) (k11 k12 k21)^(1/6) / k22^(1/3) sqrt(K/pi)
    with k11 = k_r, k12 = k'_r, k21 = k11^2/(1 + k12)^2 (= k_{4r}, the
    Landen value (1 - k12)/(1 + k12) without its cancellation as k_r -> 0)
    and k22 = sqrt(1 - k21^2).
    """
    m = integer(m)
    with ctx.workdps():
        nome = make_nome(r, ctx)
        k11, k12 = _modulus_pair(r, ctx)
        K = singular_K(r, ctx)
        if m % 2 == 0:
            t = m // 2
            return +(_qpow(nome, Fraction(-t * t)) * mp.sqrt(2 * K / mp.pi))
        k21 = k11 * k11 / (1 + k12) ** 2
        k22 = mp.sqrt(1 - k21 * k21)
        pref = mp.mpf(2) ** (mp.mpf(5) / 6) * _qpow(nome, Fraction(-m * m, 4))
        return +(pref * (k11 * k12 * k21) ** (mp.mpf(1) / 6)
                 / k22 ** (mp.mpf(1) / 3) * mp.sqrt(K / mp.pi))
