"""Complete elliptic integrals, singular moduli and the j-invariant.

K and E are computed by the arithmetic-geometric mean, which converges
quadratically (iteration count ~ log2(digits)).  The one AGM loop, `_agm`,
runs in fixed point on Python integers, with math.isqrt for the square
roots (Brent-Zimmermann, Modern Computer Arithmetic, 3-4), until
|a - b| <= 2^-(prec/4 + 2) a.  A closed form finishes it:
2 M(a, b) = (a + b) - (a - b)^2/(4 (a + b)), with relative error below
5 x^4/64, x = (a - b)/(a + b) <= 2^-(prec/4 + 3), under one ulp at prec
(Borwein & Borwein, Pi and the AGM, 1987).  E adds the c-sum, which the
Newton steps below skip; K and E of one modulus come from one AGM,
memoized on (k', dps).  The singular modulus k_r
is the unique x in (0,1) with K(sqrt(1-x^2))/K(x) = sqrt(r).  It is found
by Newton on g(x) = K(x')/K(x) - sqrt(r) = M(1, x')/M(1, x) - sqrt(r)
itself, whose derivative Legendre's relation gives in closed form, so a
step takes two AGMs, one integer square root for x' and no logarithm.
Newton is seeded from a 30-digit theta quotient theta2^2/theta3^2 and run
at precisions doubling toward the working precision (Brent-Zimmermann,
4.2), so only the last step and the residual check run at full
precision.  Between the seed and the returned pair the solve runs on
integers scaled by 2^P: the iterate and x', both AGMs, the step and the
residual, whose rounding error is stated where it is checked.  For r < 1
the solve is for k'_r = k_{1/r}, so the unknown always keeps full
relative precision: it is a P-bit mantissa with its own exponent,
corrected relatively.  The theta quotient is only a start: the root is
that of K'/K, and every value is checked against its defining residual
before being returned.  The two AGMs of that last residual also give
K(k_r), K(k'_r) and E(k'_r), the c-sum running on the one whose b is k_r;
they are cached with the pair, so K, alpha, the multiplier and the closed
theta sums run no AGM of their own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import dps_to_prec, pi_fixed, to_fixed

from .errors import ConvergenceError, DomainError, InsufficientPrecision
from .precision import HPReal, PrecisionContext, _shift, dyadic, exact, integer, power, to_mpf
from .qengine import _dual, _progression_product, _qpow, make_nome


def _man_exp(x: HPReal) -> tuple[int, int]:
    """(m, e) with x = m 2^e for a positive mpf x."""
    _, man, exp, _ = x._mpf_
    return int(man), exp


def _agm(man: int, exp: int, dps: int, csum: bool = False):
    """The AGM of (1, b), b = man 2^exp in (0, 1], on integers at dps
    digits: (S, prec, csum4, iterations), with S = 2 M(1, b) scaled by
    2^prec.  K(k) = pi/S for k = sqrt(1 - b^2).  With csum, csum4 is 4
    times the c-sum k^2/2 + sum_n 2^(n-2) d_n^2, d_n = a_n - b_n, scaled
    by 2^prec, k^2 = 1 - b^2 being formed on the integers (the sum is
    absolute, so b alone fixes it), and E(k) = K (1 - csum4/4); without
    it csum4 is None and the loop skips the sum.

    prec is the working precision wp + 20 guard bits plus the leading zero
    bits of b, so a tiny b keeps its relative precision.  k_r has about
    2.27 sqrt(r) zero bits, so while b/a < 2^-wp the steps run in mpf
    instead, each halving b's zero bits; E = K(1 - csum/4) then cancels
    log2 K bits, about the bit length of the zero count, which go into the
    guard.

    The steps stop once |d| <= 2^-(prec/4 + 2) a, and a closed form
    finishes: with m = (a + b)/2 and x = d/(2m), M(1 + x, 1 - x) =
    pi/(2 K(x)) = 1 - x^2/4 - 5 x^4/64 - ... (Borwein & Borwein, Pi and
    the AGM, 1987), so 2 M(a, b) = (a + b) - d^2/(4 (a + b)) with relative
    error below 5 x^4/64, x <= 2^-(prec/4 + 3): under one ulp at prec.
    That saves the last two square roots (Brent-Zimmermann, 4.8).  The
    c-sum adds the last term 2^n d^2 and the next, 2^(n+1) d_1^2 with
    d_1 = d^2/(8m), the same correction.  Each step floors a and b once,
    so S is within a few ulps per iteration of 2 M(1, b) 2^prec.
    """
    wp, zeros = dps_to_prec(dps), -(exp + man.bit_length())
    prec, head, iters = wp + 20, 0, 0
    if zeros > wp:
        prec += zeros.bit_length()
        with mp.workprec(prec):
            a, b, h = mp.mpf(1), mp.mpf((man, exp)), mp.mpf(0)
            while mp.mag(a) - mp.mag(b) > wp + 1:
                if csum:
                    h += mp.ldexp((a - b) ** 2, iters)
                a, b = (a + b) / 2, mp.sqrt(a * b)
                iters += 1
        prec += max(0, -mp.mag(b))
        a, b, head = (to_fixed(v._mpf_, prec) for v in (a, b, h))
    else:
        prec += max(0, zeros)
        a, b = 1 << prec, _shift(man, prec + exp)
    csum4 = None
    if csum:
        b0 = _shift(man, prec + exp)
        csum4 = 2 * ((1 << prec) - (b0 * b0 >> prec)) + head
    stop = prec // 4 + 2
    d = a - b
    while abs(d) > a >> stop:
        a, b = (a + b) >> 1, math.isqrt(a * b)
        if csum4 is not None:
            csum4 += d * d << iters >> prec  # d_n^2 2^n
        d = a - b
        iters += 1
        if iters > 10_000:
            raise ConvergenceError("AGM failed to converge")
    d1 = d * d // (4 * (a + b))
    if csum4 is not None:
        csum4 += (d * d << iters) + (d1 * d1 << iters + 1) >> prec
    return a + b - d1, prec, csum4, iters


def _K_E(S: int, prec: int, csum4: int) -> tuple[HPReal, HPReal]:
    """(K, E) at the working precision from an _agm result."""
    K = mp.pi / mp.ldexp(S, -prec)
    return K, K * mp.ldexp((4 << prec) - csum4, -prec - 2)


@lru_cache(maxsize=256)
def _agm_KE(man: int, exp: int, dps: int):
    """(K(k), E(k), iterations) at dps digits from one AGM of (1, k'),
    0 <= k < 1, with k' = man 2^exp at full relative precision: for
    K(k'_r) that is k_r itself, which sqrt(1 - k'^2) would leave
    2 |log10 k_r| digits short.  Memoized on (k', dps), so ellint_K,
    ellint_E and inverse_singular_modulus of one modulus share an AGM."""
    S, prec, csum4, iters = _agm(man, exp, dps, True)
    with mp.workdps(dps):
        return _K_E(S, prec, csum4) + (iters,)


def _exact_modulus(k) -> tuple[HPReal, HPReal]:
    """(k, k') at the working precision for an exact modulus 0 <= k < 1
    (see precision.exact).  1 - k^2 is formed before rounding: near k = 1
    that keeps the digits of k' that rounding k first would cancel away.
    For an mpf k = m 2^e it is the integer (1 << -2e) - m^2 times 2^(2e),
    rounded once to nearest as to_mpf rounds the rational, so no Fraction
    is formed."""
    if isinstance(k, mp.mpf):
        m, e = dyadic(k)
        e = min(e, 0)  # an e > 0 is a k >= 1 (or 0), refused below
        d = (1 << -2 * e) - m * m
        if m >= 0 and d > 0:
            return +k, mp.sqrt(mp.mpf((d, 2 * e)))
    else:
        x = exact(k)
        if 0 <= x < 1:
            return to_mpf(x), mp.sqrt(to_mpf(1 - x * x))
    raise DomainError(f"the modulus must satisfy 0 <= k < 1, got {k}")


def _modulus_agm(k, ctx: PrecisionContext):
    with ctx.workdps():
        return _agm_KE(*_man_exp(_exact_modulus(k)[1]), ctx.dps)


def ellint_K(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the first kind, K(k) for 0 <= k < 1."""
    return _modulus_agm(k, ctx)[0]


def ellint_E(k, ctx: PrecisionContext) -> HPReal:
    """Complete elliptic integral of the second kind via the AGM c-sum."""
    return _modulus_agm(k, ctx)[1]


_SEED_DIGITS = 25


def _theta_seed(s: Fraction) -> tuple[int, int]:
    """k_s for s >= 1 to about _SEED_DIGITS digits, as (X, E) with
    k_s = X 2^E: theta2^2/theta3^2 = 4 v^2 (t2/t3)^2 at v = q^(1/4) =
    exp(-pi sqrt(s)/4), q <= e^-pi, with t2 = sum q^(n^2+n) and
    t3 = 1 + 2 sum q^(n^2) summed to n = 5.  v is taken at 30 digits
    more than the integer digits of pi sqrt(s), as make_nome takes q,
    rather than in floats, since k_s underflows a double past s ~ 2e5;
    the sums, near 1, run on integers scaled by 2^100.  Apart from
    qengine's theta sums, which k_r is checked against."""
    log10_s = math.log10(s.numerator) - math.log10(s.denominator)
    with mp.workdps(30 + math.ceil(math.log10(math.pi) + log10_s / 2)):
        vm, ve = _man_exp(mp.exp(-mp.pi * mp.sqrt(to_mpf(s)) / 4))
    F = 100
    q = _shift(vm ** 4, 4 * ve + F)
    t2, t3, term, qn = 0, -1 << F, 1 << F, 1 << F
    for _ in range(6):  # term = q^(n^2), qn = q^n
        t3 += 2 * term
        term = term * qn >> F  # q^(n^2 + n)
        t2 += term
        qn = qn * q >> F
        term = term * qn >> F  # q^((n + 1)^2)
    return (vm * ((t2 << F) // t3)) ** 2, 2 * ve - 2 * F + 2


def _g(X: int, E: int, root: int, top: int, dps: int, csum: int | None = None):
    """g(x) = K(x')/K(x) - sqrt(s) = M(1, x')/M(1, x) - sqrt(s) at dps
    digits for x = X 2^E in (0, 1), on integers scaled by 2^P,
    P = wp + 20: (P, X, E, Xp, M1, G, agms) with X renormalised to P bits,
    x' = sqrt(1 - x^2) = Xp 2^-P by one math.isqrt, M1 = M(1, x') 2^P,
    G = g 2^P and agms the _agm results for (1, x') and (1, x); csum (0 or
    1) names the one that also runs the c-sum.  root = floor(sqrt(s) 2^top)
    is one math.isqrt of the exact s per solve, top >= P, and root shifted
    down by top - P is floor(sqrt(s) 2^P) exactly, since
    floor(floor(y 2^a) / 2^b) = floor(y 2^(a-b)).  x keeps its
    Z = -(E + P) leading zero bits in the exponent, so a tiny x keeps its
    relative precision; past Z = wp, M(1, x) starts in _agm's mpf steps."""
    P = dps_to_prec(dps) + 20
    n = X.bit_length() - P
    X, E = _shift(X, -n), E + n
    if X <= 0 or E + P > 0:
        raise ConvergenceError("Newton left the unit interval")
    Xp = math.isqrt((1 << 2 * P) - (X * X >> -2 * (E + P)))
    agms = _agm(Xp, -P, dps, csum == 0), _agm(X, E, dps, csum == 1)
    (S1, p1), (S2, p2) = agms[0][:2], agms[1][:2]
    G = _shift(S1, P + p2 - p1) // S2 - (root >> top - P)
    return P, X, E, Xp, _shift(S1, P - p1 - 1), G, agms


@lru_cache(maxsize=512)
def _singular_modulus_cached(r, ctx: PrecisionContext) -> tuple[HPReal, ...]:
    # Solve for x = k_s, s = max(r, 1/r), the smaller of k_r and
    # k'_r = k_{1/r}: x then carries full relative precision however small,
    # and the pair (k_r, k'_r) is returned so that neither is recomputed
    # from the other, with K(k_r), K(k'_r) and E(k'_r) from the AGMs of the
    # last residual.  x moves by about pi sqrt(s)/2 times the relative
    # error of K'/K; the guard digits absorb that up to 10^(guard/2), and
    # past it the solve runs at the digits it costs, then rounds to ctx.
    s = max(r, 1 / r)
    log10_s = abs(math.log10(r.numerator) - math.log10(r.denominator))
    lost = int(math.log10(math.pi / 2) + log10_s / 2)
    wctx = PrecisionContext(ctx.digits + max(0, lost - ctx.guard // 2), ctx.guard)
    X, E = _theta_seed(s)  # x = X 2^E
    top = dps_to_prec(wctx.dps) + 20
    root = math.isqrt((s.numerator << 2 * top) // s.denominator)

    # Newton at precisions doubling toward wctx.dps: each step doubles the
    # correct digits, so only the last runs at full precision.  The +5
    # covers the 2-4 digits a step loses to the conditioning of g at tiny
    # x.  A full step is final once its correction is below half the
    # working digits, since the error after it is about the square.  The
    # step -g/g' = g x x'^2 pi/(2 M(1, x')^2) is taken relative to x.
    precs, p = [], wctx.dps
    while p > 2 * _SEED_DIGITS:
        p = p // 2 + 5
        precs.insert(0, p)
    for dps in precs + [wctx.dps] * ((wctx.dps - 1).bit_length() + 3):
        P, X, E, Xp, M1, G, _ = _g(X, E, root, top, dps)
        step = X * (((G * Xp * Xp >> 2 * P) * pi_fixed(P) << P) // (2 * M1 * M1)) >> P
        X += step
        if dps == wctx.dps and abs(step) * 10 ** (dps // 2) < X:
            break

    # The residual g = K'/K - sqrt(s) on the same integers, for r < 1 as
    # well: K/K' - sqrt(r) is about g/s there, so a tiny r would pass any x.
    # Each AGM is within a few ulps per iteration of its value, so the
    # residual's rounding error is below sqrt(s) 2^(10-P), some
    # 10^-(dps + 4) sqrt(s).  That is 2 guard + 4 - log10 sqrt(s) digits
    # under the threshold 10^-(digits - guard): 34 at s = 10^20 with the
    # default guard of 20, and more for every smaller s.  The c-sum runs on
    # the AGM whose b is k_r, which gives E(k'_r).
    P, X, E, Xp, _, G, agms = _g(X, E, root, top, wctx.dps, int(r >= 1))
    resid = Fraction(G, 1 << P)
    if abs(resid) > Fraction(10) ** -(wctx.digits - wctx.guard):
        raise ConvergenceError(
            f"singular modulus residual {mp.nstr(to_mpf(abs(resid)), 5)} too large"
        )
    (S, p, _, _), (Sp, pp, csum4, _) = agms if r >= 1 else agms[::-1]
    with ctx.workdps():
        x, xp = mp.mpf((X, E)), mp.mpf((Xp, -P))
        K, (Kp, Ep) = mp.pi / mp.ldexp(S, -p), _K_E(Sp, pp, csum4)
    return ((x, xp) if r >= 1 else (xp, x)) + (K, Kp, Ep)


def _singular_values(r, ctx: PrecisionContext) -> tuple[HPReal, ...]:
    """(k_r, k'_r, K(k_r), K(k'_r), E(k'_r)) at ctx precision, k_r and
    k'_r each to full relative precision: for r < 1, k'_r is tiny and
    sqrt(1 - k_r^2) would keep only its leading digits.  k_r may round to
    1 there; every quantity below takes k'_r from the solve, and the
    integrals from the AGMs of its last residual."""
    r = exact(r)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    return _singular_modulus_cached(r, ctx)


def singular_modulus(r, ctx: PrecisionContext) -> HPReal:
    """The singular modulus k_r in (0,1) for positive r (see precision.exact).
    Raises InsufficientPrecision where k_r rounds to 1 at ctx.dps."""
    k, kp = _singular_values(r, ctx)[:2]
    if k == 1:
        with ctx.workdps():
            raise InsufficientPrecision(
                f"k_r rounds to 1 at {ctx.dps} working digits "
                f"(1 - k_r ~ {mp.nstr(kp * kp / 2, 3)})"
            )
    return k


def singular_K(r, ctx: PrecisionContext) -> HPReal:
    """K(k_r), from the k_r solve's AGM of (1, k'_r)."""
    return _singular_values(r, ctx)[2]


def inverse_singular_modulus(x, ctx: PrecisionContext) -> HPReal:
    """k_i(x) = (K(sqrt(1-x^2))/K(x))^2, the inverse of r -> k_r."""
    with ctx.workdps():
        x, xp = _exact_modulus(x)
        if not x:
            raise DomainError("argument must lie in (0,1), got 0")
        K_xp, K_x = (_agm_KE(*_man_exp(b), ctx.dps)[0] for b in (x, xp))
        return +((K_xp / K_x) ** 2)


def elliptic_alpha(r, ctx: PrecisionContext) -> HPReal:
    """alpha(r) = E(k'_r)/K(k_r) - pi/(4 K(k_r)^2), from the k_r solve."""
    _, _, K, _, Ep = _singular_values(r, ctx)
    with ctx.workdps():
        return +(Ep / K - mp.pi / (4 * K * K))


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
    via="eta":      Weber's form (t^24 + 16)^3 / t^24 (j = (f1^24 + 16)^3 /
                    f1^24), with t = q^(-1/24) prod_{n>=0} (1 - q^(2n+1)),
                    which is q^(-1/24) eta(1)/eta(2) in the prefactor-free
                    eta products, one progression product.  Below R0 t is
                    taken at the dual of eta(2), the nome w of parameter
                    4/r: eta(tau)/eta(2 tau) = sqrt 2 eta(-1/tau)/eta(-1/(2 tau))
                    gives t = sqrt(2) w^(1/24) / prod_{n>=0} (1 - w^(2n+1)).
    The two agree to working precision.
    """
    with ctx.workdps():
        if via == "modulus":
            k, kp = _singular_values(r, ctx)[:2]
            kp2 = kp * kp
            return +(256 * (k * k + kp2 * kp2) ** 3 / (k * k * kp2) ** 2)
        if via == "eta":
            nome = make_nome(r, ctx)
            if _dual(nome, 1):
                w = make_nome(4 / nome.r, ctx)
                t = mp.sqrt(2) * _qpow(w, Fraction(1, 24)) / _progression_product(1, 2, w)
            else:
                t = _qpow(nome, Fraction(-1, 24)) * _progression_product(1, 2, nome)
            t24 = t ** 24
            return +((t24 + 16) ** 3 / t24)
        raise DomainError(f"unknown j-invariant route {via!r}")


def theta_powersum_closed(m: int, r, ctx: PrecisionContext) -> HPReal:
    """Closed form of sum q^(n^2+mn) at q = exp(-pi sqrt(r)).

    Even m = 2t:  q^(-t^2) sqrt(2 K / pi).
    Odd  m:       2^(5/6) q^(-m^2/4) (k11 k12 k21)^(1/6) / k22^(1/3) sqrt(K/pi)
    with k11 = k_r, k12 = k'_r, k21 = k11^2/(1 + k12)^2 (= k_{4r}, the
    Landen value (1 - k12)/(1 + k12) without its cancellation as k_r -> 0)
    and k22 = 2 sqrt(k12)/(1 + k12) (= k'_{4r}, which sqrt(1 - k21^2)
    would cancel as k_r -> 1).
    """
    m = integer(m)
    with ctx.workdps():
        nome = make_nome(r, ctx)
        k11, k12, K = _singular_values(r, ctx)[:3]
        if m % 2 == 0:
            t = m // 2
            return +(_qpow(nome, Fraction(-t * t)) * mp.sqrt(2 * K / mp.pi))
        k21 = k11 * k11 / (1 + k12) ** 2
        k22 = 2 * mp.sqrt(k12) / (1 + k12)
        # 2^(5/6) (k11 k12 k21)^(1/6) / k22^(1/3) as one sixth root
        root = power(32 * k11 * k12 * k21 / (k22 * k22), Fraction(1, 6))
        return +(_qpow(nome, Fraction(-m * m, 4)) * root * mp.sqrt(K / mp.pi))
