"""Rogers-Ramanujan continued fraction, degree-5 modular relations,
Klein's j from the continued fraction, the sextic bridge and the
integral identities tying the bridge value to the incomplete beta
function of the singular modulus.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import BranchError, ConvergenceError, DomainError, SingularError
from .hpcore import _mul, tail_integral
from .precision import HPReal, PrecisionContext, exact, power, to_mpf
from .qengine import (
    AgileSpec,
    Nome,
    ThetaSpec,
    agile,
    eta_paper,
    make_nome,
    theta2,
    theta3,
    theta_general,
    _cosine_sum,
    _dual,
    _qfixed,
    _qpow,
    _rerun_if_cancelled,
    _term_count,
)
from .elliptic import (
    elliptic_alpha,
    inverse_singular_modulus,
    j_invariant,
    multiplier,
    singular_K,
    singular_modulus,
)
from .moebius import eta_qdlog, squarefree_divisors, theta_qdlog


class Residual(namedtuple("Residual", "lhs rhs note", defaults=("",))):
    """Two independently computed sides of one identity."""

    __slots__ = ()

    @property
    def diff(self) -> HPReal:
        return abs(self.lhs - self.rhs)


# ---------------------------------------------------------------------------
# Rogers-Ramanujan continued fraction
# ---------------------------------------------------------------------------

def rrcf(nome: Nome, method: str = "product") -> HPReal:
    """R(q) = q^(1/5) prod (1-q^n)^((n/5)), equal to the continued
    fraction q^(1/5)/(1 + q/(1 + q^2/(1 + ...))).

    method="product" uses the quotient of two-sided q-products, or
    where both take the dual nome (25 r < 1) the quotient of their cosine
    sums, which is all that is left of it there (_rrcf_dual);
    method="continued_fraction" evaluates the fraction by backward
    recurrence at a depth fixed in advance.  Below qengine.R0 it does so
    at 16/r, where the depth is O(1) rather than growing like r^(-1/4),
    through Ramanujan's reciprocity (phi + R(q))(phi + R(q*)) = phi sqrt 5,
    phi = (1 + sqrt 5)/2 and q* the nome of 16/r.

    With T = 1 + q/(1 + q^2/(1 + ...)), the convergents T_n alternate
    around T and every denominator B_n >= 1, so |T - T_n| <=
    q^((n+1)(n+2)/2); since T >= 1 the bound is also relative, and n
    comes from the shared truncation rule.  The
    recurrence t = 1 + q^k/t runs in tapered fixed point (qalg.qengine),
    each division at the width of q^k: a step truncates at most 2 ulps
    and q^k is at most 3k off, and since a step scales the error carried
    in t by q^k/t^2 < 1 the whole stays under 2 n^2 ulps.
    """
    ctx = nome.ctx
    if method == "product":
        with ctx.workdps():
            if _dual(nome, 25):
                return +_rerun_if_cancelled(_rrcf_dual, nome)
            val = (_qpow(nome, Fraction(1, 5))
                   * agile(AgileSpec(1, 5), nome)
                   / agile(AgileSpec(2, 5), nome))
            return +val
    if method == "continued_fraction":
        with ctx.workdps():
            if _dual(nome, Fraction(1, 4)):
                s5 = mp.sqrt(5)
                phi = (1 + s5) / 2
                return +(phi * s5 / (phi + rrcf(make_nome(16 / nome.r, ctx), method)) - phi)
            depth = _term_count(1, Fraction(1, 2), Fraction(3, 2), nome.tail)
            prec = mp.mp.prec + 2 * depth.bit_length() + 10
            Q, = _qfixed(nome, (1,), prec)
            powers = [Q]
            while len(powers) < depth and powers[-1]:
                L = powers[-1].bit_length()
                powers.append(powers[-1] * (Q >> prec - L) >> L)
            one = t = 1 << prec
            for P in reversed(powers):
                L = P.bit_length()
                t = one + (P << L) // (t >> prec - L)
            return +(_qpow(nome, Fraction(1, 5)) / mp.ldexp(t, -prec))
    raise DomainError(f"unknown rrcf method {method!r}")


def _rrcf_dual(nome: Nome) -> tuple[HPReal, int]:
    """(R, cancelled bits) where both agiles take the dual nome
    (25 r < 1): there R = q^(1/5) [1,5]/[2,5] = [1,5]*/[2,5]*, since the
    star exponents differ by 1/5, and the dual forms of the two (see
    qengine._agile_star_dual) share v, of parameter 4/(25 r), its
    v^(1/6) and its product, so R = S(3/10)/S(1/10), S the cosine sums
    at c = 1/2 - a/5."""
    with nome.ctx.workdps():
        v = make_nome(4 / (25 * nome.r), nome.ctx)
        s1, lost1 = _cosine_sum(Fraction(3, 10), v, nome)
        s2, lost2 = _cosine_sum(Fraction(1, 10), v, nome)
        return s1 / s2, max(lost1, lost2)


def klein_j_from_R(R, ctx: PrecisionContext) -> HPReal:
    """j from the continued-fraction value via Klein's relation
    -(R^20 - 228 R^15 + 494 R^10 + 228 R^5 + 1)^3 / (R^5 (R^10 + 11 R^5 - 1)^5),
    where R is the continued fraction at the squared nome."""
    with ctx.workdps():
        R = mp.mpf(R)
        if not (0 < R < 1):
            raise DomainError(f"R must lie in (0,1), got {R}")
        r5 = R ** 5
        den_core = r5 * r5 + 11 * r5 - 1
        if abs(den_core) < mp.mpf(10) ** -(ctx.digits - 2):
            raise SingularError("denominator R^10 + 11 R^5 - 1 vanishes")
        num = (r5 ** 4 - 228 * r5 ** 3 + 494 * r5 ** 2 + 228 * r5 + 1) ** 3
        return +(-num / (r5 * den_core ** 5))


# ---------------------------------------------------------------------------
# degree-5 modular relations
# ---------------------------------------------------------------------------

def modular5_check(nome: Nome) -> tuple[Residual, Residual]:
    """Residuals of the two degree-5 modular relations between k_r and
    k_{25r}, both moduli taken from theta quotients (at q and q^5).

    The sextic form vanishes with u = k_{25r}^(1/4), v = k_r^(1/4);
    (the printed orientation with u and v exchanged does not).
    """
    ctx = nome.ctx
    with ctx.workdps():
        nome5 = nome.scaled(Fraction(5))
        k = theta2(nome) ** 2 / theta3(nome) ** 2
        k25 = theta2(nome5) ** 2 / theta3(nome5) ** 2
        kp = mp.sqrt(1 - k * k)
        kp25 = mp.sqrt(1 - k25 * k25)
        lhs3 = k * k25 + kp * kp25 + power(32 * k * k25 * kp * kp25, Fraction(1, 3))
        first = Residual(+lhs3, mp.mpf(1), note="product-of-moduli relation")
        u = power(k25, Fraction(1, 4))
        v = power(k, Fraction(1, 4))
        lhs4 = (u ** 6 - v ** 6 + 5 * u * u * v * v * (u * u - v * v)
                + 4 * u * v * (1 - u ** 4 * v ** 4))
        second = Residual(+lhs4, mp.mpf(0), note="depressed sextic form, u=k_25r^(1/4)")
        return first, second


def ramanujan_modular5_check(nome: Nome) -> Residual:
    """Residual of R(q^(1/5))^5 against the degree-5 rational transform
    of R(q)."""
    ctx = nome.ctx
    with ctx.workdps():
        R = rrcf(nome)
        fifth = nome.scaled(Fraction(1, 5))
        lhs = rrcf(fifth) ** 5
        rhs = R * (1 - 2 * R + 4 * R ** 2 - 3 * R ** 3 + R ** 4) \
            / (1 + 3 * R + 4 * R ** 2 + 2 * R ** 3 + R ** 4)
        return Residual(+lhs, +rhs)


# ---------------------------------------------------------------------------
# the sextic bridge
# ---------------------------------------------------------------------------

def sextic_theta(nome: Nome, via: str = "theta") -> HPReal:
    """theta(5,1;q)^6 theta(5,3;q)^6 / (q^2 eta(10)^12); equal to
    R(q^2)^-5 - 11 - R(q^2)^5 (via="rrcf" evaluates that form)."""
    ctx = nome.ctx
    with ctx.workdps():
        if via == "theta":
            t1 = theta_general(ThetaSpec(5, 1), nome)
            t3 = theta_general(ThetaSpec(5, 3), nome)
            den = _qpow(nome, Fraction(2)) * eta_paper(10, nome) ** 12
            return +(t1 ** 6 * t3 ** 6 / den)
        if via == "rrcf":
            R = rrcf(nome.scaled(Fraction(2)))
            return +(R ** -5 - 11 - R ** 5)
        raise DomainError(f"unknown route {via!r}")


def sextic_Y_check(nome: Nome) -> dict:
    """Residuals of 3125 + 250 Y^6 + Y^12 = j^(1/3) Y^10, with
    Y^6 = q^-1 (eta(1)/eta(5))^6, for the j-argument candidates
    {r, 4r, r/4}, as {label: residual}.  The quarter argument satisfies
    the relation identically; at special r several arguments can share
    the same j value, so callers should treat the outcome as a
    measurement rather than a uniqueness assertion."""
    ctx = nome.ctx
    with ctx.workdps():
        y6 = eta_paper(1, nome) ** 6 / (eta_paper(5, nome) ** 6 * nome.q)
        lhs, y10 = 3125 + 250 * y6 + y6 ** 2, power(y6, Fraction(5, 3))
        return {label: +abs(lhs - power(j_invariant(arg, ctx), Fraction(1, 3)) * y10)
                for label, arg in (("r", nome.r), ("4r", 4 * nome.r), ("r/4", nome.r / 4))}


def solve_sextic(a, b, c, ctx: PrecisionContext) -> tuple[HPReal, Residual]:
    """Solve the sextic  b^2/(20a) + b Y + a Y^2 = c Y^(5/3), a != 0 and
    b != 0, on the principal branch: find r >= 1 with
    j(r) = 250 c^3/(a^2 b), then Y = b/(250a) (R(q^2)^-5 - 11 - R(q^2)^5)
    at q = exp(-pi sqrt(r)).  Returns (Y, residual-of-the-sextic).
    The bracket is positive on that branch, so b/(250a) must be too.

    With m = k_r^2 k'_r^2 in (0, 1/4], j = 256 (1 - m)^3/m^2, so
    y = 1/m - 1 is the largest root of the cubic y^3 = p (y + 1),
    p = j/256 >= 27/4; in trigonometric form
    y = 2 sqrt(p/3) cos(arccos((3/2) sqrt(3/p))/3).  Then
    k_r^2 = 2/((1 + y) + sqrt((y - 3)(y + 1))) and r is the inverse
    singular modulus of k_r.
    """
    with ctx.workdps():
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        if a == 0 or b == 0:
            raise DomainError("need a != 0 and b != 0")
        target = 250 * c ** 3 / (a * a * b)
        if not b / a > 0:
            raise DomainError("need b/(250a) > 0, else Y < 0 and Y^(5/3) is not real")
        if not target >= 1728:
            raise BranchError(
                f"j target {mp.nstr(target, 10)} below 1728; outside the principal branch"
            )
        p = target / 256
        # at j = 1728 rounding can push the argument past 1, and y below 3
        y = 2 * mp.sqrt(p / 3) * mp.cos(mp.acos(min(mp.mpf(1), 3 * mp.sqrt(3 / p) / 2)) / 3)
        k2 = 2 / ((1 + y) + mp.sqrt(max(y - 3, 0) * (y + 1)))
        r = inverse_singular_modulus(mp.sqrt(k2), ctx)
        nome = make_nome(+r, ctx)
        Y = b / (250 * a) * sextic_theta(nome, via="rrcf")
        resid = Residual(
            +(b * b / (20 * a) + b * Y + a * Y * Y),
            +(c * power(Y, Fraction(5, 3))),
            note=f"sextic at r={mp.nstr(r, 20)}",
        )
        return +Y, resid


# ---------------------------------------------------------------------------
# incomplete beta and the integral identities
# ---------------------------------------------------------------------------

# the most terms _beta_series sums; its guard bits cover this many
_BETA_TERMS = 1 << 18


def _beta_series(x: Fraction, p: Fraction, q: Fraction) -> HPReal:
    """B(x; p, q) for 0 < x <= 1/2 at the working precision.

    For q <= 1 this is x^p/p 2F1(p, 1-q; p+1; x) (DLMF 8.17.7); for q > 1
    that series alternates, and x^p (1-x)^q/p 2F1(p+q, 1; p+1; x) (DLMF
    8.17.8) is taken instead.  Either way the terms are positive, t_0 = 1
    and t_(n+1)/t_n = x (n + a)(n + b)/((n + c)(n + 1)) with a, b, c
    rational, so the 2F1 is summed on integers scaled by 2^P: each step
    multiplies by the exact rational factor and then by x, tapered to the
    width of the term (hpcore._mul), at most 3 ulps off.  A term
    carries a relative error of at most 3n ulps while terms exceed 1, and
    an absolute one of 3n ulps after that; the sum is at least 1, so 2
    log2 N + 8 guard bits cover N terms.  The sum stops at the first zero
    term with n >= 2q: every ratio from there on is below 3/4, so the tail
    is below three times that term's error.

    The term budget is 4 ceil(q) + 2P.  For q <= 1 each ratio is below
    x <= 1/2, so P + 1 terms fall below 2^-P.  For q > 1, t_n <= C(n + Q,
    Q) 2^-n with Q = ceil(q), and at n = 4Q + 2P the binomial is below
    2^(4Q + P) (its entropy bound), so t_n < 2^-P.  The terms grow for
    about x q/(1 - x) <= q steps first, to about 2^q, so a sum costs
    O((q + P)^2 P) bit operations: a budget above _BETA_TERMS (q above
    about 65000) raises ConvergenceError at once, and so does a sum still
    running at its budget.  At 60 digits q = 20000 takes about 0.3 s
    (x = 1/2); q = 10^6 and 10^9 are refused.
    """
    P = mp.mp.prec + 2 * _BETA_TERMS.bit_length() + 8
    budget = 4 * math.ceil(q) + 2 * P
    if budget > _BETA_TERMS:
        raise ConvergenceError(
            f"the beta series at q = {q} needs up to {budget} terms, "
            f"more than {_BETA_TERMS}")
    a, b = (p, 1 - q) if q <= 1 else (p + q, Fraction(1))
    D = math.lcm(a.denominator, b.denominator, p.denominator)
    A, B, C = (int(v * D) for v in (a, b, p + 1))
    X = (x.numerator << P) // x.denominator
    total = t = 1 << P
    n = 0
    while t or n < 2 * q:
        if n > budget:
            raise ConvergenceError(
                f"the beta series at x = {x}, q = {q} did not fall below 2^-{P} "
                f"in {budget} terms")
        t = _mul(t * ((n * D + A) * (n * D + B)) // ((n * D + C) * (n + 1) * D), X, P)
        total += t
        n += 1
    pref = power(x, p) / p
    if q > 1:
        pref *= power(1 - x, q)
    return pref * mp.ldexp(total, -P)


@lru_cache(maxsize=64)
def _complete_beta(p: Fraction, q: Fraction, dps: int) -> HPReal:
    """B(p, q) at dps digits.  With p0 and q0 the parts of p and q in (0, 1],
    B(p0, q0) = B(1/2; p0, q0) + B(1/2; q0, p0), two series whose terms
    shrink from the first; then B(p0, s + 1) = B(p0, s) s/(p0 + s) raises
    q0 to q, and B(s + 1, q) = B(s, q) s/(s + q) raises p0 to p.  These are
    ceil(p) + ceil(q) - 2 products by exact rationals, each rounding twice,
    so their count's bit length plus 4 guard bits cover them; the series at
    large q, whose terms first grow for about q steps, is never summed.
    More than _BETA_TERMS products raise ConvergenceError at once."""
    steps = math.ceil(p) + math.ceil(q) - 2
    if steps > _BETA_TERMS:
        raise ConvergenceError(
            f"B({p}, {q}) needs {steps} products, more than {_BETA_TERMS}")
    p0, q0 = p - math.ceil(p) + 1, q - math.ceil(q) + 1
    # the ratios on integers over the common denominator D
    D = math.lcm(p.denominator, q.denominator)
    pD, qD, p0D, q0D = (int(v * D) for v in (p, q, p0, q0))
    with mp.workdps(dps), mp.extraprec(steps.bit_length() + 4):
        half = Fraction(1, 2)
        b = _beta_series(half, p0, q0) + _beta_series(half, q0, p0)
        for s in range(q0D, qD, D):
            b = b * s / (p0D + s)
        for s in range(p0D, pD, D):
            b = b * s / (s + qD)
    with mp.workdps(dps):
        return +b


def incomplete_beta(x, p, q, ctx: PrecisionContext) -> HPReal:
    """B(x; p, q) = int_0^x t^(p-1) (1-t)^(q-1) dt for rational p, q > 0
    and 0 <= x <= 1.

    Up to x = 1/2 this is the integer series of _beta_series, whose terms
    shrink by a factor 3/4 or less a step once n >= 2q; above 1/2 the reflection
    B(p, q) - B(1-x; q, p) (DLMF 8.17.4) takes it back there, with the
    complete B(p, q) from the same series at parameters in (0, 1] and
    exact ratios (_complete_beta), cached per (p, q, dps): mpmath's beta
    goes through Gamma, whose first call at a new precision costs seconds
    at 1000 digits.  At 60 digits B(9/10; 1/2, 20000) takes about 0.13 s.
    A series whose term budget (4 ceil(q) + 2P, P about the working
    precision in bits) exceeds 2^18 raises ConvergenceError at once: q
    above about 65000 at 60 digits.

    Where y = x (1 + |q - 1|) < 2^-P, P the working bits, this is x^p/p
    from the mpf x, which need not be exact (k_{4r}^2 at
    r = 10^30 is about 3e-2728752707683682): each ratio of 2F1(p, 1-q;
    p+1; x) is below y in modulus, so the 2F1 is 1 within y/(1 - y) <
    2^(1-P).
    """
    p, q = Fraction(p), Fraction(q)
    if p <= 0 or q <= 0:
        raise DomainError("p and q must be positive")
    if isinstance(x, mp.mpf) and x > 0:
        with ctx.workdps():
            if x * to_mpf(1 + abs(q - 1)) < mp.ldexp(1, -mp.mp.prec):
                return +(power(x, p) / p)
    x = exact(x)
    if x < 0 or x > 1:
        raise DomainError(f"x must lie in [0,1], got {x}")
    if x == 0:
        return mp.mpf(0)
    with ctx.workdps():
        if 2 * x <= 1:
            return +_beta_series(x, p, q)
        return +(_complete_beta(p, q, ctx.dps) - (_beta_series(1 - x, q, p) if x < 1 else 0))


def theorem3_check(r, ctx: PrecisionContext) -> Residual:
    """The inverse-nome style identity: one fifth of the tail integral
    int_theta^inf dt / (t^(1/6) sqrt(125 + 22t + t^2)) against
    B(k_{4r}^2; 1/6, 2/3) / (5 * 4^(1/3)), theta being the sextic bridge
    value at q = exp(-pi sqrt(r)).

    The lhs is hpcore.tail_integral: convergent series of the integrand,
    with A = sqrt(125) (the modulus of the zeros of t^2 + 22t + 125) and
    three regions by theta:
      theta >= 2A (r = 1/2, 1): the expansion in A/t about infinity
        (Legendre polynomials), ratio A/theta;
      A/2 <= theta < 2A (r = 1/5, theta = A): a Taylor piece over
        [theta, 2 max(theta, A)] about its midpoint, ratio at most 3/5,
        plus the expansion about infinity from there, ratio 1/2;
      theta < A/2 (r < 1/5): the expansion in t/A about 0 from theta to
        A/2, ratio at most 1/2, plus the case above at A/2.
    Each series stops at the term count N that puts a closed-form bound on
    its dropped tail below 2^-(prec + 20), prec the working precision in
    bits: 6 rho^N / ((6N + e)(1 - rho)) for the Legendre series (|P_n| <=
    1, e = 1 or 5), and e sqrt(Q(c)) rho^N / (11 (N+1)^(5/6) (1 - rho
    (N+1)/N)) for the Taylor piece about c (a Cauchy estimate on a circle
    inside the distance c to t = 0).  At 120, 300 and 1000 digits the
    counts are 89, 196 and 614 terms at r = 1 and 174, 386 and 1210 at
    r = 1/2; r = 1/5 takes 311, 688 and 2156 Taylor terms plus 492, 1090
    and 3416 terms about infinity.  Summed on integers with guard bits for
    their rounding, the lhs is good to the working precision: the two
    sides differ by at most 2e-141, 1e-321 and 2e-1021 at these r.

    The two sides stay independent: the lhs expands only the algebraic
    integrand, the rhs is the 2F1 series of the incomplete beta in
    k_{4r}^2; neither uses Theorem 3.  The beta argument is the *square*
    of the singular modulus at 4r; the unsquared argument fails by O(0.1).
    """
    r = exact(r)
    with ctx.workdps():
        nome = make_nome(r, ctx)
        lhs = tail_integral(sextic_theta(nome), ctx) / 5
        k4r = singular_modulus(4 * r, ctx)
        rhs = incomplete_beta(k4r * k4r, Fraction(1, 6), Fraction(2, 3), ctx) \
            / (5 * power(4, Fraction(1, 3)))
        return Residual(+lhs, +rhs)


def eq43_derivative_check(r, ctx: PrecisionContext) -> Residual:
    """Central difference of r -> B(k_r^2; 1/6, 2/3) against the closed
    form -(pi/2) 4^(1/3) q^(1/6) eta(1)^4 / sqrt(r); the step is
    10^-(digits/4), so agreement is to roughly half the working digits."""
    r = exact(r)
    with ctx.workdps():
        h = mp.mpf(10) ** -(ctx.digits // 4)
        rm = to_mpf(r)

        def B(rv):
            k = singular_modulus(+rv, ctx)
            return incomplete_beta(k * k, Fraction(1, 6), Fraction(2, 3), ctx)

        lhs = (B(rm + h) - B(rm - h)) / (2 * h)
        nome = make_nome(r, ctx)
        rhs = -(mp.pi / 2) * power(4, Fraction(1, 3)) * _qpow(nome, Fraction(1, 6)) \
            * eta_paper(1, nome) ** 4 / mp.sqrt(rm)
        return Residual(+lhs, +rhs, note=f"central difference, h=1e-{ctx.digits // 4}")


def theorem4_check(p: int, r, ctx: PrecisionContext) -> Residual:
    """Eisenstein-type identity for prime p: the normalised log-derivative
    of eta(p)^(-(p-1)/2) prod_j theta(p/2,(p-2j)/2) against the alpha /
    multiplier combination at r and p^2 r.

    Evaluated literally; for p = 2 the product over j is empty and the
    literal form fails (callers record rather than assert that case).
    """
    p = int(p)
    if p < 2 or squarefree_divisors(p) != [(1, 1), (p, -1)]:
        raise DomainError(f"p must be prime, got {p}")
    r = exact(r)
    with ctx.workdps():
        nome = make_nome(r, ctx)
        sr = mp.sqrt(to_mpf(r))
        qd = -to_mpf(Fraction(p - 1, 2)) * eta_qdlog(p, nome)
        for j in range(1, (p - 1) // 2 + 1):
            qd += theta_qdlog(ThetaSpec(Fraction(p, 2), Fraction(p - 2 * j, 2)), nome)
        k = singular_modulus(r, ctx)
        K = singular_K(r, ctx)
        lhs = mp.pi ** 2 * sr / (4 * K * K) * (-1 + p - 24 * qd)
        kp2 = singular_modulus(p * p * r, ctx)
        m = multiplier(r, p, ctx)
        rhs = (6 * elliptic_alpha(r, ctx) - sr * (1 + k * k)
               + m * m * (-6 * elliptic_alpha(p * p * r, ctx)
                          + p * sr * (1 + kp2 * kp2)))
        return Residual(+lhs, +rhs)
