"""Nome construction and q-dependent building blocks.

The central objects are the two-sided products

    [a,p;q] = prod_{n>=0} (1 - q^(p*n+a)) (1 - q^(p*n+p-a)),   0 < a < p,

called *agiles*, their normalised companions
[a,p;q]* = q^(p/12 - a/2 + a^2/(2p)) [a,p;q], the alternating theta sums
theta(a,b;q) = sum_{n in Z} (-1)^n q^(a n^2 + b n), the classical theta2,
theta3, and the prefactor-free eta product eta(m) = prod (1 - q^(m*n)).

All parameters a, p, r are exact rationals (r enters through
precision.exact, so an mpf r is taken bit for bit); q = exp(-pi*sqrt(r)).
A power q^e is q raised to e for an integer e, and otherwise exp(-e x)
from the nome's unrounded x = pi*sqrt(r), so no logarithm is taken.
Truncation: one rule for every numeric q-series.  make_nome works out the
tail threshold X (q^x < 10^-(digits+guard) for all x > X) once, as
Nome.tail.  A product keeps every factor whose exponent is at most X, plus
one; a theta sum, a Lambert sum and the eta log-derivative (qalg.moebius)
keep their terms up to the first exponent above X; the triangular series
of agile_via_triangular keep those up to X.  The count comes in closed
form, each term follows from the last by multiplication, and a count above
ten million (q too close to 1) raises ConvergenceError.  A product is
formed in fixed point, on integers scaled by 2^prec with guard bits for
its factor count (Brent-Zimmermann, Modern Computer Arithmetic, 3-4);
the factors are the same ones.  The continued
fraction in modular.rrcf follows the same rule: its depth n is the
smallest with (n+1)(n+2)/2 > X, which bounds the convergent's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import ConvergenceError, DomainError, OrderError
from .precision import HPReal, PrecisionContext, exact, integer, to_mpf
from .series import FormalSeries, one_minus_power_product


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nome:
    """q = exp(-pi*sqrt(r)), 0 < q < 1, for an exact positive rational r,
    its exponent x = pi*sqrt(r), unrounded, and the truncation rule's
    tail threshold X.

    An mpf r (one that comes out of the inverse singular modulus) is
    stored as the dyadic rational it is, so scaling it loses nothing.
    """

    r: Fraction
    q: HPReal
    ctx: PrecisionContext
    tail: int
    x: HPReal

    def scaled(self, c: Fraction) -> "Nome":
        """The nome q**c, i.e. parameter c^2 * r."""
        c = exact(c)
        if c <= 0:
            raise DomainError("scale factor must be positive")
        return make_nome(self.r * c * c, self.ctx)


@dataclass(frozen=True)
class AgileSpec:
    """Parameters (a, p) of a two-sided q-product, 0 < a < p."""

    a: Fraction
    p: Fraction

    def __post_init__(self):
        a, p = Fraction(self.a), Fraction(self.p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)
        if not (0 < a < p):
            raise DomainError(f"need 0 < a < p, got a={a}, p={p}")


@dataclass(frozen=True)
class ThetaSpec:
    """Parameters (a, b) of the alternating sum  sum (-1)^n q^(a n^2 + b n)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a <= 0:
            raise DomainError(f"quadratic coefficient must be positive, got {a}")


def make_nome(r, ctx: PrecisionContext) -> Nome:
    r = exact(r)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    # q's relative error is x's absolute error: x = pi*sqrt(r) gets as many
    # extra digits as its integer part has.  X's ceiling is taken at 30
    # digits; only within about 10^-26 of an integer can that matter.
    with mp.workdps(ctx.dps + math.ceil(r).bit_length() * 3 // 20 + 1):
        x = mp.pi * mp.sqrt(to_mpf(r))
        q = mp.exp(-x)
    with mp.workdps(30):
        tail = int(mp.ceil(ctx.dps * mp.ln10 / x))
    with ctx.workdps():
        return Nome(r, +q, ctx, tail, x)


def star_exponent(a, p) -> Fraction:
    """The normalisation exponent p/12 - a/2 + a^2/(2p), exactly."""
    a, p = Fraction(a), Fraction(p)
    return p / 12 - a / 2 + a * a / (2 * p)


# ---------------------------------------------------------------------------
# internal truncation helpers (run under an active workdps)
# ---------------------------------------------------------------------------

_MAX_TERMS = 10_000_000


def _qpow(nome: Nome, e) -> HPReal:
    """q^e: by powering q for an integer e, otherwise as exp(-e x) from
    the nome's x = pi sqrt(r), with e x formed to the absolute precision
    the exponential needs (its sign goes into the exact product: negating
    an mpf would round it to the working precision)."""
    e = Fraction(e)
    if e.denominator == 1:
        return mp.power(nome.q, e.numerator)
    ex = mp.fmul(nome.x, -e.numerator, exact=True)
    return mp.exp(mp.fdiv(ex, e.denominator, prec=mp.mp.prec + max(0, mp.mag(ex))))


def _term_count(e0, a, b, stop) -> int:
    """Smallest n >= 2 with a*n^2 + b*n + e0 > stop (a >= 0, and b > 0
    when a == 0), in closed form.  Raises ConvergenceError when it
    exceeds the term budget _MAX_TERMS."""
    e0, a, b = Fraction(e0), Fraction(a), Fraction(b)

    def above(n: int) -> bool:
        return a * n * n + b * n + e0 > stop

    if above(2):
        return 2
    if a:
        # the larger root is sqrt(c^2 + (stop-e0)/a) - c; the integer
        # square root puts it within one of the answer
        c = b / (2 * a)
        n = math.floor(math.isqrt(math.floor(c * c + (stop - e0) / a)) - c) + 1
        if not above(n):
            n += 1
    else:
        n = math.floor((stop - e0) / b) + 1
    if n > _MAX_TERMS:
        raise ConvergenceError(
            f"truncation needs {n} terms, over the budget of {_MAX_TERMS}; "
            f"the nome is too close to 1")
    return n


def _progression_product(e0, step, t, qstep: HPReal, nome: Nome) -> HPReal:
    """prod_{n=0}^{N} (1 - q^(e0 + n*step)) given t = q^e0 and
    qstep = q^step: every factor up to the tail threshold, plus one.

    Leading factors with t >= 1 (e0 <= 0) are taken in mpf; the rest run
    on integers scaled by 2^prec, with log2 of the factor count plus ten
    guard bits for the one-ulp truncation each step makes in man and T.
    man is renormalised to at least half scale (ex counts the shifts), so
    a product near 0 keeps its relative precision.  Once T truncates to 0
    every later factor is exactly 1."""
    count = _term_count(e0, 0, step, nome.tail) + 1
    head = mp.mpf(1)
    while count and t >= 1:
        head *= 1 - t
        t *= qstep
        count -= 1
    prec = mp.mp.prec + count.bit_length() + 10
    half = 1 << (prec - 1)
    T = int(to_fixed(t._mpf_, prec))
    S = int(to_fixed(qstep._mpf_, prec))
    man, ex = 1 << prec, 0
    for _ in range(count):
        if not T:
            break
        man -= man * T >> prec
        T = T * S >> prec
        if man < half:
            shift = prec - man.bit_length()
            man <<= shift
            ex += shift
    return head * mp.ldexp(man, -prec - ex)


def _theta_terms(a, b, nome: Nome, margin=0) -> list:
    """The pairs (q^(a n^2 + b n), q^(a n^2 - b n)) for n = 1..N, up to
    the tail threshold plus margin on the smaller exponent, advanced by
    multiplication: term(n+1)/term(n) = q^(a(2n+1) +- b)."""
    count = _term_count(0, a, -abs(b), nome.tail + margin)
    qa, qb = _qpow(nome, a), _qpow(nome, b)
    q2a = qa * qa
    tp, tm = qa * qb, qa / qb
    step_p, step_m = tp * q2a, tm * q2a
    terms = []
    for _ in range(count):
        terms.append((tp, tm))
        tp *= step_p
        tm *= step_m
        step_p *= q2a
        step_m *= q2a
    return terms


def _agile_raw(a: Fraction, p: Fraction, nome: Nome) -> HPReal:
    """The two-sided product for any positive rational a (also a >= p,
    where early factors may be negative); used by the shift symmetries."""
    qa, qp = _qpow(nome, a), _qpow(nome, p)
    return (_progression_product(a, p, qa, qp, nome)
            * _progression_product(p - a, p, qp / qa, qp, nome))


def agile(spec: AgileSpec, nome: Nome) -> HPReal:
    """[a,p;q], truncated with tail below the guard threshold."""
    with nome.ctx.workdps():
        return +_agile_raw(spec.a, spec.p, nome)


def agile_star(spec: AgileSpec, nome: Nome) -> HPReal:
    """q^(p/12 - a/2 + a^2/(2p)) * [a,p;q] (principal positive branch)."""
    with nome.ctx.workdps():
        e = star_exponent(spec.a, spec.p)
        return +(_qpow(nome, e) * _agile_raw(spec.a, spec.p, nome))


def theta_general(spec: ThetaSpec, nome: Nome) -> HPReal:
    """sum_{n=-inf}^{inf} (-1)^n q^(a n^2 + b n), symmetric truncation."""
    with nome.ctx.workdps():
        terms = _theta_terms(spec.a, spec.b, nome)
        return +(1 + mp.fsum((-1) ** n * (tp + tm)
                             for n, (tp, tm) in enumerate(terms, 1)))


def theta2(nome: Nome) -> HPReal:
    """theta_2(q) = sum q^((n+1/2)^2) = q^(1/4) sum_{n in Z} q^(n^2+n)."""
    with nome.ctx.workdps():
        return +(_qpow(nome, Fraction(1, 4)) * theta_powersum(1, nome))


def theta3(nome: Nome) -> HPReal:
    """theta_3(q) = sum_{n in Z} q^(n^2)."""
    return theta_powersum(0, nome)


def theta_powersum(m: int, nome: Nome) -> HPReal:
    """sum_{n=-inf}^{inf} q^(n^2 + m*n), computed by direct summation.

    The smallest exponent is -m^2/4, so the cut sits m^2/4 + 1 further
    out to keep the tail below the threshold relative to the sum.
    (Closed forms in terms of K and the singular modulus live in
    :mod:`qalg.elliptic`; the harness compares the two.)
    """
    m = integer(m)
    with nome.ctx.workdps():
        terms = _theta_terms(1, m, nome, Fraction(m * m, 4) + 1)
        return +(1 + mp.fsum(tp + tm for tp, tm in terms))


def eta_paper(multiplier, nome: Nome) -> HPReal:
    """prod_{n>=1} (1 - q^(m*n)) for a positive rational multiplier m.

    This is the prefactor-free eta product used throughout the toolkit;
    no q^(1/24) factor is attached.
    """
    m = Fraction(multiplier)
    if m <= 0:
        raise DomainError(f"multiplier must be positive, got {m}")
    with nome.ctx.workdps():
        qm = _qpow(nome, m)
        return +_progression_product(m, m, qm, qm, nome)


def m_series(c: HPReal, w: HPReal, terms: int) -> HPReal:
    """sum_{n=0}^{terms-1} c^n * w^(n(n+1)/2) for |w| < 1, at the
    caller's working precision.

    c may exceed 1 in magnitude (the quadratic power of w eventually
    dominates); the caller takes the count from the truncation rule.
    """
    w, c = mp.mpf(w), mp.mpf(c)
    if abs(w) >= 1:
        raise DomainError("the quadratic base must satisfy |w| < 1")
    s = term = wn = mp.mpf(1)
    for _ in range(terms - 1):
        wn *= w                      # w^(n+1)
        term *= c * wn               # c^(n+1) w^((n+1)(n+2)/2)
        s += term
    return s


def agile_via_triangular(spec: AgileSpec, nome: Nome) -> HPReal:
    """[a,p;q] assembled from the triangular-number series:
    (M(-q^-a, q^p) - q^a M(-q^a, q^p)) / eta(p).  The n-th terms are
    +-q^(p n^2/2 + (p/2 -+ a) n); each series stops before the first n
    whose exponent exceeds the tail threshold.

    The numerator, about exp(-pi/(2p sqrt r)), is summed from terms of
    size 1; once the digits that cancellation costs exceed half the guard
    digits, the sums and eta(p) run on a nome with those digits added."""
    a, p = spec.a, spec.p
    ctx = nome.ctx
    with mp.workdps(30):
        lost = int(mp.pi / (2 * to_mpf(p) * mp.sqrt(to_mpf(nome.r)) * mp.ln10))
    if lost > ctx.guard // 2:
        # the term budget is checked before a nome of that precision is built
        _term_count(p, 0, p, nome.tail * (ctx.dps + lost) // ctx.dps)
        nome = make_nome(nome.r, PrecisionContext(ctx.digits + lost, ctx.guard))
    with nome.ctx.workdps():
        qa, qp = _qpow(nome, a), _qpow(nome, p)
        lo = m_series(-1 / qa, qp, _term_count(0, p / 2, p / 2 - a, nome.tail))
        hi = m_series(-qa, qp, _term_count(0, p / 2, p / 2 + a, nome.tail))
        value = (lo - qa * hi) / eta_paper(p, nome)
    with ctx.workdps():
        return +value


def tau_star(a, p, nome: Nome) -> HPReal:
    """[a,p;q^2]* / [a,p;q]* for positive rational a, p (a need not lie
    in (0,p): the ratio repeats when a is shifted by multiples of p or
    mirrored, which is what makes it worth exposing unrestricted)."""
    a, p = Fraction(a), Fraction(p)
    if a <= 0 or p <= 0:
        raise DomainError("a and p must be positive")
    if (a / p).denominator == 1:
        raise DomainError(f"a must not be a multiple of p (the factor 1 - q^0 "
                          f"vanishes), got a={a}, p={p}")
    nome2 = nome.scaled(Fraction(2))
    with nome.ctx.workdps():
        e = star_exponent(a, p)
        top = _qpow(nome2, e) * _agile_raw(a, p, nome2)
        bot = _qpow(nome, e) * _agile_raw(a, p, nome)
        return +(top / bot)


# ---------------------------------------------------------------------------
# exact q-expansions
# ---------------------------------------------------------------------------

def agile_qexpansion(a: int, p: int, order: int) -> FormalSeries:
    """Exact coefficients of [a,p;q] up to q**order (integer 0 < a < p)."""
    if order < 1:
        raise OrderError("order must be >= 1")
    a, p = int(a), int(p)
    if not (0 < a < p):
        raise DomainError(f"need integers 0 < a < p, got a={a}, p={p}")
    exps = []
    for n in range(0, order // p + 1):
        for e in (p * n + a, p * n + p - a):
            if e <= order:
                exps.append(e)
    return one_minus_power_product(exps, order)


def eta_qexpansion(multiplier: int, order: int) -> FormalSeries:
    """Exact coefficients of prod (1 - q^(m*n)) up to q**order."""
    m = int(multiplier)
    if m < 1 or order < 1:
        raise OrderError("need multiplier >= 1 and order >= 1")
    return one_minus_power_product(range(m, order + 1, m), order)


def theta_qexpansion(p: int, j: int, order: int) -> FormalSeries:
    """Exact expansion of sum (-1)^n q^((p n^2 + (p-2j) n)/2).

    The exponent p*n*(n+1)/2 - j*n is an integer for all n, so this is an
    honest power series; it equals eta(p) * [j,p;q] coefficientwise.
    """
    if order < 1:
        raise OrderError("order must be >= 1")
    p, j = int(p), int(j)
    terms: dict[int, int] = {0: 1}
    n = 1
    while True:
        ep = (p * n * n + (p - 2 * j) * n) // 2
        em = (p * n * n - (p - 2 * j) * n) // 2
        if min(ep, em) > order:
            break
        sign = -1 if n % 2 else 1
        for e in (ep, em):
            if e <= order:
                terms[e] = terms.get(e, 0) + sign
        n += 1
    return FormalSeries.from_terms(terms, order)
