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
ten million (q too close to 1) raises ConvergenceError.  The continued
fraction in modular.rrcf follows the same rule: its depth n is the
smallest with (n+1)(n+2)/2 > X, which bounds the convergent's error.

Fixed point: one rule for every numeric q-series loop, the products, the
theta sums, the Lambert sums and the continued fraction.  The terms are
the same ones, held as integers scaled by 2^prec (Brent-Zimmermann, Modern
Computer Arithmetic, 3-4), and each multiplication runs at the width its
result still needs: for y * T >> prec with T of L = T.bit_length() bits,
y is first cut to L bits, (y >> (prec - L)) * T >> L.  That step
truncates at most 2 ulps where the full-width one truncated 1, and its
cost falls as the terms decay.  prec is the working precision plus guard
bits for the step count (each kernel states its error bound).  A sum
whose terms start below 1 is formed as q^e1 times the fixed-point sum of
q^(e - e1), e1 its leading exponent, so it keeps its relative precision
however small q^e1 is; a theta sum is taken about its smallest exponent,
so all its terms are at most 1.  The integer sums are exact, so an
alternating sum knows the bits it cancelled: the bit length of its
largest term minus its own.  Past _SLACK of them the sum is taken once
more on a nome carrying them as extra digits, and a sum that still
cancels, or never rose above its error bound, raises
InsufficientPrecision.

Small r: the dual nome.  With q = e^(2 pi i tau), tau = i sqrt(r)/2, the
map tau -> -1/tau turns a sum over powers of q into one over a nome of
parameter c/r, whose terms fall like exp(-pi sqrt(c/r) n^2) where the
direct ones fall like exp(-pi sqrt(r) n^2): O(1) terms where the direct
sum needs O(1/sqrt r).  Below R0 = 1/8, and only where the dual terms
decay faster, these are taken at the dual nome:

  eta(m)             parameter 16/(m^2 r), where m^2 r < 4 (the eta
                     transformation, DLMF 23.15);
  theta(a, b)        1/(a^2 r), a sum with cosine weights, where
                     4 a^2 r < 1 (Poisson summation, DLMF 20.7(viii));
  theta_powersum     1/r (so theta2 and theta3), at every r below R0;
  [a,p], [a,p]*      4/(p^2 r), as theta(p/2, p/2 - a) / eta(p) (the
                     Jacobi triple product), where p^2 r < 1.

The dual sums run in the same kernels, and their prefactors are powers
of q and of the dual nome with exact exponents (_qpow), times a fourth
root of the dual parameter for eta and theta.  From R0 up every sum is
direct: the harness takes r >= 1/5 throughout, so each identity it
checks still compares two independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import ConvergenceError, DomainError, InsufficientPrecision, OrderError
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
    return _make_nome(exact(r), ctx)


@lru_cache(maxsize=256)
def _make_nome(r: Fraction, ctx: PrecisionContext) -> Nome:
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
# internal truncation and fixed-point helpers (run under an active workdps)
# ---------------------------------------------------------------------------

_MAX_TERMS = 10_000_000

# cancelled bits a fixed-point alternating sum may lose before it is rerun
_SLACK = 10

# below this r the sums whose dual terms decay faster are taken at the dual nome
R0 = Fraction(1, 8)


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


def _fixed(x: HPReal, prec: int) -> int:
    """x on an integer scaled by 2^prec (truncated)."""
    return int(to_fixed(x._mpf_, prec))


def _term_count(e0, a, b, stop) -> int:
    """Smallest n >= 2 with a*n^2 + b*n + e0 > stop (a >= 0, and b > 0
    when a == 0), in closed form on integers: over one denominator D the
    test is A n^2 + B n + E > 0, and the integer square root of the
    discriminant puts the larger root within one of the answer.  Raises
    ConvergenceError when it exceeds the term budget _MAX_TERMS."""
    D = math.lcm(e0.denominator, a.denominator, b.denominator, stop.denominator)
    A = a.numerator * (D // a.denominator)
    B = b.numerator * (D // b.denominator)
    E = e0.numerator * (D // e0.denominator) - stop.numerator * (D // stop.denominator)

    def above(n: int) -> bool:
        return (A * n + B) * n + E > 0

    if above(2):
        return 2
    n = (math.isqrt(B * B - 4 * A * E) - B) // (2 * A) + 1 if A else -E // B + 1
    while not above(n):
        n += 1
    if n > _MAX_TERMS:
        raise ConvergenceError(
            f"truncation needs {n} terms, over the budget of {_MAX_TERMS}; "
            f"the nome is too close to 1")
    return n


def _progression_product(e0, step, t, qstep: HPReal, nome: Nome) -> HPReal:
    """prod_{n=0}^{N} (1 - q^(e0 + n*step)) given t = q^e0 and
    qstep = q^step: every factor up to the tail threshold, plus one.

    Leading factors with t >= 1 (e0 <= 0) are taken in mpf; the rest run
    in tapered fixed point (see the module docstring), with log2 of the
    factor count plus eleven guard bits for the two ulps each step may
    truncate in man and T.  man is renormalised to at least half scale
    (ex counts the shifts), so a product near 0 keeps its relative
    precision.  Once T truncates to 0 every later factor is exactly 1."""
    count = _term_count(e0, 0, step, nome.tail) + 1
    head = mp.mpf(1)
    while count and t >= 1:
        head *= 1 - t
        t *= qstep
        count -= 1
    prec = mp.mp.prec + count.bit_length() + 11
    half = 1 << (prec - 1)
    T, S = _fixed(t, prec), _fixed(qstep, prec)
    man, ex = 1 << prec, 0
    for _ in range(count):
        if not T:
            break
        L = T.bit_length()
        sh = prec - L
        man -= (man >> sh) * T >> L
        T = T * (S >> sh) >> L
        if man < half:
            shift = prec - man.bit_length()
            man <<= shift
            ex += shift
    return head * mp.ldexp(man, -prec - ex)


def _theta_terms(a, b, nome: Nome, margin=0, shift=0) -> tuple[int, list]:
    """(prec, pairs) for |b| <= a: the pairs (q^(a n^2 + b n - shift),
    q^(a n^2 - b n - shift)) for n = 1..N on integers scaled by 2^prec,
    up to the tail threshold plus margin on the smaller exponent, advanced
    by tapered multiplication: term(n+1)/term(n) = q^(a(2n+1) +- b), and
    each step factor by q^(2a).  The truncations put each pair's term n
    at most 2n^2 ulps off, all of them together under 4N^3 < 2^(E-1)
    with E = 3 bit_length(N) + 3; prec carries _SLACK bits more."""
    count = _term_count(0, a, -abs(b), nome.tail + margin)
    prec = mp.mp.prec + 3 * count.bit_length() + 3 + _SLACK
    with mp.workprec(prec):
        TP, TM, SP, SM, Q2A = (_fixed(_qpow(nome, e), prec) for e in (
            a + b - shift, a - b - shift, 3 * a + b, 3 * a - b, 2 * a))
    terms = []
    for _ in range(count):
        terms.append((TP, TM))
        if not (TP or TM):
            break
        L = SP.bit_length()
        sh = prec - L
        TP = (TP >> sh) * SP >> L
        SP = SP * (Q2A >> sh) >> L
        L = SM.bit_length()
        sh = prec - L
        TM = (TM >> sh) * SM >> L
        SM = SM * (Q2A >> sh) >> L
    return prec, terms


def _theta_shift(a, b) -> tuple[int, Fraction, Fraction]:
    """(n0, b', e0) with a n^2 + b n = a k^2 + b' k + e0 for n = k + n0
    and -a < b' <= a: e0 = a n0^2 + b n0 is the sum's smallest exponent,
    so sum (-1)^n q^(a n^2 + b n) = (-1)^n0 q^e0 theta(a, b')."""
    n0 = math.floor((a - b) / (2 * a))
    return n0, b + 2 * a * n0, a * n0 * n0 + b * n0


def _cancelled(total: int, largest: int, noise: int, nome: Nome) -> int:
    """The bits an exact integer sum lost to cancellation: the bit length
    of its largest term (given as largest) minus its own.  A sum that does
    not rise above the 2^noise ulps its terms may be off by raises
    InsufficientPrecision."""
    bits = abs(total).bit_length()
    if bits <= noise:
        raise InsufficientPrecision(
            f"the alternating sum at r = {nome.r} cancels below its error bound "
            f"at {nome.ctx.digits} digits; ask for more digits")
    return largest - bits


def _rerun_if_cancelled(kernel, nome: Nome) -> HPReal:
    """kernel(nome) -> (value, cancelled bits).  A sum that lost more than
    _SLACK bits is summed once more on a nome carrying those bits as
    extra digits (precision and tail threshold both grow); if it cancels
    further still, InsufficientPrecision."""
    value, lost = kernel(nome)
    if lost > _SLACK:
        ctx = nome.ctx
        digits = ctx.digits + math.ceil(lost * math.log10(2)) + 1
        value, again = kernel(make_nome(nome.r, PrecisionContext(digits, ctx.guard)))
        if again > lost + _SLACK:
            raise InsufficientPrecision(
                f"the alternating sum at r = {nome.r} cancels more than {again} bits; "
                f"{digits} digits were not enough")
    return value


def _agile_raw(a: Fraction, p: Fraction, nome: Nome) -> HPReal:
    """The two-sided product for any positive rational a (also a >= p,
    where early factors may be negative); used by the shift symmetries."""
    qa, qp = _qpow(nome, a), _qpow(nome, p)
    return (_progression_product(a, p, qa, qp, nome)
            * _progression_product(p - a, p, qp / qa, qp, nome))


def _dual(nome: Nome, s) -> bool:
    """Whether a sum is taken at the dual nome: below R0, and where
    s r < 1, which is where its dual terms decay faster (s = 4a^2 for
    theta(a, b), m^2/4 for eta(m), 1 for the power sums, p^2 for [a,p],
    1/4 for the continued fraction of modular.rrcf)."""
    return nome.r < R0 and s * nome.r < 1


def _agile_star_dual(a: Fraction, p: Fraction, nome: Nome) -> HPReal:
    """[a,p;q]* for 0 < a < p as theta(p/2, p/2 - a) / eta(p) (the Jacobi
    triple product), both at their dual nomes: theta's is v, of parameter
    4/(p^2 r), and eta(p)'s is v^2.  Their fourth roots cancel and their
    powers of q leave q^-e, e = star_exponent(a, p), so
    [a,p;q]* = v^(1/6) S / prod_{n>=1} (1 - v^(2n)),
    S the cosine sum of _cosine_sum at c = 1/2 - a/p."""

    def kernel(nm: Nome):
        with nm.ctx.workdps():
            v = make_nome(4 / (p * p * nm.r), nm.ctx)
            s, lost = _cosine_sum(Fraction(1, 2) - a / p, v, nm)
            v2 = _qpow(v, 2)
            return _qpow(v, Fraction(1, 6)) * s / _progression_product(2, 2, v2, v2, v), lost

    return _rerun_if_cancelled(kernel, nome)


def agile(spec: AgileSpec, nome: Nome) -> HPReal:
    """[a,p;q], truncated with tail below the guard threshold; at the dual
    nome where p^2 r < 1."""
    a, p = spec.a, spec.p
    with nome.ctx.workdps():
        if _dual(nome, p * p):
            return +(_qpow(nome, -star_exponent(a, p)) * _agile_star_dual(a, p, nome))
        return +_agile_raw(a, p, nome)


def agile_star(spec: AgileSpec, nome: Nome) -> HPReal:
    """q^(p/12 - a/2 + a^2/(2p)) * [a,p;q] (principal positive branch)."""
    a, p = spec.a, spec.p
    with nome.ctx.workdps():
        if _dual(nome, p * p):
            return +_agile_star_dual(a, p, nome)
        return +(_qpow(nome, star_exponent(a, p)) * _agile_raw(a, p, nome))


def _theta(a: Fraction, b: Fraction, nome: Nome, dual: bool) -> HPReal:
    """sum (-1)^n q^(a n^2 + b n) as (-1)^n0 q^e0 theta(a, b'), -a < b' <= a
    (see _theta_shift); 0 at b' = a, where the terms n and -1-n cancel in
    pairs.  theta(a, b') is summed directly about its smallest exponent,
    or at the dual nome v of parameter 1/(a^2 r) by Poisson summation:
    theta(a, b') = (a^2 r)^(-1/4) q^(-b'^2/(4a)) v^(1/4) S,
    S the cosine sum of _cosine_sum at c = b'/(2a).  A sum that cancels
    is summed again wider (_rerun_if_cancelled)."""
    n0, b, e0 = _theta_shift(a, b)

    def kernel(nm: Nome):
        with nm.ctx.workdps():
            if dual:
                v = make_nome(1 / (a * a * nm.r), nm.ctx)
                s, lost = _cosine_sum(b / (2 * a), v, nm)
                return s * mp.root(to_mpf(v.r), 4) * _qpow(v, Fraction(1, 4)), lost
            # 1 + sum_{n>=1} (-1)^n (q^(a n^2 + b n) + q^(a n^2 - b n)): the 1 is the largest term
            prec, terms = _theta_terms(a, b, nm)
            s = ((1 << prec) - sum(tp + tm for tp, tm in terms[::2])
                 + sum(tp + tm for tp, tm in terms[1::2]))
            noise = 3 * len(terms).bit_length() + 3
            return mp.ldexp(s, -prec), _cancelled(s, prec + 1, noise, nm)

    if b == a:
        return mp.mpf(0)
    s = _rerun_if_cancelled(kernel, nome)
    if dual:
        e0 -= b * b / (4 * a)
    return +(_qpow(nome, e0) * (-s if n0 % 2 else s))


def _cosine_sum(c: Fraction, v: Nome, nome: Nome) -> tuple[HPReal, int]:
    """(S, cancelled bits), S = sum_{k in Z} v^(k^2 + k) cos(pi (2k+1) c)
    for |c| < 1/2, so that the leading terms k = 0, -1 are 2 cos(pi c) > 0;
    nome is the sum's own, named in a refusal.  With v^(k^2 + k) from
    _theta_terms(1, 1), the pair (v^(n^2+n), v^(n^2-n)) is the terms k = n
    and k = -n, of weights C_n and C_(n-1), C_j = cos(pi (2j+1) c).  The
    weights follow C_(j+1) = 2 cos(2 pi c) C_j - C_(j-1) on the same
    integers, with cos(2 pi c) = 2 C_0^2 - 1; each step truncates 1 ulp
    and the recurrence carries an error at most linearly, so C_j is off by
    (j+2)^2 ulps, which the terms' own bound covers."""
    prec, terms = _theta_terms(1, 1, v)
    with mp.workprec(prec):
        C = _fixed(mp.cospi(to_mpf(c)), prec)
    weights = [C, C]
    s = C
    D = (C * C >> (prec - 1)) - (1 << prec)
    for tp, tm in terms:
        weights.append((D * weights[-1] >> (prec - 1)) - weights[-2])
        s += (tp * weights[-1] + tm * weights[-2]) >> prec
    noise = 3 * len(terms).bit_length() + 3
    return mp.ldexp(s, -prec), _cancelled(s, prec + 1, noise, nome)


def theta_general(spec: ThetaSpec, nome: Nome) -> HPReal:
    """sum_{n=-inf}^{inf} (-1)^n q^(a n^2 + b n), symmetric truncation
    about its smallest exponent (see _theta); at the dual nome where
    4 a^2 r < 1."""
    with nome.ctx.workdps():
        return _theta(spec.a, spec.b, nome, _dual(nome, 4 * spec.a ** 2))


def theta2(nome: Nome) -> HPReal:
    """theta_2(q) = sum q^((n+1/2)^2) = q^(1/4) sum_{n in Z} q^(n^2+n)."""
    with nome.ctx.workdps():
        return +(_qpow(nome, Fraction(1, 4)) * theta_powersum(1, nome))


def theta3(nome: Nome) -> HPReal:
    """theta_3(q) = sum_{n in Z} q^(n^2)."""
    return theta_powersum(0, nome)


def theta_powersum(m: int, nome: Nome) -> HPReal:
    """sum_{n=-inf}^{inf} q^(n^2 + m*n), computed by direct summation,
    or at the dual nome (see _powersum).  (Closed forms in terms of K and
    the singular modulus live in :mod:`qalg.elliptic`; the harness
    compares the two.)"""
    with nome.ctx.workdps():
        return _powersum(integer(m), nome, _dual(nome, 1))


def _powersum(m: int, nome: Nome, dual: bool) -> HPReal:
    """With m = 2t + m', m' in {0, 1}, n^2 + m n = k^2 + m' k - t(t + m')
    for k = n + t, so the sum is q^(-t(t+m')) times the m' sum, whose
    terms are all positive and at most 1; that sum is cut m'/4 + 1
    beyond the tail threshold.  At the dual nome w of parameter 1/r
    (Poisson summation) the sum is
    r^(-1/4) q^(-m^2/4) sum_{k in Z} (-1)^(k m') w^(k^2),
    a sum led by 1 that cannot cancel, since w < e^(-pi sqrt 8)."""
    t, m1 = divmod(m, 2)
    if dual:
        dual_nome = make_nome(1 / nome.r, nome.ctx)
        prec, terms = _theta_terms(1, 0, dual_nome)
        odd = sum(tp + tm for tp, tm in terms[::2])
        s = (1 << prec) + sum(tp + tm for tp, tm in terms[1::2]) + (-odd if m1 else odd)
        return +(mp.ldexp(s, -prec) * mp.root(to_mpf(dual_nome.r), 4)
                 * _qpow(nome, Fraction(-m * m, 4)))
    prec, terms = _theta_terms(1, m1, nome, Fraction(m1, 4) + 1)
    s = mp.ldexp((1 << prec) + sum(tp + tm for tp, tm in terms), -prec)
    return +(_qpow(nome, -t * (t + m1)) * s)


def eta_paper(multiplier, nome: Nome) -> HPReal:
    """prod_{n>=1} (1 - q^(m*n)) for a positive rational multiplier m,
    at the dual nome where m^2 r < 4 (see _eta).

    This is the prefactor-free eta product used throughout the toolkit;
    no q^(1/24) factor is attached.
    """
    m = Fraction(multiplier)
    if m <= 0:
        raise DomainError(f"multiplier must be positive, got {m}")
    with nome.ctx.workdps():
        return +_eta(m, nome, _dual(nome, m * m / 4))


def _eta(m: Fraction, nome: Nome, dual: bool) -> HPReal:
    """prod (1 - q^(m n)) as one progression product, or at the dual nome
    q' of parameter 16/(m^2 r): with t = m sqrt(r)/2, eta(-1/tau) =
    sqrt(tau/i) eta(tau) gives
    prod (1 - q^(m n)) = t^(-1/2) e^((pi/12)(t - 1/t)) prod (1 - q'^n),
    and t^(-1/2) = (16/(m^2 r)/4)^(1/4), e^(pi t/12) = q^(-m/24),
    e^(-pi/(12 t)) = q'^(1/24)."""
    if dual:
        d = make_nome(16 / (m * m * nome.r), nome.ctx)
        return (mp.root(to_mpf(d.r / 4), 4) * _qpow(nome, -m / 24) * _qpow(d, Fraction(1, 24))
                * _progression_product(1, 1, d.q, d.q, d))
    qm = _qpow(nome, m)
    return _progression_product(m, m, qm, qm, nome)


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
    digits, the sums and eta(p) run on a nome with those digits added.
    There eta(p) takes its dual, and the series' work, about sqrt(X/p)
    terms at digits + lost, is bounded up front by holding X/p on that
    nome to the term budget."""
    a, p = spec.a, spec.p
    ctx = nome.ctx
    with mp.workdps(30):
        lost = int(mp.pi / (2 * to_mpf(p) * mp.sqrt(to_mpf(nome.r)) * mp.ln10))
    if lost > ctx.guard // 2:
        # checked before a nome of that precision is built
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
