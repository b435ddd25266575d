"""Moebius inversion of Taylor coefficients and periodic representations.

Given the Taylor coefficients c_n = f^(n)(0)/n! of a function f with
f(0) = 0, the inverted sequence X, with n c_n = sum_{d|n} d X(d) (so
X(n) = (1/n) sum_{d|n} mu(n/d) d c_d), satisfies
exp(-f(q)) = prod (1 - q^n)^X(n); one divisor sieve runs that relation
forwards (`coeffs_from_X`) and backwards (`extract_X`).  When X is
periodic with period T, mirror-symmetric inside each period
("catoptric", a_j = a_{T-j}) and a_T = 0, the product collapses to
finitely many two-sided q-products [j,T;q] and, equivalently, to a
quotient of theta sums by an eta power; q^A exp(-f(q)) is then an
algebraic number at q = exp(-pi sqrt(r)) for rational r.  A
`PeriodicCoeffs` holds one such period: its constructor refuses any
other sequence and works out the exact rational exponent A.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

import mpmath as mp

from .errors import DomainError, InsufficientData
from .precision import HPReal, integer, power, to_mpf
from .series import FormalSeries, _divisor_sieve, _quo, exponent_product
from .qengine import (
    AgileSpec,
    Nome,
    ThetaSpec,
    agile,
    eta_paper,
    eta_qexpansion,
    star_exponent,
    theta_general,
    _SLACK,
    _cancelled,
    _qfixed,
    _qpow,
    _rerun_if_cancelled,
    _term_count,
    _theta_shift,
    _theta_terms,
)

# ---------------------------------------------------------------------------
# arithmetic functions
# ---------------------------------------------------------------------------


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """The squarefree divisors d of n >= 1, each paired with mu(d).

    The list starts with (1, 1) and ends with the radical of n (the
    product of its distinct primes); the divisors that include the i-th
    prime follow those built from the primes before it.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    out = [(1, 1)]
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out += [(d * p, -mu) for d, mu in out]
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out += [(d * m, -mu) for d, mu in out]
    return out


def _jacobi_odd(n: int, k: int) -> int:
    # standard iterative Jacobi symbol, k odd positive
    n %= k
    t = 1
    while n:
        while n % 2 == 0:
            n //= 2
            if k % 8 in (3, 5):
                t = -t
        n, k = k, n
        if n % 4 == 3 and k % 4 == 3:
            t = -t
        n %= k
    return t if k == 1 else 0


def _two_adic(G: int) -> tuple[int, int]:
    """(m, odd) with G = 2^m * odd, for a modulus G >= 1 whose power of 2
    is not exactly 1 (for G = 2*odd the symbol has no consistent
    completely-multiplicative extension)."""
    if G < 1:
        raise DomainError(f"modulus must be positive, got {G}")
    m = (G & -G).bit_length() - 1
    if m == 1:
        raise DomainError(f"modulus {G} has exactly one factor of 2")
    return m, G >> m


def _symbol(n: int, m2: int, odd: int) -> int:
    val = 1
    if m2:
        if n % 2 == 0:
            return 0
        if m2 % 2 and n % 8 in (3, 5):
            val = -1
    if odd > 1:
        if n <= 0:
            raise DomainError("n must be positive")
        val *= _jacobi_odd(n, odd)
    return val


class JacobiCharacter(namedtuple("JacobiCharacter", "modulus m2 odd")):
    """X(n) = (n/G) for an admissible modulus G, completely multiplicative
    in n; each factor 2 of G gives 0 on even n and (+1, -1, -1, +1) on
    n = 1, 3, 5, 7 mod 8.  ``m2`` and ``odd`` split G = 2^m2 * odd.

    Admissible means the associated character is even, which is exactly
    what makes the sequence mirror-symmetric in each period: the power of
    2 in G must not be exactly 1, and the odd part must be 1 mod 4.
    """

    __slots__ = ()

    def __new__(cls, modulus: int):
        G = int(modulus)
        m2, odd = _two_adic(G)
        if odd % 4 == 3:
            raise DomainError(
                f"modulus {G}: odd part {odd} is 3 mod 4, the symbol is not mirror-symmetric"
            )
        return super().__new__(cls, G, m2, odd)

    def __getnewargs__(self):
        return (self.modulus,)

    def value(self, n: int) -> int:
        return _symbol(n, self.m2, self.odd)


# ---------------------------------------------------------------------------
# Taylor input and inversion
# ---------------------------------------------------------------------------


class TaylorInput(namedtuple("TaylorInput", "coeffs")):
    """Exact Taylor coefficients coeffs[n-1] = f^(n)(0)/n!, n = 1..N, as
    ints, Fractions or rational strings; floats and bools are refused."""

    __slots__ = ()

    def __new__(cls, coeffs):
        try:
            cs = []
            for c in coeffs:
                if isinstance(c, (bool, float)):
                    raise DomainError(f"coefficients must be exact rationals, got {c!r}")
                cs.append(Fraction(c))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"coefficients must be exact rationals: {exc}") from None
        if not cs:
            raise DomainError("need at least one coefficient")
        return super().__new__(cls, tuple(cs))

    @classmethod
    def from_json(cls, text: str) -> "TaylorInput":
        """Parse {"coeffs": ["1/1", "1/2", ...]} (exact rational strings or
        integers, 1-based); malformed input is a DomainError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"series input is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("coeffs"), list):
            raise DomainError('series input needs a "coeffs" list')
        return cls(doc["coeffs"])


def extract_X(inp: TaylorInput) -> list[Fraction]:
    """Moebius-invert the Taylor coefficients: entry n-1 of the returned
    list is X(n), from n c_n = sum_{d|n} d X(d) solved for n = 1, 2, ..."""
    sums = _divisor_sieve([n * c for n, c in enumerate(inp.coeffs, 1)], -1)
    return [s / n for n, s in enumerate(sums, 1)]


def coeffs_from_X(X: Sequence[Fraction], order: int) -> list:
    """Inverse direction: c_n = (1/n) sum_{d|n} d X(d) for n = 1..order;
    X must cover 1..order (expand a periodic X first).  An integral X is
    sieved as ints, and each c_n is an int where n divides its sum, else
    a Fraction."""
    xs = [Fraction(X[d]) for d in range(order)]
    if all(x.denominator == 1 for x in xs):
        xs = [x.numerator for x in xs]
    sums = _divisor_sieve([d * x for d, x in enumerate(xs, 1)], 1)
    return [_quo(s, n) for n, s in enumerate(sums, 1)]


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def _weights(values: tuple) -> list[tuple[int, Fraction]]:
    """Representation weights of one period: a_j on [j,T] for j < T/2,
    and a_{T/2}/2 on the self-mirrored middle product when T is even
    (its two factor families coincide, so it enters with half the
    exponent)."""
    T = len(values)
    out = [(j, values[j - 1]) for j in range(1, (T - 1) // 2 + 1) if values[j - 1]]
    if T % 2 == 0 and values[T // 2 - 1]:
        out.append((T // 2, values[T // 2 - 1] / 2))
    return out


class PeriodicCoeffs(namedtuple("PeriodicCoeffs", "values period A")):
    """One period a_1 .. a_T of a catoptric exponent sequence, as exact
    rationals: a_T = 0 and a_j = a_{T-j}, else DomainError.

    ``period`` is T and ``A`` the exact exponent with q^A exp(-f(q))
    algebraic, A = sum_j (-j/2 + j^2/(2T) + T/12) w_j over the
    representation weights w_j; both are derived from the values.
    """

    __slots__ = ()

    def __new__(cls, values):
        try:
            vs = tuple(Fraction(v) for v in values)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"period values must be exact rationals: {exc}") from None
        if not vs or vs[-1] != 0 or vs[:-1] != vs[:-1][::-1]:
            raise DomainError("a period must end in a_T = 0 and mirror, a_j = a_(T-j); "
                              f"got ({', '.join(map(str, vs))})")
        T = len(vs)
        return super().__new__(cls, vs, T, sum(
            (star_exponent(j, T) * w for j, w in _weights(vs)), Fraction(0)))

    def __getnewargs__(self):
        return (self.values,)

    def value(self, n: int) -> Fraction:
        return self.values[(n - 1) % self.period]


def detect_period(X: Sequence, max_period: int) -> Optional[PeriodicCoeffs]:
    """The PeriodicCoeffs of the smallest T <= max_period such that X
    repeats with period T and one period is catoptric; None otherwise.

    Needs at least 3*max_period observed values (two full periods to
    confirm, one of margin).
    """
    xs = [Fraction(v) for v in X]
    if max_period < 1:
        raise DomainError("max_period must be >= 1")
    if len(xs) < 3 * max_period:
        raise InsufficientData(
            f"need at least {3 * max_period} values to scan periods up to {max_period}"
        )
    for T in range(1, max_period + 1):
        if any(xs[k + T] != xs[k] for k in range(len(xs) - T)):
            continue
        try:
            return PeriodicCoeffs(xs[:T])
        except DomainError:
            continue
    return None


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def represent_product(pc: PeriodicCoeffs) -> list[tuple[AgileSpec, Fraction]]:
    """exp(-f) as a finite product of two-sided q-products:
    prod [j,T;q]^(w_j) over the representation weights."""
    return [(AgileSpec(Fraction(j), Fraction(pc.period)), w) for j, w in _weights(pc.values)]


class ThetaRepresentation(namedtuple("ThetaRepresentation", "period eta_exponent factors")):
    """period is an int, eta_exponent the Fraction exponent on eta(T) and
    factors ((ThetaSpec, weight), ...)."""

    __slots__ = ()


def represent_theta(pc: PeriodicCoeffs) -> ThetaRepresentation:
    """exp(-f) = eta(T)^(-sum w_j) * prod theta(T/2, (T-2j)/2; q)^(w_j)."""
    T = pc.period
    ws = _weights(pc.values)
    factors = tuple(
        (ThetaSpec(Fraction(T, 2), Fraction(T - 2 * j, 2)), w) for j, w in ws
    )
    return ThetaRepresentation(T, -sum((w for _, w in ws), Fraction(0)), factors)


def product_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """Numeric exp(-f(q)) through the q-product representation."""
    with nome.ctx.workdps():
        acc = mp.mpf(1)
        for spec, w in represent_product(pc):
            acc *= power(agile(spec, nome), w)
        return +acc


def theta_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """Numeric exp(-f(q)) through the eta/theta representation."""
    rep = represent_theta(pc)
    with nome.ctx.workdps():
        acc = power(eta_paper(rep.period, nome), rep.eta_exponent)
        for spec, w in rep.factors:
            acc *= power(theta_general(spec, nome), w)
        return +acc


def normalized_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """q^A exp(-f(q)) - the quantity that is algebraic at rational r."""
    with nome.ctx.workdps():
        return +(_qpow(nome, pc.A) * product_value(pc, nome))


# ---------------------------------------------------------------------------
# Lambert series and log-derivatives
# ---------------------------------------------------------------------------

def lambert_series(X: PeriodicCoeffs | JacobiCharacter, nome: Nome) -> HPReal:
    """sum_{n=1}^{N} n X(n) q^n / (1 - q^n) for X a PeriodicCoeffs or a
    JacobiCharacter (anything with .value(n)), with N the smallest n >
    nome.tail by the shared truncation rule.

    Each X(n) is read once.  From the first n = e1 with X(n) != 0 the sum
    is q^e1 times sum n X(n) q^(n-e1) / (1 - q^n), formed in tapered fixed
    point over the common denominator D of the X(n), one integer division
    a term.  With c = max |X(n)| D and i = 1/(1-q), q^k is at most 3i
    ulps off and the truncations leave the sum at most
    c (2 N^2 i^2 + 3 (e1 + 1) i^5) + N ulps off; prec carries those bits
    and _SLACK more."""
    with nome.ctx.workdps():
        N = _term_count(0, 0, 1, nome.tail)
        xs = [X.value(n) for n in range(1, N + 1)]
        e1 = next((n for n, x in enumerate(xs, 1) if x), None)
        if e1 is None:
            return mp.mpf(0)
        D = lcm(*(x.denominator for x in xs))
        ws = [x.numerator * (D // x.denominator) for x in xs]
        c = max(abs(w) for w in ws)
        inv = int(1 / (1 - float(nome.q))) + 1
        prec = (mp.mp.prec + c.bit_length() + 2 * N.bit_length() + 5 * inv.bit_length()
                + 3 + _SLACK)
        one = 1 << prec
        Q, V = _qfixed(nome, (1, e1), prec)
        U = Q
        s = (e1 * ws[e1 - 1] << 2 * prec) // (one - V)
        for n in range(e1 + 1, N + 1):
            if not U:
                break
            L = V.bit_length()
            V = V * (Q >> prec - L) >> L
            w = ws[n - 1]
            if w:
                s += (n * w * U << prec) // (one - V)
            L = U.bit_length()
            U = U * (Q >> prec - L) >> L
        return +(_qpow(nome, e1) * mp.ldexp(s, -prec) / D)


def eta_qdlog(multiplier, nome: Nome) -> HPReal:
    """q d/dq log prod(1 - q^(m n)) = -m L(q^m) for a positive integer m,
    L(q) = sum n q^n/(1-q^n) the Lambert series of the constant 1."""
    m = integer(multiplier)
    if m < 1:
        raise DomainError(f"multiplier must be a positive integer, got {m}")
    with nome.ctx.workdps():
        return -m * lambert_series(JacobiCharacter(1), nome.scaled(m))


def theta_qdlog(spec: ThetaSpec, nome: Nome) -> HPReal:
    """q (d theta/dq) / theta for the alternating theta sum.

    From the sum's smallest exponent e0 (qengine._theta_shift) this is e0
    plus the same ratio for theta(a, b'), |b'| < a, whose numerator
    sum_{n>=1} (-1)^n n ((a n + b') q^(a n^2 + b' n) + (a n - b') q^(a n^2 - b' n))
    starts at q^e1, e1 = a - |b'|: numerator and denominator come from
    one run of terms q^(e - e1), the weights over the common denominator
    of a and b'.  A sum that cancels is summed again wider."""
    a = spec.a
    _, b, e0 = _theta_shift(a, spec.b)
    if b == a:
        raise DomainError(f"theta({a}, {spec.b}) vanishes identically: "
                          "b - a is a multiple of 2a")
    e1 = a - abs(b)
    D = lcm(a.denominator, b.denominator)
    A, B = int(a * D), int(b * D)

    def kernel(nm: Nome):
        with nm.ctx.workdps():
            prec, terms = _theta_terms(a, b, nm, shift=e1)
            Q1, = _qfixed(nm, (e1,), prec)
            w = [n * ((A * n + B) * tp + (A * n - B) * tm)
                 for n, (tp, tm) in enumerate(terms, 1)]
            num = sum(w[1::2]) - sum(w[::2])
            plain = (sum(tp + tm for tp, tm in terms[1::2])
                     - sum(tp + tm for tp, tm in terms[::2]))
            den = (1 << prec) + (Q1 * plain >> prec)
            N = len(terms)
            noise = 3 * N.bit_length() + 3
            lost = max(_cancelled(den, prec + 1, noise, nm),
                       _cancelled(num, max(abs(x) for x in w).bit_length(),
                                  noise + (N * (A * N + abs(B))).bit_length(), nm))
            return _qpow(nm, e1) * mp.mpf(num) / (D * den), lost

    with nome.ctx.workdps():
        return +(to_mpf(e0) + _rerun_if_cancelled(kernel, nome))


def logderiv_representation(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """-q d/dq log of the theta representation, each factor
    differentiated termwise; equals lambert_series(pc, nome)."""
    rep = represent_theta(pc)
    with nome.ctx.workdps():
        acc = -to_mpf(rep.eta_exponent) * eta_qdlog(rep.period, nome)
        for spec, w in rep.factors:
            acc -= to_mpf(w) * theta_qdlog(spec, nome)
        return +acc


# ---------------------------------------------------------------------------
# perfect-square character identity (exact, coefficientwise)
# ---------------------------------------------------------------------------


def square_character_eta_identity(g: int, order: int) -> tuple[FormalSeries, FormalSeries]:
    """For a perfect square g, the two sides of prod (1-q^n)^((n/g)) =
    prod_{d | rad(g)} eta(d)^mu(d) (the inclusion-exclusion eta quotient)
    as exact series to the given order."""
    g = int(g)
    if isqrt(g) ** 2 != g:
        raise DomainError(f"g must be a perfect square, got {g}")
    lhs = exponent_product(JacobiCharacter(g).value, order)
    rhs = None
    for d, mu in squarefree_divisors(g):
        s = eta_qexpansion(d, order)
        s = s if mu == 1 else s.inverse()
        rhs = s if rhs is None else rhs * s
    return lhs, rhs
