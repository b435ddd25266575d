"""Moebius inversion of Taylor coefficients and periodic representations.

Given the Taylor coefficients c_n = f^(n)(0)/n! of a function f with
f(0) = 0, the inverted sequence

    X(n) = (1/n) * sum_{d|n} mu(n/d) * d * c_d

satisfies exp(-f(q)) = prod (1 - q^n)^X(n).  When X is periodic with
period T, mirror-symmetric inside each period ("catoptric",
a_j = a_{T-j}) and a_T = 0, the product collapses to finitely many
two-sided q-products [j,T;q] and, equivalently, to a quotient of theta
sums by an eta power; q^A exp(-f(q)) is then an algebraic number at
q = exp(-pi sqrt(r)) for rational r, with the exact rational exponent A
computed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .errors import DomainError, InsufficientData
from .precision import HPReal, integer, to_mpf
from .qengine import (
    AgileSpec,
    Nome,
    ThetaSpec,
    agile,
    eta_paper,
    star_exponent,
    theta_general,
    _qpow,
    _term_count,
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


def moebius_mu(n: int) -> int:
    """The Moebius function: 0 unless n is squarefree, else (-1)^(#primes)."""
    n = int(n)
    if n < 1:
        raise DomainError(f"mu is defined for n >= 1, got {n}")
    radical, mu = squarefree_divisors(n)[-1]
    return mu if radical == n else 0


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


def jacobi_symbol(n: int, G: int) -> int:
    """The quadratic-residue symbol (n/G), completely multiplicative in n.

    G may be even provided 4 | G (for G = 2*odd, DomainError); the factor
    for each 2 is 0 on even n and (+1,-1,-1,+1) on n = 1,3,5,7 mod 8.
    """
    return _symbol(int(n), *_two_adic(int(G)))


@dataclass(frozen=True)
class JacobiCharacter:
    """X(n) = (n/G) for an admissible modulus G.

    Admissible means the associated character is even, which is exactly
    what makes the sequence mirror-symmetric in each period: the power of
    2 in G must not be exactly 1, and the odd part must be 1 mod 4.
    """

    modulus: int
    _split: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G = int(self.modulus)
        m2, odd = _two_adic(G)
        if odd % 4 == 3:
            raise DomainError(
                f"modulus {G}: odd part {odd} is 3 mod 4, the symbol is not mirror-symmetric"
            )
        object.__setattr__(self, "modulus", G)
        object.__setattr__(self, "_split", (m2, odd))

    def value(self, n: int) -> int:
        return _symbol(n, *self._split)

    def values(self, upto: int) -> list[int]:
        return [self.value(n) for n in range(1, upto + 1)]

    def as_periodic(self, max_period: Optional[int] = None) -> "PeriodicCoeffs":
        """Detect the (catoptric) period of the symbol sequence."""
        if self.modulus == 1:
            raise DomainError("the trivial character has no vanishing period point")
        mp_ = max_period or self.modulus
        pc = detect_period([Fraction(v) for v in self.values(3 * mp_)], mp_)
        if pc is None:
            raise DomainError(f"symbol mod {self.modulus} did not present as catoptric")
        return pc


# ---------------------------------------------------------------------------
# Taylor input and inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorInput:
    """Exact Taylor coefficients coeffs[n-1] = f^(n)(0)/n!, n = 1..N, as
    ints, Fractions or rational strings; floats and bools are refused."""

    coeffs: tuple

    def __post_init__(self):
        try:
            cs = []
            for c in self.coeffs:
                if isinstance(c, (bool, float)):
                    raise DomainError(f"coefficients must be exact rationals, got {c!r}")
                cs.append(Fraction(c))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"coefficients must be exact rationals: {exc}") from None
        if not cs:
            raise DomainError("need at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

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

    def to_json(self) -> str:
        return json.dumps({"coeffs": [str(c) for c in self.coeffs]})


def extract_X(inp: TaylorInput) -> list[Fraction]:
    """Moebius-invert the Taylor coefficients: the returned list has
    entry n-1 equal to X(n) = (1/n) sum_{d|n} mu(n/d) d c_d."""
    N = inp.order
    cs = inp.coeffs
    out = []
    for n in range(1, N + 1):
        s = Fraction(0)
        for d in range(1, n + 1):
            if n % d == 0:
                m = moebius_mu(n // d)
                if m:
                    s += m * d * cs[d - 1]
        out.append(s / n)
    return out


def coeffs_from_X(X: Sequence[Fraction], order: int) -> list[Fraction]:
    """Inverse direction: c_n = (1/n) sum_{d|n} d X(d) (X may be shorter
    than order only if periodic; here X must cover 1..order)."""
    sums = [Fraction(0)] * (order + 1)
    for d in range(1, order + 1):
        dx = d * Fraction(X[d - 1])
        if dx:
            for n in range(d, order + 1, d):
                sums[n] += dx
    return [sums[n] / n for n in range(1, order + 1)]


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicCoeffs:
    """A detected period-T, catoptric, rational exponent sequence."""

    period: int
    values: tuple  # a_1 .. a_T, exact Fractions, a_T = 0
    catoptric: bool
    A: Fraction

    def value(self, n: int) -> Fraction:
        return self.values[(n - 1) % self.period]


def _weights(period: int, values: Sequence[Fraction]):
    """Representation weights: a_j on [j,T] for j < T/2, and a_{T/2}/2 on
    the self-mirrored middle product when T is even (its two factor
    families coincide, so it enters with half the exponent)."""
    T = period
    out = []
    for j in range(1, (T - 1) // 2 + 1):
        if values[j - 1]:
            out.append((j, Fraction(values[j - 1])))
    if T % 2 == 0 and values[T // 2 - 1]:
        out.append((T // 2, Fraction(values[T // 2 - 1]) / 2))
    return out


def exponent_A(pc: PeriodicCoeffs) -> Fraction:
    """The exact rational exponent A with q^A exp(-f(q)) algebraic:
    A = sum_j (-j/2 + j^2/(2T) + T/12) a_j over the representation
    weights."""
    if not pc.catoptric:
        raise DomainError("exponent formula requires a catoptric sequence")
    T = pc.period
    return sum((star_exponent(j, T) * w for j, w in _weights(T, pc.values)),
               Fraction(0))


def detect_period(X: Sequence, max_period: int) -> Optional[PeriodicCoeffs]:
    """Smallest T <= max_period such that X repeats with period T,
    X(T) = 0 and the values mirror inside the period; None otherwise.

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
        values = tuple(xs[:T])
        if values[T - 1] != 0:
            continue
        if any(values[j - 1] != values[T - j - 1] for j in range(1, T)):
            continue
        pc = PeriodicCoeffs(T, values, True, Fraction(0))
        return PeriodicCoeffs(T, values, True, exponent_A(pc))
    return None


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def represent_product(pc: PeriodicCoeffs) -> list[tuple[AgileSpec, Fraction]]:
    """exp(-f) as a finite product of two-sided q-products:
    prod [j,T;q]^(w_j) over the representation weights."""
    if not pc.catoptric:
        raise DomainError("product representation requires a catoptric sequence")
    return [(AgileSpec(Fraction(j), Fraction(pc.period)), w)
            for j, w in _weights(pc.period, pc.values)]


@dataclass(frozen=True)
class ThetaRepresentation:
    period: int
    eta_exponent: Fraction  # exponent on eta(T)
    factors: tuple          # ((ThetaSpec, weight), ...)


def represent_theta(pc: PeriodicCoeffs) -> ThetaRepresentation:
    """exp(-f) = eta(T)^(-sum w_j) * prod theta(T/2, (T-2j)/2; q)^(w_j)."""
    if not pc.catoptric:
        raise DomainError("theta representation requires a catoptric sequence")
    T = pc.period
    ws = _weights(T, pc.values)
    factors = tuple(
        (ThetaSpec(Fraction(T, 2), Fraction(T - 2 * j, 2)), w) for j, w in ws
    )
    return ThetaRepresentation(T, -sum((w for _, w in ws), Fraction(0)), factors)


def product_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """Numeric exp(-f(q)) through the q-product representation."""
    with nome.ctx.workdps():
        acc = mp.mpf(1)
        for spec, w in represent_product(pc):
            acc *= mp.power(agile(spec, nome), to_mpf(w))
        return +acc


def theta_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """Numeric exp(-f(q)) through the eta/theta representation."""
    rep = represent_theta(pc)
    with nome.ctx.workdps():
        acc = mp.power(eta_paper(rep.period, nome), to_mpf(rep.eta_exponent))
        for spec, w in rep.factors:
            acc *= mp.power(theta_general(spec, nome), to_mpf(w))
        return +acc


def normalized_value(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """q^A exp(-f(q)) - the quantity that is algebraic at rational r."""
    with nome.ctx.workdps():
        return +(_qpow(nome.q, pc.A) * product_value(pc, nome))


# ---------------------------------------------------------------------------
# Lambert series and log-derivatives
# ---------------------------------------------------------------------------

def lambert_series(X: PeriodicCoeffs | JacobiCharacter, nome: Nome) -> HPReal:
    """sum_{n=1}^{N} n X(n) q^n / (1 - q^n) for X a PeriodicCoeffs or a
    JacobiCharacter (anything with .value(n)), with N the smallest n >
    nome.tail by the shared truncation rule."""
    with nome.ctx.workdps():
        q = nome.q
        s = mp.mpf(0)
        qn = mp.mpf(1)
        for n in range(1, _term_count(0, 0, 1, nome.tail) + 1):
            qn *= q
            x = X.value(n)
            if x:
                s += n * x * qn / (1 - qn)
        return +s


def eta_qdlog(multiplier, nome: Nome) -> HPReal:
    """q d/dq log prod(1 - q^(m n))  =  -sum m n q^(mn)/(1-q^(mn)) for a
    positive integer m, over n = 1..N with N the smallest n > tail/m."""
    m = integer(multiplier)
    if m < 1:
        raise DomainError(f"multiplier must be a positive integer, got {m}")
    with nome.ctx.workdps():
        qm = _qpow(nome.q, Fraction(m))
        s = mp.mpf(0)
        t = mp.mpf(1)
        for n in range(1, _term_count(0, 0, m, nome.tail) + 1):
            t *= qm
            s -= m * n * t / (1 - t)
        return +s


def theta_qdlog(spec: ThetaSpec, nome: Nome) -> HPReal:
    """q (d theta/dq) / theta for the alternating theta sum."""
    with nome.ctx.workdps():
        a, b = to_mpf(spec.a), to_mpf(spec.b)
        terms = list(enumerate(_theta_terms(spec.a, spec.b, nome), 1))
        num = mp.fsum((-1) ** n * n * ((a * n + b) * tp + (a * n - b) * tm)
                      for n, (tp, tm) in terms)
        den = 1 + mp.fsum((-1) ** n * (tp + tm) for n, (tp, tm) in terms)
        return +(num / den)


def logderiv_representation(pc: PeriodicCoeffs, nome: Nome) -> HPReal:
    """-q d/dq log( eta(T)^(-S) prod theta^(w_j) ), each factor
    differentiated termwise; equals lambert_series(pc, nome)."""
    if not pc.catoptric:
        raise DomainError("log-derivative form requires a catoptric sequence")
    T = pc.period
    ws = _weights(T, pc.values)
    S = sum((w for _, w in ws), Fraction(0))
    with nome.ctx.workdps():
        acc = to_mpf(S) * eta_qdlog(T, nome)
        for j, w in ws:
            spec = ThetaSpec(Fraction(T, 2), Fraction(T - 2 * j, 2))
            acc -= to_mpf(w) * theta_qdlog(spec, nome)
        return +acc


# ---------------------------------------------------------------------------
# perfect-square character identity (exact, coefficientwise)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesIdentityReport:
    identical: bool
    order: int
    first_mismatch: Optional[int] = None


def square_character_eta_identity(g: int, order: int) -> SeriesIdentityReport:
    """For a perfect square g: compare prod (1-q^n)^((n/g)) against the
    inclusion-exclusion eta quotient prod_{d | rad(g)} eta(d)^mu(d),
    coefficientwise to the given order."""
    from math import isqrt

    from .series import exponent_product
    from .qengine import eta_qexpansion

    g = int(g)
    if isqrt(g) ** 2 != g:
        raise DomainError(f"g must be a perfect square, got {g}")
    char = JacobiCharacter(g)
    lhs = exponent_product(lambda n: char.value(n), order)

    rhs = None
    for d, mu in squarefree_divisors(g):
        s = eta_qexpansion(d, order)
        s = s if mu == 1 else s.inverse()
        rhs = s if rhs is None else rhs * s
    for n in range(order + 1):
        if lhs[n] != rhs[n]:
            return SeriesIdentityReport(False, order, n)
    return SeriesIdentityReport(True, order)
