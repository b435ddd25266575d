"""Precision management, the input boundary and the one rational power.

Every numeric routine in qalg takes a :class:`PrecisionContext` telling it
how many decimal digits the caller wants to be correct, plus a number of
guard digits carried internally.  Results are plain ``mpmath.mpf`` values
(aliased ``HPReal``); they are immutable and keep their bits once created,
so they can be shared freely after the computation returns.

A number from outside - the parameter r, a modulus k, an argument x, an
integration limit - enters through :func:`exact` as a Fraction (an mpf
converts bit for bit) and is rounded only where it is used, by
:func:`to_mpf`, so 1 - k^2 and c^2 r are formed before any rounding.
An integer parameter (a multiplier, a power) enters through
:func:`integer`, which refuses a non-integer instead of truncating it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import (from_man_exp, from_rational, mpf_nthroot, mpf_pow_int, mpf_shift,
                          round_nearest, to_fixed)

from .errors import DomainError

HPReal = mp.mpf

MIN_DIGITS = 30

# exact() takes an mpf m 2^e only for |e| <= this, a 2 MB integer
_EXACT_EXPONENT = 1 << 24


class PrecisionContext(namedtuple("PrecisionContext", "digits guard")):
    """Working precision in decimal digits plus internal guard digits.

    ``digits`` is the user-visible precision: results are correct to at
    least that many digits for exact inputs.  ``guard`` extra digits are
    carried internally so that identity residuals have headroom below the
    visible precision.
    """

    __slots__ = ()

    def __new__(cls, digits: int, guard: int = 20):
        if digits < MIN_DIGITS:
            raise DomainError(f"digits must be >= {MIN_DIGITS}, got {digits}")
        if guard < 0:
            raise DomainError(f"guard must be >= 0, got {guard}")
        return super().__new__(cls, digits, guard)

    @property
    def dps(self) -> int:
        """Effective internal decimal precision."""
        return self.digits + self.guard

    def workdps(self):
        """Context manager setting mpmath's precision to ``dps``."""
        return mp.workdps(self.dps)

    def doubled(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.digits, self.guard)

    # Identity checks assert residuals below eps_check, `guard` digits
    # looser than the visible precision `digits`.
    @property
    def eps_check(self) -> HPReal:
        return mp.mpf(10) ** -(self.digits - self.guard)


def exact(x) -> Fraction:
    """x as an exact rational: an int, a Fraction, an "n/d" string, or a
    finite mpf, bit for bit.  Anything else - a binary float, a bool, nan,
    inf, None, an mpf of binary exponent beyond +-2^24 - raises
    DomainError."""
    if isinstance(x, mp.mpf):
        man, exp = dyadic(x)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    if isinstance(x, (float, bool)):
        raise DomainError(f"refusing {x!r}: pass an int, Fraction, n/d string or mpf")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError(f"not an exact number: {x!r}") from None


def dyadic(x: HPReal) -> tuple[int, int]:
    """(m, e) with x = m 2^e for a finite mpf x, the bits exact() takes;
    a non-finite x or one of binary exponent beyond +-2^24 raises
    DomainError."""
    # no mp.mpf() re-wrap here: that would round x to the *current*
    # working precision and silently discard its stored bits
    if not mp.isfinite(x):
        raise DomainError(f"not a finite number: {x}")
    sign, man, exp, _ = x._mpf_
    man, exp = int(-man if sign else man), int(exp)  # man may be a gmpy2 mpz
    if abs(exp) > _EXACT_EXPONENT:  # k_r at r = 1e20 is 2^-(2.3e10)
        raise DomainError(f"{mp.nstr(x, 5)} is too far from 1 to take exactly")
    return man, exp


def integer(x) -> int:
    """exact(x) as an int; a non-integer raises DomainError."""
    x = exact(x)
    if x.denominator != 1:
        raise DomainError(f"need an integer, got {x}")
    return x.numerator


def to_mpf(x) -> HPReal:
    """exact(x) rounded once to the current working precision."""
    x = exact(x)
    # a 2^n in the denominator goes to the exponent: mpmath strips it in O(n^2)
    twos = (x.denominator & -x.denominator).bit_length() - 1
    v = from_rational(x.numerator, x.denominator >> twos, mp.mp.prec, round_nearest)
    return mp.make_mpf(mpf_shift(v, -twos))


def _shift(n: int, e: int) -> int:
    """n 2^e, rounded toward -inf."""
    return n << e if e >= 0 else n >> -e


@lru_cache(maxsize=128)
def _root(x: tuple, d: int, P: int) -> tuple:
    """x^(1/d) to about P bits for a raw mpf x > 0, as a raw mpf, memoized
    so that the kernels of one nome share their roots.  For
    x = (m/2^B) 2^(E0 + d E1), 0 <= E0 < d, it is 2^E1 c^(1/d), a root in
    [1/2, 2) of c = (m/2^B) 2^E0.  Newton's y <- y + y (c - y^d)/(d y^d)
    runs on integers, each step at p bits from (p + log2 d)/2 + 2: an
    error e leaves about (d - 1) e^2/2, so the seed must beat log2 d bits.
    It is a float below d = 2^32, mpmath's root at log2 d + 24 bits above.
    y^d is cut to p bits and an exponent after each square."""
    _, m, E, B = x
    E1, E0 = divmod(E + B, d)
    b = d.bit_length()
    precs, p = [], P
    while p > (50 if b <= 32 else b + 24):
        precs.append(p)
        p = (p + b) // 2 + 2
    f = math.ldexp(m >> max(B - 53, 0), -min(B, 53))       # m/2^B as a float
    Y = (int(math.ldexp(f ** (1 / d) * 2 ** (E0 / d), p)) if b <= 32
         else to_fixed(mpf_nthroot((0, m, E0 - B, B), d, p), p))
    for pn in reversed(precs):
        Y, p = Y << (pn - p), pn
        Z, ze = Y, -p                   # y^j = Z 2^ze
        for bit in bin(d)[3:]:
            Z *= Z
            k = Z.bit_length() - p
            Z >>= k
            ze += ze + k
            if bit == "1":
                Z = Z * Y >> p
        Y += Y * (_shift(m, E0 - B - ze) - Z) // (d * Z)
    return from_man_exp(Y, E1 - p)


def powers(x, exps, prec: int, rnd) -> list:
    """x^e for each Fraction e of exps as raw mpfs, rounded by rnd to prec
    bits, for a positive mpf or exact rational x (else DomainError): the
    powers y^n of x or of y = x^(1/D), D the exps' common denominator, y
    taken (and a rational x rounded) with log2(max |n|) + 4 and at least 20
    guard bits, and to no less than the working precision plus 64 bits, so
    the kernels of a nome, a few dozen guard bits apart, share one root.
    x^(n/D) is about |n/D| ulps of x off, x's rounding raised to the power."""
    D = math.lcm(*(e.denominator for e in exps))
    ns = [e.numerator * (D // e.denominator) for e in exps]
    P = max(prec + max(20, max(map(abs, ns)).bit_length() + 4), mp.mp.prec + 64)
    if not isinstance(x, mp.mpf):
        with mp.workprec(P):
            x = to_mpf(x)
    if x._mpf_[0] or not x._mpf_[1]:        # negative, zero, inf or nan
        raise DomainError(f"a rational power needs x > 0, got {mp.nstr(x, 5)}")
    y = x._mpf_ if D == 1 else _root(x._mpf_, D, P)
    return [mpf_pow_int(y, n, prec, rnd) for n in ns]


def power(x, e) -> HPReal:
    """x^e rounded to nearest at the working precision (see powers)."""
    return mp.make_mpf(powers(x, (Fraction(e),), mp.mp.prec, round_nearest)[0])
