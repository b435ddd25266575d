"""Precision management and the input boundary.

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

from collections import namedtuple
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational, mpf_shift, round_nearest

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
