"""Precision management.

Every numeric routine in qalg takes a :class:`PrecisionContext` telling it
how many decimal digits the caller wants to be correct, plus a number of
guard digits carried internally.  Results are plain ``mpmath.mpf`` values
(aliased ``HPReal``); they are immutable and keep their bits once created,
so they can be shared freely after the computation returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DomainError

HPReal = mp.mpf

MIN_DIGITS = 30


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus internal guard digits.

    ``digits`` is the user-visible precision: results are correct to at
    least that many digits for exact inputs.  ``guard`` extra digits are
    carried internally so that identity residuals have headroom below the
    visible precision.
    """

    digits: int
    guard: int = 20

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise DomainError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")
        if self.guard < 0:
            raise DomainError(f"guard must be >= 0, got {self.guard}")

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


def to_mpf(x) -> HPReal:
    """Convert an exact number (int, Fraction, str, mpf) to mpf at the
    current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    if isinstance(x, (int, str)):
        return mp.mpf(x)
    if isinstance(x, float):
        raise DomainError(
            "refusing to convert a binary float; pass an int, Fraction or string"
        )
    return mp.mpf(x)

