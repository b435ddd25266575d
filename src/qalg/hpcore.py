"""Adaptive tanh-sinh quadrature at high precision over finite intervals.

The integral is computed under the :class:`~qalg.precision.PrecisionContext`
passed in and returned as an ``mpmath.mpf`` good to ``ctx.digits`` digits.
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .precision import HPReal, PrecisionContext


def integrate(f: Callable[[HPReal], HPReal], lo, hi, ctx: PrecisionContext) -> HPReal:
    """Adaptive (tanh-sinh) quadrature of ``f`` over the finite interval
    [lo, hi].

    Both limits must be finite numbers with lo <= hi, else DomainError is
    raised.  The absolute error is brought below 10**-(digits - guard/2),
    else ConvergenceError is raised.
    """
    tol_digits = ctx.digits - ctx.guard // 2
    with mp.workdps(ctx.dps + 10):
        tol = mp.mpf(10) ** (-tol_digits)
        lo, hi = (mp.nan if x is None else mp.mpf(x) for x in (lo, hi))
        if not (mp.isfinite(lo) and mp.isfinite(hi)):
            raise DomainError("integrate takes finite limits only")
        if hi < lo:
            raise DomainError("hi < lo")
        if hi == lo:
            return mp.mpf(0)

        for maxdegree in (6, 8, 10):
            val, err = mp.quad(f, [lo, hi], error=True, maxdegree=maxdegree)
            if err <= tol:
                break
        else:
            raise ConvergenceError(
                f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance {mp.nstr(tol, 5)}"
            )
    with ctx.workdps():
        return +val
