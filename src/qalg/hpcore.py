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
    raised.  One pass raises the degree from 1 up to at most 10, each
    degree adding its new nodes to the sum of the one before (mpmath's
    rule, with its node cache, as ``mp.quad`` runs it), and stops at the
    first degree whose error estimate is at most 10**-(digits - guard/2);
    if degree 10 misses it, ConvergenceError is raised.
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

        prec = mp.mp.prec
        with mp.extraprec(20):
            val, err = mp.mp._tanh_sinh.summation(f, [lo, hi], prec, tol, 10)
        if err > tol:
            raise ConvergenceError(
                f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance {mp.nstr(tol, 5)}"
            )
    with ctx.workdps():
        return +val
