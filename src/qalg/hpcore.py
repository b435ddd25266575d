"""Adaptive tanh-sinh quadrature at high precision.

The integral is computed under the :class:`~qalg.precision.PrecisionContext`
passed in and returned as an ``mpmath.mpf`` good to ``ctx.digits`` digits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .precision import HPReal, PrecisionContext


def integrate(
    f: Callable[[HPReal], HPReal],
    lo,
    hi,
    ctx: PrecisionContext,
    *,
    decay: Optional[Fraction] = None,
) -> HPReal:
    """Adaptive (tanh-sinh) quadrature of ``f`` over (lo, hi).

    A finite interval is integrated as given.  An infinite upper limit
    (``hi`` None or +inf) requires lo > 0 and a declared algebraic
    ``decay`` beta with f ~ t**-beta, beta > 1: the integral is folded to
    (0, 1] by t = lo/u, and the endpoint power u**(beta-2) this leaves is
    flattened by u = w**k with k (beta-1) >= 1.

    The absolute error is brought below 10**-(digits - guard/2), else
    ConvergenceError is raised.
    """
    tol_digits = ctx.digits - ctx.guard // 2
    infinite = hi is None or hi == mp.inf

    with mp.workdps(ctx.dps + 10):
        tol = mp.mpf(10) ** (-tol_digits)
        lo = mp.mpf(lo)

        if infinite:
            if decay is None:
                raise DomainError("infinite upper limit requires a declared decay exponent")
            beta = Fraction(decay)
            if beta <= 1:
                raise DomainError(f"decay must exceed 1 for convergence, got {beta}")
            if lo <= 0:
                raise DomainError("infinite upper limit requires lo > 0")
            # the smallest k with k*(beta-1) >= 1 that clears denominators
            bm1 = beta - 1
            k = bm1.denominator
            while k * bm1 < 1:
                k += bm1.denominator

            def g(w):
                # extreme tanh-sinh nodes can land on w = 0 exactly; that
                # node's weight is far below any tolerance
                if w == 0:
                    return mp.mpf(0)
                u = w ** k
                return f(lo / u) * lo / (u * u) * k * w ** (k - 1)

            a, b = mp.mpf(0), mp.mpf(1)
        else:
            hi = mp.mpf(hi)
            if hi < lo:
                raise DomainError("hi < lo")
            if hi == lo:
                return mp.mpf(0)
            g, a, b = f, lo, hi

        for maxdegree in (6, 8, 10):
            val, err = mp.quad(g, [a, b], error=True, maxdegree=maxdegree)
            if err <= tol:
                break
        else:
            raise ConvergenceError(
                f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance {mp.nstr(tol, 5)}"
            )
    with ctx.workdps():
        return +val
