"""The eq40 tail integral by convergent series, run on integers scaled by
2^P (fixed point).

The integrand g(t) = t^(-1/6) Q(t)^(-1/2), Q = t^2 + 22t + 125, is
D-finite: 6 t Q g' = -(7t^2 + 88t + 125) g.  Its expansions about
infinity, about 0 and about a point c > 0 therefore have coefficients
that follow linear recurrences with polynomial coefficients, and the
integral over any piece of the positive axis is a convergent series of
them (van der Hoeven, "Fast evaluation of holonomic functions", TCS
1999).  Each series runs its recurrence for a term count fixed in advance
from a closed-form bound on the dropped tail (in the manner of Mezzarobba
& Salvy, "Effective bounds for P-recursive sequences", JSC 2010), on
integers scaled by 2^P, every product cut to the width of the term it
multiplies (the tapered rule of qalg.qengine, ``_mul``).  Only the
prefactors and the final sums are ``mpmath.mpf``.  There are no nodes and
no tables: nothing is computed when the module loads.
"""

from __future__ import annotations

import math

import mpmath as mp

from .errors import DomainError
from .precision import HPReal, PrecisionContext


def _mul(t: int, X: int, P: int) -> int:
    """t X 2^-P for X scaled by 2^P, X first cut to the L = bitlength(t)
    bits the product still needs: (X >> (P - L)) t >> L.  At most 2 units
    off: the cut moves the product by less than |t| 2^-L <= 1 unit and the
    final shift by less than 1."""
    L = t.bit_length()
    return t * X >> P if L >= P else t * (X >> P - L) >> L


def _guard(N: int) -> int:
    """Guard bits for a fixed-point sum of N terms (see _legendre_sum)."""
    return 2 * N.bit_length() + 12


def _legendre_terms(rho, P: int) -> int:
    """The least N >= 1 with 6 rho^N / (1 - rho) <= 2^-P, for 0 < rho <=
    1/2: a count at which _legendre_sum's dropped tail, at most 6 rho^N /
    ((6N + e)(1 - rho)), is below 2^-P."""
    with mp.workprec(53):
        lam = -float(mp.log(rho, 2))
        slack = math.log2(6 / (1 - float(rho)))
    return max(1, math.ceil((P + slack) / lam))


def _legendre_sum(U: int, e: int, N: int, P: int) -> int:
    """sum_{n<N} c_n 6/(6n + e), scaled by 2^P, for U = u 2^P, u > 0.

    c_n = P_n(x) (A u)^n with A = sqrt(125), x = -11/A and P_n the Legendre
    polynomials: by their generating function (DLMF 18.12.11),
    (1 + 22 u + 125 u^2)^(-1/2) = sum c_n, and by their recurrence (DLMF
    18.9.1) (n+1) c_(n+1) = -11 (2n+1) u c_n - 125 n u^2 c_(n-1), c_0 = 1,
    on integer coefficients.  Integrating g term by term gives
      int_T^inf g  = T^(-1/6) sum c_n 6/(6n+1),  u = 1/T   (e = 1),
      int_0^s g    = s^(5/6)/A sum c_n 6/(6n+5), u = s/125 (e = 5),
    for T > A and s < A.  Since |x| < 1, |P_n(x)| <= 1, so with rho = A u
    < 1 the terms from N on sum to at most 6 rho^N/((6N + e)(1 - rho)).

    Rounding: a step forms the two products at the width of c_n and
    c_(n-1) (_mul, each at most 2 units off after the integer factor is
    taken in) and divides by n + 1; with the one unit that U and U2 each
    carry, scaled by the integer factors (at most 22 and 125, |c| <= 1),
    a step adds fewer than 2^8 units, and the weighted term 1 more.  The
    two solutions of the recurrence, rho^n P_n(x) and rho^n Q_n(x), are
    both O(rho^n) for |x| < 1, so an error carried from step k shrinks
    like rho^(n-k) up to a factor polynomial in n (the Casoratian P_n
    Q_(n-1) - P_(n-1) Q_n is 1/n); _guard(N) bits cover it.  A pair of
    zero terms ends the sum early: every later term is zero too.
    """
    U2 = U * U >> P
    prev, c = 0, 1 << P
    total = 0
    for n in range(N):
        total += 6 * c // (6 * n + e)
        prev, c = c, (_mul(-11 * (2 * n + 1) * c, U, P) + _mul(-125 * n * prev, U2, P)) // (n + 1)
        if not (c or prev):
            break
    return total


def _taylor_terms(c, h, P: int) -> int:
    """The least N >= 2 rho/(1 - rho), rho = h/c <= 3/5, with 2 e
    sqrt(Q(c)) rho^N / (11 (1 - rho)) <= 2^-P: that exceeds _taylor_sum's
    bound on its dropped tail, which is then below 2^-P."""
    with mp.workprec(53):
        rho = float(h / c)
        q = float(c * c + 22 * c + 125)
        lam = -math.log2(rho)
    slack = math.log2(2 * math.e * math.sqrt(q) / (11 * (1 - rho)))
    return max(math.ceil(2 * rho / (1 - rho)), math.ceil((P + slack) / lam))


def _taylor_sum(c: HPReal, h: HPReal, N: int, P: int) -> int:
    """sum_{n<N, n even} e_n/(n + 1), scaled by 2^P, where e_n = g_n h^n /
    g(c) and g_n are the Taylor coefficients of g at c > 0, 0 < h < c:
    int_(c-h)^(c+h) g = 2 h g(c) times this sum (the odd terms cancel).

    With t = c + h', 6 t Q = sum p_k h'^k and 7t^2 + 88t + 125 = sum q_k
    h'^k, the differential equation gives the four-term recurrence
      p_0 (n+1) e_(n+1) = -[(p_1 n + q_0) h e_n + (p_2 (n-1) + q_1) h^2 e_(n-1)
                            + (p_3 (n-2) + q_2) h^3 e_(n-2)],
    e_0 = 1; its six constants p_k h^k/p_0 and q_k h^(k+1)/p_0 are taken
    once in fixed point.

    Bound: g is analytic on the disc |t - c| < c (the zeros of Q lie
    further than c + 11 from c), so on the circle |t - c| = R < c, |Q| >=
    11^2 and |g| <= (c - R)^(-1/6)/11 (a Cauchy estimate).  With R = c
    N/(N+1) and rho = h/c this gives |e_n| <= (N+1)^(1/6) sqrt(Q(c))/11
    (rho (N+1)/N)^n, and the terms from N on sum to at most
    e sqrt(Q(c)) rho^N / (11 (N+1)^(5/6) (1 - rho (N+1)/N)); for N >= 2
    rho/(1 - rho) the last factor is at least (1 - rho)/2.

    Rounding as in _legendre_sum: the three products are at most 2 units
    off each, and the unit each constant carries is scaled by n + 1 and
    |e| and divided by n + 1 again.  The Taylor coefficients are the
    recurrence's dominant solution (t = 0 is the singular point closest
    to c), so carried errors do not grow faster than the terms; _guard(N)
    bits cover them.
    """
    with mp.workprec(P + 20):
        c, h = mp.mpf(c), mp.mpf(h)
        p0 = 6 * c * (c * c + 22 * c + 125)
        consts = [6 * (3 * c * c + 44 * c + 125) * h, (7 * c * c + 88 * c + 125) * h,
                  6 * (3 * c + 22) * h ** 2, (14 * c + 88) * h ** 2,
                  6 * h ** 3, 7 * h ** 3]
        A1, B0, A2, B1, A3, B2 = (int(mp.ldexp(k / p0, P)) for k in consts)
    e2 = e1 = 0
    e0 = 1 << P
    total = 0
    for n in range(N):
        if not n & 1:
            total += e0 // (n + 1)
        s = _mul(e0, n * A1 + B0, P) + _mul(e1, (n - 1) * A2 + B1, P) + _mul(e2, (n - 2) * A3 + B2, P)
        e2, e1, e0 = e1, e0, -s // (n + 1)
        if not (e0 or e1 or e2):
            break
    return total


def tail_integral(theta, ctx: PrecisionContext) -> HPReal:
    """int_theta^inf t^(-1/6) (t^2 + 22t + 125)^(-1/2) dt for theta > 0,
    with A = sqrt(125):

      theta >= 2A:        the expansion about infinity (_legendre_sum,
                          e = 1) at T = theta, rho = A/theta <= 1/2;
      A/2 <= theta < 2A:  the Taylor piece over [theta, T], T = 2 max(theta,
                          A), about its midpoint (_taylor_sum, rho = (T -
                          theta)/(T + theta) <= 3/5), plus the expansion
                          about infinity at T (rho <= 1/2);
      theta < A/2:        int_0^(A/2) - int_0^theta by the expansion about 0
                          (_legendre_sum, e = 5, rho <= 1/2), plus the case
                          above at A/2.

    Each sum takes the term count that puts its dropped tail below
    2^-(prec + 20), prec the working precision of ctx in bits, and runs at
    P = prec + _guard(N) bits, so it is good to about 2^-prec against its
    leading term 1.  Only the integrand is expanded: no beta function and
    no Theorem 3.
    """
    with ctx.workdps():
        theta = mp.mpf(theta)
        if not theta > 0:
            raise DomainError(f"theta must be positive, got {theta}")
        prec = mp.mp.prec
        A = mp.sqrt(125)

        def legendre(u, e):
            N = _legendre_terms(A * u, prec + 20)
            P = prec + _guard(N)
            return mp.ldexp(_legendre_sum(int(mp.ldexp(u, P)), e, N, P), -P)

        def head(s):
            return mp.cbrt(mp.sqrt(s)) ** 5 / A * legendre(s / 125, 5)

        def tail(T):
            return legendre(1 / T, 1) / mp.cbrt(mp.sqrt(T))

        if theta >= 2 * A:
            return +tail(theta)
        if 2 * theta < A:
            s = A / 2
            return +(head(s) - head(theta) + tail_integral(s, ctx))
        T = 2 * max(theta, A)
        c, h = (T + theta) / 2, (T - theta) / 2
        N = _taylor_terms(c, h, prec + 20)
        P = prec + _guard(N)
        gc = 1 / (mp.cbrt(mp.sqrt(c)) * mp.sqrt(c * c + 22 * c + 125))
        return +(2 * h * gc * mp.ldexp(_taylor_sum(c, h, N, P), -P) + tail(T))
