"""Independent oracles used by the tests.

Everything here deliberately avoids the code paths under test: pi comes
from a Machin formula summed in exact rationals, K/E from their
hypergeometric series, the beta value from a split binomial series,
integrals from composite midpoint rules, series log/exp from their
textbook recurrences, the q-product, q-sum and AGM kernels from plain
mpf loops (the q-series loops over the same terms, counts and powers of
q as the library, summed in mpf instead of fixed point), the fixed-point
quadrature from mpmath's tanh-sinh in mpf, and the divisor sieve of the
Moebius inversion from the Moebius-function formula.
Values are computed fresh so the tests never assert against numbers
produced by the library itself.
"""

from fractions import Fraction

import mpmath as mp


def _num(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def close(a, b, neg_exp10: int, dps: int = None) -> bool:
    """|a - b| < 10^-neg_exp10, with the subtraction done at enough
    precision that the comparison itself cannot round the gap away."""
    with mp.workdps(dps or neg_exp10 + 30):
        return abs(_num(a) - _num(b)) < mp.mpf(10) ** (-neg_exp10)


def gap(a, b, dps: int = 120) -> mp.mpf:
    with mp.workdps(dps):
        return abs(_num(a) - _num(b))


def machin_pi(digits: int) -> mp.mpf:
    """pi via 16 atan(1/5) - 4 atan(1/239), exact rational partial sums."""
    def atan_inv(n: int, terms: int) -> Fraction:
        acc = Fraction(0)
        for k in range(terms):
            term = Fraction((-1) ** k, (2 * k + 1) * n ** (2 * k + 1))
            acc += term
        return acc

    terms = digits // 1 + 10  # 1/5^2 per term is far more than a digit
    val = 16 * atan_inv(5, terms) - 4 * atan_inv(239, terms // 2 + 5)
    with mp.workdps(digits + 10):
        return mp.mpf(val.numerator) / val.denominator


def hypergeometric_K(k, dps: int) -> mp.mpf:
    """K via (pi/2) sum ((1/2)_n / n!)^2 k^(2n)."""
    with mp.workdps(dps):
        k = mp.mpf(k)
        k2 = k * k
        term = mp.mpf(1)
        acc = mp.mpf(1)
        n = 0
        eps = mp.mpf(10) ** (-dps)
        while True:
            n += 1
            term *= ((2 * n - 1) ** 2 * k2) / (4 * n * n)
            acc += term
            if term < eps * acc:
                break
            if n > 20 * dps:
                raise RuntimeError("series too slow for this k")
        return +(mp.pi / 2 * acc)


def hypergeometric_E(k, dps: int) -> mp.mpf:
    """E via (pi/2) [1 - sum ((1/2)_n/n!)^2 k^(2n)/(2n-1)]."""
    with mp.workdps(dps):
        k = mp.mpf(k)
        k2 = k * k
        coeff = mp.mpf(1)
        acc = mp.mpf(0)
        n = 0
        eps = mp.mpf(10) ** (-dps)
        while True:
            n += 1
            coeff *= ((2 * n - 1) ** 2 * k2) / (4 * n * n)
            term = coeff / (2 * n - 1)
            acc += term
            if term < eps and n > 3:
                break
            if n > 20 * dps:
                raise RuntimeError("series too slow for this k")
        return +(mp.pi / 2 * (1 - acc))


def mpf_progression_product(t, qstep, count: int) -> mp.mpf:
    """prod_{n<count} (1 - t qstep^n) by the plain mpf loop, ten digits
    above the current working precision: the reference for the
    fixed-point product kernel."""
    with mp.workdps(mp.mp.dps + 10):
        prod = mp.mpf(1)
        for _ in range(count):
            prod *= 1 - t
            t *= qstep
        return prod


def mpf_theta_terms(a, b, nome, margin=0) -> list:
    """The pairs (q^(a n^2 + b n), q^(a n^2 - b n)) for n = 1..N by the
    plain mpf loop (any rational b), N by the library's truncation rule."""
    from qalg.qengine import _qpow, _term_count

    count = _term_count(0, a, -abs(b), nome.tail + margin)
    qa, qb = _qpow(nome, a), _qpow(nome, b)
    q2a = qa * qa
    tp, tm = qa * qb, qa / qb
    step_p, step_m = tp * q2a, tm * q2a
    terms = []
    for _ in range(count):
        terms.append((tp, tm))
        tp *= step_p
        tm *= step_m
        step_p *= q2a
        step_m *= q2a
    return terms


def mpf_theta_general(a, b, nome) -> mp.mpf:
    """sum (-1)^n q^(a n^2 + b n) by mp.fsum over mpf_theta_terms."""
    with nome.ctx.workdps():
        terms = mpf_theta_terms(a, b, nome)
        return +(1 + mp.fsum((-1) ** n * (tp + tm) for n, (tp, tm) in enumerate(terms, 1)))


def mpf_theta_powersum(m: int, nome) -> mp.mpf:
    """sum q^(n^2 + m n), cut m^2/4 + 1 beyond the tail threshold."""
    with nome.ctx.workdps():
        terms = mpf_theta_terms(1, m, nome, Fraction(m * m, 4) + 1)
        return +(1 + mp.fsum(tp + tm for tp, tm in terms))


def mpf_theta_qdlog(a, b, nome) -> mp.mpf:
    """q theta'(q) / theta(q) for sum (-1)^n q^(a n^2 + b n), termwise."""
    with nome.ctx.workdps():
        terms = list(enumerate(mpf_theta_terms(a, b, nome), 1))
        am, bm = _num(Fraction(a)), _num(Fraction(b))
        num = mp.fsum((-1) ** n * n * ((am * n + bm) * tp + (am * n - bm) * tm)
                      for n, (tp, tm) in terms)
        den = 1 + mp.fsum((-1) ** n * (tp + tm) for n, (tp, tm) in terms)
        return +(num / den)


def mpf_lambert(X, nome) -> mp.mpf:
    """sum_{n<=N} n X(n) q^n / (1 - q^n), one mpf term at a time."""
    from qalg.qengine import _term_count

    with nome.ctx.workdps():
        s, qn = mp.mpf(0), mp.mpf(1)
        for n in range(1, _term_count(0, 0, 1, nome.tail) + 1):
            qn *= nome.q
            x = X.value(n)
            if x:
                s += n * _num(Fraction(x)) * qn / (1 - qn)
        return +s


def mpf_continued_fraction(nome) -> mp.mpf:
    """q^(1/5) / (1 + q/(1 + q^2/(1 + ...))) by the mpf backward
    recurrence, at the library's depth."""
    from qalg.qengine import _qpow, _term_count

    with nome.ctx.workdps():
        depth = _term_count(1, Fraction(1, 2), Fraction(3, 2), nome.tail)
        powers = [nome.q]
        for _ in range(depth - 1):
            powers.append(powers[-1] * nome.q)
        t = mp.mpf(1)
        for qk in reversed(powers):
            t = 1 + qk / t
        return +(_qpow(nome, Fraction(1, 5)) / t)


def mpf_agile(a, p, nome) -> mp.mpf:
    """[a,p;q] as two mpf progression products, 0 < a < p."""
    from qalg.qengine import _qpow, _term_count

    with nome.ctx.workdps():
        qa, qp = _qpow(nome, a), _qpow(nome, p)
        out = mp.mpf(1)
        for e0, t in ((Fraction(a), qa), (Fraction(p - a), qp / qa)):
            out *= mpf_progression_product(t, qp, _term_count(e0, 0, p, nome.tail) + 1)
        return +out


def mpf_eta(m, nome) -> mp.mpf:
    """prod_{n>=1} (1 - q^(m n)) as one mpf progression product."""
    from qalg.qengine import _qpow, _term_count

    with nome.ctx.workdps():
        qm = _qpow(nome, m)
        return +mpf_progression_product(qm, qm, _term_count(m, 0, m, nome.tail) + 1)


def mpf_agm_KE(k, kp):
    """(K(k), E(k), iterations) by the plain mpf AGM of (1, k') with the
    c-sum E/K = 1 - (k^2/2 + sum_n 2^(n-2) (a_n - b_n)^2): the reference
    for the fixed-point AGM kernel.  The stopping rule
    |a - b| <= 10^(3 - dps) a comes from the current working precision;
    the loop runs ten digits above it."""
    b = kp
    eps = mp.mpf(10) ** (-mp.mp.dps + 3)
    with mp.workdps(mp.mp.dps + 10):
        a = mp.mpf(1)
        csum4 = 2 * k * k
        pw = 1
        iters = 0
        while True:
            d = a - b
            done = abs(d) <= eps * a
            a, b = (a + b) / 2, mp.sqrt(a * b)
            csum4 += d * d * pw
            pw *= 2
            iters += 1
            if done:
                break
        K = mp.pi / (a + b)
        return K, K * (1 - csum4 / 4), iters


def mpf_tanh_sinh(f, lo, hi, dps: int, tol_digits: int):
    """(value, integrand evaluations) of mpmath's tanh-sinh rule on
    [lo, hi] in mpf: one ``TanhSinh.summation`` pass of ``mp.mp``'s rule
    (the instance and node cache ``mp.quad`` uses) over degrees 1..10
    under 20 extra bits, at dps + 10 digits, stopping at an error
    estimate of 10^-tol_digits.  The reference for the fixed-point
    quadrature; f takes and returns mpf."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    with mp.workdps(dps + 10):
        tol = mp.mpf(10) ** (-tol_digits)
        prec = mp.mp.prec
        with mp.extraprec(20):
            val, _ = mp.mp._tanh_sinh.summation(
                counted, [mp.mpf(lo), mp.mpf(hi)], prec, tol, 10)
        return +val, len(calls)


def mpf_beta_series(z, a, b) -> mp.mpf:
    """B(z; a, b) = z^a/a 2F1(a, 1-b; a+1; z) (DLMF 8.17.7) in mpf, through
    mpmath's hyp2f1, which also takes z up to 1: the reference for the
    integer series of modular._beta_series."""
    return z ** a / a * mp.hyp2f1(a, 1 - b, a + 1, z)


def half_integral(a: Fraction, b: Fraction, dps: int) -> mp.mpf:
    """int_0^(1/2) t^(a-1) (1-t)^(b-1) dt = B(1/2; a, b), expanding
    (1-t)^(b-1) binomially; every term integrates to a rational times a
    power of 1/2."""
    with mp.workdps(dps + 20):
        coeff = mp.mpf(1)
        acc = mp.mpf(0)
        half = mp.mpf(1) / 2
        eps = mp.mpf(10) ** (-dps - 10)
        am, bm = mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator
        k = 0
        while True:
            # coeff = (-1)^k C(b-1, k) = prod_{j<k} (j+1-b)/ (j+1)
            term = coeff * half ** (am + k) / (am + k)
            acc += term
            if abs(term) < eps and k > 3:
                break
            coeff *= (k + 1 - bm) / (k + 1)
            k += 1
        return +acc


def beta_complete_16_23(dps: int) -> mp.mpf:
    """B(1; 1/6, 2/3) split at 1/2: B(1/2; 1/6, 2/3) + B(1/2; 2/3, 1/6)."""
    a, b = Fraction(1, 6), Fraction(2, 3)
    with mp.workdps(dps + 20):
        return half_integral(a, b, dps) + half_integral(b, a, dps)


def _exact(c):
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def series_log(f) -> list:
    """log of the coefficient list f (f[0] = 1) by the textbook recurrence
    n g_n = n f_n - sum_{k<n} k g_k f_{n-k}, each product formed anew."""
    n_ord = len(f) - 1
    out = [0] * (n_ord + 1)
    for n in range(1, n_ord + 1):
        s = n * f[n]
        for k in range(1, n):
            if out[k] and f[n - k]:
                s -= k * out[k] * f[n - k]
        out[n] = _exact(Fraction(s, n))
    return out


def series_exp(l) -> list:
    """exp of the coefficient list l (l[0] = 0) by the textbook recurrence
    n e_n = sum_{k<=n} k l_k e_{n-k}, each product formed anew."""
    n_ord = len(l) - 1
    out = [1] + [0] * n_ord
    for n in range(1, n_ord + 1):
        s = 0
        for k in range(1, n + 1):
            if l[k]:
                s += k * l[k] * out[n - k]
        out[n] = _exact(Fraction(s, n))
    return out


def mu(n: int) -> int:
    """The Moebius function by trial division: 0 if a square divides n,
    else (-1)^(number of prime factors)."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def moebius_extract_X(coeffs) -> list:
    """X(n) = (1/n) sum_{d|n} mu(n/d) d c_d, one mu per divisor pair:
    the reference for the sieve that inverts the Taylor coefficients."""
    out = []
    for n in range(1, len(coeffs) + 1):
        s = Fraction(0)
        for d in range(1, n + 1):
            if n % d == 0:
                s += mu(n // d) * d * Fraction(coeffs[d - 1])
        out.append(s / n)
    return out


def horner(coeffs, x) -> mp.mpf:
    """sum c_n x^n for the exact coefficients c_0, c_1, ... at an mpf x
    (current precision)."""
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + _num(c)
    return acc


def composite_midpoint(f, a, b, n: int) -> mp.mpf:
    h = (mp.mpf(b) - mp.mpf(a)) / n
    return h * mp.fsum(f(a + (i + mp.mpf(1) / 2) * h) for i in range(n))


def random_planted_poly(rng, degree: int = 6, height: int = 10 ** 6):
    """A random integer polynomial with a real root, plus that root at
    ~100 digits (refine with newton_refine_root for more)."""
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(degree)] \
            + [rng.randint(1, height)]
        with mp.workdps(120):
            try:
                roots = mp.polyroots(list(reversed(coeffs)), maxsteps=300,
                                     extraprec=300)
            except Exception:
                continue
            reals = [z for z in roots if abs(mp.im(z)) < mp.mpf(10) ** -20
                     and abs(mp.re(z)) > mp.mpf(10) ** -6]
            if reals:
                return coeffs, mp.re(reals[0])


def newton_refine_root(coeffs, x0, dps: int):
    """Polish a root of the integer polynomial (ascending coeffs) to dps."""
    with mp.workdps(dps + 20):
        x = mp.mpf(x0)
        rev = list(reversed(coeffs))
        dcoeffs = [c * (len(coeffs) - 1 - i) for i, c in enumerate(rev)][:-1]
        for _ in range(300):
            fx = mp.polyval(rev, x)
            dfx = mp.polyval(dcoeffs, x)
            step = fx / dfx
            x -= step
            if abs(step) < mp.mpf(10) ** (-dps - 10):
                break
        return +x


def poly_divides(d: tuple, p: tuple) -> bool:
    """Whether integer polynomial d (ascending coeffs) divides p over Q."""
    rem = [Fraction(c) for c in p]
    dd = [Fraction(c) for c in d]
    while len(rem) >= len(dd) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        factor = rem[-1] / dd[-1]
        shift = len(rem) - len(dd)
        for i, c in enumerate(dd):
            rem[shift + i] -= factor * c
        rem.pop()
    return not any(rem)
