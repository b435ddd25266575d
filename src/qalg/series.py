"""Exact formal power series over the rationals.

Dense coefficient storage up to a truncation order N.  Each coefficient is
an int, or a Fraction where the value is not an integer; floats are
refused.  Every operation is exact, so series identities checked at order N
are genuine integer/rational equalities rather than float comparisons.
Binary operations on series of different orders truncate to the smaller
order.

Kernels.  `__mul__` and `inverse` loop over lists of (index,
coefficient) for the nonzero terms only, the sparser operand outside; `exp`
and `log` loop over the nonzero weights and coefficients.  Where both
operands of a product are int and dense enough that the schoolbook loop
would form more than _KRON products per coefficient, the product is one
big-int multiply (`_kmul`, Kronecker substitution q = 2^W; Harvey, JSC
2009).  A product coefficient c_k is a sum of at most min(len) terms
a_i b_j, so |c_k| <= min(len) max|a| max|b| < 2^(W-1) for the slot width
W chosen from that bound; c_k + 2^(W-1) then fills its slot without a
carry into the next, and every coefficient read back is exact.  A dense
int series with constant term +-1 is inverted by Newton's
g <- g (2 - f g) on the same products.  Fraction coefficients keep the
schoolbook loops.  Integral values stay ints: `exp` and `log` divide
exactly where n | s, and integer exponents x(n) in `exponent_product`
that share a factor g > 1 take the x(n)/g passes and then the g-th power.

The divisor sum w_n -> sum_{d|n} w_d and its Moebius inverse are one
sieve, `_divisor_sieve`, shared by `exponent_product` here and by the
Taylor-coefficient inversion in `moebius` (`extract_X`, `coeffs_from_X`).
The expansions qengine builds from these kernels (`eta_qexpansion`,
`agile_qexpansion`) are cached; a FormalSeries is immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Sequence, Union

from .errors import OrderError

Coeff = Union[int, Fraction]

# one _kmul of n coefficients costs about as much as _KRON n schoolbook
# products (orders 40 to 200, coefficients up to 2^100; CPython 3.11 on a
# 2-core Xeon)
_KRON = 24


def _exact(c) -> Coeff:
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise OrderError(f"series coefficients must be int or Fraction, got {c!r}")


def _quo(s: Coeff, n: int) -> Coeff:
    """s/n exactly: an int where n divides an int s."""
    return s // n if isinstance(s, int) and not s % n else _exact(Fraction(s, n))


def _terms(c: Sequence) -> list:
    """The nonzero coefficients of c as (index, value) pairs."""
    return [(i, x) for i, x in enumerate(c) if x]


def _kmul(a: Sequence, b: Sequence, n: int) -> list:
    """The first n coefficients of a*b for int sequences a, b by one big-int
    multiply at q = 2^W.  Each product coefficient is a sum of at most
    min(len(a), len(b)) terms a_i b_j, so |c_k| <= M = min(len) max|a|
    max|b|; W = 8 nb with 2^(W-1) > M, so c_k + 2^(W-1) lies in [0, 2^W)
    and the slots carry nothing into each other: every c_k is exact."""
    M = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    nb = (M.bit_length() + 8) // 8
    h = 1 << (8 * nb - 1)
    slot = bytes(nb - 1) + b"\x80"  # h in one slot

    def pack(c):
        packed = b"".join((x + h).to_bytes(nb, "little") for x in c)
        return int.from_bytes(packed, "little") - int.from_bytes(slot * len(c), "little")

    low = (pack(a) * pack(b) + int.from_bytes(slot * n, "little")) & ((1 << (8 * nb * n)) - 1)
    buf = low.to_bytes(nb * n, "little")
    return [int.from_bytes(buf[i:i + nb], "little") - h for i in range(0, nb * n, nb)]


def _is_int(c: Sequence) -> bool:
    return all(type(x) is int for x in c)


class FormalSeries:
    """A truncated power series  c0 + c1*q + ... + cN*q^N  with exact
    rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
        if not coeffs:
            raise OrderError("a series needs at least a constant term")
        self.coeffs = tuple(map(_exact, coeffs))

    @classmethod
    def _of(cls, coeffs: Sequence[Coeff]) -> "FormalSeries":
        """A series of coefficients already int or non-integral Fraction."""
        s = object.__new__(cls)
        s.coeffs = tuple(coeffs)
        return s

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, order: int) -> "FormalSeries":
        return cls._of([1] + [0] * order)

    @classmethod
    def from_terms(cls, terms: dict[int, Coeff], order: int) -> "FormalSeries":
        c = [0] * (order + 1)
        for e, v in terms.items():
            if 0 <= e <= order:
                c[e] += _exact(v)
        return cls(c)

    # -- basic protocol ----------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Coeff:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"FormalSeries([{head}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def scale(self, c: Coeff) -> "FormalSeries":
        c = _exact(c)
        return FormalSeries([c * x for x in self.coeffs])

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order) + 1
        a, b = self.coeffs[:n], other.coeffs[:n]
        ta, tb = sorted((_terms(a), _terms(b)), key=len)
        if len(ta) * len(tb) > _KRON * n and _is_int(a) and _is_int(b):
            return FormalSeries._of(_kmul(a, b, n))
        out = [0] * n
        for i, x in ta:
            for j, y in tb:
                if i + j >= n:
                    break
                out[i + j] += x * y
        return FormalSeries(out)

    def shift(self, e: int) -> "FormalSeries":
        """Multiply by q**e (dropping overflow beyond the order)."""
        if e < 0:
            raise OrderError("negative shifts are not representable")
        return FormalSeries._of(
            (0,) * e + self.coeffs[: max(0, len(self.coeffs) - e)]
        )

    def inverse(self) -> "FormalSeries":
        """1/self, for a nonzero constant term.  The schoolbook recurrence
        forms about t/2 products per coefficient for t nonzero terms, and
        Newton's g <- g (2 - f g) about two _kmul; an int series with
        constant term +-1 and t > 4 _KRON takes Newton: with f g = 1 + q^k e
        mod q^2k, g - q^k (g e) is the inverse to order 2k, each product
        by _kmul and so exact."""
        a = self.coeffs
        n = len(a)
        if a[0] == 0:
            raise OrderError("cannot invert a series with zero constant term")
        ta = _terms(a)[1:]
        if len(ta) > 4 * _KRON and a[0] in (1, -1) and _is_int(a):
            g = [a[0]]
            while len(g) < n:
                k = len(g)
                m = min(2 * k, n)
                e = _kmul(a[:m], g, m)[k:]
                g += [-x for x in _kmul(g[:m - k], e, m - k)]
            return FormalSeries._of(g)
        # a unit constant term keeps integer coefficients integral
        inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
        out = [inv0] + [0] * (n - 1)
        for m in range(1, n):
            s = 0
            for k, x in ta:
                if k > m:
                    break
                s += x * out[m - k]
            out[m] = -inv0 * s
        return FormalSeries(out)

    def pow_int(self, k: int) -> "FormalSeries":
        if k < 0:
            return self.inverse().pow_int(-k)
        result = FormalSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def pow_rational(self, k: Coeff) -> "FormalSeries":
        """self**k for rational k; requires constant term 1."""
        k = Fraction(k)
        if k.denominator == 1:
            return self.pow_int(k.numerator)
        if self.coeffs[0] != 1:
            raise OrderError("rational powers require constant term 1")
        return self.log().scale(k).exp()

    def log(self) -> "FormalSeries":
        """log(self) by  n*g_n = n*f_n - sum_{k<n} (k*g_k) f_{n-k}.  The
        weights k*g_k are kept as they are found, so for integer f the
        O(N^2) loop multiplies ints."""
        if self.coeffs[0] != 1:
            raise OrderError("series log requires constant term 1")
        f = self.coeffs
        n_ord = self.order
        out = [0] * (n_ord + 1)
        w = [0] * (n_ord + 1)  # w[k] = k * out[k]
        tf = _terms(f)[1:]
        for n in range(1, n_ord + 1):
            s = n * f[n]
            for j, x in tf:
                if j >= n:
                    break
                s -= w[n - j] * x
            w[n] = _exact(s)
            out[n] = _quo(s, n)
        return FormalSeries._of(out)

    def exp(self) -> "FormalSeries":
        """exp(self) by  n*e_n = sum_{k<=n} (k*l_k) e_{n-k}.  The weights
        k*l_k are formed once, before the O(N^2) loop, so where they are
        integers (the eq25 targets) and e is integral it multiplies ints
        and divides exactly."""
        if self.coeffs[0] != 0:
            raise OrderError("series exp requires constant term 0")
        n_ord = self.order
        w = [(k, _exact(k * c)) for k, c in _terms(self.coeffs)]
        out = [1] + [0] * n_ord
        for n in range(1, n_ord + 1):
            s = 0
            for k, wk in w:
                if k > n:
                    break
                s += wk * out[n - k]
            out[n] = _quo(s, n)
        return FormalSeries._of(out)


def _times_one_minus(c: list, e: int) -> None:
    """Multiply the coefficient list c by (1 - q^e) in place; i runs
    downwards so that c[i - e] is still the old coefficient."""
    if e <= 0:
        raise OrderError("exponent must be positive")
    for i in range(len(c) - 1, e - 1, -1):
        c[i] -= c[i - e]


def _over_one_minus(c: list, e: int) -> None:
    """Divide the coefficient list c by (1 - q^e) in place: a running sum,
    i upwards so that c[i - e] is already the new coefficient."""
    for i in range(e, len(c)):
        c[i] += c[i - e]


def _divisor_sieve(ws: list, sign: int) -> list:
    """In place over ws[n-1], n = 1..N: sign +1 replaces w_n by
    sum_{d|n} w_d, sign -1 undoes exactly that (Moebius inversion)."""
    N = len(ws)
    for d in range(N, 0, -1) if sign > 0 else range(1, N + 1):
        w = sign * ws[d - 1]
        if w:
            for n in range(2 * d, N + 1, d):
                ws[n - 1] += w
    return ws


def exponent_product(x_of_n: Callable[[int], Coeff], order: int) -> FormalSeries:
    """The exact expansion of  prod_{n>=1} (1 - q^n)^(x(n))  to the given
    order.  Integer exponents take |x(n)/g| in-place passes per factor, g
    the gcd of all of them, and then the g-th power; otherwise log/exp:
    log of the product is -sum_j q^j/j * sum_{d|j} d*x(d).
    """
    xs = [Fraction(x_of_n(n)) for n in range(1, order + 1)]
    if any(x.denominator > 1 for x in xs):
        sums = _divisor_sieve([n * x for n, x in enumerate(xs, 1)], 1)
        return FormalSeries([0] + [-s / n for n, s in enumerate(sums, 1)]).exp()
    ks = [x.numerator for x in xs]
    g = gcd(*ks) or 1
    out = [1] + [0] * order
    for n, k in enumerate(ks, 1):
        for _ in range(k // g):
            _times_one_minus(out, n)
        for _ in range(-k // g):
            _over_one_minus(out, n)
    out = FormalSeries._of(out)
    return out.pow_int(g) if g > 1 else out


def one_minus_power_product(exponents: Sequence[int], order: int) -> FormalSeries:
    """prod (1 - q^e) over the listed exponents (each clipped at the order)."""
    out = [1] + [0] * order
    for e in exponents:
        if e <= order:
            _times_one_minus(out, e)
    return FormalSeries._of(out)
