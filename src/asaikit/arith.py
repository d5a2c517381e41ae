"""Exact arithmetic kernel: rationals, cyclotomic fields, Bernoulli numbers,
multiplicative tables, midpoint-radius complex balls and the integer fixed-point
kernel of the truncated series.

Everything here is immutable and pure.  Rational numbers are stdlib
``fractions.Fraction`` (always lowest terms, positive denominator);
cyclotomic numbers are integer coefficient vectors over one positive
denominator, reduced modulo the m-th cyclotomic polynomial and kept in
lowest terms, so equality of values is equality of vectors.  Floats are
refused wherever an exact value is expected.  Likewise a Ball takes only
Balls as operands, so every rounded value carries its error, and its own
precision (see ``Ball``); the Bessel quadratures run in a per-thread mpmath
context, so nothing here reads or sets mpmath's process-wide precision.
Every analytic root of unity is read from the one integer table
``fixed_root_table``.  ``TruncatedSeries`` chooses the residue modulus of
its own buckets, so no caller names one, and both of its sums, at a
frequency and under a character, end in one dot product with that table
(``_root_sum``).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import comb, gcd, hypot, inf, isqrt, lcm, log, nextafter, sqrt
from typing import Iterable, Iterator, Mapping, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import (  # every rounding here is at an explicit precision
    from_int, from_man_exp, from_rational, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_expjpi, mpc_mul,
    mpc_neg, mpc_pos, mpc_sub, mpf_div, mpf_mul, mpf_pi, mpf_pow, mpf_pow_int, mpf_shift, round_nearest, to_float,
    to_int,
)

Rational = Fraction

__all__ = [
    "Rational",
    "vp",
    "factorize",
    "is_prime",
    "euler_phi",
    "ArithTables",
    "primes_up_to",
    "bernoulli_number",
    "bernoulli_polynomial",
    "cyclotomic_polynomial",
    "CyclotomicNumber",
    "cyclotomic_dot",
    "Ball",
    "to_mpf",
    "fixed_root_table",
    "root_ball",
    "fixed_power_terms",
    "mobius_terms",
    "mobius_buckets",
    "fold",
    "TruncatedSeries",
    "bessel_k_moment_check",
    "BesselMomentReport",
]


# ---------------------------------------------------------------------------
# elementary number theory


def _split_order(m: int, p: int) -> tuple[int, int]:
    """m = p^a * m' with m' prime to p; returns (a, m')."""
    a = _vp_int(m, p)
    return a, m // p**a


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, p: int) -> Fraction | float:
    """p-adic valuation of a rational, with vp(0) = +inf."""
    if x == 0:
        return inf
    if not isinstance(x, int):
        x = Fraction(x)
    return Fraction(_vp_int(x.numerator, p) - _vp_int(x.denominator, p))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q = 5
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += 2 if q % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to every base in _MR_BASES


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin at the 13 primes up to 41, which is exact below
    3.317 * 10^24 (Sorenson and Webster, Math. Comp. 86 (2017)); larger n raise ValueError.
    The primes up to 37 alone pass the composite 318665857834031151167461."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided here below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for q, e in factorize(n):
        out *= (q - 1) * q ** (e - 1)
    return out


class ArithTables:
    """Sieved Moebius and prime tables up to a bound."""

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.bound = bound
        self._plus, self._minus = _mobius_sign_masks(bound)
        self.primes = primes_up_to(bound)

    def mobius(self, n: int) -> int:
        return self._plus[n] - self._minus[n]


def primes_up_to(bound: int) -> list[int]:
    """The primes <= bound, by a sieve of Eratosthenes on a bytearray."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, bound + 1, q)))
    return list(compress(range(bound + 1), sieve))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (convention B_1 = -1/2, so B_k(0) = B_k)


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k with B_0 = 1, B_1 = -1/2, via sum_{i<k} C(k+1,i) B_i = -C(k+1,k) B_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for i in range(k):
        acc += comb(k + 1, i) * bernoulli_number(i)
    return -acc / (k + 1)


def bernoulli_polynomial(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_i C(k,i) B_i x^(k-i)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for i in range(k, -1, -1):
        # xpow = x^(k-i)
        acc += comb(k, i) * bernoulli_number(i) * xpow
        xpow *= x
    return acc


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (little-endian coefficient lists)


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, little-endian, via Phi_m = (x^m - 1) / prod_{d|m, d<m} Phi_d."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, cyclotomic_polynomial(d))
            assert not rem
    return tuple(num)


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _check_rational(x) -> None:
    """Exact values are ints or Fractions: a float (already rounded) is refused, not converted."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact arithmetic takes int or Fraction values, not {type(x).__name__}")


def _vp_min(num: Iterable[int], den: int, p: int) -> Fraction | float:
    """min_i vp(num_i / den) for integers num_i and den > 0; +inf when every num_i is 0."""
    least = min((_vp_int(n, p) for n in num if n), default=None)
    return inf if least is None else Fraction(least - _vp_int(den, p))


class CyclotomicNumber:
    """Element of Q(zeta_m): sum_i num[i] zeta_m^i / den, i < phi(m), reduced modulo Phi_m.

    ``num`` is a tuple of ints and ``den`` a positive int, in canonical form
    gcd(den, *num) = 1 (zero is (0, ..., 0) / 1), so equality of values is
    equality of (num, den).  Arithmetic runs on the integers and divides out
    the gcd once per result; ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # equality lifts across orders; not hashable

    def __init__(self, order: int, coeffs: Sequence[Fraction | int]):
        phi = euler_phi(order)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        for c in coeffs:
            _check_rational(c)
        # each coefficient is in lowest terms, so gcd(den, *num) = 1 already
        den = lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @staticmethod
    def _make(order: int, num: tuple[int, ...], den: int) -> "CyclotomicNumber":
        """num / den (den > 0) in canonical form, without the checks of the public constructor."""
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        out = object.__new__(CyclotomicNumber)
        out.order = order
        out.num = num
        out.den = den
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x: Fraction | int, order: int = 1) -> "CyclotomicNumber":
        _check_rational(x)
        num = [0] * euler_phi(order)
        num[0] = x.numerator
        return CyclotomicNumber._make(order, tuple(num), x.denominator)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_exponents(order, {power % order: 1})

    @staticmethod
    def from_exponents(order: int, weights: Mapping[int, Fraction | int]) -> "CyclotomicNumber":
        """sum_e weights[e] * zeta_order^e, reduced modulo Phi_order over one common denominator."""
        for w in weights.values():
            _check_rational(w)
        den = lcm(*(w.denominator for w in weights.values()))
        poly = [0] * order
        for e, w in weights.items():
            poly[e % order] += w.numerator * (den // w.denominator)
        return CyclotomicNumber._make(order, tuple(_reduce_mod_cyclotomic(poly, order)), den)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients num[i] / den as Fractions in lowest terms, one built per distinct numerator."""
        den = self.den
        fracs = {c: Fraction(c, den) for c in set(self.num)}
        return tuple(map(fracs.__getitem__, self.num))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def _permuted(self, order: int, step: int, shift: int = 0) -> "CyclotomicNumber":
        """sum_i num[i] zeta_order^(i step + shift) / den, reduced; the exponents i step are distinct mod order."""
        poly = [0] * order
        for i, c in enumerate(self.num):
            if c:
                poly[(i * step + shift) % order] = c
        return CyclotomicNumber._make(order, tuple(_reduce_mod_cyclotomic(poly, order)), self.den)

    def lift(self, order: int) -> "CyclotomicNumber":
        """Rewrite in Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only lift to a multiple of the current order")
        return self._permuted(order, order // self.order)

    def galois(self, t: int) -> "CyclotomicNumber":
        """Apply the automorphism zeta -> zeta^t (t coprime to the order)."""
        if gcd(t, self.order) != 1:
            raise ValueError("galois exponent must be a unit modulo the order")
        return self._permuted(self.order, t)

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(-1 % self.order) if self.order > 1 else self

    def norm(self) -> Fraction:
        """Product of all Galois conjugates: det(multiplication by num) / den^phi."""
        det, _ = _bareiss_solve(_multiplication_matrix(self))
        return Fraction(det, self.den ** len(self.num))

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, self.order)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented, NotImplemented
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def _combine(self, other, op):
        """op(self, other) for op = add or sub, coefficientwise over the lcm of the denominators."""
        a, b = self._coerced(other)
        if a is NotImplemented:
            return NotImplemented
        an, bn, den = a.num, b.num, a.den
        if den != b.den:
            g = gcd(den, b.den)
            sa, sb = b.den // g, den // g
            an = [c * sa for c in an]
            bn = [c * sb for c in bn]
            den *= sa
        return CyclotomicNumber._make(a.order, tuple(map(op, an, bn)), den)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._make(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            return cyclotomic_dot(((self, other),))
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return CyclotomicNumber._make(self.order, tuple(c * n for c in self.num), self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse, from num y = 1 solved by fraction-free elimination on the integers."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        if self.is_rational():
            return CyclotomicNumber.from_rational(Fraction(self.den, self.num[0]), self.order)
        # sol = det y, det the determinant of multiplication by num: (num / den)^(-1) = den sol / det
        det, sol = _bareiss_solve(_multiplication_matrix(self))
        if det < 0:
            det, sol = -det, [-c for c in sol]
        return CyclotomicNumber._make(self.order, tuple(self.den * c for c in sol), det)

    def __truediv__(self, other):
        if isinstance(other, CyclotomicNumber):
            return cyclotomic_dot(((self, other.inverse()),))
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CyclotomicNumber.from_rational(1, self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other.numerator and self.den == other.denominator
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._coerced(other)
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_rational()})"
        terms = [f"{c}*z{self.order}^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    def embed(self, prec: int = 53) -> "Ball":
        """Evaluate the coefficient polynomial at exp(2*pi*i/m) (the fixed embedding).

        Horner's rule runs at w = prec + 16 bits.  As |zeta| = 1, every partial
        value is at most S = sum |c|, and each of the n steps moves the result by
        at most 5 S 2^(-w): zeta (two units), the coefficient, the product and the
        sum.  The radius counts 8 (n + 1) S 2^(-w).
        """
        if prec < 53:
            raise ValueError("prec must be at least 53 bits")
        coeffs = self.coeffs
        w = prec + 16
        zeta = mpc_expjpi((from_rational(2, self.order, w, round_nearest), fzero), w, round_nearest)
        acc = (fzero, fzero)
        for c in reversed(coeffs):
            acc = mpc_add_mpf(mpc_mul(acc, zeta, w, round_nearest), to_mpf(c, w)._mpf_, w, round_nearest)
        mass = sum(abs(float(c)) for c in coeffs)
        return Ball.from_mpc(mp.make_mpc(acc), prec, 8 * (len(coeffs) + 1) * mass * 2.0 ** (-w))


@lru_cache(maxsize=None)
def _cyclotomic_taps(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(order), the nonzero (j, c_j) of Phi_order = x^phi + sum_(j < phi) c_j x^j)."""
    phi_poly = cyclotomic_polynomial(order)
    d = len(phi_poly) - 1
    return d, tuple((j, c) for j, c in enumerate(phi_poly[:d]) if c)


def _reduce_mod_cyclotomic(poly: list, order: int) -> list:
    """Reduce a little-endian integer coefficient list modulo Phi_order; return phi(order) coefficients.

    The list is folded modulo x^order - 1 first (a multiple of Phi_order), so
    only the exponents from phi(order) to order - 1 take the taps of Phi.
    """
    d, taps = _cyclotomic_taps(order)
    if len(poly) > order:
        for i in range(order, len(poly)):
            poly[i % order] += poly[i]
        del poly[order:]
    if any(poly[d:]):
        for i in range(len(poly) - 1, d - 1, -1):
            c = poly[i]
            if c:
                poly[i] = 0
                for j, pj in taps:
                    poly[i - d + j] -= c * pj
    out = poly[:d]
    out += [0] * (d - len(out))
    return out


def _poly_divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials by a monic divisor."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return _poly_trim(q), _poly_trim(num)


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _multiplication_matrix(x: CyclotomicNumber) -> list[list[int]]:
    """The integer matrix of y -> num y on the power basis: column j is num zeta^j reduced."""
    col = list(x.num)
    cols = [col]
    for _ in range(len(col) - 1):
        col = _reduce_mod_cyclotomic([0] + col, x.order)
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _bareiss_solve(rows: list[list[int]]) -> tuple[int, list[int] | None]:
    """(det A, det A times A^(-1) e_0) for a square integer matrix A; (0, None) when A is singular.

    Bareiss's fraction-free elimination: every entry stays an integer (a
    minor of A) and every division is exact, and so is each step of the back
    substitution, as det A times A^(-1) e_0 is integral by Cramer's rule.
    """
    n = len(rows)
    a = [row + [int(i == 0)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rk = a[k]
        akk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            a[i] = ri[: k + 1] + [(akk * x - aik * y) // prev for x, y in zip(ri[k + 1 :], rk[k + 1 :])]
        prev = akk
    det = sign * a[-1][n - 1]
    if not det:
        return 0, None
    sol = [0] * n
    for i in range(n - 1, -1, -1):
        ri = a[i]
        acc = det * ri[n] - sum(ri[j] * sol[j] for j in range(i + 1, n))
        sol[i] = acc // ri[i]
    return det, sol


def cyclotomic_dot(pairs: Iterable[tuple[CyclotomicNumber, CyclotomicNumber]]) -> CyclotomicNumber:
    """sum_i a_i b_i in Q(zeta_m), m the lcm of the operands' orders (the order-1 zero when empty).

    The one product kernel of Q(zeta_m): ``*`` and ``/`` call it with one
    pair, so operands of different orders are multiplied without lifting
    either.  zeta_order^i is zeta_m^(i m / order), so every product goes
    unreduced into one integer buffer modulo x^m - 1, over the lcm of the
    products' denominators; the buffer is reduced modulo Phi_m once and its
    gcd divided out once.
    """
    pairs = list(pairs)
    m = den = 1
    for a, b in pairs:
        m = lcm(m, a.order, b.order)
        den = lcm(den, a.den * b.den)
    acc = [0] * (2 * m - 1)  # exponents below 2m - 1 before the fold modulo x^m - 1
    for a, b in pairs:
        sa, sb, scale = m // a.order, m // b.order, den // (a.den * b.den)
        terms = [(j * sb, y * scale) for j, y in enumerate(b.num) if y]
        for i, x in enumerate(a.num):
            if x:
                i *= sa
                for j, y in terms:
                    acc[i + j] += x * y
    return CyclotomicNumber._make(m, tuple(_reduce_mod_cyclotomic(acc, m)), den)


# ---------------------------------------------------------------------------
# midpoint-radius complex balls


_SLACK = 1 + 2.0**-50  # covers the float roundings of a few nonnegative sums and products


def _up(x: float) -> float:
    """A float radius pushed past the roundings of the float operations that formed it."""
    return nextafter(x * _SLACK, inf)


def _mag(z) -> float:
    """|z| of an mpc as a float, from the float real and imaginary parts (no mpf square root)."""
    re, im = z._mpc_
    return hypot(to_float(re), to_float(im))


class Ball:
    """Complex midpoint-radius ball: the value lies within ``rad`` of ``mid``.

    ``mid`` is an ``mpc``, ``rad`` a float rounded up, and ``prec`` the
    precision the Ball carries, 0 for an exact constant.  An operation runs
    at the larger precision p of its operands, never at mpmath's working
    precision, and adds to the radius the rounding of the midpoint
    operation, 2^(1-p) |result| (twice the round-to-nearest error of each
    part, which also covers the float magnitude).  On two exact constants
    it is exact, and a quotient, which cannot be, raises ValueError.  Both
    operands of ``+``, ``-``, ``*`` and ``/`` are Balls: any other operand
    raises TypeError, so a rounded value cannot enter without its radius.
    """

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad: float = 0.0, prec: int = 0):
        self.mid = mid
        self.rad = rad
        self.prec = prec

    @staticmethod
    def exact(re: int, im: int = 0) -> "Ball":
        """The Gaussian integer re + i im as an exact constant."""
        return Ball(mp.make_mpc((from_int(re), from_int(im))))

    @staticmethod
    def from_mpc(z, prec: int, rad: float = 0.0) -> "Ball":
        """z rounded to ``prec`` bits, with radius ``rad`` plus that rounding."""
        mid = mp.make_mpc(mpc_pos(z._mpc_, prec, round_nearest))
        return Ball(mid, _up(rad + _mag(mid) * 2.0 ** (1 - prec)), prec)

    def to_mpc(self):
        return self.mid

    def _op(self, other, mpc_op, rad) -> "Ball":
        """``mpc_op`` of the midpoints at the larger precision p of the operands, with radius
        ``rad(result)`` plus the rounding 2^(1-p) |result| (none between exact constants)."""
        if not isinstance(other, Ball):
            return NotImplemented
        p = max(self.prec, other.prec)
        mid = mp.make_mpc(mpc_op(self.mid._mpc_, other.mid._mpc_, p, round_nearest))
        return Ball(mid, _up(rad(mid) + (_mag(mid) * 2.0 ** (1 - p) if p else 0.0)), p)

    def __abs__(self) -> float:
        """|mid| as a float, rounded to nearest from the Ball's precision (53 bits if exact)."""
        return to_float(mpc_abs(self.mid._mpc_, self.prec or 53, round_nearest), rnd=round_nearest)

    def __add__(self, other):
        return self._op(other, mpc_add, lambda mid: self.rad + other.rad)

    def __neg__(self):
        return Ball(mp.make_mpc(mpc_neg(self.mid._mpc_)), self.rad, self.prec)  # exact: no rounding

    def __sub__(self, other):
        return self._op(other, mpc_sub, lambda mid: self.rad + other.rad)

    def __mul__(self, other):
        return self._op(
            other, mpc_mul, lambda mid: _mag(self.mid) * other.rad + _mag(other.mid) * self.rad + self.rad * other.rad
        )

    def __truediv__(self, other):
        """Quotient by a ball that excludes 0."""
        if not isinstance(other, Ball):
            return NotImplemented
        den = _mag(other.mid) * (1 - 2.0**-50) - other.rad
        if den <= 0:
            raise ZeroDivisionError("the divisor ball contains 0")
        if not (self.prec or other.prec):
            raise ValueError("a quotient of exact constants needs a precision")
        return self._op(other, mpc_div, lambda q: (self.rad + _mag(q) * other.rad) / den)


def _two_pi_power(k: int, prec: int) -> Ball:
    """(2 pi)^k for k >= 0 at ``prec`` bits, as a Ball whose radius holds its rounding.

    pi and the power (exact, or at extra precision) are rounded once each,
    so (2 pi)^k is within (1 + 2^(-prec))^(k+1) - 1 < (k + 3) 2^(-prec) of
    relative error.
    """
    v = mpf_pow_int(mpf_shift(mpf_pi(prec, round_nearest), 1), k, prec, round_nearest)
    return Ball.from_mpc(mp.make_mpc((v, fzero)), prec, to_float(v, rnd=round_nearest) * (k + 3) * 2.0**-prec)


# ---------------------------------------------------------------------------
# truncated Dirichlet series sum a(r) r^(-s) on one integer fixed-point kernel:
# every term is the integer nearest a(r) r^(-s) 2^F, a residue bucket mod q is
# the exact sum of its terms, and a frequency or character combination of the
# buckets is an exact integer sum of products with the integers nearest
# 2^F e(t/n), so a value is rounded once, when it becomes an mpc.  The same
# integers, over 2^F, are the one analytic table of roots of unity (root_ball)


def to_mpf(x: Fraction | int, prec: int) -> mpmath.mpf:
    """A rational at ``prec`` bits, as mpmath divides: the numerator rounded, then the quotient."""
    x = Fraction(x)
    return mp.make_mpf(mpf_div(from_int(x.numerator, prec, round_nearest), from_int(x.denominator), prec, round_nearest))


def _fixed(x: tuple, F: int) -> int:
    """The integer nearest x 2^F for a raw mpf x."""
    return to_int(mpf_shift(x, F), round_nearest)


@lru_cache(maxsize=64)
def fixed_root_table(n: int, F: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The integers nearest 2^F cos(2 pi t/n) and 2^F sin(2 pi t/n), for 0 <= t < n.

    One evaluation, then exact rotation.  With G = 16 + 2 bitlen(n) guard
    bits and W = F + G, e(1/n) is evaluated once at W + 8 bits, which errs by
    at most (2 pi + 2) 2^(-W-8) (the rounded angle and the evaluation), and
    rounded to the Gaussian integer z_1, so each coordinate of
    e_1 = z_1 - 2^W e(1/n) is below 0.54 and |e_1| < 0.77.  For t <= n/2,
    z_t is z_(t-1) z_1 / 2^W rounded in each coordinate, on integers alone.
    Then |e_t| <= |e_(t-1)| + |e_1| + |e_(t-1)| |e_1| 2^(-W) + sqrt(2)/2, and
    as 2^W > 2^16 n^2 the product term is below 2^(-15): each step adds less
    than 1.5, so |e_t| < 1.5 t <= 0.75 n.  Each entry is z_t / 2^G rounded
    to an integer, within 1/2 + 0.75 n 2^(-G) < 1/2 + 2^(-17) of its target,
    inside the 1/2 + 2^(-12) < 1 that ``root_ball`` and the series bounds
    count.  The rest is the mirror cos[n - t] = cos[t], sin[n - t] = -sin[t]:
    the targets are symmetric, so the mirrored entries lie within the same
    distance of theirs.
    """
    G = 16 + 2 * n.bit_length()
    W = F + G
    re, im = mpc_expjpi((from_rational(2, n, W + 8, round_nearest), fzero), W + 8, round_nearest)
    c1, s1 = _fixed(re, W), _fixed(im, W)
    x, y = 1 << W, 0
    half, g = 1 << (W - 1), 1 << (G - 1)
    cos, sin = [1 << F], [0]
    for _ in range(n // 2):
        x, y = (x * c1 - y * s1 + half) >> W, (x * s1 + y * c1 + half) >> W
        cos.append((x + g) >> G)
        sin.append((y + g) >> G)
    mirror = slice((n - 1) // 2, 0, -1)  # n - t for t = n // 2 + 1, ..., n - 1
    return tuple(cos + cos[mirror]), tuple(sin + [-x for x in sin[mirror]])


def root_ball(n: int, t: int, F: int) -> Ball:
    """e(t/n) as a Ball at F bits: the integer pair of ``fixed_root_table(n, F)`` over 2^F, an
    exact midpoint, with radius sqrt(2) 2^(-F), as each coordinate lies within one unit."""
    cos, sin = fixed_root_table(n, F)
    return Ball(mp.make_mpc((from_man_exp(cos[t], -F), from_man_exp(sin[t], -F))), _up(sqrt(2) * 2.0**-F), F)


def fixed_power_terms(
    pairs: Iterable[tuple[int, Fraction | int]], s: Fraction | int, F: int
) -> Iterator[tuple[int, int]]:
    """Lazily yield (r, the integer nearest a 2^F r^(-s)) for rational a and s > 0.

    For integer s the rounding is exact integer division, so each term lies
    within 1/2 of a 2^F r^(-s).  Other s take one mpf at w = F + 16 bits, where
    the rounded exponent moves r^(-s) by at most 1.01 s ln r units of 2^(-w),
    the logarithm and exponential of the power by s ln r 2^(-9) + 2 more, and a
    and the product by 2 more; so each term lies within
    1/2 + (2 s ln r + 8) 2^(-16) |a r^(-s)| of a 2^F r^(-s).
    """
    s = Fraction(s)
    one = 1 << F
    if s.denominator == 1:
        e = s.numerator
        for r, a in pairs:
            d = r**e
            if type(a) is not int:  # a Fraction; the Moebius coefficients skip this
                a, d = a.numerator, a.denominator * d
            yield r, (a * one + (d >> 1)) // d
        return
    w = F + 16
    e = from_rational(-s.numerator, s.denominator, w, round_nearest)
    for r, a in pairs:
        t = mpf_pow(from_int(r), e, w, round_nearest)
        if a != 1:
            t = mpf_mul(from_rational(a.numerator, a.denominator, w, round_nearest), t, w, round_nearest)
        yield r, _fixed(t, F)


_FLIP_SIGN = bytes.maketrans(b"\1\2", b"\2\1")
_MU_PLUS = bytes.maketrans(b"\1\2", b"\1\0")
_MU_MINUS = bytes.maketrans(b"\1\2", b"\0\1")


def _mobius_sign_masks(bound: int) -> tuple[bytes, bytes]:
    """Masks over 0..bound of the m with mu(m) = 1 and of the m with mu(m) = -1.

    Each byte starts at 1 and swaps 1 <-> 2 at every prime factor, so it ends
    at 1 or 2 by the parity of the number of prime factors; the multiples of
    each prime square are zeroed.
    """
    code = bytearray([1]) * (bound + 1)
    code[0] = 0
    for q in primes_up_to(bound):
        code[q::q] = code[q::q].translate(_FLIP_SIGN)
        if q * q <= bound:
            code[q * q :: q * q] = bytes(len(range(q * q, bound + 1, q * q)))
    return bytes(code.translate(_MU_PLUS)), bytes(code.translate(_MU_MINUS))


# the series bounds mobius_terms reads; ArithTables sieves uncached, so its levels evict none
_mobius_masks = lru_cache(maxsize=8)(_mobius_sign_masks)


def mobius_terms(
    bound: int, k: int, F: int, coprime_to: int = 1, multiple_of: int = 1
) -> Iterator[tuple[int, int]]:
    """Lazily yield (m, the integer nearest mu(m) 2^F m^(-k)) for the squarefree m <= bound
    prime to ``coprime_to`` and divisible by ``multiple_of``, the terms with mu(m) = 1 first.

    The terms are ``fixed_power_terms``' integers, each within 1/2 of
    mu(m) 2^F m^(-k).  Only the two sign masks are kept per bound; each call
    copies them, zeroes the multiples of the primes of ``coprime_to`` and walks
    what is left at the multiples of ``multiple_of``.
    """
    plus, minus = (bytearray(mask) for mask in _mobius_masks(bound))
    for q, _ in factorize(coprime_to):
        zero = bytes(len(range(q, bound + 1, q)))
        plus[q::q] = zero
        minus[q::q] = zero
    g = multiple_of
    r = range(0, bound + 1, g)
    pairs = chain(zip(compress(r, plus[::g]), repeat(1)), zip(compress(r, minus[::g]), repeat(-1)))
    return fixed_power_terms(pairs, k, F)


@lru_cache(maxsize=1024)
def _mobius_bucket(bound: int, k: int, F: int, q: int, g: int) -> tuple[int, ...]:
    """S(g; q): the q buckets ``fold`` makes of the ``mobius_terms`` of the squarefree
    m <= bound with g | m and gcd(m, q) = 1."""
    return tuple(fold(mobius_terms(bound, k, F, q, g), q))


def mobius_buckets(bound: int, k: int, F: int, M: int, q: int) -> list[int]:
    """``fold(mobius_terms(bound, k, F, M), q)``, from buckets that levels M share.

    Every prime of q must divide M.  With P the product of the primes of M
    that do not divide q, the squarefree m prime to M are those prime to q
    and to P, and sum_(g | gcd(m, P)) mu(g) is 1 exactly when gcd(m, P) = 1.
    So the buckets are sum_(g | P) mu(g) S(g; q) (``_mobius_bucket``, cached
    per (bound, k, F, q, g)): the same integer terms, summed exactly, so the
    result is bit-identical.  A level prime to everything but q reads S(1; q)
    alone, the terms it would fold itself; levels that share a g share its
    bucket.  A g above the bound has no multiple to sum and is skipped.
    """
    if any(M % l for l, _ in factorize(q)):
        raise ValueError("every prime of q must divide M")
    signed = [(1, 1)]  # (g, mu(g)) over the g | P
    for l, _ in factorize(M):
        if q % l:
            signed += [(g * l, -mu) for g, mu in signed if g * l <= bound]
    W = [0] * q
    for g, mu in signed:
        W = [w + mu * x for w, x in zip(W, _mobius_bucket(bound, k, F, q, g))]
    return W


def fold(terms: Iterable[tuple[int, int]], q: int) -> list[int]:
    """Residue buckets W[t] = sum of the integer terms with r = t mod q, summed exactly."""
    W = [0] * q
    for r, t in terms:
        W[r % q] += t
    return W


def _root_sum(items: Iterable[tuple[int, int]], n: int, F: int) -> tuple[int, int]:
    """sum w rho(t) over the pairs (t, w) of ``items``, as integers (real, imaginary).

    rho = ``fixed_root_table(n, F)``, and rho(t) is 2^F e(t/n) to within one
    unit per coordinate, so the sum lies within sqrt(2) sum |w| of
    2^F sum w e(t/n).
    """
    cos, sin = fixed_root_table(n, F)
    re = im = 0
    for t, w in items:
        re += w * cos[t]
        im += w * sin[t]
    return re, im


class TruncatedSeries:
    """sum_(r<=R) a(r) w(r) r^(-s), s > k + 1, for weights |w(r)| <= 1, as Balls at ``prec`` bits.

    The series runs on integers at the scale 2^F, F = prec + 48 (the working
    precision prec + 16, plus 32 bits).  The terms, the integers nearest
    a(r) r^(-s) 2^F of the nonzero ``pairs`` (``fixed_power_terms``), are built
    once; the nonzero residue buckets mod q, their exact sums, once per
    modulus.  The series chooses q itself: ``at(b)`` buckets mod the
    denominator of b and ``twisted(chi, coprime_to)`` mod lcm(chi's modulus,
    coprime_to), the least modulus that sees both chi(r) and gcd(r,
    coprime_to).  ``at`` hands each nonzero bucket to ``_root_sum`` with the
    index of its root, and ``twisted`` first adds its buckets per value of
    chi, exactly; ``_root_sum`` multiplies each by the integer root of
    ``fixed_root_table``, in Python integers.  Each value is rounded once, to
    an mpc, and ``at`` keeps its value per frequency b mod 1.
    The tail A R^(k+1-s)/(s-k-1) uses the empirical majorant
    A = max_(r<=R) |a(r)|/r^k, so it bounds sum_(r>R) |a(r)| r^(-s) only if A
    holds beyond R; the mass A (s-k)/(s-k-1) bounds sum_(r<=R) |a(r)| r^(-s).
    ``rounding`` is the proved rounding radius of one value (see ``_ball``).
    """

    def __init__(self, pairs: Iterable[tuple[int, Fraction | int]], k: int, R: int, s: Fraction | int, prec: int):
        pairs = list(pairs)
        self.s, self.prec = Fraction(s), prec
        if self.s <= k + 1:
            raise ValueError(f"need s > {k + 1} for absolute convergence")
        self.F = prec + 48
        self.terms = list(fixed_power_terms(pairs, self.s, self.F))
        sf = float(self.s)
        amax = 0.0
        for r, a in pairs:
            amax = max(amax, abs(a.numerator / a.denominator) / float(r) ** k)
        self.tail = amax * float(R) ** (k + 1 - sf) / (sf - k - 1)
        self.mass = amax * (sf - k) / (sf - k - 1)
        term_err = 0.0 if self.s.denominator == 1 else (2 * sf * log(max(R, 1)) + 8) * 2.0**-16
        units = len(self.terms) / 2 + self.mass * (sqrt(2) + term_err)
        self.rounding = units * (1 + 2.0 ** (1 - self.F)) * 2.0**-self.F
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        self._values: dict[tuple[int, int], Ball] = {}  # at(b) by (denominator q, numerator mod q)

    def _bucket(self, q: int) -> list[tuple[int, int]]:
        """The nonzero residue buckets mod q, as (t, W[t]) pairs."""
        if q not in self._buckets:
            self._buckets[q] = [(t, w) for t, w in enumerate(fold(self.terms, q)) if w]
        return self._buckets[q]

    def _ball(self, re: int, im: int) -> Ball:
        """(re + i im) 2^(-2F), one root combination of the buckets, as a Ball.

        Each term is within 1/2 + e_r of 2^F a(r) r^(-s), with e_r = 0 for
        integer s and e_r = (2 s ln R + 8) 2^(-16) |a(r) r^(-s)| otherwise, so a
        bucket W_t is within c_t/2 + term_err m_t of 2^F times its exact sum
        B_t, for c_t terms of mass m_t in it.  Each root rho is within sqrt(2)
        of 2^F e(.), so |rho| <= 2^F (1 + 2^(1-F)).  One combination
        sum_t W_t rho_t then differs from 2^(2F) sum_t B_t e_t by at most
        sum_t |W_t - 2^F B_t| |rho_t| + 2^F sum_t |B_t| sqrt(2), which is below
        2^(2F) ``rounding``: count/2 2^(-F) for the terms, mass sqrt(2) 2^(-F)
        for the roots and term_err mass 2^(-F) for the mpf terms, times
        1 + 2^(1-F), as sum_t |B_t| <= mass.  The radius is the tail plus one
        such rounding; ``Ball.from_mpc`` adds the rounding of the one mpc.
        """
        scale = -2 * self.F
        mid = mp.make_mpc(tuple(from_man_exp(x, scale, self.prec, round_nearest) for x in (re, im)))
        return Ball.from_mpc(mid, self.prec, self.tail + self.rounding)

    def at(self, b: Fraction | int) -> Ball:
        """sum_(r<=R) a(r) e(r b) r^(-s); it depends on b mod 1 only, and is kept.

        With b = c/q in lowest terms, bucket t goes to the root e(t c/q)."""
        b = Fraction(b)
        q, c = b.denominator, b.numerator % b.denominator
        value = self._values.get((q, c))
        if value is None:
            pairs = [(t * c % q, w) for t, w in self._bucket(q)]
            value = self._values[q, c] = self._ball(*_root_sum(pairs, q, self.F))
        return value

    def twisted(self, chi, coprime_to: int = 1) -> Ball:
        """sum_(r<=R) chi(r) a(r) r^(-s) over r prime to ``coprime_to``.

        The buckets mod lcm(chi's modulus, coprime_to) see both chi(r) and
        gcd(r, coprime_to); each is added to its value of chi."""
        by_value = [0] * chi.value_order
        for t, w in self._bucket(lcm(chi.modulus, coprime_to)):
            if gcd(t, coprime_to) == 1:
                e = chi.exponent_of(t)
                if e is not None:
                    by_value[e] += w
        return self._ball(*_root_sum(enumerate(by_value), chi.value_order, self.F))


# ---------------------------------------------------------------------------
# Bessel moment identity checker


@dataclass(frozen=True)
class BesselMomentReport:
    lhs: mpmath.mpf
    rhs: mpmath.mpf
    rel_err: float
    kernel_rel_err: float


_BESSEL = threading.local()  # per thread: quad, besselk and gamma change their context's prec while they run


def _bessel_context() -> mpmath.MPContext:
    """This thread's own mpmath context at 80 bits, made on its first call."""
    ctx = getattr(_BESSEL, "ctx", None)
    if ctx is None:
        ctx = _BESSEL.ctx = mpmath.MPContext()
        ctx.prec = 80
    return ctx


def bessel_k_moment_check(
    nu: int, mus: tuple[Fraction | int, ...], a: Fraction | int
) -> tuple[BesselMomentReport, ...]:
    """Check int_0^infty K_nu(a t) t^(mu-1) dt = 2^(mu-2) a^(-mu) Gamma((mu+nu)/2) Gamma((mu-nu)/2)
    for each exponent mu in ``mus``, one report per exponent.

    The left side goes through Schlaefli's integral
    K_nu(x) = int_0^infty exp(-x cosh u) cosh(nu u) du (DLMF 10.32.9): the
    t-integral is then a Gamma integral (Fubini), so the moment is
    Gamma(mu) a^(-mu) int_0^infty cosh(nu u) / cosh(u)^mu du, one quadrature,
    compared with the Gamma closed form (``rel_err``).

    That route never evaluates K_nu, so the same Schlaefli integral is also
    compared with ``mpmath.besselk(nu, a)`` (``kernel_rel_err``), cut at the
    U where exp(-a cosh U) = e^(-a) 2^(-80): the integrand has fallen by
    2^(-80) from its value at u = 0, whatever a is.  That comparison depends
    on (nu, a) alone, so the reports share it.

    Both quadratures run at 80 bits, a verification aid at modest fixed
    precision; a report holds the two relative errors and no verdict.
    ``mpmath.quad`` and ``besselk`` round at their context's precision and
    change it while they run, so they run in the calling thread's own
    context (``_bessel_context``), never in the process-wide ``mp``; ``lhs``
    and ``rhs`` come back as ``mp`` values.
    """
    mus = [Fraction(m) for m in mus]
    a = Fraction(a)
    if a <= 0:
        raise ValueError("a must be positive")
    if any(m <= abs(nu) for m in mus):
        raise ValueError("need mu > |nu| for convergence")
    ctx = _bessel_context()
    af = ctx.make_mpf(to_mpf(a, 80)._mpf_)
    # a cosh u = a + 2 a sinh(u/2)^2, and the cut solves 2 a sinh(U/2)^2 = 80 log 2.
    # quad's error control is absolute, so e^(-a) stays outside the integral:
    # inside, a tiny integrand passes at once (at a = 100 it came out 8e-4 off).
    cut = 2 * ctx.asinh(ctx.sqrt(40 * ctx.ln2 / af))
    kernel = ctx.exp(-af) * ctx.quad(lambda u: ctx.exp(-2 * af * ctx.sinh(u / 2) ** 2) * ctx.cosh(nu * u), [0, cut])
    want = ctx.besselk(nu, af)
    kernel_rel = float(abs(kernel - want) / want)
    reports = []
    for m in mus:
        muf = ctx.make_mpf(to_mpf(m, 80)._mpf_)
        integral = ctx.quad(lambda u: ctx.cosh(nu * u) / ctx.cosh(u) ** muf, [0, ctx.inf])
        lhs = ctx.gamma(muf) * af ** (-muf) * integral
        rhs = ctx.mpf(2) ** (muf - 2) * af ** (-muf) * ctx.gamma((muf + nu) / 2) * ctx.gamma((muf - nu) / 2)
        rel = abs(lhs - rhs) / abs(rhs)
        reports.append(
            BesselMomentReport(
                lhs=mp.make_mpf(lhs._mpf_), rhs=mp.make_mpf(rhs._mpf_), rel_err=float(rel), kernel_rel_err=kernel_rel
            )
        )
    return tuple(reports)
