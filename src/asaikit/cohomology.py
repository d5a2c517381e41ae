"""Bi-homogeneous polynomial calculus over Q(sqrt(-D)) and the scalar
ingredients of the twisted-value identity: the SL2 action, the second-order
projection operator with exact denominator tracking, the auxiliary-variable
polynomial decomposition, the unwound pairing series and the two-sided
rationality check.

Polynomials hold integer pairs over one denominator; nothing here is numeric
except the pairing series and the rationality check, which run on Balls at a
requested precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf, lcm

from .arith import (
    Ball,
    _split_order,
    TruncatedSeries,
    _check_rational,
    _two_pi_power,
    _vp_min,
    factorize,
    root_ball,
)
from .asai import MockEigenform
from .characters import DirichletCharacter, _unit_group, gauss_sum, normalized_L

__all__ = [
    "QuadCoeff",
    "BiHomogPoly",
    "HomogPoly",
    "sl2_act",
    "homog_act",
    "nabla",
    "clebsch_project",
    "DenominatorReport",
    "denominator_lemma_check",
    "PsiIdentityReport",
    "psi_identity_check",
    "pairing_series",
    "RationalityReport",
    "rationality_ratio",
]


# ---------------------------------------------------------------------------
# quadratic field coefficients


class QuadCoeff:
    """(a + b sqrt(-D)) / den with integers a, b and den > 0, gcd(a, b, den) = 1.

    The public constructor takes the rational parts x = a/den and y = b/den
    (ints or Fractions); zero is (0 + 0 sqrt(-D)) / 1.  Arithmetic runs on
    the integers and divides out one gcd per result.
    """

    __slots__ = ("a", "b", "den", "D")
    __hash__ = None

    def __init__(self, x, y, D: int):
        _check_rational(x)
        _check_rational(y)
        # x and y are in lowest terms, so gcd(a, b, den) = 1 already
        den = lcm(x.denominator, y.denominator)
        self.a = x.numerator * (den // x.denominator)
        self.b = y.numerator * (den // y.denominator)
        self.den = den
        self.D = D

    @staticmethod
    def _make(a: int, b: int, den: int, D: int) -> "QuadCoeff":
        """(a + b sqrt(-D)) / den (den > 0) in canonical form."""
        g = gcd(a, b, den)
        if g != 1:
            a, b, den = a // g, b // g, den // g
        out = object.__new__(QuadCoeff)
        out.a, out.b, out.den, out.D = a, b, den, D
        return out

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.den)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def conj(self) -> "QuadCoeff":
        return QuadCoeff._make(self.a, -self.b, self.den, self.D)

    def _check(self, other: "QuadCoeff"):
        if self.D != other.D:
            raise ValueError("mixed field discriminants")

    def _combine(self, other, sign: int):
        """self + sign * other, for sign = 1 or -1."""
        if isinstance(other, (int, Fraction)):
            other = QuadCoeff(other, 0, self.D)
        if not isinstance(other, QuadCoeff):
            return NotImplemented
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return QuadCoeff._make(self.a + sign * other.a, self.b + sign * other.b, d1, self.D)
        a = self.a * d2 + sign * other.a * d1
        return QuadCoeff._make(a, self.b * d2 + sign * other.b * d1, d1 * d2, self.D)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return QuadCoeff._make(-self.a, -self.b, self.den, self.D)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, QuadCoeff):
            self._check(other)
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return QuadCoeff._make(a1 * a2 - self.D * b1 * b2, a1 * b2 + b1 * a2, self.den * other.den, self.D)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return QuadCoeff._make(self.a * n, self.b * n, self.den * other.denominator, self.D)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.den == other.denominator
        same_field = isinstance(other, QuadCoeff) and self.D == other.D
        return same_field and (self.a, self.b, self.den) == (other.a, other.b, other.den)

    def valuation(self, p: int) -> Fraction | float:
        """min(vp(x), vp(y)) = min(vp(a), vp(b)) - vp(den): valid for p unramified and odd (p not dividing 2D)."""
        if self.D % p == 0 or p == 2:
            raise ValueError("valuation rule requires p odd and unramified")
        return _vp_min((self.a, self.b), self.den, p)

    def __repr__(self):
        return f"({self.x}+{self.y}w{self.D})"


# ---------------------------------------------------------------------------
# bi-homogeneous and homogeneous polynomials


def _pair(e, D: int) -> tuple[int, int, int]:
    """A QuadCoeff over Q(sqrt(-D)), int or Fraction as (a, b, den): e = (a + b sqrt(-D)) / den."""
    if isinstance(e, QuadCoeff):
        if e.D != D:
            raise ValueError("mixed field discriminants")
        return e.a, e.b, e.den
    _check_rational(e)
    return e.numerator, 0, e.denominator


def _mul(u: tuple[int, int], v: tuple[int, int], D: int) -> tuple[int, int]:
    """(a + b sqrt(-D)) (c + d sqrt(-D)) on the integer pairs (a, b) and (c, d)."""
    return u[0] * v[0] - D * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


class _PairPoly:
    """Coefficients (a + b sqrt(-D)) / den as integer pairs num[key] = (a, b) over one den > 0.

    Kept canonical (no zero pair, gcd(den, every a and b) = 1), so equal
    polynomials have equal (num, den).  The calculus runs on these integers.
    """

    __slots__ = ("n", "D", "num", "den")
    __hash__ = None

    def __init__(self, n: int, D: int, coeffs: dict):
        # each QuadCoeff is in lowest terms, so over their lcm the pairs are canonical already
        pairs = {key: _pair(c, D) for key, c in coeffs.items() if not c.is_zero()}
        self.n, self.D, self.den = n, D, lcm(*(d for _, _, d in pairs.values()))
        self.num = {key: (a * (self.den // d), b * (self.den // d)) for key, (a, b, d) in pairs.items()}

    @classmethod
    def _from_ints(cls, n: int, D: int, num: dict, den: int):
        """num / den (den > 0) in canonical form, without the checks of the public constructor."""
        num = {key: ab for key, ab in num.items() if ab[0] or ab[1]}
        g = gcd(den, *(x for ab in num.values() for x in ab))
        out = object.__new__(cls)
        out.n, out.D, out.den = n, D, den // g
        out.num = num if g == 1 else {key: (a // g, b // g) for key, (a, b) in num.items()}
        return out

    def _coeff(self, key) -> QuadCoeff:
        a, b = self.num.get(key, (0, 0))
        return QuadCoeff._make(a, b, self.den, self.D)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.D, self.den, self.num) == (other.n, other.D, other.den, other.num)

    def is_zero(self) -> bool:
        return not self.num

    def min_valuation(self, p: int) -> Fraction | float:
        """min over the coefficients of min(vp(x), vp(y)) (see ``QuadCoeff.valuation``); inf for 0."""
        if self.D % p == 0 or p == 2:
            raise ValueError("valuation rule requires p odd and unramified")
        return _vp_min((x for ab in self.num.values() for x in ab), self.den, p)


class BiHomogPoly(_PairPoly):
    """Bidegree (n, n) polynomial in (X, Y, Xbar, Ybar) over Q(sqrt(-D)).

    num[(i, j)] / den is the coefficient of X^(n-i) Y^i Xbar^(n-j) Ybar^j, an
    integer pair over the polynomial's one denominator (see ``_PairPoly``).
    The constructor takes QuadCoeff coefficients, and ``coeffs`` and ``get``
    give them back as QuadCoeffs.
    """

    __slots__ = ()

    def __init__(self, n: int, D: int, coeffs: dict[tuple[int, int], QuadCoeff] | None = None):
        if any(not (0 <= i <= n and 0 <= j <= n) for i, j in coeffs or {}):
            raise ValueError("index outside bidegree")
        super().__init__(n, D, coeffs or {})

    @property
    def coeffs(self) -> dict[tuple[int, int], QuadCoeff]:
        """The nonzero coefficients as QuadCoeffs, keyed by (i, j)."""
        return {key: self._coeff(key) for key in self.num}

    def get(self, i: int, j: int) -> QuadCoeff:
        return self._coeff((i, j))


class HomogPoly(_PairPoly):
    """Homogeneous polynomial of degree d; coeffs[l] is the coefficient of X^l Y^(d-l).

    num[l] / den holds the nonzero coefficients as integer pairs (see ``_PairPoly``).
    """

    __slots__ = ()

    def __init__(self, degree: int, D: int, coeffs=None):
        if coeffs is not None and len(coeffs := list(coeffs)) != degree + 1:
            raise ValueError("need degree + 1 coefficients")
        super().__init__(degree, D, dict(enumerate(coeffs or ())))

    @property
    def degree(self) -> int:
        return self.n

    @property
    def coeffs(self) -> list[QuadCoeff]:
        return [self._coeff(l) for l in range(self.n + 1)]


def _powers(e: tuple[int, int], n: int, D: int) -> list[tuple[int, int]]:
    """[1, e, ..., e^n] for an integer pair e, cut to [1] when e = 0 (every higher power vanishes)."""
    out = [(1, 0)]
    if e[0] or e[1]:
        for _ in range(n):
            out.append(_mul(out[-1], e, D))
    return out


# distinct matrices kept; exact-sweep's 900 translations use 127
_ROWS_CACHE_SIZE = 256


def _substitution_rows(gamma, n: int, D: int) -> tuple[tuple, tuple, int]:
    """(rows, conjugate rows, g^n) for gamma = ((a, b), (c, d)) with QuadCoeff (or rational)
    entries over Q(sqrt(-D)) and determinant 1; g is their common denominator.

    The entries are read once as integer pairs over g, and ``_rows`` builds the
    rows from those integers alone.  It is an ``lru_cache`` of _ROWS_CACHE_SIZE
    matrices, so a matrix that acts again (the denominator lemma translates by
    a few betas many times) reuses its rows.  The cached rows are shared by
    every caller, so they are tuples, which nobody can edit in place.
    """
    entries = [_pair(e, D) for e in gamma[0] + gamma[1]]
    g = lcm(*(den for _, _, den in entries))
    a, b, c, d = [(x * (g // den), y * (g // den)) for x, y, den in entries]
    return _rows(a, b, c, d, g, n, D)


@lru_cache(maxsize=_ROWS_CACHE_SIZE)
def _rows(a, b, c, d, g: int, n: int, D: int) -> tuple[tuple, tuple, int]:
    """rows[i] lists (t, x, y) with (x + y sqrt(-D)) / g^n the coefficient of X^(n-t) Y^t in
    (d X - b Y)^(n-i) (-c X + a Y)^i, for the integer pairs a, b, c, d over g; zero
    coefficients are left out.  The conjugate rows carry (t, x, -y).  Raises ValueError
    unless ad - bc = g^2 (nothing is cached then)."""
    ad, bc = _mul(a, d, D), _mul(b, c, D)
    if (ad[0] - bc[0], ad[1] - bc[1]) != (g * g, 0):
        raise ValueError("matrix must have determinant 1")
    pd, pb, pc, pa = (_powers(e, n, D) for e in (d, (-b[0], -b[1]), (-c[0], -c[1]), a))
    rows = []
    for i in range(n + 1):
        row = {}
        # (d X - b Y)^(n-i) contributes Y^s, (-c X + a Y)^i contributes Y^r; the
        # ranges skip the terms holding a vanishing power of a zero entry
        for s in range(max(0, n - i - len(pd) + 1), min(n - i, len(pb) - 1) + 1):
            u = _mul(pd[n - i - s], pb[s], D)
            for r in range(max(0, i - len(pc) + 1), min(i, len(pa) - 1) + 1):
                w = comb(n - i, s) * comb(i, r)
                x, y = _mul(u, _mul(pc[i - r], pa[r], D), D)
                x0, y0 = row.get(s + r, (0, 0))
                row[s + r] = (x0 + w * x, y0 + w * y)
        rows.append(tuple((t, x, y) for t, (x, y) in row.items() if x or y))
    bar = tuple(tuple((t, x, -y) for t, x, y in row) for row in rows)
    return tuple(rows), bar, g**n


def _substitute(rows: tuple, num: dict[tuple, tuple[int, int]], D: int) -> dict[tuple, tuple[int, int]]:
    """{(i, k): c} -> {(t, k): sum of c (x + y sqrt(-D)) over (t, x, y) in rows[i]} on integer pairs
    (the denominators multiply)."""
    out: dict[tuple, tuple[int, int]] = {}
    for (i, k), (a, b) in num.items():
        for t, ra, rb in rows[i]:
            x, y = out.get((t, k), (0, 0))
            out[(t, k)] = (x + a * ra - D * b * rb, y + a * rb + b * ra)
    return out


def sl2_act(gamma, P: BiHomogPoly) -> BiHomogPoly:
    """gamma . P = P(d X - b Y, -c X + a Y, conjugate pair on the barred variables).

    gamma is ((a, b), (c, d)) with QuadCoeff (or rational) entries and
    determinant 1.  The substitution rows are integer pairs over g^n (see
    ``_substitution_rows``); the barred pair takes their conjugates, so the
    result is an integer polynomial over den(P) g^(2n), reduced once.
    """
    D = P.D
    rows, bar, den = _substitution_rows(gamma, P.n, D)
    half = _substitute(rows, P.num, D)
    out = _substitute(bar, {(j, t): c for (t, j), c in half.items()}, D)
    return BiHomogPoly._from_ints(P.n, D, {(t, s): c for (s, t), c in out.items()}, P.den * den * den)


def homog_act(gamma, Q: HomogPoly) -> HomogPoly:
    """Induced action Q(d X - b Y, -c X + a Y) on one-variable-pair polynomials."""
    deg = Q.n
    rows, _, den = _substitution_rows(gamma, deg, Q.D)
    # num[l] sits on X^l Y^(deg-l), so its Y-degree is deg - l
    out = _substitute(rows, {(deg - l, 0): c for l, c in Q.num.items()}, Q.D)
    return HomogPoly._from_ints(deg, Q.D, {deg - t: c for (t, _), c in out.items()}, Q.den * den)


def _nabla(num: dict[tuple[int, int], tuple[int, int]], n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """nabla on the integer pairs of a bidegree (n, n) polynomial; the denominator is unchanged."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j), (a, b) in num.items():
        w1 = (n - i) * j  # from X^(n-i) and Ybar^j
        if w1:
            x, y = out.get((i, j - 1), (0, 0))
            out[(i, j - 1)] = (x + w1 * a, y + w1 * b)
        w2 = (n - j) * i  # from Xbar^(n-j) and Y^i
        if w2:
            x, y = out.get((i - 1, j), (0, 0))
            out[(i - 1, j)] = (x - w2 * a, y - w2 * b)
    return out


def nabla(P: BiHomogPoly) -> BiHomogPoly:
    """Second-order operator d^2/dX dYbar - d^2/dXbar dY, one bidegree down."""
    if P.n < 1:
        raise ValueError("nabla needs bidegree >= 1")
    return BiHomogPoly._from_ints(P.n - 1, P.D, _nabla(P.num, P.n), P.den)


def clebsch_project(P: BiHomogPoly, m: int) -> HomogPoly:
    """(1/m!^2) nabla^m P restricted to Xbar = X, Ybar = Y (degree 2n-2m).

    nabla runs m times on P's integer pairs, and the restriction sums them
    into the pairs of the result over den(P) m!^2, reduced once.
    """
    if not 0 <= m <= P.n:
        raise ValueError("m out of range")
    num, n = P.num, P.n
    for _ in range(m):
        num = _nabla(num, n)
        n -= 1
    out: dict[int, tuple[int, int]] = {}
    for (i, j), (a, b) in num.items():
        l = 2 * n - i - j  # X-degree after the diagonal restriction
        x, y = out.get(l, (0, 0))
        out[l] = (x + a, y + b)
    return HomogPoly._from_ints(2 * n, P.D, out, P.den * factorial(m) ** 2)


# ---------------------------------------------------------------------------
# denominator bookkeeping for the translated action


def translate(P: BiHomogPoly, beta: QuadCoeff) -> BiHomogPoly:
    """gamma . P for the inverse translation gamma = [[1, -beta], [0, 1]]: P(X + beta Y, Y, conjugates)."""
    return sl2_act(((1, -beta), (0, 1)), P)


@dataclass(frozen=True)
class DenominatorReport:
    bound: Fraction
    worst: Fraction | float
    worst_pre: Fraction | float
    ok: bool


def denominator_lemma_check(
    n: int, m: int, p: int, j: int, trials: int, rng: random.Random
) -> DenominatorReport:
    """Random p-integral P: project gamma_beta^(-1) . P and check the valuation bounds.

    P has coefficients in Q(sqrt(-D)), D = 3, drawn as integer pairs over 6.  The
    projected component must have every coefficient of valuation >= -j(2n - m);
    before projecting, the translated one must satisfy >= -2nj.  Needs trials >= 1.
    """
    D = 3
    if p <= n:
        raise ValueError("need p > n")
    if D % p == 0 or p == 2:
        raise ValueError("need p odd, not dividing 2D")
    if trials < 1:
        raise ValueError("need at least one trial")
    bound = Fraction(-j * (2 * n - m))
    pre_bound = Fraction(-2 * n * j)
    worst: Fraction | float = inf
    worst_pre: Fraction | float = inf
    ok = True
    dens = (1, 2, 3)  # p >= 5 here, so every denominator is prime to p
    for _ in range(trials):
        # x / dx + (y / dy) sqrt(-D), drawn as integers over the common denominator 6
        num = {}
        for i in range(n + 1):
            for jj in range(n + 1):
                if rng.random() < 0.6:
                    x, dx = rng.randint(-4, 4), rng.choice(dens)
                    y, dy = rng.randint(-4, 4), rng.choice(dens)
                    num[(i, jj)] = (x * (6 // dx), y * (6 // dy))
        P = BiHomogPoly._from_ints(n, D, num, 6)
        a = rng.randrange(1, max(p**j, 2))
        # the unit is the draw's, not one from characters._unit_group: seeded outputs depend on it
        while gcd(a, p) != 1:
            a += 1
        if a % 2:
            a = p**j - a if j >= 1 else 2 * a  # even representative
        translated = translate(P, QuadCoeff(0, Fraction(a, 2 * p**j), D))
        v_pre = translated.min_valuation(p)
        proj = clebsch_project(translated, m)
        v = proj.min_valuation(p)
        worst = min(worst, v)
        worst_pre = min(worst_pre, v_pre)
        if v < bound or v_pre < pre_bound:
            ok = False
    return DenominatorReport(bound, worst, worst_pre, ok)


# ---------------------------------------------------------------------------
# auxiliary-variable decomposition (components against the binomial vector)


def _mono_mul(a: dict, b: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _mono_pow(a: dict, e: int, nvars: int) -> dict:
    out = {tuple([0] * nvars): Fraction(1)}
    for _ in range(e):
        out = _mono_mul(out, a)
    return out


@dataclass(frozen=True)
class PsiIdentityReport:
    n: int
    components: int
    ok: bool
    first_bad: int | None


def psi_identity_check(n: int) -> PsiIdentityReport:
    """Expand (XV-YU)^n (XbU+YbV)^n (AV-BU)^2 and verify the component closed form.

    The coefficient of U^alpha V^(2n+2-alpha) must equal
    A^2 c_alpha - 2AB c_(alpha-1) + B^2 c_(alpha-2) with
    c_t = sum_(j,k: n = t+j-k) (-1)^k C(n,j) C(n,k) X^(n-k) Y^k Xb^(n-j) Yb^j.
    """
    if n < 0 or n > 6:
        raise ValueError("n must be between 0 and 6")
    # exponent tuples over the variables X Y Xb Yb A B U V
    f1 = {(1, 0, 0, 0, 0, 0, 0, 1): Fraction(1), (0, 1, 0, 0, 0, 0, 1, 0): Fraction(-1)}  # XV - YU
    f2 = {(0, 0, 1, 0, 0, 0, 1, 0): Fraction(1), (0, 0, 0, 1, 0, 0, 0, 1): Fraction(1)}  # XbU + YbV
    f3 = {(0, 0, 0, 0, 1, 0, 0, 1): Fraction(1), (0, 0, 0, 0, 0, 1, 1, 0): Fraction(-1)}  # AV - BU
    lhs = _mono_mul(_mono_mul(_mono_pow(f1, n, 8), _mono_pow(f2, n, 8)), _mono_pow(f3, 2, 8))

    # collect by U-degree alpha; V-degree is forced to 2n+2-alpha
    per_alpha: dict[int, dict] = {}
    for key, c in lhs.items():
        alpha = key[6]
        rest = key[:6]
        per_alpha.setdefault(alpha, {})[rest] = c

    def c_poly(t: int) -> dict:
        out: dict[tuple, Fraction] = {}
        for jj in range(n + 1):
            kk = t + jj - n
            if 0 <= kk <= n:
                key = (n - kk, kk, n - jj, jj, 0, 0)
                out[key] = out.get(key, Fraction(0)) + Fraction((-1) ** kk) * comb(n, jj) * comb(n, kk)
        return out

    def shift_ab(d: dict, da: int, db: int, coef: Fraction) -> dict:
        out = {}
        for key, c in d.items():
            k2 = key[:4] + (key[4] + da, key[5] + db)
            out[k2] = c * coef
        return out

    first_bad = None
    for alpha in range(2 * n + 3):
        got = per_alpha.get(alpha, {})
        want: dict[tuple, Fraction] = {}
        for d, c in shift_ab(c_poly(alpha), 2, 0, Fraction(1)).items():
            want[d] = want.get(d, Fraction(0)) + c
        for d, c in shift_ab(c_poly(alpha - 1), 1, 1, Fraction(-2)).items():
            want[d] = want.get(d, Fraction(0)) + c
        for d, c in shift_ab(c_poly(alpha - 2), 0, 2, Fraction(1)).items():
            want[d] = want.get(d, Fraction(0)) + c
        diff = dict(got)
        for d, c in want.items():
            diff[d] = diff.get(d, Fraction(0)) - c
        if any(diff.values()):
            first_bad = alpha
            break
    return PsiIdentityReport(n, 2 * n + 3, first_bad is None, first_bad)


# ---------------------------------------------------------------------------
# unwound pairing series and the assembled two-sided check


def pairing_series(
    f: MockEigenform, b: Fraction, s_prime, R: int, prec: int = 64
) -> Ball:
    """sum_(r>=1) (e(r b) + e(-r b)) c(r) r^(-s'), truncated at R; the radius holds the tail."""
    series = TruncatedSeries(f.nonzero(R, "c"), f.k, R, s_prime, prec)
    return series.at(b) + series.at(-b)


@dataclass(frozen=True)
class RationalityReport:
    """``lhs``, ``rhs``, ``gap`` and ``value`` omit the common factor
    G'_inf(0) sqrt(D)^s' / (G(chibar^2) (2 pi)^(4n-3m+4)) of both sides;
    ``rel_gap`` does not depend on it."""

    value: Ball
    lhs: Ball
    rhs: Ball
    gap: float
    rel_gap: float


def rationality_ratio(
    f: MockEigenform,
    chi: DirichletCharacter,
    n: int,
    m: int,
    R: int,
    prec: int,
    omega_f: Ball,
) -> RationalityReport:
    """Assemble both sides of the twisted-value identity and report the gap.

    Left side: G(chi) sum_r d(r) chibar(r) r^(-s'), s' = 2n-m+2.
    Right side: L^(N)(k_l, chibar^2) sum_a chi(a) P(a/p^j), k_l = 2n-2m+2,
    over half representatives a, P the pairing series.  Both sides of the
    full identity carry the common factor named in ``RationalityReport``,
    which cancels and is left out.  ``value`` divides the left side by the
    user-supplied period.
    """
    if m % 2 or not 0 <= m <= n - 2:
        raise ValueError("m must be even with 0 <= m <= n-2")
    if f.k != n + 2:
        raise ValueError("weight must equal n + 2")
    if not chi.is_even:
        raise ValueError("chi must be even")
    k_l = 2 * n - 2 * m + 2
    s_prime = Fraction(2 * n - m + 2)
    p = f.p
    j_chi, Cc = _split_order(chi.conductor(), p)
    if Cc != 1:
        raise ValueError("chi must have p-power conductor")
    chi0 = chi.primitive()
    # every Ball of the assembly carries w = prec + 16 bits
    w = prec + 16
    d_series = TruncatedSeries(f.nonzero(R), f.k, R, s_prime, w)
    c_series = TruncatedSeries(f.nonzero(R, "c"), f.k, R, s_prime, w)
    # left side
    g_chi = gauss_sum(chi).embed(w)
    chibar = chi0.inverse()
    psi = chibar * chibar
    lhs = g_chi * d_series.twisted(chibar)
    # right side: normalized_L is L(k_l, chibar^2) / (G(chibar^2) (2 pi)^k_l)
    lval = normalized_L(chi0, k_l).value.embed(w) * gauss_sum(psi).embed(w) * _two_pi_power(k_l, w)
    psi0 = psi.primitive()
    for q, _ in factorize(f.N):  # remove the level-N Euler factors, exact until embedded
        if gcd(q, psi0.modulus) == 1:
            lval = lval * (1 - psi0.value(q) * Fraction(1, q**k_l)).embed(w)
    if j_chi == 0:
        pair_acc = c_series.at(0)
    else:
        pair_acc = Ball.exact(0)
        for a in _half_representatives(p, j_chi):  # units mod p^j_chi, so chi0(a) != 0
            b = Fraction(a, p**j_chi)
            root = root_ball(chi0.value_order, chi0.exponent_of(a), w)
            pair_acc = pair_acc + (c_series.at(b) + c_series.at(-b)) * root
    rhs = lval * pair_acc
    gap = abs(lhs - rhs)
    value = lhs / omega_f
    return RationalityReport(
        Ball.from_mpc(value.mid, prec, value.rad),
        Ball.from_mpc(lhs.mid, prec, lhs.rad),
        Ball.from_mpc(rhs.mid, prec, rhs.rad),
        gap,
        gap / max(abs(lhs), 1e-300),
    )


def _half_representatives(p: int, j: int) -> list[int]:
    """Even representatives of (Z/p^j)^x / {+-1} for odd p and j >= 1: for each unit
    a < p^j / 2, whichever of a and p^j - a is even."""
    q = p**j
    return [a if a % 2 == 0 else q - a for a in _unit_group(q).units if 2 * a < q]
