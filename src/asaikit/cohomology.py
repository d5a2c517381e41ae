"""Bi-homogeneous polynomial calculus over Q(sqrt(-D)) and the scalar
ingredients of the twisted-value identity: the SL2 action, the second-order
projection operator with exact denominator tracking, the auxiliary-variable
polynomial decomposition, Gamma-factor sums driven by externally supplied
integer tables, and the unwound pairing series.

Polynomials are sparse dicts of exact coefficients; nothing here is numeric
except the Gamma/pairing evaluations, which run on mpmath at a requested
precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, inf

import mpmath
from mpmath import mp

from .arith import (
    BigComplex,
    SeriesValue,
    _binomial,
    _split_order,
    character_sum,
    factorize,
    fold,
    frequency_sum,
    power_tail,
    power_terms,
    root_table,
    to_mpf,
    vp,
)
from .asai import MockEigenform
from .characters import DirichletCharacter, gauss_sum, normalized_L

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
    "GammaCoefficientTable",
    "gamma_factor_I1",
    "gamma_factor_I2",
    "g_infinity_prime",
    "omega_infty",
    "pairing_series",
    "RationalityReport",
    "rationality_ratio",
]


# ---------------------------------------------------------------------------
# quadratic field coefficients


class QuadCoeff:
    """x + y sqrt(-D) with rational x, y."""

    __slots__ = ("x", "y", "D")
    __hash__ = None

    def __init__(self, x, y, D: int):
        self.x = x if type(x) is Fraction else Fraction(x)
        self.y = y if type(y) is Fraction else Fraction(y)
        self.D = D

    @staticmethod
    def zero(D: int) -> "QuadCoeff":
        return QuadCoeff(0, 0, D)

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def conj(self) -> "QuadCoeff":
        return QuadCoeff(self.x, -self.y, self.D)

    def _check(self, other: "QuadCoeff"):
        if self.D != other.D:
            raise ValueError("mixed field discriminants")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadCoeff(self.x + other, self.y, self.D)
        self._check(other)
        return QuadCoeff(self.x + other.x, self.y + other.y, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadCoeff(-self.x, -self.y, self.D)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadCoeff(self.x - other, self.y, self.D)
        self._check(other)
        return QuadCoeff(self.x - other.x, self.y - other.y, self.D)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadCoeff(self.x * other, self.y * other, self.D)
        self._check(other)
        return QuadCoeff(
            self.x * other.x - self.D * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadCoeff":
        n = self.x * self.x + self.D * self.y * self.y
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return QuadCoeff(self.x / n, -self.y / n, self.D)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadCoeff(self.x / other, self.y / other, self.D)
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        return (
            isinstance(other, QuadCoeff)
            and self.D == other.D
            and self.x == other.x
            and self.y == other.y
        )

    def valuation(self, p: int) -> Fraction | float:
        """min(vp(x), vp(y)): valid for p unramified and odd (p not dividing 2D)."""
        if self.D % p == 0 or p == 2:
            raise ValueError("valuation rule requires p odd and unramified")
        return min(vp(self.x, p), vp(self.y, p))

    def embed(self, prec: int) -> BigComplex:
        with mp.workprec(prec + 8):
            sq = mpmath.sqrt(mpmath.mpf(self.D))
            re = to_mpf(self.x)
            im = to_mpf(self.y) * sq
        return BigComplex(re, im, prec)

    def __repr__(self):
        return f"({self.x}+{self.y}w{self.D})"


# ---------------------------------------------------------------------------
# bi-homogeneous and homogeneous polynomials


class BiHomogPoly:
    """Bidegree (n, n) polynomial in (X, Y, Xbar, Ybar).

    coeffs[(i, j)] is the coefficient of X^(n-i) Y^i Xbar^(n-j) Ybar^j.
    """

    __slots__ = ("n", "D", "coeffs")

    def __init__(self, n: int, D: int, coeffs: dict[tuple[int, int], QuadCoeff] | None = None):
        self.n = n
        self.D = D
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if not c.is_zero():
                    i, j = key
                    if not (0 <= i <= n and 0 <= j <= n):
                        raise ValueError("index outside bidegree")
                    self.coeffs[key] = c

    def get(self, i: int, j: int) -> QuadCoeff:
        return self.coeffs.get((i, j), QuadCoeff.zero(self.D))

    def __add__(self, other: "BiHomogPoly") -> "BiHomogPoly":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, QuadCoeff.zero(self.D)) + c
        return BiHomogPoly(self.n, self.D, out)

    def __sub__(self, other: "BiHomogPoly") -> "BiHomogPoly":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "BiHomogPoly":
        return BiHomogPoly(self.n, self.D, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, BiHomogPoly) or self.n != other.n:
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def min_valuation(self, p: int) -> Fraction | float:
        if not self.coeffs:
            return inf
        return min(c.valuation(p) for c in self.coeffs.values())


class HomogPoly:
    """Homogeneous polynomial of degree d; coeffs[l] is the coefficient of X^l Y^(d-l)."""

    __slots__ = ("degree", "D", "coeffs")

    def __init__(self, degree: int, D: int, coeffs=None):
        self.degree = degree
        self.D = D
        if coeffs is None:
            self.coeffs = [QuadCoeff.zero(D) for _ in range(degree + 1)]
        else:
            self.coeffs = list(coeffs)
            if len(self.coeffs) != degree + 1:
                raise ValueError("need degree + 1 coefficients")

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def min_valuation(self, p: int) -> Fraction | float:
        vals = [c.valuation(p) for c in self.coeffs if not c.is_zero()]
        return min(vals) if vals else inf


def _linear_powers(u: QuadCoeff, v: QuadCoeff, n: int, D: int) -> list[list[QuadCoeff]]:
    """(u X + v Y)^e for e = 0..n, each as a list over the Y-degree."""
    out = [[QuadCoeff(1, 0, D)]]
    for e in range(1, n + 1):
        prev = out[-1]
        cur = [QuadCoeff.zero(D) for _ in range(e + 1)]
        for t, c in enumerate(prev):
            cur[t] = cur[t] + c * u
            cur[t + 1] = cur[t + 1] + c * v
        out.append(cur)
    return out


def sl2_act(gamma, P: BiHomogPoly) -> BiHomogPoly:
    """gamma . P = P(d X - b Y, -c X + a Y, conjugate pair on the barred variables).

    gamma is ((a, b), (c, d)) with QuadCoeff (or rational) entries and
    determinant 1.
    """
    D = P.D
    (a, b), (c, d) = gamma
    a, b, c, d = (e if isinstance(e, QuadCoeff) else QuadCoeff(e, 0, D) for e in (a, b, c, d))
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    n = P.n
    # X -> d X - b Y, Y -> -c X + a Y; on barred variables the conjugates act.
    p1 = _linear_powers(d, -b, n, D)  # (dX - bY)^e by Y-degree? (coeff index = #second slots)
    p2 = _linear_powers(-c, a, n, D)
    q1 = _linear_powers(d.conj(), -b.conj(), n, D)
    q2 = _linear_powers(-c.conj(), a.conj(), n, D)
    out: dict[tuple[int, int], QuadCoeff] = {}
    for (i, j), coef in P.coeffs.items():
        # X^(n-i) Y^i -> p1[n-i] * p2[i]   (lists over Y-degree)
        left = _convolve(p1[n - i], p2[i], D)
        right = _convolve(q1[n - j], q2[j], D)
        for ii, cl in enumerate(left):
            if cl.is_zero():
                continue
            cli = coef * cl
            for jj, cr in enumerate(right):
                if cr.is_zero():
                    continue
                key = (ii, jj)
                add = cli * cr
                prev = out.get(key)
                out[key] = add if prev is None else prev + add
    return BiHomogPoly(n, D, out)


def _convolve(a: list[QuadCoeff], b: list[QuadCoeff], D: int) -> list[QuadCoeff]:
    out = [QuadCoeff.zero(D) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def homog_act(gamma, Q: HomogPoly) -> HomogPoly:
    """Induced action Q(d X - b Y, -c X + a Y) on one-variable-pair polynomials."""
    D = Q.D
    (a, b), (c, d) = gamma
    a, b, c, d = (e if isinstance(e, QuadCoeff) else QuadCoeff(e, 0, D) for e in (a, b, c, d))
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    deg = Q.degree
    p1 = _linear_powers(d, -b, deg, D)  # substituted X, by Y-degree
    p2 = _linear_powers(-c, a, deg, D)
    out = [QuadCoeff.zero(D) for _ in range(deg + 1)]
    for l, coef in enumerate(Q.coeffs):
        if coef.is_zero():
            continue
        # X^l Y^(deg-l)
        prod = _convolve(p1[l], p2[deg - l], D)
        for ydeg, c2 in enumerate(prod):
            if not c2.is_zero():
                out[deg - ydeg] = out[deg - ydeg] + coef * c2
    return HomogPoly(deg, D, out)


def nabla(P: BiHomogPoly) -> BiHomogPoly:
    """Second-order operator d^2/dX dYbar - d^2/dXbar dY, one bidegree down."""
    if P.n < 1:
        raise ValueError("nabla needs bidegree >= 1")
    n = P.n
    D = P.D
    out: dict[tuple[int, int], QuadCoeff] = {}
    for (i, j), c in P.coeffs.items():
        w1 = (n - i) * j  # from X^(n-i) and Ybar^j
        if w1:
            key = (i, j - 1)
            out[key] = out.get(key, QuadCoeff.zero(D)) + c * w1
        w2 = (n - j) * i  # from Xbar^(n-j) and Y^i
        if w2:
            key = (i - 1, j)
            out[key] = out.get(key, QuadCoeff.zero(D)) - c * w2
    return BiHomogPoly(n - 1, D, out)


def clebsch_project(P: BiHomogPoly, m: int) -> HomogPoly:
    """(1/m!^2) nabla^m P restricted to Xbar = X, Ybar = Y (degree 2n-2m)."""
    if not 0 <= m <= P.n:
        raise ValueError("m out of range")
    Q = P
    for _ in range(m):
        Q = nabla(Q)
    scale = Fraction(1, factorial(m) ** 2)
    d = 2 * Q.n
    out = HomogPoly(d, P.D)
    for (i, j), c in Q.coeffs.items():
        l = 2 * Q.n - i - j  # X-degree after the diagonal restriction
        out.coeffs[l] = out.coeffs[l] + c * scale
    return out


# ---------------------------------------------------------------------------
# denominator bookkeeping for the translated action


def translation_matrix(D: int, a: int, p: int, j: int):
    """Upper-triangular gamma_beta with beta = a sqrt(-D) / (2 p^j)."""
    beta = QuadCoeff(0, Fraction(a, 2 * p**j), D)
    one = QuadCoeff(1, 0, D)
    zero = QuadCoeff(0, 0, D)
    return ((one, beta), (zero, one))


def translate(P: BiHomogPoly, beta: QuadCoeff) -> BiHomogPoly:
    """gamma . P for the inverse translation gamma = [[1, -beta], [0, 1]].

    Direct binomial substitution P(X + beta Y, Y, Xbar + betabar Ybar, Ybar);
    agrees with sl2_act on the same matrix (tested), but avoids the general
    convolution machinery.
    """
    n = P.n
    D = P.D
    bconj = beta.conj()
    bpow = [QuadCoeff(1, 0, D)]
    cpow = [QuadCoeff(1, 0, D)]
    for _ in range(n):
        bpow.append(bpow[-1] * beta)
        cpow.append(cpow[-1] * bconj)
    out: dict[tuple[int, int], QuadCoeff] = {}
    for (i, j), coef in P.coeffs.items():
        for t in range(n - i + 1):
            left = coef * (_binomial(n - i, t) * bpow[t])
            for s in range(n - j + 1):
                term = left * (_binomial(n - j, s) * cpow[s])
                key = (i + t, j + s)
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
    return BiHomogPoly(n, D, out)


@dataclass(frozen=True)
class DenominatorReport:
    trials: int
    bound: Fraction
    pre_bound: Fraction
    worst: Fraction | float
    worst_pre: Fraction | float
    ok: bool


def denominator_lemma_check(
    n: int, m: int, p: int, j: int, trials: int, rng: random.Random
) -> DenominatorReport:
    """Random p-integral P: project gamma_beta^(-1) . P and check the valuation bounds.

    P has coefficients in Q(sqrt(-D)), D = 3.  The projected component must
    have every coefficient of valuation >= -j(2n - m); before projecting, the
    translated polynomial must already satisfy >= -2nj.
    """
    D = 3
    if p <= n:
        raise ValueError("need p > n")
    if D % p == 0 or p == 2:
        raise ValueError("need p odd, not dividing 2D")
    bound = Fraction(-j * (2 * n - m))
    pre_bound = Fraction(-2 * n * j)
    worst: Fraction | float = inf
    worst_pre: Fraction | float = inf
    ok = True
    dens = [1, 2, 3] if p not in (2, 3) else [1, 2] if p != 2 else [1]
    dens = [x for x in dens if x % p]
    for _ in range(trials):
        coeffs = {}
        for i in range(n + 1):
            for jj in range(n + 1):
                if rng.random() < 0.6:
                    coeffs[(i, jj)] = QuadCoeff(
                        Fraction(rng.randint(-4, 4), rng.choice(dens)),
                        Fraction(rng.randint(-4, 4), rng.choice(dens)),
                        D,
                    )
        P = BiHomogPoly(n, D, coeffs)
        a = rng.randrange(1, max(p**j, 2))
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
    return DenominatorReport(trials, bound, pre_bound, worst, worst_pre, ok)


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
    # variable order: X Y Xb Yb A B U V
    def mono(**kw) -> dict:
        names = ["X", "Y", "Xb", "Yb", "A", "B", "U", "V"]
        key = tuple(kw.get(s, 0) for s in names)
        return {key: Fraction(kw.get("coef", 1))}

    f1 = {}
    for key, c in mono(X=1, V=1).items():
        f1[key] = c
    for key, c in mono(Y=1, U=1, coef=-1).items():
        f1[key] = f1.get(key, Fraction(0)) + c
    f2 = {}
    for key, c in mono(Xb=1, U=1).items():
        f2[key] = c
    for key, c in mono(Yb=1, V=1).items():
        f2[key] = f2.get(key, Fraction(0)) + c
    f3 = {}
    for key, c in mono(A=1, V=1).items():
        f3[key] = c
    for key, c in mono(B=1, U=1, coef=-1).items():
        f3[key] = f3.get(key, Fraction(0)) + c
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
                out[key] = out.get(key, Fraction(0)) + Fraction((-1) ** kk) * _binomial(
                    n, jj
                ) * _binomial(n, kk)
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
# Gamma-factor machinery (integer tables are external inputs)


@dataclass
class GammaCoefficientTable:
    """Integer weights (m, l, alpha) -> a, b, supplied externally."""

    a: dict[tuple[int, int, int], int] = field(default_factory=dict)
    b: dict[tuple[int, int, int], int] = field(default_factory=dict)

    @staticmethod
    def loads(text: str) -> "GammaCoefficientTable":
        t = GammaCoefficientTable()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m, l, alpha, av, bv = line.split()
            t.a[(int(m), int(l), int(alpha))] = int(av)
            t.b[(int(m), int(l), int(alpha))] = int(bv)
        return t

    def dumps(self) -> str:
        keys = sorted(set(self.a) | set(self.b))
        return "\n".join(
            f"{m} {l} {alpha} {self.a.get((m,l,alpha), 0)} {self.b.get((m,l,alpha), 0)}"
            for (m, l, alpha) in keys
        ) + "\n"


def _gamma_sum(
    n: int,
    m: int,
    s,
    weights: dict[tuple[int, int, int], int],
    l_weight,
    prec: int,
) -> tuple[mpmath.mpc, list[tuple[Fraction, Fraction]]]:
    args: list[tuple[Fraction, Fraction]] = []
    with mp.workprec(prec + 8):
        acc = mpmath.mpc(0)
        s_f = to_mpf(Fraction(s))
        for l in range(0, 2 * n - 2 * m + 1):
            for alpha in range(0, n + 2):
                if (alpha - (n + 1 + m)) % 2:
                    continue
                w = weights.get((m, l, alpha), 0)
                if not w:
                    continue
                g1 = Fraction(n + 1 - m + alpha) / 2
                g2 = Fraction(3 * n + 3 - m - alpha) / 2
                args.append((g1, g2))
                term = (
                    mpmath.gamma(to_mpf(g1) + s_f / 2)
                    * mpmath.gamma(to_mpf(g2) + s_f / 2)
                    * w
                )
                if alpha == n + 1:
                    term /= 2
                acc += l_weight(l) * term
    return acc, args


def gamma_factor_I1(
    n: int, m: int, s, table: GammaCoefficientTable, prec: int = 64
) -> tuple[BigComplex, list[tuple[Fraction, Fraction]]]:
    """sum_l i^(l+1) sum_(alpha = n+1+m mod 2) a(m,l,alpha) Gamma-pair, alpha = n+1 halved."""
    if m % 2:
        raise ValueError("m must be even")
    acc, args = _gamma_sum(n, m, s, table.a, lambda l: mpmath.mpc(0, 1) ** (l + 1), prec)
    return BigComplex.from_mpc(acc, prec), args


def gamma_factor_I2(
    n: int, m: int, s, table: GammaCoefficientTable, prec: int = 64
) -> tuple[BigComplex, list[tuple[Fraction, Fraction]]]:
    """Companion sum with the b-table and -2 i^l weighting (mirrors the a-side structure)."""
    if m % 2:
        raise ValueError("m must be even")
    acc, args = _gamma_sum(n, m, s, table.b, lambda l: -2 * mpmath.mpc(0, 1) ** l, prec)
    return BigComplex.from_mpc(acc, prec), args


def g_infinity_prime(
    n: int, m: int, s, table: GammaCoefficientTable, prec: int = 64
) -> BigComplex:
    """Collected Gamma combinations of both integral pieces."""
    i1, _ = gamma_factor_I1(n, m, s, table, prec)
    i2, _ = gamma_factor_I2(n, m, s, table, prec)
    sign = Fraction((-1) ** (n + 1), 2)
    return (i1 + i2) * BigComplex(Fraction(sign), 0, prec)


def omega_infty(n: int, m: int, D: int, G_inf_0: BigComplex) -> BigComplex:
    """(2 pi)^(4n-3m+4) Gamma(2n-2m+2) / (G_inf_0 sqrt(D)^(2n-m+2))."""
    if abs(G_inf_0.to_mpc()) == 0:
        raise ValueError("G_infinity(0) must be nonzero")
    prec = G_inf_0.precision
    with mp.workprec(prec + 8):
        num = (2 * mpmath.pi) ** (4 * n - 3 * m + 4) * mpmath.gamma(2 * n - 2 * m + 2)
        den = G_inf_0.to_mpc() * mpmath.sqrt(mpmath.mpf(D)) ** (2 * n - m + 2)
        return BigComplex.from_mpc(num / den, prec)


# ---------------------------------------------------------------------------
# unwound pairing series and the assembled two-sided check


def pairing_series(
    f: MockEigenform, b: Fraction, s_prime, R: int, prec: int = 64
) -> SeriesValue:
    """sum_(r>=1) (e(r b) + e(-r b)) c(r) r^(-s'), truncated at R."""
    s_prime = Fraction(s_prime)
    if s_prime <= f.k + 1:
        raise ValueError("need s' > k + 1")
    b = Fraction(b)
    f.tabulate(R)
    with mp.workprec(prec + 16):
        W = fold(power_terms(f.nonzero(R, "c"), s_prime), b.denominator)
        acc = frequency_sum(W, b) + frequency_sum(W, -b)
    tail = 2 * power_tail(f.nonzero(R, "c"), f.k, R, s_prime)
    return SeriesValue(BigComplex.from_mpc(acc, prec), tail)


@dataclass(frozen=True)
class RationalityReport:
    value: BigComplex
    lhs: BigComplex
    rhs: BigComplex
    gap: float
    rel_gap: float
    algebraic_claim: bool


def rationality_ratio(
    f: MockEigenform,
    chi: DirichletCharacter,
    n: int,
    m: int,
    table: GammaCoefficientTable,
    R: int,
    prec: int,
    omega_f: BigComplex,
    tol: float = 1e-8,
) -> RationalityReport:
    """Assemble both sides of the twisted-value identity and report the gap.

    Left side: G(chi) G(2n-m+2, chibar, f) / (G(chibar^2) Omega_inf).
    Right side: L-normalized value times the chi-weighted pairing sums over
    half representatives.  The reported ``value`` divides the left side by
    the user-supplied period; ``algebraic_claim`` only records numerical
    consistency at the requested tolerance.
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
    with mp.workprec(prec + 16):
        # left side
        f.tabulate(R)
        g_chi = gauss_sum(chi).value.embed(prec + 16).to_mpc()
        chibar = chi0.inverse()
        psi = chibar * chibar
        g_psi = gauss_sum(psi).value.embed(prec + 16).to_mpc()
        twisted = character_sum(fold(power_terms(f.nonzero(R), s_prime), chi0.modulus), chibar)
        gp0 = g_infinity_prime(n, m, 0, table, prec + 16).to_mpc()
        if gp0 == 0:
            raise ValueError("Gamma table gives vanishing G'_infinity(0)")
        g_inf_0 = gp0 * mpmath.gamma(2 * n - 2 * m + 2)
        om_inf = omega_infty(n, m, f.field.D, BigComplex.from_mpc(g_inf_0, prec + 16)).to_mpc()
        lhs = g_chi * twisted / (g_psi * om_inf)
        # right side: L-normalized value with the level-N Euler factors removed
        nl = normalized_L(chi0, k_l)
        lval = nl.value.embed(prec + 16).to_mpc()
        psi0 = psi.primitive()
        for q, _ in factorize(f.N):
            t = psi0.exponent_of(q)
            if t is not None:
                lval *= 1 - root_table(psi0.value_order, mp.prec)[t] * mpmath.mpf(q) ** (-k_l)
        pair_acc = mpmath.mpc(0)
        tail = 0.0
        for a in _half_representatives(p, j_chi):  # units mod p^j_chi, so chi0(a) != 0
            w = root_table(chi0.value_order, mp.prec)[chi0.exponent_of(a)]
            pv = pairing_series(f, Fraction(a, p**j_chi) if j_chi else Fraction(0), s_prime, R, prec + 16)
            pair_acc += w * pv.value.to_mpc()
            tail += pv.tail_bound
        if j_chi == 0:
            # the single class pairs with itself, so the cosine form double counts
            pair_acc /= 2
        # <T_beta^*(delta), E^beta(0)> = sqrt(D)^s' / (2 pi)^(2n+2-m) * P_a * G'_inf(0)
        pairing_prefactor = (
            mpmath.sqrt(mpmath.mpf(f.field.D)) ** int(s_prime)
            / (2 * mpmath.pi) ** (2 * n + 2 - m)
            * gp0
        )
        rhs = lval * pair_acc * pairing_prefactor
        gap = float(abs(lhs - rhs))
        rel = gap / max(float(abs(lhs)), 1e-300)
        tail_abs = tail * float(abs(lval * pairing_prefactor))
        consistent = gap <= max(tol * max(float(abs(lhs)), float(abs(rhs))), 4 * tail_abs)
        value = lhs / omega_f.to_mpc()
    return RationalityReport(
        BigComplex.from_mpc(value, prec),
        BigComplex.from_mpc(lhs, prec),
        BigComplex.from_mpc(rhs, prec),
        gap,
        rel,
        consistent,
    )


def _half_representatives(p: int, j: int) -> list[int]:
    """Even representatives of (Z/p^j)^x / {+-1}; [0] when j = 0."""
    if j == 0:
        return [0]
    q = p**j
    seen = set()
    reps = []
    for a in range(1, q):
        if gcd(a, p) != 1 or a in seen:
            continue
        seen.add(a)
        seen.add(q - a)
        reps.append(a if a % 2 == 0 else q - a)
    return reps
