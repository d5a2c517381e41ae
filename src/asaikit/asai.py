"""Imaginary quadratic field data, mock eigenforms, Asai Dirichlet
coefficients, local Euler factors, and the ordinary-at-p polynomial data.

Eigenforms here are synthetic: weight, level, and a table of Hecke
eigenvalues per prime ideal, plus Satake parameters at the fixed split
prime p.  Every identity exercised downstream is formal in these values,
so exact rational test data is enough.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from math import gcd, isqrt

from .arith import (
    Rational,
    _poly_mul_frac,
    factorize,
    is_prime,
    primes_up_to,
    vp,
)

__all__ = [
    "QuadFieldData",
    "MockEigenform",
    "OrdinaryData",
    "hecke_power",
    "coeff_principal",
    "asai_coeff",
    "local_asai_factor",
    "euler_vs_coefficients",
    "EulerComparisonReport",
    "ordinary_data",
    "random_mock_eigenform",
    "load_eigenform",
    "dump_eigenform",
]

SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"

# fields with -D a fundamental discriminant
FUNDAMENTAL_D = (3, 4, 7, 8, 11, 15, 19, 20, 23, 24)


@dataclass(frozen=True)
class QuadFieldData:
    """Splitting data for Q(sqrt(-D)), -D the field discriminant."""

    D: int

    def __post_init__(self):
        D = self.D
        ok = (-D) % 4 == 1 and _squarefree(D) or (
            D % 4 == 0 and _squarefree(D // 4) and (-(D // 4)) % 4 in (2, 3)
        )
        if not ok:
            raise ValueError(f"-{D} is not a fundamental discriminant")

    def splitting(self, l: int) -> str:
        """How the prime l splits, by the Kronecker symbol (-D|l): at l = 2 it is read
        from -D mod 8, at odd l from Euler's criterion."""
        D = self.D
        if D % l == 0:
            return RAMIFIED
        if l == 2:
            return SPLIT if -D % 8 == 1 else INERT
        return SPLIT if pow(-D, (l - 1) // 2, l) == 1 else INERT

    def ideal_norm(self, l: int) -> int:
        """Norm of a prime ideal above l."""
        return l * l if self.splitting(l) == INERT else l

    def is_integral(self, a: int, b: int, den: int) -> bool:
        """Whether (a + b sqrt(-D)) / den lies in the ring of integers.

        (a, b, den) is canonical, as a ``QuadCoeff`` holds it: den > 0 and
        gcd(a, b, den) = 1.  For 4 | D the ring is Z + Z sqrt(-D)/2, so
        a/den and 2b/den must be integers; for -D = 1 mod 4 it is
        Z[(1 + sqrt(-D))/2], so 2a/den and 2b/den must be integers of the same
        parity.  Either way den divides 2 gcd(a, b), hence den is 1, or 2 with
        a even (4 | D) or a = b mod 2 (-D = 1 mod 4).
        """
        if den == 1:
            return True
        return den == 2 and (a if self.D % 4 == 0 else a - b) % 2 == 0


def _squarefree(n: int) -> bool:
    return n > 0 and all(e == 1 for _, e in factorize(n))


def _fraction_tuple(cs) -> tuple[Fraction, ...]:
    """cs as a tuple of Fractions: a tuple of Fractions is kept as it is (it is immutable)."""
    if type(cs) is tuple and all(type(c) is Fraction for c in cs):
        return cs
    return tuple(Fraction(c) for c in cs)


class MockEigenform:
    """Weight-k eigenform surrogate: per-ideal eigenvalues plus Satake data at p.

    ``eigen`` maps a rational prime l to its c-values: a pair (c(L), c(Lbar))
    when l splits, a single value otherwise.  Primes dividing N default to
    eigenvalue 0 unless supplied.  ``support``, when given, is a finite set
    of primes outside which the form's eigenvalues vanish: c = 0 at every
    ideal above a prime l != p not in it, so such an l needs no entry, and a
    nonzero entry there is rejected.  ``support = None`` means unknown: every
    prime not dividing N needs an entry, and a missing one raises
    ``KeyError``.  ``tabulate(R, which)`` stores the nonzero d(r), or c(r),
    for r <= R, and ``nonzero`` is the one reader of those tables;
    ``coeff_principal`` and ``asai_coeff`` compute one value pointwise.
    """

    def __init__(
        self,
        k: int,
        N: int,
        field: QuadFieldData,
        eigen: dict[int, tuple[Rational, ...]],
        p: int,
        p_satake: tuple[Rational, Rational, Rational, Rational],
        support: Iterable[int] | None = None,
    ):
        if k < 2:
            raise ValueError("weight must be >= 2")
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if N % p == 0 or field.D % p == 0:
            raise ValueError("p must not divide N D")
        if field.splitting(p) != SPLIT:
            raise ValueError(f"p = {p} does not split in Q(sqrt(-{field.D}))")
        a1, a2, b1, b2 = (Fraction(x) for x in p_satake)
        if a1 * a2 != Fraction(p) ** (k - 1) or b1 * b2 != Fraction(p) ** (k - 1):
            raise ValueError("Satake products must equal Nm(p)^(k-1) = p^(k-1)")
        self.k = k
        self.N = N
        self.field = field
        self.p = p
        self.p_satake = (a1, a2, b1, b2)
        self.eigen = {l: _fraction_tuple(cs) for l, cs in eigen.items()}
        if support is not None:
            support = frozenset(support)
            outside = sorted(l for l, cs in self.eigen.items() if l not in support and any(cs))
            if outside:
                raise ValueError(f"nonzero eigen-data at l = {outside[0]}, outside the declared support")
        self.support = support
        # per prime ideal (l, which): [c(L^0), c(L^1), ...], extended by _extend_hecke_powers
        self._cpp: dict[tuple[int, int], list[Fraction]] = {}
        # per table, "c" or "d": (bound, the nonzero values for r <= bound in ascending r)
        self._tables: dict[str, tuple[int, dict[int, Fraction]]] = {
            "c": (1, {1: Fraction(1)}),
            "d": (1, {1: Fraction(1)}),
        }

    # -- eigenvalue access ---------------------------------------------------

    def c_at_ideal(self, l: int, which: int = 0) -> Fraction:
        """Eigenvalue c at the prime ideal tagged ``which`` above l."""
        if l == self.p:
            a1, a2, b1, b2 = self.p_satake
            return a1 + a2 if which == 0 else b1 + b2
        if l in self.eigen:
            cs = self.eigen[l]
            return cs[which] if which < len(cs) else cs[0]
        if self.N % l == 0 or (self.support is not None and l not in self.support):
            return Fraction(0)
        raise KeyError(f"no eigen-data at prime {l}")

    def _c_prime_power(self, l: int, which: int, e: int) -> Fraction:
        powers = self._cpp.get((l, which))
        if powers is None:
            powers = self._cpp[l, which] = [Fraction(1), self.c_at_ideal(l, which)]
        if e >= len(powers):  # most primes below a tabulation bound stop at c(L) itself
            _extend_hecke_powers(powers, Fraction(self.field.ideal_norm(l)) ** (self.k - 1), e)
        return powers[e]

    def tabulate(self, bound: int, which: str = "d") -> None:
        """Tabulate the nonzero d(r), or c(r) with ``which="c"``, for r <= bound (build once,
        then read-only).  Only the table asked for is built; each keeps its own bound.

        Both are multiplicative: c because it is a Hecke eigenvalue, and d
        because the Asai L-function has an Euler product (Asai, Math. Ann. 226
        (1977) 81-94).  So each table is the set of products of coprime prime
        powers with nonzero local value, and one depth-first walk over the
        primes (``_multiplicative_table``) builds it.  The local values are
        c(l^e) and d(l^e) = c(l^e) + l^(2k-2) d(l^(e-2)) for l not dividing N
        (the sum over l^(2i) t = l^e of l^(i(2k-2)) c(t)), d(l^e) = c(l^e) for
        l | N.  A local d can vanish where c does not: at an inert l with
        c(l) = 0, d(l^2) = c(l^2) + l^(2k-2) = 0.

        A prime l with l^2 > bound that does not divide D and is not p has
        only l^1 below the bound, and there c(l) = d(l) is c(L) c(Lbar) or
        c(L).  So it is skipped when its eigen entry is all zero and, for a
        form with a declared support, not walked at all when it lies outside
        the support: then the walk visits only the primes up to sqrt(bound),
        the support, p and the primes dividing D.  A ramified l
        (c(l) = c(L^2), nonzero even when c(L) = 0) and p (Satake data) are
        always visited.  With the support unknown every prime up to the bound
        is, and one without an eigen entry still raises ``KeyError`` as a
        pointwise lookup would.
        """
        if which not in self._tables:
            raise ValueError(f"which must be 'c' or 'd', not {which!r}")
        if bound <= self._tables[which][0]:
            return
        if self.support is None:
            walk = primes_up_to(bound)
        else:
            always = (*self.support, self.p, *(q for q, _ in factorize(self.field.D)))
            walk = sorted(set(primes_up_to(isqrt(bound))).union(l for l in always if l <= bound))
        w = 2 * self.k - 2
        local = []  # per prime l: the (l^e, numerator, denominator) of each nonzero value, l^e <= bound
        for l in walk:
            cs = self.eigen.get(l)
            if l * l > bound and self.field.D % l and l != self.p and cs is not None and not any(cs):
                continue
            values = [Fraction(1)]  # c(l^e) for e = 0, 1, ..., then d(l^e) in place
            le = l
            while le <= bound:
                values.append(self._coeff_from_factorization([(l, len(values))]))
                le *= l
            if which == "d" and self.N % l:
                lw = l**w
                for e in range(2, len(values)):
                    values[e] += lw * values[e - 2]
            powers = [(l**e, v.numerator, v.denominator) for e, v in enumerate(values) if e and v]
            if powers:
                local.append((l, powers))
        self._tables[which] = (bound, _multiplicative_table(local, bound))

    def nonzero(self, R: int, which: str = "d") -> Iterator[tuple[int, Fraction]]:
        """The nonzero (r, d(r)), or (r, c(r)) with ``which="c"``, for r <= R in ascending r.

        Runs ``tabulate(R, which)`` first, which builds that table alone and
        does nothing once R is covered.
        """
        self.tabulate(R, which)
        return takewhile(lambda item: item[0] <= R, self._tables[which][1].items())

    def _coeff_from_factorization(self, fac: list[tuple[int, int]]) -> Fraction:
        out = Fraction(1)
        for l, e in fac:
            s = self.field.splitting(l)
            if s == SPLIT:
                out *= self._c_prime_power(l, 0, e) * self._c_prime_power(l, 1, e)
            elif s == INERT:
                out *= self._c_prime_power(l, 0, e)
            else:
                out *= self._c_prime_power(l, 0, 2 * e)
        return out


def _multiplicative_table(local: list[tuple[int, list[tuple[int, int, int]]]], bound: int) -> dict[int, Fraction]:
    """The nonzero values up to bound of the multiplicative function with the given local values,
    in ascending r.

    ``local`` lists, by ascending prime l, the (l^e, numerator, denominator)
    of each nonzero value in ascending e; a prime with no entry has value 0 at
    every l^e, e >= 1.  A depth-first walk multiplies coprime prime powers,
    each prime after the last one used, so every r is built once, from its
    factorization.  Along the walk a value is an integer numerator and
    positive denominator, multiplied without reduction; each entry becomes
    one Fraction at the end.
    """
    table = [(1, 1, 1)]
    stack = [(1, 1, 1, 0)]
    while stack:
        r, a, b, start = stack.pop()
        for i in range(start, len(local)):
            l, powers = local[i]
            if r * l > bound:
                break
            for le, x, y in powers:
                rl = r * le
                if rl > bound:
                    break
                ax, by = a * x, b * y
                table.append((rl, ax, by))
                stack.append((rl, ax, by, i + 1))
    table.sort()  # each r occurs once, so only the r are compared
    return {r: Fraction(a, b) for r, a, b in table}


def _extend_hecke_powers(powers: list[Fraction], norm_pow: Fraction, e: int) -> None:
    """Extend powers = [c(L^0), c(L^1), ...] through c(L^e) by
    c(L^(i+1)) = c(L) c(L^i) - Nm(L)^(k-1) c(L^(i-1)), one step per new power."""
    c_l = powers[1]
    while len(powers) <= e:
        powers.append(c_l * powers[-1] - norm_pow * powers[-2])


def hecke_power(c_l: Rational, norm_pow: Rational, e: int) -> Fraction:
    """c(L^e) from c(L^(e+1)) = c(L) c(L^e) - Nm(L)^(k-1) c(L^(e-1)), c(L^0) = 1."""
    if e < 0:
        raise ValueError("e must be >= 0")
    powers = [Fraction(1), Fraction(c_l)]
    _extend_hecke_powers(powers, Fraction(norm_pow), e)
    return powers[e]


def coeff_principal(f: MockEigenform, r: int) -> Fraction:
    """c((r)) by multiplicativity over the ideal factorization of (r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return f._coeff_from_factorization(factorize(r))


def asai_coeff(f: MockEigenform, r: int) -> Fraction:
    """d(r) = sum over m^2 t = r, gcd(m, N) = 1, of m^(2k-2) c((t))."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = Fraction(0)
    m = 1
    while m * m <= r:
        if r % (m * m) == 0 and gcd(m, f.N) == 1:
            out += Fraction(m) ** (2 * f.k - 2) * coeff_principal(f, r // (m * m))
        m += 1
    return out


# ---------------------------------------------------------------------------
# local Euler factors


def _power_series_inverse(poly: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of 1/poly(X) up to X^order; poly[0] must be 1."""
    if not poly or poly[0] != 1:
        raise ValueError("local factor must have constant term 1")
    inv = [Fraction(1)] + [Fraction(0)] * order
    for e in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(e, len(poly) - 1) + 1):
            acc += poly[i] * inv[e - i]
        inv[e] = -acc
    return inv


def local_asai_factor(f: MockEigenform, l: int, chi) -> list:
    """1/G_l as a polynomial in l^(-s) (coefficient list, constant term 1).

    chi may be a DirichletCharacter or None (untwisted).  Coefficients are
    exact: the split quartic is symmetric in the Satake roots so only
    c(L), c(Lbar) and Nm^(k-1) enter.
    """
    k = f.k
    if f.N % l == 0:
        raise ValueError("local factor only defined away from the level")
    if chi is not None and chi.modulus > 1 and l % factorize(chi.modulus)[0][0] == 0:
        raise ValueError("local factor only defined away from p")
    if chi is None:
        x1 = Fraction(1)
        x2 = Fraction(1)
    else:
        v1 = chi.value(l)
        v2 = chi.value(l * l)
        if v1.is_zero():
            return [Fraction(1)]
        x1 = v1.as_rational() if v1.is_rational() else v1
        x2 = v2.as_rational() if v2.is_rational() else v2
    s = f.field.splitting(l)
    if s == SPLIT:
        q = Fraction(l) ** (k - 1)
        a = f.c_at_ideal(l, 0)
        b = f.c_at_ideal(l, 1)
        return [
            Fraction(1),
            -x1 * (a * b),
            x2 * (q * (a * a + b * b) - 2 * q * q),
            -x1 * x2 * (a * b * q * q),
            x2 * x2 * (q**4),
        ]
    if s == INERT:
        q2 = Fraction(l) ** (2 * k - 2)
        c = f.c_at_ideal(l, 0)
        # (1 - chi c X + chi^2 q2 X^2)(1 - chi^2 q2 X^2)
        p1 = [Fraction(1), -x1 * c, x2 * q2]
        p2 = [Fraction(1), Fraction(0), -x2 * q2]
        return _poly_mul_frac(p1, p2)
    # ramified
    q = Fraction(l) ** (k - 1)
    c = f.c_at_ideal(l, 0)
    p1 = [Fraction(1), -x1 * (c * c - 2 * q), x2 * q * q]
    p2 = [Fraction(1), -x1 * q]
    return _poly_mul_frac(p1, p2)


@dataclass(frozen=True)
class EulerComparisonReport:
    ok: bool
    first_mismatch: int | None
    expected: Fraction | None
    got: Fraction | None


def euler_vs_coefficients(f: MockEigenform, R: int) -> EulerComparisonReport:
    """Expand prod_{l <= R, l not dividing N} G_l(s, f) and compare with d(r).

    Comparison runs over r <= R coprime to N (factors at l | N are excluded
    from both sides).
    """
    coeffs = [Fraction(0)] * (R + 1)
    coeffs[1] = Fraction(1)
    for l in primes_up_to(R):
        if f.N % l == 0:
            continue
        top = 1
        while l ** (top + 1) <= R:
            top += 1
        inv = _power_series_inverse(local_asai_factor(f, l, None), top)
        # the support so far is prime to l, and descending r reads each c(r) before it is written
        for r in range(R // l, 0, -1):
            if coeffs[r]:
                n, e = r * l, 1
                while n <= R:
                    coeffs[n] += coeffs[r] * inv[e]
                    n, e = n * l, e + 1
    for r in range(1, R + 1):
        if gcd(r, f.N) != 1:
            continue
        expected = asai_coeff(f, r)
        got = coeffs[r]
        if expected != got:
            return EulerComparisonReport(False, r, expected, got)
    return EulerComparisonReport(True, None, None, None)


# ---------------------------------------------------------------------------
# ordinary data at p


@dataclass(frozen=True)
class OrdinaryData:
    """F(X) = (1 - kappa X) H(X) with kappa a p-adic unit; B_i = coefficients of H."""

    F_poly: tuple[Fraction, ...]
    B: tuple[Fraction, Fraction, Fraction, Fraction]
    kappa: Fraction


def ordinary_data(f: MockEigenform) -> OrdinaryData:
    """Factor the degree-4 local polynomial at p as (1 - kappa X) H(X).

    kappa is alpha_1(P) alpha_1(Pbar) after relabeling the Satake parameters
    so that this product is a p-adic unit; raises if no labeling works.
    """
    p = f.p
    a = list(f.p_satake[:2])
    b = list(f.p_satake[2:])
    for i in range(2):
        for j in range(2):
            if vp(a[i] * b[j], p) == 0:
                a1, a2 = a[i], a[1 - i]
                b1, b2 = b[j], b[1 - j]
                kappa = a1 * b1
                roots = [a1 * b2, a2 * b1, a2 * b2]
                H = [Fraction(1)]
                for r in roots:
                    H = _poly_mul_frac(H, [Fraction(1), -r])
                F = _poly_mul_frac(H, [Fraction(1), -kappa])
                return OrdinaryData(tuple(F), (H[0], H[1], H[2], H[3]), kappa)
    raise ValueError("form is not ordinary at p: no Satake labeling gives a unit product")


# ---------------------------------------------------------------------------
# synthetic eigenforms and the data-file format


def default_field_for(p: int) -> QuadFieldData:
    """Smallest fundamental -D with p split and p not dividing 2D."""
    for D in FUNDAMENTAL_D:
        if D % p:
            fld = QuadFieldData(D)
            if fld.splitting(p) == SPLIT:
                return fld
    raise ValueError(f"no small fundamental discriminant splits at {p}")


def random_mock_eigenform(
    rng: random.Random,
    k: int = 2,
    N: int = 1,
    D: int | None = None,
    p: int = 5,
    prime_bound: int = 200,
    support_bound: int | None = None,
    support_min: int = 2,
    c_num_bound: int = 6,
    satake_units: tuple[int, ...] = (1, -1, 2, -2, 3),
) -> MockEigenform:
    """Random rational eigen-data at the primes l != p in [support_min, support_bound], l <= prime_bound.

    Every other prime gets eigenvalue 0, which keeps the tails of every
    attached Dirichlet series negligible at desk scale; ``c_num_bound`` caps
    eigenvalue numerators.  Given ``support_bound``, the form declares those
    primes as its support and stores only their entries.  Without it the
    support is unknown: the entries reach prime_bound, those below
    support_min are zero, and a prime above prime_bound has no eigen-data.
    The draws are the same either way, in ascending l.
    """
    field = QuadFieldData(D) if D is not None else default_field_for(p)
    top = max(prime_bound, 2)
    if support_bound is None:
        support, hi = None, prime_bound
    else:
        support = frozenset(l for l in primes_up_to(support_bound) if l >= support_min and l != p)
        top, hi = min(top, support_bound), support_bound
    zero = Fraction(0)
    eigen: dict[int, tuple[Fraction, ...]] = {}

    def rnd():
        return Fraction(rng.randint(-c_num_bound, c_num_bound), rng.choice((1, 1, 2, 3)))

    for l in primes_up_to(top):
        if l == p:
            continue
        split = field.splitting(l) == SPLIT
        if support_min <= l <= hi:
            eigen[l] = (rnd(), rnd()) if split else (rnd(),)
        elif support is None:
            eigen[l] = (zero, zero) if split else (zero,)
    q = Fraction(p) ** (k - 1)
    unit_pool = [u for u in satake_units if u % p]
    if not unit_pool:
        raise ValueError("no p-unit Satake choices available")
    u1 = Fraction(rng.choice(unit_pool))
    u2 = Fraction(rng.choice(unit_pool))
    satake = (u1, q / u1, u2, q / u2)
    return MockEigenform(k, N, field, eigen, p, satake, support)


def dump_eigenform(f: MockEigenform) -> str:
    """Text record: header lines (a ``support`` line when the form declares one), then one line per prime ideal."""
    lines = [
        f"k {f.k}",
        f"N {f.N}",
        f"D {f.field.D}",
        f"p {f.p}",
        "satake " + " ".join(map(str, f.p_satake)),
    ]
    if f.support is not None:
        lines.append(" ".join(["support", *map(str, sorted(f.support))]))
    for l in sorted(f.eigen):
        tag = f.field.splitting(l)
        for c in f.eigen[l]:
            lines.append(f"l {l} {tag} {c}")
    return "\n".join(lines) + "\n"


_HEADER_VALUES = {"k": 1, "N": 1, "D": 1, "p": 1, "satake": 4}


def load_eigenform(text: str) -> MockEigenform:
    """Parse ``dump_eigenform`` output, rejecting any line that nothing reads.

    The header is one line each of ``k``, ``N``, ``D``, ``p`` (one value) and
    ``satake`` (four values), and at most one ``support`` line listing
    distinct primes other than p: the form's declared support, outside which
    every record must be zero.  Without it the support is unknown.  A record
    ``l <l> <tag> <value>`` must be at a prime l other than p, tagged as l
    splits in the field, with one record per prime ideal above l.
    """
    header: dict[str, list[str]] = {}
    records = []
    support = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, *values = line.split()
        if key == "l":
            if len(values) != 3:
                raise ValueError(f"a record is 'l <prime> <tag> <value>', got {line!r}")
            records.append(values)
        elif key == "support":
            if support is not None:
                raise ValueError("repeated support line")
            support = [int(l) for l in values]
        elif _HEADER_VALUES.get(key) != len(values):
            raise ValueError(f"unexpected header line {line!r}")
        elif key in header:
            raise ValueError(f"repeated header {key}")
        else:
            header[key] = values
    for key in _HEADER_VALUES:
        if key not in header:
            raise ValueError(f"eigenform file is missing the {key} header")
    k, N, D, p = (int(header[key][0]) for key in ("k", "N", "D", "p"))
    field = QuadFieldData(D)
    for l in support or ():
        if l == p or not is_prime(l):
            raise ValueError(f"the support lists l = {l}, which is not a prime other than p = {p}")
    if support is not None and len(set(support)) < len(support):
        raise ValueError("the support lists a prime twice")
    raw: dict[int, list[Fraction]] = {}
    for l, tag, c in records:
        l = int(l)
        if l == p or not is_prime(l):
            raise ValueError(f"a record at l = {l}, which is not a prime other than p = {p}")
        if tag != field.splitting(l):
            raise ValueError(f"the record at l = {l} is tagged {tag}, but l is {field.splitting(l)}")
        raw.setdefault(l, []).append(Fraction(c))
    for l, cs in raw.items():
        want = 2 if field.splitting(l) == SPLIT else 1
        if len(cs) != want:
            raise ValueError(f"prime {l} needs {want} eigenvalue record(s), found {len(cs)}")
    satake = tuple(Fraction(x) for x in header["satake"])
    return MockEigenform(k, N, field, {l: tuple(cs) for l, cs in raw.items()}, p, satake, support)
