"""Dirichlet characters with exact cyclotomic values.

Characters are stored as exponent tables over a generator decomposition of
(Z/M)^x: chi(a) = zeta_ord^t with t looked up per residue.  Every direct sum
of character values, sum_a w(a) chi(a) e(a b / M), is one exponent histogram,
``_character_sum``, reduced once: the direct unit sums (Gauss sums at b = 1),
the generalized Bernoulli numbers (weight B_k(a/C)) and the constant term and
orthogonality check of ``eisenstein``.  The closed form of the unit sums,
``_twisted_factors``, is one loop over the CRT components and never reads it.

Characters vanish off the unit group; the modulus-1 character is constantly 1.
``_unit_group(M).units`` lists (Z/M)^x in increasing order for the unit
loops of the other modules, and ``_primitive_root(p)`` gives ``padic`` its
generator mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from itertools import count, product

from .arith import (
    Ball,
    CyclotomicNumber,
    bernoulli_polynomial,
    TruncatedSeries,
    _two_pi_power,
    _vp_int,
    _vp_min,
    euler_phi,
    factorize,
)

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "gauss_sum",
    "GeneralizedGaussSum",
    "generalized_gauss_sum",
    "unit_sum_twisted",
    "unit_sum_twisted_direct",
    "generalized_bernoulli",
    "TranscendentalValue",
    "L_special_exact",
    "L_truncated",
    "NormalizedLValue",
    "normalized_L",
]


_ONE = CyclotomicNumber.from_rational(1)


# ---------------------------------------------------------------------------
# unit group structure


def _primitive_root(p: int) -> int:
    """Least primitive root modulo p^2, for an odd prime p.

    A primitive root mod p^2 is one mod every p^e (e >= 1), so its residue mod
    p^e generates (Z/p^e)^x and reduces to the generator mod p^c for c <= e.
    """
    phi = p * (p - 1)
    fac = [p] + [f for f, _ in factorize(p - 1)]
    return next(g for g in count(2) if g % p and all(pow(g, phi // f, p * p) != 1 for f in fac))


class _UnitGroup:
    """Generator decomposition of (Z/M)^x, with the units in walk order.

    ``blocks`` lists (p, e, lo, hi) per prime power p^e of M, ascending:
    generators lo..hi-1, each 1 mod M/p^e (CRT), are for odd p the least
    primitive root mod p^2, and for p = 2 the units -1 (e >= 2) and 5 (e >= 3).
    ``walk`` lists g_1^x_1 ... g_n^x_n with the exponent tuples in
    lexicographic order of (x_n, ..., x_1): each generator multiplies the
    block walked so far, one multiplication per unit.  Character tables are
    written along the same walk.
    """

    def __init__(self, M: int):
        self.M = M
        gens: list[int] = []
        orders: list[int] = []
        blocks: list[tuple[int, int, int, int]] = []
        for p, e in factorize(M):
            q = p**e
            lo = len(gens)
            if p > 2:
                gens.append(self._crt(_primitive_root(p), q, M // q))
                orders.append(euler_phi(q))
            elif e >= 2:
                gens.append(self._crt(-1, q, M // q))
                orders.append(2)
                if e >= 3:
                    gens.append(self._crt(5, q, M // q))
                    orders.append(q // 4)
            blocks.append((p, e, lo, len(gens)))
        self.gens = gens
        self.orders = orders
        self.blocks = blocks
        walk = [1 % M]
        for g, o in zip(gens, orders):
            block = walk
            for _ in range(o - 1):
                block = [a * g % M for a in block]
                walk += block
        self.walk = tuple(walk)
        self.units = sorted(walk)

    @staticmethod
    def _crt(r: int, q: int, cof: int) -> int:
        """Unit congruent to r mod q and 1 mod cof."""
        if cof == 1:
            return r % q
        inv_q = pow(q, -1, cof)
        inv_c = pow(cof, -1, q)
        return (r * cof * inv_c + q * inv_q) % (q * cof)


@lru_cache(maxsize=None)
def _unit_group(M: int) -> _UnitGroup:
    return _UnitGroup(M)


# ---------------------------------------------------------------------------
# characters


class DirichletCharacter:
    """Dirichlet character modulo M with values in roots of unity.

    ``exps`` records the exponents on the unit-group generators; the value
    table maps every residue to an exponent of zeta_{value_order} (or None
    off the units, where the character vanishes).
    """

    __slots__ = (
        "modulus", "exps", "value_order", "_table", "_conductor", "_primitive", "_components"
    )

    def __init__(self, modulus: int, exps: tuple[int, ...]):
        grp = _unit_group(modulus)
        if len(exps) != len(grp.orders):
            raise ValueError("exponent tuple does not match the unit group")
        self.modulus = modulus
        self.exps = tuple(e % o for e, o in zip(exps, grp.orders))
        ord_ = 1
        for e, o in zip(self.exps, grp.orders):
            if e:
                ord_ = lcm(ord_, o // gcd(e, o))
        self.value_order = ord_
        # chi(g) = zeta_o^e = zeta_ord^(e ord / o) on a generator g of order o; walk as _UnitGroup does
        ts = [0]
        for e, o in zip(self.exps, grp.orders):
            step = e * ord_ // o
            ts = [(t + x * step) % ord_ for x in range(o) for t in ts]
        table: list[int | None] = [None] * max(modulus, 1)
        for a, t in zip(grp.walk, ts):
            table[a] = t
        self._table = table
        self._conductor: int | None = None
        self._primitive: "DirichletCharacter | None" = None
        self._components: "tuple[tuple[int, int, DirichletCharacter], ...] | None" = None

    # -- basic queries -------------------------------------------------------

    def exponent_of(self, a: int) -> int | None:
        """Exponent t with chi(a) = zeta_{value_order}^t, or None if chi(a) = 0."""
        return self._table[a % self.modulus]

    def value(self, a: int) -> CyclotomicNumber:
        t = self.exponent_of(a)
        if t is None:
            return CyclotomicNumber.from_rational(0, self.value_order)
        return CyclotomicNumber.zeta(self.value_order, t)

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def is_even(self) -> bool:
        t = self.exponent_of(-1)
        return t == 0

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.modulus, self.exps))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exps={self.exps}, order {self.value_order})"

    # -- group operations ------------------------------------------------------

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("character product needs a common modulus")
        grp = _unit_group(self.modulus)
        exps = tuple((a + b) % o for a, b, o in zip(self.exps, other.exps, grp.orders))
        return DirichletCharacter(self.modulus, exps)

    def __pow__(self, n: int) -> "DirichletCharacter":
        grp = _unit_group(self.modulus)
        return DirichletCharacter(self.modulus, tuple(e * n % o for e, o in zip(self.exps, grp.orders)))

    def inverse(self) -> "DirichletCharacter":
        return self**-1

    # -- conductor and primitivity ---------------------------------------------

    def _levels(self):
        """(p, e, c, x) per prime power p^e of the modulus: x the exponents on its
        generators, p^c the conductor of chi on (Z/p^e)^x.

        Reduction to p^c (c >= 1, and c >= 2 for p = 2) has kernel the subgroup
        of order p^(e-c) of the cyclic part, generated by g (odd p) or 5 (p = 2).
        With d the order of chi there, chi factors through p^c exactly when
        v_p(d) <= c - 1 (odd p) or c - 2 (p = 2); c = 0 when x is 0.
        """
        grp = _unit_group(self.modulus)
        for p, e, lo, hi in grp.blocks:
            x = self.exps[lo:hi]
            t = x[-1] if p > 2 or e >= 3 else 0  # the exponent on g or on 5
            d = grp.orders[hi - 1] // gcd(t, grp.orders[hi - 1]) if t else 1
            c = (1 if p > 2 else 2) + _vp_int(d, p) if any(x) else 0
            yield p, e, c, x

    def conductor(self) -> int:
        """Smallest modulus through which the character factors: prod p^c over ``_levels``."""
        if self._conductor is None:
            self._conductor = prod(p**c for p, _, c, _ in self._levels())
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def primitive(self) -> "DirichletCharacter":
        """The primitive character inducing this one.

        Its generators mod p^c are those mod p^e reduced.  The exponent on the
        cyclic part (g or 5) becomes x / p^(e-c), as that generator's order
        drops by p^(e-c); the exponent on -1 is kept.
        """
        if self._primitive is None:
            self._primitive = self
            if not self.is_primitive:
                exps: list[int] = []
                for p, e, c, x in self._levels():
                    if c and p > 2:
                        exps.append(x[0] // p ** (e - c))
                    elif c:
                        exps += x[:1] if c == 2 else (x[0], x[1] // 2 ** (e - c))
                self._primitive = DirichletCharacter(self.conductor(), tuple(exps))
        return self._primitive


@lru_cache(maxsize=None)
def enumerate_characters(M: int) -> tuple[DirichletCharacter, ...]:
    """All phi(M) characters modulo M, in lexicographic order of ``exps`` (trivial first)."""
    return tuple(DirichletCharacter(M, exps) for exps in product(*(range(o) for o in _unit_group(M).orders)))


@lru_cache(maxsize=None)
def _galois_orbits(M: int) -> dict[tuple[int, ...], tuple[DirichletCharacter, int]]:
    """chi.exps -> (rep, t) with chi = rep^t, for every character chi mod M.

    The Galois orbit of rep is {rep^t : t a unit mod ord rep}; rep is its first
    member in ``enumerate_characters`` order.  Each t is walked over the units
    mod ord rep and lifted by multiples of ord rep until it is prime to M, so
    t is a unit mod lcm(M, ord rep) and sigma_t: zeta -> zeta^t acts on the
    values of rep.  O(phi(M)): the orbits partition the characters.
    """
    orders = _unit_group(M).orders
    out: dict[tuple[int, ...], tuple[DirichletCharacter, int]] = {}
    for rep in enumerate_characters(M):
        if rep.exps in out:
            continue
        ord_ = rep.value_order
        for t in range(1, ord_ + 1):
            if gcd(t, ord_) != 1:
                continue
            s = t
            while gcd(s, M) != 1:
                s += ord_
            out[tuple(e * t % o for e, o in zip(rep.exps, orders))] = (rep, s)
    return out


def _components(chi: DirichletCharacter) -> tuple[tuple[int, int, DirichletCharacter], ...]:
    """Restrictions of chi to the prime-power factors q of its modulus M (CRT).

    Returns (q, u, chi_q) per factor, with u the inverse of M/q modulo q, so
    that sum_w chi(w) e(w b / M) = prod_q sum_w chi_q(w) e(w b u / q).  q's
    block of generators lifts q's own by CRT, so chi_q has the block's
    exponents: it is ``enumerate_characters(q)`` (in lexicographic order of
    exps) at their mixed-radix index, the canonical copy whose cached
    conductor and primitive are shared.  The split is memoized on chi.
    """
    if chi._components is None:
        M = chi.modulus
        grp = _unit_group(M)
        out = []
        for p, e, lo, hi in grp.blocks:
            q = p**e
            index = 0
            for x, o in zip(chi.exps[lo:hi], grp.orders[lo:hi]):
                index = index * o + x
            out.append((q, pow(M // q, -1, q), enumerate_characters(q)[index]))
        chi._components = tuple(out)
    return chi._components


# ---------------------------------------------------------------------------
# Gauss sums


@lru_cache(maxsize=4096)
def gauss_sum(chi: DirichletCharacter) -> CyclotomicNumber:
    """G(chi) = sum_a chi0(a) e(a/C) over the primitive character chi0 attached to chi."""
    return unit_sum_twisted_direct(chi.primitive(), 1)


@dataclass(frozen=True)
class GeneralizedGaussSum:
    """Frequency-twisted Gauss sum sum_{a mod p^j} chi(a) e(a M / p^j)."""

    value: CyclotomicNumber
    agrees: bool


def generalized_gauss_sum(chi: DirichletCharacter, M: int, j: int) -> GeneralizedGaussSum:
    """Direct evaluation, one direct sum per Galois orbit, plus the closed form.

    The direct side is ``_orbit_transport``: the direct sum of chi's orbit
    representative at the frequency M, moved to chi by sigma_t.  For a
    character of conductor p^{j_chi} with j_chi >= 1 the closed form is
    p^(j-j_chi) G(chi0) chi0bar(M / p^(j-j_chi)) when p^(j-j_chi) | M and 0
    otherwise.  For the principal character the sum is a Ramanujan sum, which
    the same expression does not capture; the correct branch
    (phi(p^j) / -p^(j-1) / 0 according to v_p(M)) is used instead.
    """
    fac = factorize(chi.modulus)
    if len(fac) != 1:
        raise ValueError("generalized_gauss_sum needs a prime-power modulus")
    p, jmod = fac[0]
    if jmod != j:
        raise ValueError(f"character modulus {chi.modulus} does not equal p^j = {p}^{j}")
    direct = _orbit_transport(chi, M)
    closed = unit_sum_twisted(chi, M)
    return GeneralizedGaussSum(direct, direct == closed)


def _orbit_transport(chi: DirichletCharacter, b: int) -> CyclotomicNumber:
    """sum over units w mod M of chi(w) e(w b / M), from the direct sum of chi's orbit representative.

    With chi = rep^t (``_galois_orbits``) and sigma_t: zeta_L -> zeta_L^t on
    L = lcm(M, ord chi), substituting w -> w t gives
    S(rep^t, b) = rep(t)^t sigma_t(S(rep, b)): one exponent permutation
    i -> i t + shift, with zeta_L^shift = rep(t)^t, and one reduction.
    S(rep, b) is ``unit_sum_twisted_direct``'s value, cached per (rep, b mod M).
    """
    M = chi.modulus
    rep, t = _galois_orbits(M)[chi.exps]
    value = _representative_sum(rep, b % M)
    if t == 1:
        return value
    L = value.order
    return value._permuted(L, t, t * rep.exponent_of(t) * (L // rep.value_order))


def _character_sum(chi: DirichletCharacter, residues, b: int | None = None, weight=None) -> CyclotomicNumber:
    """sum over residues 0 <= a < M of w(a) chi(a) e(a b / M), as one exponent histogram reduced once.

    This is the one direct sum of character values.  The weight w(a) (1 without
    ``weight``) is computed only where chi(a) != 0.  Without a frequency the
    sum lies in Q(zeta_ord chi); with one, in Q(zeta_L), L = lcm(M, ord chi),
    even when b = 0 mod M.  chi(a) e(a b / M) = zeta_L^(t L/ord + a b L/M)
    for chi(a) = zeta_ord^t, so the frequency only scales a and the loop does
    not branch on it.
    """
    M, ordv, table = chi.modulus, chi.value_order, chi._table
    L = ordv if b is None else lcm(M, ordv)
    step, freq = L // ordv, (0 if b is None else b * (L // M))
    hist: dict[int, Fraction | int] = {}
    for a in residues:
        t = table[a]
        if t is not None:
            e = (t * step + a * freq) % L
            hist[e] = hist.get(e, 0) + (1 if weight is None else weight(a))
    return CyclotomicNumber.from_exponents(L, hist)


def unit_sum_twisted_direct(chi: DirichletCharacter, b: int) -> CyclotomicNumber:
    """sum over units w mod M of chi(w) e(w b / M), by direct summation (``_character_sum``).

    Gauss sums and generalized Gauss sums are its frequencies b = 1 and b = M.
    It never uses the closed form below, which is tested against it.
    """
    return _character_sum(chi, range(chi.modulus), b)


# Bounded: a sweep over every character mod 125 at 8 frequencies holds 9 orbits x 8 values; one at
# all 125 frequencies (1,125 values, characters in enumeration order) computes none of them twice.
_representative_sum = lru_cache(maxsize=1024)(unit_sum_twisted_direct)


def _twisted_factors(
    chi: DirichletCharacter, b: int
) -> tuple[int, CyclotomicNumber, list[DirichletCharacter]] | None:
    """sum over units w mod M of chi(w) e(w b / M) as rat * rou * prod G(chi0_i), or None when it is 0.

    By CRT the sum is the product over the components chi_q of chi at the prime
    powers q = p^e of M (``_components``) of sum_w chi_q(w) e(w b_q / q), with
    b_q = b u mod q.  Each factor has a closed form.  For principal chi_q it is
    the Ramanujan sum c_q(b_q): phi(q) if q | b_q, else -q/p if q/p | b_q,
    else 0.  For chi_q of conductor p^c >= p it is 0 unless
    p^(e-c) | b_q, and then p^(e-c) chi0bar(b_q / p^(e-c)) G(chi0), with chi0
    the primitive character.  rat is the product of the integers, rou of the
    roots of unity chi0bar(...), and the chi0_i are the chi0 in CRT order.
    """
    rat = 1
    rou = _ONE
    chi0s = []
    for q, u, chi_q in _components(chi):
        bq = b * u % q
        pe = q // chi_q.conductor()
        if pe == q:  # principal: the Ramanujan sum c_q(b_q)
            r = q // factorize(q)[0][0]
            if bq % r:
                return None
            rat *= euler_phi(q) if bq == 0 else -r
            continue
        if bq % pe:
            return None
        chi0 = chi_q.primitive()
        t = chi0.exponent_of(bq // pe)
        if t is None:
            return None
        rat *= pe
        rou = rou * CyclotomicNumber.zeta(chi0.value_order, -t)
        chi0s.append(chi0)
    return rat, rou, chi0s


def unit_sum_twisted(chi: DirichletCharacter, b: int) -> CyclotomicNumber:
    """sum over units w mod M of chi(w) e(w b / M), via prime-power closed forms.

    Splits the modulus by the Chinese remainder theorem; each prime-power
    factor is evaluated in closed form (Gauss-sum branch or Ramanujan sum).
    """
    factors = _twisted_factors(chi, b)
    if factors is None:
        return CyclotomicNumber.from_rational(0)
    rat, out, chi0s = factors
    for chi0 in chi0s:
        out = out * gauss_sum(chi0)
    return out * rat


# ---------------------------------------------------------------------------
# generalized Bernoulli numbers and exact L-values


def generalized_bernoulli(k: int, psi: DirichletCharacter) -> CyclotomicNumber:
    """B_{k,psi} = C^(k-1) sum_{a=0}^{C-1} psi(a) B_k(a/C) for primitive psi mod C (``_character_sum``)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not psi.is_primitive:
        raise ValueError("generalized Bernoulli numbers are defined here for primitive psi")
    C = psi.modulus
    total = _character_sum(psi, range(C), weight=lambda a: bernoulli_polynomial(k, Fraction(a, C)))
    return total * Fraction(C) ** (k - 1)


@dataclass(frozen=True)
class TranscendentalValue:
    """algebraic * (2 pi i)^power, with the algebraic part exact."""

    two_pi_i_power: int
    algebraic: CyclotomicNumber

    def numeric(self, prec: int = 53) -> Ball:
        """The value at ``prec`` bits, assembled from Balls at prec + 16 bits: the radius bounds
        the roundings of the embedding, of (2 pi)^k and of their product."""
        k = self.two_pi_i_power
        i_power = Ball.exact(*((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4])  # i^k
        z = self.algebraic.embed(prec + 16) * _two_pi_power(k, prec + 16) * i_power
        return Ball.from_mpc(z.mid, prec, z.rad)


def _bernoulli_L_factor(k: int, psi: DirichletCharacter) -> CyclotomicNumber:
    """-B_{k,psibar} / (2 k! C^k) for primitive psi mod C, the factor both exact L-value forms share."""
    return generalized_bernoulli(k, psi.inverse()) * Fraction(-1, 2 * factorial(k) * psi.modulus**k)


def L_special_exact(k: int, psi: DirichletCharacter) -> TranscendentalValue:
    """L(k, psi) = -(-2 pi i)^k G(psi) B_{k,psibar} / (2 k! C^k) for even k and even primitive psi.

    Returned as (algebraic part, power of 2 pi i); for even k the sign
    (-1)^k = 1 makes (-2 pi i)^k = (2 pi i)^k.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    if not psi.is_primitive:
        raise ValueError("psi must be primitive")
    if not psi.is_even:
        raise ValueError("psi must be even")
    return TranscendentalValue(k, gauss_sum(psi) * _bernoulli_L_factor(k, psi))


def L_truncated(s, psi: DirichletCharacter, terms: int, prec: int = 64) -> Ball:
    """sum_{n<=terms} psi(n) n^(-s) for rational s > 1.

    The series of (n, 1) at k = 0: its radius holds the integral tail bound
    terms^(1-s)/(s-1) and the rounding, over the mass sum n^(-s) <= s/(s-1).
    """
    pairs = ((n, 1) for n in range(1, terms + 1) if gcd(n, psi.modulus) == 1)
    return TruncatedSeries(pairs, 0, terms, s, prec).twisted(psi)


@dataclass(frozen=True)
class NormalizedLValue:
    """L(k, chibar^2) divided by G(chibar^2) (2 pi)^k, with a denominator report."""

    value: CyclotomicNumber
    conductor: int
    bound_ok: bool


def normalized_L(chi: DirichletCharacter, k: int) -> NormalizedLValue:
    """Exact L(k, chibar^2) / (G(chibar^2) (2 pi)^k) for even k.

    Requires chibar^2 to be primitive at the level of chi; imprimitive
    squares (e.g. quadratic chi) are rejected rather than silently replaced
    by the primitive L-value.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    psi = (chi.inverse() * chi.inverse())
    if psi.conductor() != chi.modulus:
        raise ValueError(
            f"chibar^2 has conductor {psi.conductor()} < modulus {chi.modulus}; "
            "the normalized value is only defined here for primitive chibar^2"
        )
    C = psi.modulus
    value = _bernoulli_L_factor(k, psi) * (-1) ** (k // 2)  # (2 pi i)^k = (-1)^(k/2) (2 pi)^k
    # p-denominator report (lower bound via the power basis of Z[zeta])
    if C == 1:
        v_low = min((_vp_min(value.num, value.den, q) for q, _ in factorize(value.den)), default=0)
        j_chi = 0
    else:
        p, _ = factorize(C)[0]
        j_chi = factorize(chi.conductor())[0][1] if chi.conductor() > 1 else 0
        v_low = _vp_min(value.num, value.den, p)
    return NormalizedLValue(value, C, v_low >= -(j_chi * (k + 1)))
