"""Exact q-expansions of the translated Eisenstein series at level N p^(2j).

The congruence group is { [[a,b],[c,d]] in SL2(Z) : a = d mod p^j,
c = 0 mod N p^(2j) }; its Eisenstein series at the infinity cusp has an
exact cyclotomic q-expansion.  The constant term is computed by expanding
both zeta-type factors into character L-combinations and cancelling them
against each other (orthogonality does all the work, verified exactly);
higher coefficients convert the L-inverses via the Bernoulli special-value
formula, with the Euler factors at primes dividing the level restored for
imprimitive characters.

A fully independent numeric route evaluates the same coefficients from
truncated Moebius series, and the j = 0 case has a classical divisor-sum
closed form; agreement of the three is the module's main test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, fzero, mpf_div, mpf_mul, mpf_neg, round_nearest, to_float

from .arith import (
    ArithTables,
    Ball,
    CyclotomicNumber,
    _two_pi_power,
    _vp_min,
    bernoulli_number,
    euler_phi,
    factorize,
    fixed_root_table,
    mobius_buckets,
)
from .asai import FUNDAMENTAL_D, QuadFieldData
from .characters import (
    DirichletCharacter,
    _character_sum,
    _components,
    _galois_orbits,
    _twisted_factors,
    _unit_group,
    enumerate_characters,
    generalized_bernoulli,
)

__all__ = [
    "LevelParams",
    "IntMatrix2",
    "QExpansion",
    "membership_two_ways",
    "enumerate_lambda",
    "constant_term",
    "higher_coeff_exact",
    "higher_coeffs_analytic",
    "classical_reduction",
    "qexpansion",
    "dump_qexpansion",
]


@dataclass(frozen=True)
class LevelParams:
    """Level data: modulus M = N p^(2j), weight k = 2n - 2m + 2 (even, >= 4)."""

    N: int
    p: int
    j: int
    k: int

    def __post_init__(self):
        if self.N < 1 or self.j < 0:
            raise ValueError("need N >= 1 and j >= 0")
        if self.p < 3 or factorize(self.p) != [(self.p, 1)]:
            raise ValueError("p must be an odd prime")
        if self.N % self.p == 0:
            raise ValueError("p must not divide N")
        if self.k < 4 or self.k % 2:
            raise ValueError("weight must be even and >= 4")

    @property
    def modulus(self) -> int:
        return self.N * self.p ** (2 * self.j)


@dataclass(frozen=True)
class IntMatrix2:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")


def _default_D(p: int) -> int:
    for D in FUNDAMENTAL_D:
        if D % p:
            return D
    raise ValueError("no valid discriminant")


@lru_cache(maxsize=16)
def _quad_field(D: int) -> QuadFieldData:
    """QuadFieldData(D), built and its discriminant checked once per D."""
    return QuadFieldData(D)


def _conjugate(gamma: IntMatrix2, a_rep: int, s: int, D: int) -> tuple[tuple[int, int], ...]:
    """s^2 gamma_beta gamma gamma_beta^(-1) for beta = a_rep sqrt(-D) / s, as the integer pairs
    (x, y) = x + y sqrt(-D) of its entries e11, e12, e21, e22 (see ``membership_two_ways``)."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    ss, sa = s * s, s * a_rep
    return (
        (a * ss, c * sa),
        (b * ss + c * D * a_rep * a_rep, (d - a) * sa),
        (c * ss, 0),
        (d * ss, -c * sa),
    )


def membership_two_ways(
    params: LevelParams, gamma: IntMatrix2, D: int | None = None, a_rep: int | None = None
) -> tuple[bool, bool]:
    """(congruence criterion, exact conjugation over Q(sqrt(-D))) for the group test.

    The conjugation path moves gamma back to level N by the translation by
    beta = a_rep sqrt(-D) / s, s = 2 p^j, and checks that every entry of
    gamma_beta gamma gamma_beta^(-1) is integral (``QuadFieldData.is_integral``)
    and the level condition c = 0 mod N.  It does not use the congruence
    criterion, so the two answers are independent and must agree for every
    determinant-1 matrix.

    With B = a_rep sqrt(-D), s gamma_beta = [[s, B], [0, s]] and
    s gamma_beta^(-1) = [[s, -B], [0, s]], so the conjugate is
    (s gamma_beta) gamma (s gamma_beta^(-1)) / s^2.  Multiplied out, with
    B^2 = -D a_rep^2, the numerators are the integer pairs (``_conjugate``)

        e11 = a s^2 + c s B,              e12 = b s^2 + c D a_rep^2 + (d - a) s B,
        e21 = c s^2,                      e22 = d s^2 - c s B.

    Each entry is reduced over s^2 by one gcd; no QuadCoeff or Fraction enters.
    a_rep must be even at every j, and a unit mod p when j >= 1 (every
    integer is a unit mod p^0).
    """
    p, j, N = params.p, params.j, params.N
    q = p**j
    by_congruence = (gamma.a - gamma.d) % q == 0 and gamma.c % (N * q * q) == 0
    D = _default_D(p) if D is None else D
    field = _quad_field(D)
    if a_rep is None:
        a_rep = 2 if j >= 1 else 0
    if a_rep % 2 or (j >= 1 and gcd(a_rep, p) != 1):
        raise ValueError("translation numerator must be even, and a unit mod p for j >= 1")
    s = 2 * q
    den = s * s
    integral = True
    for x, y in _conjugate(gamma, a_rep, s, D):
        g = gcd(x, y, den)
        if not field.is_integral(x // g, y // g, den // g):
            integral = False
            break
    return by_congruence, integral and gamma.c % N == 0


def enumerate_lambda(params: LevelParams, height: int) -> list[tuple[int, int]]:
    """Coprime pairs (c, d), |c|,|d| <= height, c = 0 mod M, d = +-1 mod p^j, one per +-pair."""
    if height < 1:
        raise ValueError("height must be >= 1")
    M = params.modulus
    q = params.p**params.j
    out = []
    for c in range(-height, height + 1):
        if c % M:
            continue
        for d in range(-height, height + 1):
            if (c, d) == (0, 0) or gcd(c, d) != 1:
                continue
            if (d - 1) % q and (d + 1) % q:
                continue
            if c > 0 or (c == 0 and d > 0):
                out.append((c, d))
    return sorted(out)


# ---------------------------------------------------------------------------
# constant term: the full L-cancellation chain


def _v_range(params: LevelParams) -> list[int]:
    """Units mod M congruent to +-1 mod p^j."""
    q = params.p**params.j
    return [v for v in _unit_group(params.modulus).units if (v - 1) % q == 0 or (v + 1) % q == 0]


def constant_term(params: LevelParams) -> CyclotomicNumber:
    """Constant coefficient via the character-sum cancellation (must equal 1).

    Both zeta-type factors are expanded into L-combinations over all
    characters mod M; the coefficient attached to a cross pair (psi, psi1)
    carries the full unit sum of psi^(-1) psi1, which is verified to vanish
    exactly unless psi = psi1.  The surviving diagonal drops every L-value
    and leaves a pure character sum.
    """
    M = params.modulus
    k = params.k
    _check_orthogonality(M)
    chars = enumerate_characters(M)
    phi = len(chars)
    vs = _v_range(params)
    acc = CyclotomicNumber.from_rational(0)
    for psi1 in chars:
        parity = 1 + (-1) ** k * (1 if psi1.is_even else -1)
        if not parity:
            continue
        # T(psi1) sums psi1^(-1) over the v-range, a subgroup: v -> v^(-1) permutes it
        t_sum = _character_sum(psi1, vs)
        acc = acc + t_sum * Fraction(parity)
    acc = acc * Fraction(phi, 2 * phi * phi)
    return CyclotomicNumber.from_rational(acc.as_rational()) if acc.is_rational() else acc


@lru_cache(maxsize=None)
def _check_orthogonality(M: int) -> None:
    """Check that each character mod M sums over the units to phi(M) if trivial, else to 0.

    One sum per Galois orbit proves it for the whole orbit: with chi = rep^t
    (``_galois_orbits``), the table of chi is t times that of rep, so
    sum_a chi(a) = sigma_t(sum_a rep(a)), which is 0 exactly when rep's sum
    is; the trivial character is an orbit of its own.  Raises
    ``AssertionError`` on a failure, which is not cached.  The check depends
    on M alone, so it runs once per modulus.
    """
    chars = enumerate_characters(M)
    units = _unit_group(M).units
    orbits = _galois_orbits(M)
    for ch in chars:
        if orbits[ch.exps][0] is not ch:
            continue
        total = _character_sum(ch, units)
        if ch.is_trivial:
            if total != len(chars):
                raise AssertionError("orthogonality failed at the trivial character")
        elif not total.is_zero():
            raise AssertionError(f"orthogonality failed at {ch}")


# ---------------------------------------------------------------------------
# higher coefficients, exact route


@lru_cache(maxsize=64)
def _level_characters(params: LevelParams) -> tuple[tuple[DirichletCharacter, CyclotomicNumber], ...]:
    """(psi, T(psi) twist(psi) (C/M)^k / (B_{k,psibar0} E(psi))) for each even psi mod M with T(psi) != 0.

    T(psi) sums psi over the v-range H = {v = 1 mod p^j} (every unit at j = 0),
    the kernel of reduction to p^j, so T(psi) = |H| = phi(M)/phi(p^j) if psi
    factors through p^j (its conductor divides p^j) and 0 otherwise: only
    phi(p^j)/2 of the phi(M)/2 even psi survive.  The other factors depend on
    psi alone; see ``higher_coeff_exact``.  Cached per level, for every lpp.
    """
    M, k, pj = params.modulus, params.k, params.p**params.j
    t_size = euler_phi(M) // euler_phi(pj)
    out = []
    for psi in enumerate_characters(M):
        if not psi.is_even or pj % psi.conductor():
            continue
        psi0 = psi.primitive()
        C = psi0.modulus
        # Gauss-sum collapse: W carries prod_i G(psi0_i); dividing by G(psi0)
        # leaves the CRT twist prod_i psi0_i(C / C_i) in the value field.
        twist = CyclotomicNumber.from_rational(1)
        for q, _, chi_q in _components(psi0):
            twist = twist * CyclotomicNumber.zeta(chi_q.value_order, -chi_q.exponent_of(C // q))
        # Bernoulli and Euler-factor denominators, inverted in the value field
        bern = generalized_bernoulli(k, psi0.inverse())
        euler = CyclotomicNumber.from_rational(1)
        for q0, _ in factorize(M):
            if C % q0:  # q0 is prime to C, so psi0(q0) is a root of unity
                value = CyclotomicNumber.zeta(psi0.value_order, psi0.exponent_of(q0))
                euler = euler * (1 - value * Fraction(1, q0**k))
        t_sum = CyclotomicNumber.from_rational(t_size, psi.value_order)
        out.append((psi, t_sum * twist * (bern * euler).inverse() * (Fraction(C, M) ** k)))
    return tuple(out)


def higher_coeff_exact(params: LevelParams, lpp: int) -> CyclotomicNumber:
    """Exact coefficient of q^lpp via the Bernoulli special-value route.

    -2k/phi(M) sum over even psi mod M of (C/M)^k T(psi) W(psi) /
    (G(psi0) B_{k,psibar0} E(psi)), with W(psi) the character-weighted signed
    divisor sum, E(psi) the Euler factors of the mod-M L-series at primes
    dividing M away from the conductor, and all primitive Gauss-sum factors
    cancelled against 1/G(psi0) = psi0(-1) G(psibar0)/C in closed form.
    The j = 0 case carries an extra 1/2 (the +-1 classes coincide there).

    W(psi) is built only for the psi of ``_level_characters``, which holds the
    other factors: the terms left out are those with T(psi) = 0.

    W(psi) = sum_d d^(k-1) (S*(psi, d) + (-1)^k S*(psi, -d)) over the divisors
    d of lpp, with S*(psi, b) the unit sum S(psi, b) = sum_w psi(w) e(w b / M)
    stripped of its Gauss sums (``_twisted_factors``' rat * rou).  Every psi of
    ``_level_characters`` is even and ``LevelParams`` forces k to be even, so
    S(psi, -d) = psi(-1) S(psi, d) = S(psi, d) (substitute w -> -w), the two
    sums share their Gauss sums, and W(psi) = 2 sum_d d^(k-1) S*(psi, d): one
    closed form per (psi, d).
    """
    if lpp < 1:
        raise ValueError("the constant term is handled separately")
    M = params.modulus
    k = params.k
    divisors = [d for d in range(1, lpp + 1) if lpp % d == 0]
    acc = CyclotomicNumber.from_rational(0)
    for psi, factor in _level_characters(params):
        # W(psi) = 2 sum_d d^(k-1) S*(psi, d), as psi and k are even
        w_acc = CyclotomicNumber.from_rational(0, psi.value_order)
        for d in divisors:
            core = _twisted_factors(psi, d)
            if core is not None:
                rat, rou, _ = core
                w_acc = w_acc + rou * (2 * d ** (k - 1) * rat)
        if not w_acc.is_zero():
            acc = acc + w_acc * factor
    scale = Fraction(-2 * k, euler_phi(M))
    if params.j == 0:
        scale /= 2
    return acc * scale


# ---------------------------------------------------------------------------
# higher coefficients, analytic route (independent of all special-value formulas)


def higher_coeffs_analytic(
    params: LevelParams, lpps: tuple[int, ...], prec: int = 128, terms: int | None = None
) -> list[Ball]:
    """Coefficients of q^lpp from truncated Moebius series, one pass for all lpps.

    (1/2) sum over units v = +-1 mod p^j, units n, of zeta_plus^n(k)
    (-2 pi i)^k / ((k-1)! M^k) sigma_(k-1)^((0, n^(-1) v))(M lpp), with
    zeta_plus^n(k) = sum_(m = n mod M) mu(m) m^(-k) summed to ``terms``.

    Everything up to one rounding runs on integers at F = prec + 48 bits (the
    working precision w = prec + 16, plus 32 bits).  The terms are the
    integers nearest mu(m) 2^F m^(-k) (``mobius_terms``), so a bucket of n
    terms sums exactly to within n/2 of 2^F times its truncated series.  The
    buckets mod p^j of the m prime to M come from ``mobius_buckets``, which
    sums buckets cached per (terms, k, F, p^j, g) by inclusion-exclusion over
    the squarefree g | N, so levels that share a prime of N share its terms;
    they are the same integers, summed exactly.  The
    v-range is the subgroup H = {v = +-1 mod p^j}, so the zeta_plus mass seen
    from a unit u is the sum over the coset u^(-1) H: the buckets mod p^j at
    +-u^(-1), one integer mass W_c per coset c (a single one at j = 0).  The
    divisor sum of u is sum_d d^(k-1) (e(u d/M) + e(-u d/M)), twice
    sum_d d^(k-1) cos(2 pi u d/M), so with the integers cos[t] nearest
    2^F cos(2 pi t/M) (``fixed_root_table``) a coset's sum is the integer
    C_c = sum_d d^(k-1) sum_(u in c) cos[u d mod M], and the coefficient is
    kappa 2^(-2F) sum_c W_c C_c, kappa = (-2 pi i)^k / ((k-1)! M^k), real as k
    is even.  That integer is summed per divisor, as
    sum_d d^(k-1) (sum_c W_c sum_(u in c) cos[u d mod M]), whose inner sums
    the lpps share; it is rounded once, to an mpf at w bits, and multiplied
    by kappa, computed at w + 16 bits.  This coset sum is kept apart from
    ``arith._root_sum``, the dot product behind ``TruncatedSeries``: it
    reads the cosines alone, and it multiplies each coset's mass once, by
    the integer sum of its cosines.  Adding the masses per residue u d mod M
    first, one weight per root as ``_root_sum`` takes them, would instead
    multiply all M cosines per divisor, and made the analytic sweep slower.

    The returned radius is proved.  Write Z_c and S_c for the exact coset mass
    and sum_d d^(k-1) sum_(u in c) cos(2 pi u d/M), sigma = sigma_(k-1)(lpp),
    |c| the units in c (phi(M) in all), T = ``terms``.  As |mu| <= 1,
    |W_c - 2^F Z_c| <= 2^F E with E = T^(1-k)/(k-1) + T 2^(-F-1) (the
    truncation tail and the term roundings), and |Z_c| < zeta(k) < 2.  Each
    cos[t] is within one unit of its target, so |C_c - 2^F S_c| <= |c| sigma
    and |C_c| <= |c| sigma (2^F + 1).  Hence
    |sum_c W_c C_c - 2^(2F) sum_c Z_c S_c| <= 2^(2F) phi(M) sigma e_m with
    e_m = E (1 + 2^(-F)) + 2^(1-F) <= E + 2^(2-F), as E < 1 for every
    T < 2^(F-1).  The coefficient is kappa sum_c Z_c S_c, whose sum is at
    most 2 phi(M) sigma, so the integer sum 2^(-2F) sum_c W_c C_c is at most
    3 phi(M) sigma.  pi, the power (``_two_pi_power``) and the quotient of
    kappa are rounded once each at w + 16 bits, so kappa's relative error
    is below (2k + 4) 2^(-w-16); with the rounding of the
    integer sum to w bits and of the product, that adds at most
    3 (2 + (2k + 5) 2^(-16)) 2^(-w) phi(M) sigma |kappa|, and the radius is
    phi(M) sigma |kappa| (E + 2^(2-F) + 3 (2 + (2k + 5) 2^(-16)) 2^(-w)).
    ``Ball.from_mpc`` adds the rounding to ``prec`` bits.
    """
    M = params.modulus
    k = params.k
    q = params.p**params.j
    if terms is None:
        # each bucket tail is below terms^(1-k)/(k-1); enough for ~1e-12 absolute
        terms = 20000 if k <= 4 else 4000
    units = _unit_group(M).units
    phi = len(units)
    w = prec + 16
    F = w + 32
    W = mobius_buckets(terms, k, F, M, q)
    cos, _ = fixed_root_table(M, F)
    cosets = {}  # +-c mod q -> the coset's units u (u^(-1) = +-c) and its integer mass
    for u in units:
        c = pow(u, -1, q)
        key = min(c, -c % q)
        if key not in cosets:
            cosets[key] = ([], sum(W[t] for t in {c, -c % q}))
        cosets[key][0].append(u)
    kappa = mpf_div(_two_pi_power(k, w + 16).mid.real._mpf_, from_int(factorial(k - 1) * M**k), w + 16, round_nearest)
    if k // 2 % 2:
        kappa = mpf_neg(kappa)
    mass_err = terms ** (1 - k) / (k - 1) + terms * 2.0 ** (-F - 1) + 2.0 ** (2 - F)
    rounding = 3 * (2 + (2 * k + 5) * 2.0**-16) * 2.0**-w
    by_divisor = {}  # d -> sum_c W_c sum_(u in c) cos[u d mod M]
    out = []
    for lpp in lpps:
        divisors = [d for d in range(1, lpp + 1) if lpp % d == 0]
        for d in divisors:
            if d not in by_divisor:
                by_divisor[d] = sum(mass * sum(cos[u * d % M] for u in ws) for ws, mass in cosets.values())
        total = sum(d ** (k - 1) * by_divisor[d] for d in divisors)
        sigma = sum(d ** (k - 1) for d in divisors)
        rad = phi * sigma * abs(to_float(kappa, rnd=round_nearest)) * (mass_err + rounding)
        value = mpf_mul(from_man_exp(total, -2 * F, w, round_nearest), kappa, w, round_nearest)
        out.append(Ball.from_mpc(mp.make_mpc((value, fzero)), prec, rad))
    return out


# ---------------------------------------------------------------------------
# classical reduction at j = 0 and assembled expansions


def classical_reduction(params: LevelParams, T: int) -> "QExpansion":
    """j = 0 expansion by the divisor-sum closed form (no character machinery).

    a_n = -(2k/B_k) prod_(q|N) (1 - q^(-k))^(-1)
          sum_(g|N) mu(g) g^(-k) sigma_(k-1)^((N/g))(n),
    where sigma^((A))(n) sums m^(k-1) over m | n with A | n/m; a_0 = 1.
    """
    if params.j != 0:
        raise ValueError("classical reduction applies at j = 0 only")
    N, k = params.N, params.k
    coeffs = [CyclotomicNumber.from_rational(1)]
    bk = bernoulli_number(k)
    scale = Fraction(-2 * k) / bk
    for q, _ in factorize(N):
        scale /= 1 - Fraction(1, q**k)
    mob = ArithTables(max(N, 1))
    for n in range(1, T + 1):
        acc = Fraction(0)
        for g in range(1, N + 1):
            if N % g:
                continue
            mu = mob.mobius(g)
            if not mu:
                continue
            A = N // g
            s = Fraction(0)
            for mdiv in range(1, n + 1):
                if n % mdiv == 0 and (n // mdiv) % A == 0:
                    s += Fraction(mdiv) ** (k - 1)
            acc += Fraction(mu, g**k) * s
        coeffs.append(CyclotomicNumber.from_rational(scale * acc))
    return QExpansion(params, coeffs, _p_denominator_exponent(coeffs, params.p))


@dataclass(frozen=True)
class QExpansion:
    params: LevelParams
    coeffs: list[CyclotomicNumber]
    c_j: int


def _p_denominator_exponent(coeffs, p: int) -> int:
    worst = 0
    for c in coeffs:
        v = _vp_min(c.num, c.den, p)
        if v < 0:
            worst = max(worst, -int(v))
    return worst


def qexpansion(params: LevelParams, T: int) -> QExpansion:
    """Full expansion to T terms: constant term plus exact higher coefficients.

    Reports the worst p-power denominator exponent across the coefficient
    vectors (an empirical measurement; no formula is claimed for it).
    """
    if T < 0:
        raise ValueError(f"need T >= 0 terms, got {T}")
    if params.j == 0:
        exp = classical_reduction(params, T)
        a0 = constant_term(params)
        if a0 != exp.coeffs[0]:
            raise AssertionError("constant-term routes disagree at j = 0")
        return exp
    coeffs = [constant_term(params)]
    for lpp in range(1, T + 1):
        coeffs.append(higher_coeff_exact(params, lpp))
    return QExpansion(params, coeffs, _p_denominator_exponent(coeffs, params.p))


def dump_qexpansion(exp: QExpansion) -> str:
    """Export record: header, then one line per coefficient vector."""
    p = exp.params
    lines = [f"N {p.N}", f"p {p.p}", f"j {p.j}", f"k {p.k}", f"c_j {exp.c_j}"]
    for n, c in enumerate(exp.coeffs):
        vec = " ".join(map(str, c.coeffs))
        lines.append(f"a {n} {c.order} {vec}")
    return "\n".join(lines) + "\n"
