import hashlib
import json
import random
from fractions import Fraction as F
from math import factorial, gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from asaikit.arith import (
    ArithTables,
    Ball,
    CyclotomicNumber,
    bernoulli_number,
    euler_phi,
    fixed_root_table,
    mobius_buckets,
)
from asaikit.asai import FUNDAMENTAL_D, QuadFieldData
from asaikit.characters import _components, _galois_orbits, _unit_group, enumerate_characters, gauss_sum, unit_sum_twisted
from asaikit import cli, eisenstein
from asaikit.cohomology import QuadCoeff
from asaikit.eisenstein import (
    IntMatrix2,
    _check_orthogonality,
    _level_characters,
    LevelParams,
    classical_reduction,
    constant_term,
    dump_qexpansion,
    enumerate_lambda,
    higher_coeff_exact,
    higher_coeffs_analytic,
    membership_two_ways,
    qexpansion,
)
from tests.conftest import load_bench_workloads


def random_sl2(rng, steps=8):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b = a + t * c, b + t * d
        else:
            c, d = c + t * a, d + t * b
    return IntMatrix2(a, b, c, d)


def member_of(params, rng):
    """A matrix of the level's group: (c, d) drawn as enumerate_lambda lists them, with
    c = 0 mod N p^(2j) and d = +-1 mod p^j, then a = d^(-1) mod c and b by Bezout, so
    a = d mod p^j; a column operation then moves (a, b)."""
    q = params.p**params.j
    while True:
        c = params.modulus * rng.randint(-3, 3)
        d = rng.choice((1, -1)) + q * rng.randint(-5, 5)
        if gcd(c, d) == 1:
            break
    if c == 0:
        a, b = d, rng.randint(-9, 9)
    else:
        a = pow(d, -1, abs(c))
        b = (a * d - 1) // c
    t = rng.randint(-3, 3)
    return IntMatrix2(a + t * c, b + t * d, c, d)


def membership_by_fractions(params, gamma, D, a_rep):
    """The conjugation path term by term on Fractions: beta and the entries built through
    QuadCoeff's Fraction constructor, and integrality read from the rational parts x and y.
    Returns the four conjugated entries and whether each is integral."""
    q = params.p**params.j
    beta = QuadCoeff(F(0), F(a_rep, 2 * q), D)
    a, b, c, d = (QuadCoeff(F(x), F(0), D) for x in (gamma.a, gamma.b, gamma.c, gamma.d))
    e11 = a + c * beta
    entries = (e11, b + d * beta - e11 * beta, c, d - c * beta)

    def integral(e):
        x, y = e.x, e.y
        if D % 4 == 0:  # O = Z + Z sqrt(-D)/2
            return x.denominator == 1 and (2 * y).denominator == 1
        tx, ty = 2 * x, 2 * y  # -D = 1 mod 4: O = Z[(1 + sqrt(-D))/2]
        return tx.denominator == 1 and ty.denominator == 1 and (tx - ty) % 2 == 0

    return entries, [integral(e) for e in entries]


def sl2_box(h):
    """Every matrix of SL2(Z) with entries of absolute value at most h."""
    r = range(-h, h + 1)
    return [IntMatrix2(a, b, c, d) for a in r for b in r for c in r for d in r if a * d - b * c == 1]


SL2_BOX = sl2_box(10)
# the levels of verify's membership-dual-path row
ROW_LEVELS = (LevelParams(1, 3, 1, 4), LevelParams(2, 3, 1, 4), LevelParams(1, 5, 1, 4), LevelParams(4, 3, 0, 4))
TRUE_CONJUGATE = eisenstein._conjugate


def conjugate_without_cDa2(gamma, a_rep, s, D):
    """The conjugate with the c D a_rep^2 term of e12 dropped."""
    e11, (x, y), e21, e22 = TRUE_CONJUGATE(gamma, a_rep, s, D)
    return e11, (x - gamma.c * D * a_rep * a_rep, y), e21, e22


def conjugate_both_sides(gamma, a_rep, s, D):
    """(s gamma_beta) gamma (s gamma_beta) in place of (s gamma_beta) gamma (s gamma_beta^(-1))."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    ss, sa = s * s, s * a_rep
    return (a * ss, c * sa), (b * ss - c * D * a_rep * a_rep, (a + d) * sa), (c * ss, 0), (d * ss, c * sa)


class TestLevelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelParams(1, 4, 1, 4)  # p not prime
        with pytest.raises(ValueError):
            LevelParams(3, 3, 1, 4)  # p | N
        with pytest.raises(ValueError):
            LevelParams(1, 3, 1, 5)  # odd weight
        with pytest.raises(ValueError):
            LevelParams(1, 3, 1, 2)  # weight 2 out of range
        assert LevelParams(2, 3, 1, 4).modulus == 18


class TestMembership:
    def test_known_members(self):
        params = LevelParams(2, 3, 1, 4)
        assert membership_two_ways(params, IntMatrix2(1, 1, 0, 1)) == (True, True)
        M = params.modulus
        assert membership_two_ways(params, IntMatrix2(1, 0, M, 1)) == (True, True)

    def test_shallow_level_rejected(self):
        params = LevelParams(1, 3, 1, 4)
        got = membership_two_ways(params, IntMatrix2(1, 0, 3, 1))
        assert got == (False, False)

    def test_dual_paths_agree_random(self):
        rng = random.Random(0)
        for params in (
            LevelParams(1, 3, 1, 4),
            LevelParams(2, 3, 1, 4),
            LevelParams(1, 5, 1, 4),
            LevelParams(1, 3, 2, 4),
            LevelParams(4, 3, 0, 4),
        ):
            for _ in range(400):
                g = random_sl2(rng)
                fml, conj = membership_two_ways(params, g)
                assert fml == conj, (params, g)

    def test_translation_numerator_independence(self):
        rng = random.Random(1)
        params = LevelParams(1, 5, 1, 4)
        for _ in range(100):
            g = random_sl2(rng)
            answers = {
                membership_two_ways(params, g, a_rep=a)[1] for a in (2, 4, 8, 12)
            }
            assert len(answers) == 1

    @pytest.mark.parametrize("D", FUNDAMENTAL_D)
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        j=st.sampled_from((0, 1, 2)),
        member=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_integer_path_equals_fraction_reference(self, D, data, j, member, seed):
        # p, N and the unit are drawn prime to D, p and p: an assume() on them filtered
        # so many draws that Hypothesis' filter_too_much health check failed now and then
        p = data.draw(st.sampled_from([p for p in (3, 5, 7) if D % p]))
        N = data.draw(st.sampled_from([N for N in (1, 2, 4, 7) if N % p]))
        unit = data.draw(st.sampled_from([u for u in range(1, 61) if u % p]))
        params = LevelParams(N, p, j, 4)
        rng = random.Random(seed)
        g = member_of(params, rng) if member else random_sl2(rng)
        a_rep = 2 * unit
        entries, integral = membership_by_fractions(params, g, D, a_rep)
        field = QuadFieldData(D)
        assert [field.is_integral(e.a, e.b, e.den) for e in entries] == integral
        q = p**j
        want = ((g.a - g.d) % q == 0 and g.c % (N * q * q) == 0, all(integral) and g.c % N == 0)
        assert membership_two_ways(params, g, D=D, a_rep=a_rep) == want
        assert want[0] == want[1] and (want[0] or not member)

    @pytest.mark.parametrize("D", FUNDAMENTAL_D)
    def test_box_equals_fraction_reference(self, D):
        # exhaustive over |entries| <= 10 at the row's levels: the integer conjugate, reduced,
        # is the Fraction reference's entry, and the verdicts agree
        field = QuadFieldData(D)
        for params in ROW_LEVELS:
            s = 2 * params.p**params.j
            a_rep = 2 if params.j else 0
            for g in SL2_BOX:
                entries, integral = membership_by_fractions(params, g, D, a_rep)
                reduced = []
                for x, y in eisenstein._conjugate(g, a_rep, s, D):
                    h = gcd(x, y, s * s)
                    reduced.append((x // h, y // h, s * s // h))
                assert reduced == [(e.a, e.b, e.den) for e in entries]
                assert [field.is_integral(*e) for e in reduced] == integral
                assert membership_two_ways(params, g, D=D)[1] == (all(integral) and g.c % params.N == 0)

    @pytest.mark.parametrize("D, a_rep", [(7, 1), (11, 3)])
    def test_odd_numerator_rejected_at_j0(self, D, a_rep):
        # an odd numerator made the routes disagree here: (True, False)
        with pytest.raises(ValueError):
            membership_two_ways(LevelParams(1, 3, 0, 4), IntMatrix2(1, 0, 1, 1), D=D, a_rep=a_rep)

    @pytest.mark.parametrize("D", FUNDAMENTAL_D)
    def test_even_numerators_agree_at_j0(self, D):
        for params in (LevelParams(1, 3, 0, 4), LevelParams(4, 5, 0, 4)):
            for g in sl2_box(4):
                for a_rep in (0, 2, 4):
                    fml, conj = membership_two_ways(params, g, D=D, a_rep=a_rep)
                    assert fml == conj, (params, g, a_rep)

    @pytest.mark.parametrize("wrong", [conjugate_without_cDa2, conjugate_both_sides], ids=["no-cDa2", "both-sides"])
    def test_row_fails_on_a_wrong_conjugation(self, wrong, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(eisenstein, "_conjugate", wrong)
        cache = tmp_path / "c.json"
        assert cli.main(["verify", "eisenstein", "--seed", "0", "--cache", str(cache)]) == 1
        rows = {r["name"]: r["status"] for r in json.loads(cache.read_text())["results"]}
        assert rows.pop("membership-dual-path") == "fail"
        # lambda-bijection asks the conjugation criterion too; the other rows do not
        rows.pop("lambda-bijection")
        assert set(rows.values()) == {"pass"}

    def test_discriminant_independence(self):
        rng = random.Random(2)
        params = LevelParams(1, 3, 1, 4)
        for _ in range(100):
            g = random_sl2(rng)
            answers = {membership_two_ways(params, g, D=D)[1] for D in (4, 7, 8, 11, 20)}
            assert len(answers) == 1


class TestLambda:
    def test_contains_origin_coset(self):
        params = LevelParams(1, 3, 1, 4)
        assert (0, 1) in enumerate_lambda(params, 5)

    @staticmethod
    def _by_conjugation(params, height):
        """Coprime (c, d) with c = 0 mod M, one per +-pair, whose completion to SL2(Z) passes the conjugation criterion.

        Any completion will do: a = d^(-1) mod p^j is fixed and a moves only by multiples of c.
        """
        out = set()
        for c in range(0, height + 1, params.modulus):
            for d in range(-height if c else 1, height + 1):
                if gcd(c, d) == 1:
                    a, b = cli._complete_sl2(c, d)
                    if membership_two_ways(params, IntMatrix2(a, b, c, d))[1]:
                        out.add((c, d))
        return out

    CASES = ((LevelParams(2, 3, 1, 4), 40), (LevelParams(1, 5, 1, 4), 60))

    def test_brute_force_filter(self):
        for params, height in self.CASES:
            assert set(eisenstein.enumerate_lambda(params, height)) == self._by_conjugation(params, height)

    @pytest.mark.parametrize("wrong", ("no d-condition", "d = 1 only"))
    def test_wrong_d_condition_fails(self, wrong, monkeypatch):
        # at p^j = 3 every d prime to c is +-1 mod 3, so only the level p = 5 catches a dropped d-condition
        def enumerate_wrong(params, height):
            q = params.p**params.j
            pairs = set()
            for c in range(0, height + 1, params.modulus):
                for d in range(-height if c else 1, height + 1):
                    if gcd(c, d) == 1 and (wrong == "no d-condition" or (d - 1) % q == 0):
                        pairs.add((c, d))
            return sorted(pairs)

        if wrong == "no d-condition":
            assert enumerate_wrong(*self.CASES[0]) == eisenstein.enumerate_lambda(*self.CASES[0])
        monkeypatch.setattr(eisenstein, "enumerate_lambda", enumerate_wrong)
        with pytest.raises(AssertionError):
            self.test_brute_force_filter()

    def test_j0_all_coprime_pairs(self):
        params = LevelParams(1, 3, 0, 4)
        lam = enumerate_lambda(params, 2)
        brute = set()
        for c in range(-2, 3):
            for d in range(-2, 3):
                if (c, d) != (0, 0) and gcd(c, d) == 1:
                    brute.add((c, d) if (c > 0 or (c == 0 and d > 0)) else (-c, -d))
        assert set(lam) == brute


class TestConstantTerm:
    def test_equals_one(self):
        for (N, p, j, k) in ((1, 3, 1, 4), (6, 5, 1, 4), (1, 3, 0, 4), (2, 3, 2, 4), (11, 3, 1, 6)):
            assert constant_term(LevelParams(N, p, j, k)) == 1


class TestOrthogonality:
    @pytest.mark.parametrize("M", (9, 45, 125))
    def test_corrupted_representative_fails(self, M, monkeypatch):
        # one sum per Galois orbit: a representative whose table is off by one entry must be caught
        _check_orthogonality.__wrapped__(M)
        reps = [ch for ch in enumerate_characters(M) if _galois_orbits(M)[ch.exps][0] is ch]
        assert len(reps) < len(enumerate_characters(M))
        u = _unit_group(M).units[-1]
        for rep in reps:
            table = list(rep._table)
            table[u] = None if rep.is_trivial else (table[u] + 1) % rep.value_order
            with monkeypatch.context() as m:
                m.setattr(rep, "_table", table)
                with pytest.raises(AssertionError):
                    _check_orthogonality.__wrapped__(M)
        _check_orthogonality.__wrapped__(M)


class TestHigherCoefficients:
    def test_matches_analytic(self):
        params = LevelParams(1, 3, 1, 4)
        for lpp, a in zip((1, 2, 3, 4), higher_coeffs_analytic(params, (1, 2, 3, 4), 128)):
            e = higher_coeff_exact(params, lpp)
            with mp.workprec(160):
                assert abs(e.embed(128).to_mpc() - a.to_mpc()) < 1e-10, lpp

    def test_matches_classical_at_j0(self):
        for N in (1, 2, 6):
            params = LevelParams(N, 7, 0, 4)
            cl = classical_reduction(params, 4)
            for lpp in range(1, 5):
                assert higher_coeff_exact(params, lpp) == cl.coeffs[lpp]

    def test_galois_stability(self):
        # automorphisms fixing the level data fix every coefficient
        from math import gcd, lcm
        for (N, p, j) in ((1, 3, 1), (2, 3, 1), (1, 5, 1)):
            params = LevelParams(N, p, j, 4)
            M = params.modulus
            for lpp in (1, 2, 3):
                c = higher_coeff_exact(params, lpp)
                g = gcd(c.order, M)
                for t in range(1, c.order):
                    if gcd(t, c.order) == 1 and t % g == 1 % g:
                        assert c.galois(t) == c, (N, p, j, lpp, t)

    def test_real_and_conjugation_stable(self):
        # complex conjugation fixes every coefficient
        params = LevelParams(2, 3, 1, 4)
        for lpp in (1, 2, 3):
            c = higher_coeff_exact(params, lpp)
            assert c.conjugate() == c

    @pytest.mark.parametrize("k", (4, 6))
    def test_one_sign_per_divisor(self, k):
        """higher_coeff_exact equals its sum with the signed divisor sum
        W(psi) = sum_d d^(k-1) (S*(psi, d) + (-1)^k S*(psi, -d)) over both signs, each
        S*(psi, b) taken from unit_sum_twisted with its Gauss sums divided out by
        1/G(chi0) = chi0(-1) G(chi0bar) / C."""

        def stripped(psi, b):
            s = unit_sum_twisted(psi, b)
            for _, _, chi_q in _components(psi):
                chi0 = chi_q.primitive()
                if chi0.modulus > 1:
                    s = s * gauss_sum(chi0.inverse()) * chi0.value(-1) * F(1, chi0.modulus)
            return s

        for N, p, j in ((1, 3, 1), (4, 3, 1), (1, 5, 1), (1, 7, 1), (1, 3, 2), (10, 3, 0)):
            params = LevelParams(N, p, j, k)
            scale = F(-2 * k, euler_phi(params.modulus)) / (2 if j == 0 else 1)
            for lpp in (1, 2, 3, 6):
                want = CyclotomicNumber.from_rational(0)
                for psi, factor in _level_characters(params):
                    for d in (d for d in range(1, lpp + 1) if lpp % d == 0):
                        two_signs = stripped(psi, d) + stripped(psi, -d) * (-1) ** k
                        want = want + two_signs * factor * d ** (k - 1)
                assert higher_coeff_exact(params, lpp) == want * scale, (params, lpp)

    def test_constant_term_not_here(self):
        with pytest.raises(ValueError):
            higher_coeff_exact(LevelParams(1, 3, 1, 4), 0)

    def test_analytic_converges(self):
        params = LevelParams(1, 3, 1, 4)
        [a1] = higher_coeffs_analytic(params, (3,), 96, terms=2000)
        [a2] = higher_coeffs_analytic(params, (3,), 96, terms=20000)
        e = higher_coeff_exact(params, 3).embed(96)
        with mp.workprec(120):
            gap1 = abs(a1.to_mpc() - e.to_mpc())
            gap2 = abs(a2.to_mpc() - e.to_mpc())
        assert gap2 < gap1 or gap2 < 1e-20


def _per_unit_oracle(params, lpps, prec, terms):
    """The Moebius series with mpf power terms and mpf buckets mod M, the
    zeta_plus mass of every unit w summed bucket by bucket over the v-range."""
    M, k, q = params.modulus, params.k, params.p**params.j
    units = [u for u in range(M) if gcd(u, M) == 1]
    vs = [v for v in units if (v - 1) % q == 0 or (v + 1) % q == 0]
    mob = ArithTables(terms)
    with mp.workprec(prec + 16):
        zeta_plus = [mpmath.mpf(0)] * M
        for m in range(1, terms + 1):
            if mob.mobius(m) and gcd(m, M) == 1:
                zeta_plus[m % M] += mob.mobius(m) * mpmath.mpf(m) ** -k
        zmass = {w: sum(zeta_plus[v * pow(w, -1, M) % M] for v in vs) for w in units}
        kappa = (-2j * mpmath.pi) ** k / (mpmath.factorial(k - 1) * mpmath.mpf(M) ** k)
        out = []
        for lpp in lpps:
            total = mpmath.mpc(0)
            for w in units:
                for d in (d for d in range(1, lpp + 1) if lpp % d == 0):
                    e = mpmath.expjpi(2 * mpmath.mpf(w * d % M) / M)
                    total += zmass[w] * mpmath.mpf(d) ** (k - 1) * (e + (-1) ** k / e)
            out.append(total * kappa / 2)
    return out


def _parent_analytic(params, lpps, prec, terms):
    """``higher_coeffs_analytic`` with kappa and the product rounded at mpmath's working
    precision, the formula the libmp evaluation replaced: (mid, rad) per lpp."""
    M, k, q = params.modulus, params.k, params.p**params.j
    units = _unit_group(M).units
    w = prec + 16
    F = w + 32
    W = mobius_buckets(terms, k, F, M, q)
    cos, _ = fixed_root_table(M, F)
    mass = {u: sum(W[t] for t in {pow(u, -1, q), -pow(u, -1, q) % q}) for u in units}
    with mp.workprec(w + 16):
        kappa = (-1) ** (k // 2) * (2 * mpmath.pi) ** k / (factorial(k - 1) * M**k)
    mass_err = terms ** (1 - k) / (k - 1) + terms * 2.0 ** (-F - 1) + 2.0 ** (2 - F)
    rounding = 3 * (2 + (2 * k + 5) * 2.0**-16) * 2.0**-w
    out = []
    for lpp in lpps:
        divisors = [d for d in range(1, lpp + 1) if lpp % d == 0]
        total = sum(d ** (k - 1) * mass[u] * cos[u * d % M] for d in divisors for u in units)
        sigma = sum(d ** (k - 1) for d in divisors)
        rad = len(units) * sigma * float(abs(kappa)) * (mass_err + rounding)
        with mp.workprec(w):
            value = mpmath.mpc(mpmath.mpf((total, -2 * F)) * kappa)
        ball = Ball.from_mpc(value, prec, rad)
        out.append((ball.mid._mpc_, ball.rad))
    return out


@pytest.mark.parametrize("prec", [64, 144, 1016])
@pytest.mark.parametrize("level", [(1, 3, 1, 4), (2, 3, 1, 6), (1, 5, 1, 8), (1, 3, 2, 4)])
def test_analytic_matches_the_mpmath_formula(level, prec):
    params = LevelParams(*level)
    got = higher_coeffs_analytic(params, (1, 2, 3, 6), prec, terms=500)
    assert [(b.mid._mpc_, b.rad) for b in got] == _parent_analytic(params, (1, 2, 3, 6), prec, 500)
    assert all(b.prec == prec for b in got)


class TestAnalyticCosetMass:
    """Integer buckets with one mass per coset against the per-unit mpf formula.

    Criterion 07's 1e-8 tolerance cannot see a regrouping error; every level
    has a coefficient of size at least 1e-4, so a wrong coset shows.
    """

    @pytest.mark.parametrize(
        "level, lpps",
        [((7, 3, 0, 4), (1, 2, 3)), ((1, 3, 1, 4), (1, 3, 6)), ((2, 5, 1, 6), (1, 5)), ((1, 3, 2, 4), (1, 9))],
        ids=["j0-one-coset", "j1-one-coset", "two-cosets", "three-cosets"],
    )
    def test_matches_per_unit_oracle(self, level, lpps):
        params = LevelParams(*level)
        got = higher_coeffs_analytic(params, lpps, 128, terms=2000)
        want = _per_unit_oracle(params, lpps, 128, 2000)
        assert max(abs(w) for w in want) > 1e-4
        with mp.workprec(160):
            for lpp, g, w in zip(lpps, got, want):
                assert abs(g.to_mpc() - w) <= 1e-35 * max(1, abs(w)), lpp


def _bench_level_grid(j):
    """Criterion 07's levels (N, p, k) at j, as the benchmark draws them."""
    return load_bench_workloads()._level_grid(j)


class TestAnalyticRadius:
    """The proved radius of the Moebius route encloses the exact route's coefficient."""

    @pytest.mark.parametrize("j", [0, 1])
    def test_radius_encloses_exact_route(self, j):
        lpps = (1, 2, 3, 4, 5)
        for N, p, k in _bench_level_grid(j):
            params = LevelParams(N, p, j, k)
            if j:
                exact = [higher_coeff_exact(params, lpp) for lpp in lpps]
            else:
                exact = classical_reduction(params, len(lpps)).coeffs[1:]
            for lpp, e, a in zip(lpps, exact, higher_coeffs_analytic(params, lpps, 128)):
                with mp.workprec(200):
                    want = e.embed(200)
                    gap = abs(want.to_mpc() - a.to_mpc())
                    size = max(1, abs(a.to_mpc()))
                assert gap + want.rad <= a.rad, (N, p, k, lpp)
                # the bound alone meets criterion 07's tolerance
                assert a.rad <= 1e-8 * size, (N, p, k, lpp)


def _criterion_07_levels():
    """Criterion 07's j >= 1 levels (N, p, j, k), in its order."""
    return [LevelParams(N, p, j, k) for j in (1, 2) for N, p, k in _bench_level_grid(j)]


class TestLevelCharacters:
    """higher_coeff_exact sums over the even psi with T(psi) != 0 only."""

    def test_survivors_are_trivial_on_H(self):
        # T(psi) = sum of psi over H = {v = 1 mod p^j}, summed in full for every even psi
        for params in _criterion_07_levels():
            M, q = params.modulus, params.p**params.j
            H = [v for v in _unit_group(M).units if (v - 1) % q == 0]
            survivors = {psi for psi, _ in _level_characters(params)}
            for psi in enumerate_characters(M):
                if not psi.is_even:
                    continue
                hist = {}
                for v in H:
                    t = psi.exponent_of(v)
                    hist[t] = hist.get(t, 0) + 1
                t_sum = CyclotomicNumber.from_exponents(psi.value_order, hist)
                trivial = all(psi.exponent_of(v) == 0 for v in H)
                assert (not t_sum.is_zero()) == trivial == (psi in survivors), (params, psi)
                if trivial:
                    assert t_sum == len(H)
            assert len(survivors) == euler_phi(q) // 2, params

    def test_survivors_equal_the_v_range_scan(self):
        """On every level N p^(2j) <= 200, j <= 2: the psi kept by conductor(psi) | p^j are the
        even psi trivial on H = {v = 1 mod p^j}, and |H| = phi(M)/phi(p^j)."""
        levels = [(N, next(p for p in (3, 5, 7, 11) if N % p), 0) for N in range(1, 201)]
        levels += [(N, p, j) for j in (1, 2) for p in (3, 5, 7, 11, 13) for N in range(1, 200 // p ** (2 * j) + 1) if N % p]
        for N, p, j in levels:
            params = LevelParams(N, p, j, 4)
            M, q = params.modulus, p**j
            H = [v for v in _unit_group(M).units if (v - 1) % q == 0]
            scanned = [psi for psi in enumerate_characters(M) if psi.is_even and all(psi.exponent_of(v) == 0 for v in H)]
            assert [psi for psi, _ in _level_characters(params)] == scanned, params
            assert len(H) == euler_phi(M) // euler_phi(q), params

    def test_coefficients_pinned(self):
        """higher_coeff_exact for l'' = 1..5 over criterion 07's j >= 1 levels, hashed as the
        sum over every even psi gave them, representation (order, num, den) included."""
        h = hashlib.sha256()
        for params in _criterion_07_levels():
            for lpp in range(1, 6):
                c = higher_coeff_exact(params, lpp)
                h.update(repr((params.N, params.p, params.j, params.k, lpp, c.order, c.num, c.den)).encode())
        assert h.hexdigest() == "0153c53eb32bc6088175341dca5dad6d5d07b0613a3b06e0138e531a1406ddbe"


class TestClassicalReduction:
    def test_weight_4(self):
        # oracle: 1 - (2k/B_k) sum sigma_(k-1)(n) q^n with a divisor-sum loop
        exp = classical_reduction(LevelParams(1, 3, 0, 4), 5)
        scale = -8 / bernoulli_number(4)
        for n in range(1, 6):
            sig = sum(d**3 for d in range(1, n + 1) if n % d == 0)
            assert exp.coeffs[n].as_rational() == scale * sig
        assert [c.as_rational() for c in exp.coeffs[:4]] == [1, 240, 2160, 6720]

    def test_weight_6(self):
        exp = classical_reduction(LevelParams(1, 3, 0, 6), 2)
        assert [c.as_rational() for c in exp.coeffs] == [1, -504, -16632]

    def test_coefficients_rational(self):
        exp = classical_reduction(LevelParams(6, 5, 0, 4), 6)
        for c in exp.coeffs:
            assert c.is_rational()

    def test_wrong_level_rejected(self):
        with pytest.raises(ValueError):
            classical_reduction(LevelParams(1, 3, 1, 4), 3)


class TestQExpansion:
    def test_j0_equals_classical(self):
        exp = qexpansion(LevelParams(1, 5, 0, 4), 4)
        cl = classical_reduction(LevelParams(1, 5, 0, 4), 4)
        assert exp.coeffs == cl.coeffs

    def test_header_and_denominator_report(self):
        exp = qexpansion(LevelParams(1, 3, 1, 4), 3)
        assert exp.coeffs[0] == 1
        assert exp.c_j >= 0
        text = dump_qexpansion(exp)
        assert text.startswith("N 1\np 3\nj 1\nk 4\n")

    def test_classical_integrality(self):
        exp = qexpansion(LevelParams(1, 5, 0, 4), 8)
        assert exp.c_j == 0


class TestGolden:
    """Exact outputs pinned before the character sums were merged into one implementation.

    M = 18, 100 and 169: two and three CRT components, and the largest modulus.
    """

    DUMPS = {
        (2, 3, 1, 4): "N 2\np 3\nj 1\nk 4\nc_j 0\na 0 1 1\na 1 1 0\na 2 1 0\na 3 1 1/5\na 4 1 0\n",
        (4, 5, 1, 6): "N 4\np 5\nj 1\nk 6\nc_j 0\na 0 1 1\na 1 1 0\na 2 1 0\na 3 1 0\na 4 1 0\n",
        (1, 13, 1, 4): "N 1\np 13\nj 1\nk 4\nc_j 0\na 0 1 1\na 1 1 0\na 2 1 0\na 3 1 0\na 4 1 0\n",
    }

    # nonzero coefficients further out: (level, l'') -> (order, coefficient vector)
    COEFFS = {
        ((2, 3, 1, 4), 6): (1, (F(-7, 5),)),
        ((4, 5, 1, 6), 10): (2, (F(-1412, 1701063),)),
        ((4, 5, 1, 6), 20): (2, (F(-604, 54873),)),
        ((1, 13, 1, 4), 13): (6, (F(93252591, 5385468403), F(0))),
        ((1, 13, 1, 4), 26): (6, (F(501986111, 5385468403), F(0))),
    }

    @pytest.mark.parametrize("level", sorted(DUMPS))
    def test_dump(self, level):
        assert dump_qexpansion(qexpansion(LevelParams(*level), 4)) == self.DUMPS[level]

    def test_coefficients(self):
        for (level, lpp), (order, coeffs) in self.COEFFS.items():
            got = higher_coeff_exact(LevelParams(*level), lpp)
            assert (got.order, got.coeffs) == (order, coeffs), (level, lpp)
