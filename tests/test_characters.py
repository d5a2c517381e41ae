from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asaikit.arith import Ball, CyclotomicNumber, factorize
from asaikit.characters import (
    DirichletCharacter,
    _components,
    _galois_orbits,
    _orbit_transport,
    _primitive_root,
    _unit_group,
    _UnitGroup,
    L_special_exact,
    L_truncated,
    enumerate_characters,
    gauss_sum,
    generalized_bernoulli,
    generalized_gauss_sum,
    unit_sum_twisted,
    unit_sum_twisted_direct,
)


def quadratic_mod5():
    return [c for c in enumerate_characters(5) if not c.is_trivial and (c * c).is_trivial][0]


class TestEnumeration:
    def test_mod_1(self):
        cs = enumerate_characters(1)
        assert len(cs) == 1 and cs[0].is_trivial
        assert cs[0].value(7) == 1 and cs[0].value(0) == 1

    def test_mod_5(self):
        cs = enumerate_characters(5)
        assert len(cs) == 4
        assert sum(1 for c in cs if c.is_even) == 2
        assert cs[0].is_trivial

    def test_mod_8(self):
        assert len(enumerate_characters(8)) == 4

    def test_multiplicative_and_vanishing(self):
        for M in (5, 8, 9, 12):
            for ch in enumerate_characters(M):
                assert ch.value(1) == 1
                for a in range(M):
                    if gcd(a, M) > 1:
                        assert ch.value(a).is_zero()
                for a in range(1, M):
                    for b in range(1, M):
                        if gcd(a * b, M) == 1:
                            assert ch.value(a * b) == ch.value(a) * ch.value(b)

    def test_values_are_roots_of_unity(self):
        for ch in enumerate_characters(9):
            for a in range(1, 9):
                if gcd(a, 9) == 1:
                    assert ch.value(a) ** ch.value_order == 1


def _discrete_log_table(chi):
    """The exponent table by the discrete-log formula: every exponent tuple of the generators, zipped."""
    M = chi.modulus
    grp = _unit_group(M)
    ord_ = chi.value_order
    table = [None] * max(M, 1)
    for xs in product(*(range(o) for o in grp.orders)):
        a = 1 % M
        for g, x in zip(grp.gens, xs):
            a = a * pow(g, x, M) % M
        t = 0
        for e, x, o in zip(chi.exps, xs, grp.orders):
            if e:
                g = gcd(e, o)
                t += x * (e // g) * (ord_ // (o // g))
        table[a] = t % ord_
    return table


class TestWalkedTables:
    def test_walk_equals_discrete_log_formula(self):
        for M in [*range(1, 131), 169, 200, 243, 625, 1000]:
            grp = _unit_group(M)
            assert grp.units == [a for a in range(M) if gcd(a, M) == 1]
            for exps in product(*(range(o) for o in grp.orders)):
                chi = DirichletCharacter(M, exps)
                assert chi._table == _discrete_log_table(chi), (M, exps)


def _least_primitive_root(p, e):
    """The least primitive root mod p^e, by search."""
    q = p**e
    phi = q // p * (p - 1)
    fac = [p] * (e > 1) + [f for f, _ in factorize(p - 1)]
    return next(g for g in range(2, q) if g % p and all(pow(g, phi // f, q) != 1 for f in fac))


def _scan_conductor(chi):
    """The least divisor d of M with chi = 1 on every unit a = 1 mod d, by scanning the table."""
    M = chi.modulus
    units = [a for a in range(1, M) if gcd(a, M) == 1]
    return next(d for d in range(1, M + 1) if M % d == 0 and all(chi.exponent_of(a) == 0 for a in units if a % d == 1 % d))


def _scan_primitive_exps(chi, C):
    """Exponents of the character mod C inducing chi, from chi's values at lifts of C's generators."""
    grp = _unit_group(C)
    exps = []
    for g, o in zip(grp.gens, grp.orders):
        a = next(a for a in range(g % C, g % C + chi.modulus * C, C) if gcd(a, chi.modulus) == 1)
        num = chi.exponent_of(a) * o
        assert num % chi.value_order == 0
        exps.append(num // chi.value_order % o)
    return tuple(exps)


def _scan_component_exps(chi):
    """(q, exponents of chi_q) per prime power q of M, read from chi's values at q's generators lifted by CRT."""
    M = chi.modulus
    out = []
    for p, e in factorize(M):
        q = p**e
        grp = _unit_group(q)
        exps = []
        for g, o in zip(grp.gens, grp.orders):
            num = chi.exponent_of(_UnitGroup._crt(g, q, M // q)) * o
            assert num % chi.value_order == 0
            exps.append(num // chi.value_order % o)
        out.append((q, tuple(exps)))
    return out


class TestStructureFromExponents:
    """Conductor, primitive character and CRT components, computed from ``exps`` alone,
    equal what scans of the value table give."""

    def test_generators_reduce_and_match_the_search(self):
        # one root g mod p^2 gives every generator mod p^e, and g mod p^e is the least primitive root there
        for p in range(3, 10**4, 2):
            if factorize(p) == [(p, 1)]:
                g = _primitive_root(p)
                for e in (1, 2, 3):
                    assert g % p**e == _least_primitive_root(p, e), (p, e)

    def test_against_table_scans(self):
        for M in [*range(1, 201), 243, 256, 625, 648, 1000]:
            for chi in enumerate_characters(M):
                C = _scan_conductor(chi)
                assert chi.conductor() == C, chi
                chi0 = chi.primitive()
                assert (chi0.modulus, chi0.exps) == (C, _scan_primitive_exps(chi, C)), chi
                assert [(q, chi_q.exps) for q, _, chi_q in _components(chi)] == _scan_component_exps(chi), chi


class TestGaloisOrbits:
    def test_table_is_t_times_representative_table(self):
        for M in [*range(1, 61), 125, 169, 200, 243]:
            orbits = _galois_orbits(M)
            chars = enumerate_characters(M)
            assert len(orbits) == len(chars)
            for chi in chars:
                rep, t = orbits[chi.exps]
                ord_ = rep.value_order
                assert chi.value_order == ord_ and gcd(t, M * ord_) == 1
                assert (t == 1) == (rep is chi) and orbits[rep.exps] == (rep, 1)
                assert chi._table == [None if e is None else e * t % ord_ for e in rep._table], (M, chi.exps)

    @staticmethod
    def _sigma_term_by_term(rep, b, step, shift):
        """sum over units w of zeta_L^(step x_w + shift), with zeta_L^(x_w) = rep(w) e(w b / q)."""
        q = rep.modulus
        L = lcm(q, rep.value_order)
        weights = {}
        for w in range(1, q):
            e = rep.exponent_of(w)
            if e is not None:
                x = (e * (L // rep.value_order) + (w * b % q) * (L // q)) * step + shift
                weights[x % L] = weights.get(x % L, 0) + 1
        return CyclotomicNumber.from_exponents(L, weights)

    def _check_equivariance(self, chi, b):
        """The transported value is the direct sum; dropping chi(t)^t or using sigma_(t+1) breaks it."""
        direct = unit_sum_twisted_direct(chi, b)
        assert _orbit_transport(chi, b) == direct
        rep, t = _galois_orbits(chi.modulus)[chi.exps]
        if t == 1 or direct.is_zero():
            return False
        value = unit_sum_twisted_direct(rep, b)
        L = value.order
        shift = t * rep.exponent_of(t) * (L // rep.value_order)
        assert value._permuted(L, t, shift) == direct
        assert value._permuted(L, t) != direct  # without the factor chi(t)^t
        assert self._sigma_term_by_term(rep, b, t, shift) == direct
        assert self._sigma_term_by_term(rep, b, t + 1, shift) != direct  # sigma_(t+1)
        return True

    def test_equivariance_exhaustive_small(self):
        controls = 0
        for q in (25, 27):
            for chi in enumerate_characters(q):
                for b in range(q + 1):
                    controls += self._check_equivariance(chi, b)
        assert controls == 264 + 192  # every nonzero case off the representatives

    @settings(max_examples=150, deadline=None)
    @given(q=st.sampled_from((25, 27, 49, 125)), i=st.integers(0, 10**6), b=st.integers(0, 125))
    def test_equivariance(self, q, i, b):
        chars = enumerate_characters(q)
        self._check_equivariance(chars[i % len(chars)], b % (q + 1))


class TestOrthogonality:
    def test_character_sum_relations(self):
        for M in range(2, 51):
            chars = enumerate_characters(M)
            units = [a for a in range(1, M) if gcd(a, M) == 1]
            a, b = units[0], units[-1]
            s_eq = CyclotomicNumber.from_rational(0)
            s_ne = CyclotomicNumber.from_rational(0)
            for ch in chars:
                s_eq = s_eq + ch.value(a) * ch.value(a).conjugate()
                s_ne = s_ne + ch.value(a) * ch.value(b).conjugate()
            assert s_eq == len(chars)
            if a != b:
                assert s_ne.is_zero()

    def test_dirac_identity(self):
        # sum over chi mod p^j of chi^(-1)(a) chi(y) = phi(p^j) [y = a]
        for p in (3, 5):
            for j in (1, 2):
                q = p**j
                chars = enumerate_characters(q)
                for a in (1, q - 1):
                    for y in range(1, q):
                        if gcd(y, p) != 1:
                            continue
                        s = CyclotomicNumber.from_rational(0)
                        for ch in chars:
                            s = s + ch.inverse().value(a) * ch.value(y)
                        assert s == (len(chars) if (y - a) % q == 0 else 0)


class TestConductor:
    def test_trivial_mod_9(self):
        assert enumerate_characters(9)[0].conductor() == 1

    def test_primitive_quadratic_mod_5(self):
        assert quadratic_mod5().conductor() == 5

    def test_induced_from_3(self):
        induced = [c for c in enumerate_characters(9) if c.conductor() == 3]
        assert len(induced) == 1
        prim = induced[0].primitive()
        assert prim.modulus == 3 and not prim.is_trivial


class TestGaussSums:
    def test_trivial(self):
        assert gauss_sum(enumerate_characters(1)[0]) == 1

    def test_quadratic_mod5_squares_to_5(self):
        chi = quadratic_mod5()
        g = gauss_sum(chi)
        assert g * g == 5
        assert chi.conductor() == 5
        with mpmath.workprec(100):
            assert abs(g.embed(80).to_mpc() - mpmath.sqrt(5)) < 1e-18

    def test_conjugation_identity(self):
        # G(chi) G(chibar) = chi(-1) p for primitive chi mod p
        for p in (5, 7, 13):
            for ch in enumerate_characters(p):
                if ch.is_trivial:
                    continue
                assert gauss_sum(ch) * gauss_sum(ch.inverse()) == ch.value(-1) * p

    def test_absolute_value_squared(self):
        for M in (5, 8, 9, 16):
            for ch in enumerate_characters(M):
                if not ch.is_primitive:
                    continue
                g = gauss_sum(ch)
                assert g * g.conjugate() == M


class TestGeneralizedGaussSums:
    def test_exhaustive_closed_form_small(self):
        for p, jmax in ((3, 3), (5, 2)):
            for j in range(1, jmax + 1):
                q = p**j
                for ch in enumerate_characters(q):
                    for M in range(0, q + 1):
                        r = generalized_gauss_sum(ch, M, j)
                        assert r.agrees, (p, j, ch.exps, M)

    def test_trivial_character_values(self):
        t3 = enumerate_characters(3)[0]
        assert generalized_gauss_sum(t3, 0, 1).value == 2  # phi(3)
        t9 = enumerate_characters(9)[0]
        assert generalized_gauss_sum(t9, 9, 2).value == 6  # phi(9), p^j | M
        assert generalized_gauss_sum(t9, 3, 2).value == -3  # v_p(M) = j-1
        assert generalized_gauss_sum(t9, 1, 2).value == 0

    def test_primitive_vanishing_at_p(self):
        prim9 = [c for c in enumerate_characters(9) if c.is_primitive][0]
        r = generalized_gauss_sum(prim9, 3, 2)
        assert r.value.is_zero() and r.agrees

    def test_lifted_character(self):
        # chi primitive mod 3 seen at level 9: M = 3 gives 3 G(chi)
        lifted = [c for c in enumerate_characters(9) if c.conductor() == 3][0]
        r = generalized_gauss_sum(lifted, 3, 2)
        g = gauss_sum(lifted)
        assert r.value == g * 3

    def test_level_below_conductor_rejected(self):
        prim9 = [c for c in enumerate_characters(9) if c.is_primitive][0]
        with pytest.raises(ValueError):
            generalized_gauss_sum(prim9, 1, 1)


class TestTwistedUnitSums:
    def test_crt_closed_form_vs_direct(self):
        # every frequency mod M, and frequencies below 0 and above M
        for M in (1, 2, 4, 6, 9, 12, 15, 20, 36, 45):
            for ch in enumerate_characters(M):
                for b in (*range(M), -1, -M - 2, M + 3, 3 * M):
                    assert unit_sum_twisted(ch, b) == unit_sum_twisted_direct(ch, b), (ch, b)

    def test_direct_sum_orders(self):
        """A direct sum with a frequency lies at lcm(M, ord chi), also at b = 0 mod M, and
        B_{k,chi} at ord chi: the exact digests hash each value's order."""
        for M in (1, 4, 9, 20, 25):
            for ch in enumerate_characters(M):
                for b in (0, 1, -M, 2 * M):
                    assert unit_sum_twisted_direct(ch, b).order == lcm(M, ch.value_order), (ch, b)
                if ch.is_primitive:
                    assert generalized_bernoulli(2, ch).order == ch.value_order, ch


class TestComponents:
    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 200), i=st.integers(0, 10**6), j=st.integers(0, 10**6))
    def test_product_of_components(self, M, i, j):
        chars = enumerate_characters(M)
        chi = chars[i % len(chars)]
        units = [a for a in range(M) if gcd(a, M) == 1] or [0]
        a = units[j % len(units)]
        comps = _components(chi)
        assert _components(chi) is comps  # memoized on the character
        assert [q for q, _, _ in comps] == [p**e for p, e in factorize(M)]
        prod = CyclotomicNumber.from_rational(1)
        for q, u, chi_q in comps:
            assert u * (M // q) % q == 1
            assert any(c is chi_q for c in enumerate_characters(q))  # the canonical copy
            prod = prod * chi_q.value(a)
        assert prod == chi.value(a)


class TestGeneralizedBernoulli:
    def test_trivial_reduces_to_bernoulli(self):
        assert generalized_bernoulli(2, enumerate_characters(1)[0]) == F(1, 6)

    def test_quadratic_mod4(self):
        quad4 = [c for c in enumerate_characters(4) if not c.is_trivial][0]
        assert generalized_bernoulli(1, quad4) == F(-1, 2)

    def test_odd_psi_even_k_vanishes(self):
        quad4 = [c for c in enumerate_characters(4) if not c.is_trivial][0]
        assert generalized_bernoulli(2, quad4).is_zero()
        for ch in enumerate_characters(5):
            if not ch.is_even:
                assert generalized_bernoulli(4, ch).is_zero()

    def test_denominator_bound(self):
        # v_p(B_{k,psibar}) >= -j for conductor-p^j characters
        from asaikit.padic import padic_valuation

        for p, j in ((3, 1), (3, 2), (5, 1), (5, 2)):
            for ch in enumerate_characters(p**j):
                if not ch.is_primitive or ch.modulus == 1:
                    continue
                for k in (2, 4):
                    b = generalized_bernoulli(k, ch.inverse())
                    if not b.is_zero():
                        assert padic_valuation(b, p) >= -j


class TestLValues:
    def test_zeta_2_and_4(self):
        t1 = enumerate_characters(1)[0]
        v2 = L_special_exact(2, t1)
        assert v2.algebraic == F(-1, 24) and v2.two_pi_i_power == 2
        with mpmath.workprec(100):
            assert abs(v2.numeric(80).to_mpc() - mpmath.pi**2 / 6) < 1e-20
            v4 = L_special_exact(4, t1)
            assert abs(v4.numeric(80).to_mpc() - mpmath.pi**4 / 90) < 1e-18

    def test_quadratic_mod5_vs_series(self):
        chi = quadratic_mod5()
        exact = L_special_exact(2, chi).numeric(128).to_mpc()
        approx = L_truncated(2, chi, 30000, 128)
        assert abs(exact - approx.to_mpc()) < approx.rad * 1.05

    def test_truncated_zeta(self):
        t1 = enumerate_characters(1)[0]
        v = L_truncated(2, t1, 10000, 64)
        assert abs(v.to_mpc() - mpmath.pi**2 / 6) < v.rad * 1.05

    def test_truncated_first_term(self):
        for ch in enumerate_characters(7):
            assert abs(L_truncated(3, ch, 1, 64).to_mpc() - 1) == 0

    def test_euler_factor_removal(self):
        t6 = enumerate_characters(6)[0]
        v = L_truncated(2, t6, 20000, 64)
        want = mpmath.pi**2 / 6 * (1 - F(1, 4)) * (1 - F(1, 9))
        assert abs(v.to_mpc() - want) < 3 * v.rad

    def test_non_rational_s_rejected(self):
        t1 = enumerate_characters(1)[0]
        for s in (complex(3, 1), Ball(mpmath.mpc(3, 1))):
            with pytest.raises(TypeError):
                L_truncated(s, t1, 100, 64)

    def test_domain_rejected(self):
        t1 = enumerate_characters(1)[0]
        with pytest.raises(ValueError):
            L_truncated(1, t1, 100, 64)
        with pytest.raises(ValueError):
            L_special_exact(3, t1)


class TestNormalizedL:
    """L_special_exact at the values rationality_ratio reads: L(k, psi) / (G(psi) (2 pi)^k) is
    algebraic / G(psi) times (-1)^(k/2), since (2 pi i)^k = (-1)^(k/2) (2 pi)^k for even k."""

    @staticmethod
    def _order4_square():
        quad = quadratic_mod5()
        chi = [c for c in enumerate_characters(5) if c * c == quad][0]
        return chi, chi.inverse() * chi.inverse()

    @staticmethod
    def _normalized(k, psi):
        return L_special_exact(k, psi).algebraic / gauss_sum(psi) * (-1) ** (k // 2)

    def test_trivial_values(self):
        t1 = enumerate_characters(1)[0]
        assert L_special_exact(2, t1).algebraic == F(-1, 24)
        assert L_special_exact(4, t1).algebraic == F(1, 1440)

    def test_order4_mod5(self):
        from asaikit.padic import padic_valuation

        chi, psi = self._order4_square()
        value = self._normalized(2, psi)
        assert value == F(1, 125)
        j_chi = factorize(chi.conductor())[0][1]
        assert padic_valuation(value, 5) >= -j_chi * (2 + 1)

    def test_cross_check_against_series(self):
        _, psi = self._order4_square()
        g = gauss_sum(psi).embed(128).to_mpc()
        recon = self._normalized(2, psi).embed(128).to_mpc() * g * (2 * mpmath.pi) ** 2
        series = L_truncated(2, psi, 30000, 128)
        assert abs(recon - series.to_mpc()) < series.rad * 1.05

    def test_imprimitive_square_rejected(self):
        chi = quadratic_mod5()
        with pytest.raises(ValueError):
            L_special_exact(2, chi.inverse() * chi.inverse())
