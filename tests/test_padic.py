import random
from fractions import Fraction as F
from math import floor, gcd, inf
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asaikit import padic
from asaikit.arith import CyclotomicNumber, euler_phi, vp
from asaikit.characters import enumerate_characters
from asaikit.padic import (
    MeasureTable,
    akc_check,
    dirac_measure_table,
    glue_check,
    integrality_bound_check,
    kummer_check,
    level_view,
    padic_valuation,
    single_m_weights,
    _teichmueller_root,
)


class TestValuation:
    def test_basic_values(self):
        assert padic_valuation(CyclotomicNumber.from_rational(3), 3) == 1
        assert padic_valuation(CyclotomicNumber.from_rational(F(2, 9)), 3) == -2
        assert padic_valuation(CyclotomicNumber.from_rational(0), 3) == inf

    def test_uniformizer(self):
        assert padic_valuation(1 - CyclotomicNumber.zeta(5), 5) == F(1, 4)
        assert padic_valuation(1 - CyclotomicNumber.zeta(9), 3) == F(1, 6)
        assert padic_valuation(1 - CyclotomicNumber.zeta(3), 3) == F(1, 2)

    def test_axioms_pure_field(self):
        rng = random.Random(0)
        for m, p in ((9, 3), (27, 3), (25, 5)):
            deg = euler_phi(m)
            for _ in range(8):
                a = CyclotomicNumber(m, [F(rng.randint(-6, 6), rng.choice((1, 3))) for _ in range(deg)])
                b = CyclotomicNumber(m, [F(rng.randint(-6, 6)) for _ in range(deg)])
                if a.is_zero() or b.is_zero():
                    continue
                va, vb = padic_valuation(a, p), padic_valuation(b, p)
                assert padic_valuation(a * b, p) == va + vb
                assert padic_valuation(a + b, p) >= min(va, vb)

    def test_mixed_field_embedding(self):
        i4 = CyclotomicNumber.zeta(4)
        assert padic_valuation(i4, 5) == 0
        assert padic_valuation(5 * i4, 5) == 1
        # 5 = (2 + i)(2 - i): each factor lies in one prime above 5 and is a
        # unit at the other, so its valuation (the minimum) is 0
        v1 = padic_valuation(2 + i4, 5)
        v2 = padic_valuation(2 - i4, 5)
        assert [v1, v2] == [0, 0]
        assert padic_valuation((2 + i4) * (2 - i4), 5) == 1

    def test_every_prime_above_p(self):
        # zeta_4 - 2 has norm 5; it lies in one prime above 5, and its
        # conjugate zeta_4^3 - 2 is a unit there, so both valuations are 0
        x = CyclotomicNumber.zeta(4) - 2
        assert padic_valuation(x, 5) == 0
        assert padic_valuation(x.conjugate(), 5) == 0
        assert padic_valuation(x * x.conjugate(), 5) == 1

    def test_denominator_in_mixed_ramified_field(self):
        # a denominator 5^e lowers the valuation at every prime above 5 by e
        assert padic_valuation(CyclotomicNumber.zeta(20, 7) * F(1, 5), 5) == -1
        assert padic_valuation((1 - CyclotomicNumber.zeta(20, 4)) * F(1, 25), 5) == F(-7, 4)

    # (p, order): p = 1 mod the prime-to-p part of the order, or a pure p-power order
    ORDERS = (
        (5, 4), (5, 20), (13, 3), (13, 12), (7, 6), (7, 21), (3, 9), (5, 25), (3, 81), (5, 100)
    )

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(ORDERS), scaled=st.booleans(), data=st.data())
    def test_minimum_over_conjugates(self, case, scaled, data):
        p, m = case
        deg = euler_phi(m)
        nums = data.draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg))
        x = CyclotomicNumber(m, [F(c, p if scaled and i % 2 else 1) for i, c in enumerate(nums)])
        assume(not x.is_zero())
        v = padic_valuation(x, p)
        units = [t for t in range(1, m) if gcd(t, m) == 1]
        assert v == min(padic_valuation(x.galois(t), p) for t in units)
        # independent oracle: Z_(p)[zeta_m] has the power basis as a basis, so
        # x lies in p^n O_(p) (v >= n at every prime above p) iff every coefficient does
        assert floor(v) == min(vp(c, p) for c in x.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(((3, 9), (3, 18), (3, 27), (5, 25), (5, 50), (7, 14), (7, 49))),
        den=st.sampled_from((1, 2, 3, 5, 7, 9, 25)),
        data=st.data(),
    )
    def test_norm_oracle_single_prime(self, case, den, data):
        # with m' <= 2 there is one prime above p, totally ramified of index
        # phi(order), so the valuation is that of the norm divided by phi(order)
        p, m = case
        deg = euler_phi(m)
        nums = data.draw(st.lists(st.integers(-20, 20), min_size=deg, max_size=deg))
        x = CyclotomicNumber(m, [F(c, den) for c in nums])
        assume(not x.is_zero())
        assert padic_valuation(x, p) == vp(x.norm(), p) / deg

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
        T=st.sampled_from((1, 2, 24, 48, 96)),
        data=st.data(),
    )
    def test_teichmueller_root(self, p, T, data):
        m = data.draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
        order = lambda r: next(e for e in range(1, p) if pow(r, e, p) == 1)
        w = _teichmueller_root(p, m, T)
        assert pow(w, m, p**T) == 1
        assert order(w % p) == m

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
        a=st.integers(0, 1),
        data=st.data(),
    )
    def test_valuation_does_not_depend_on_the_root(self, p, a, data):
        # the valuation is the minimum over every embedding zeta_m' -> w^t, so any
        # primitive m'-th root gives it: here the least residue of order m' mod p
        def least_residue_root(p, m, T):
            order = lambda r: next(e for e in range(1, p) if pow(r, e, p) == 1)
            return pow(min(r for r in range(1, p) if order(r) == m), p ** (T - 1), p**T)

        m = data.draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
        order = p**a * m
        assume(order <= 300)
        deg = euler_phi(order)
        units = data.draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
        exps = data.draw(st.lists(st.integers(0, 3), min_size=deg, max_size=deg))
        x = CyclotomicNumber(order, [F(u * p**e) for u, e in zip(units, exps)])
        x = x * (1 - CyclotomicNumber.zeta(order, data.draw(st.integers(1, order - 1))))
        assume(not x.is_zero())
        with mock.patch.object(padic, "_teichmueller_root", least_residue_root):
            want = padic_valuation(x, p)
        assert padic_valuation(x, p) == want

    def test_mixed_with_ramified_part(self):
        z20 = CyclotomicNumber.zeta(20)
        assert padic_valuation(1 - z20**4, 5) == F(1, 4)
        x = (1 - CyclotomicNumber.zeta(5)) * 5
        assert padic_valuation(x.lift(20), 5) == F(5, 4)

    def test_mixed_axioms(self):
        # the minimum over the primes above 5 is only super-additive
        # (v(2 + i) = v(2 - i) = 0 while v(5) = 1); scaling by 5^e adds exactly e
        rng = random.Random(1)
        deg = euler_phi(20)
        for _ in range(6):
            a = CyclotomicNumber(20, [F(rng.randint(-4, 4)) for _ in range(deg)])
            b = CyclotomicNumber(20, [F(rng.randint(-4, 4)) for _ in range(deg)])
            if a.is_zero() or b.is_zero():
                continue
            va, vb = padic_valuation(a, 5), padic_valuation(b, 5)
            assert padic_valuation(a * b, 5) >= va + vb
            for e in (-1, 1, 2):
                assert padic_valuation(a * F(5) ** e, 5) == e + va

    def test_unsupported_residue_degree(self):
        # 7-th roots of unity do not embed in Z_5 (5 has order 6 mod 7)
        with pytest.raises(ValueError):
            padic_valuation(1 + CyclotomicNumber.zeta(7), 5)

    def test_margin_constant(self):
        # v(phi(p^j)) = j - 1
        for p in (3, 5):
            for j in (1, 2, 3):
                v = padic_valuation(CyclotomicNumber.from_rational(euler_phi(p**j)), p)
                assert v == j - 1


class TestKummer:
    def test_dirac_control(self):
        for p, j in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2)):
            chars = enumerate_characters(p**j)
            u = (1 + p) % p**j
            table = {ch: ch.value(u) for ch in chars}
            for a in range(1, p**j):
                if gcd(a, p) != 1:
                    continue
                rep = kummer_check(table, a, j, p)
                assert rep.passed
                if a % p**j == u:
                    assert rep.valuation == j - 1  # tight margin
                else:
                    assert rep.valuation == inf

    def test_negative_control(self):
        chars = enumerate_characters(25)
        prim = [c for c in chars if c.is_primitive and not c.is_trivial][0]
        table = {
            ch: CyclotomicNumber.from_rational(1 if ch == prim else 0) for ch in chars
        }
        rep = kummer_check(table, 2, 2, 5)
        assert not rep.passed and rep.valuation == 0

    def test_level_one_integral_tables_pass(self):
        table = {ch: CyclotomicNumber.from_rational(7) for ch in enumerate_characters(5)}
        assert kummer_check(table, 3, 1, 5).passed

    def test_incomplete_table_rejected(self):
        chars = enumerate_characters(9)
        table = {ch: ch.value(2) for ch in chars[:-1]}
        with pytest.raises(ValueError):
            kummer_check(table, 1, 2, 3)


class TestAkc:
    def test_dirac_reduction(self):
        chars = enumerate_characters(5)
        ys = [y for y in range(1, 26) if gcd(y, 5) == 1]
        funcs = [(ch.inverse().value(2), {y: ch.value(y) for y in ys}) for ch in chars]
        targets = [ch.value(7) for ch in chars]  # values of a point mass at 7
        rep = akc_check(funcs, targets, 0, 5)
        assert rep.hypothesis_holds and rep.passed

    def test_vacuous_weights(self):
        chars = enumerate_characters(5)
        zero = CyclotomicNumber.from_rational(0)
        funcs = [(zero, {1: ch.value(1)}) for ch in chars]
        targets = [ch.value(2) for ch in chars]
        rep = akc_check(funcs, targets, 3, 5)
        assert rep.hypothesis_holds and rep.passed

    def test_failed_hypothesis_reported(self):
        prim = [c for c in enumerate_characters(5) if not c.is_trivial][0]
        funcs = [(CyclotomicNumber.from_rational(1), {2: prim.value(2)})]
        targets = [CyclotomicNumber.from_rational(0)]
        rep = akc_check(funcs, targets, 2, 5)
        assert not rep.hypothesis_holds
        assert rep.counterexample_y == 2
        assert rep.passed is None


def _random_rational_table(p, j, data):
    """m in {0, 2} and every primitive character of conductor dividing p^j, random rational values."""
    values = st.builds(F, st.integers(-50, 50), st.sampled_from((1, 2, 3, 5, 9, 25)))
    tab = MeasureTable(p, 2)
    for jj in range(j + 1):
        for ch in enumerate_characters(p**jj):
            if ch.is_primitive:
                for m in (0, 2):
                    tab.entries[(m, ch)] = CyclotomicNumber.from_rational(data.draw(values))
    return tab


class TestGlue:
    def test_dirac_table_passes_all_families(self):
        tab = dirac_measure_table(5, 2, 7, 2)
        fams = [single_m_weights(tab, m, a, j) for m in (0, 2) for a in (1, 3) for j in (1, 2)]
        rep = glue_check(tab, fams, 1, depth=1)
        assert rep.passed and rep.hypothesis_failures == 0

    def test_single_m_reduction_bit_identical(self):
        tab = dirac_measure_table(3, 2, 4, 2)
        for m in (0, 2):
            for a in (1, 2):
                for j in (1, 2):
                    fam = single_m_weights(tab, m, a, j)
                    acc = CyclotomicNumber.from_rational(0)
                    for (mm, ch), b in fam.items():
                        acc = acc + b * tab.entries[(mm, ch)]
                    sub = level_view(tab, m, j)
                    acc2 = CyclotomicNumber.from_rational(0)
                    for ch in enumerate_characters(3**j):
                        acc2 = acc2 + ch.inverse().value(a) * sub[ch]
                    assert acc == acc2

    def test_non_unit_rejected(self):
        tab = dirac_measure_table(3, 2, 4, 2)
        with pytest.raises(ValueError):
            single_m_weights(tab, 0, 3, 1)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 2), (5, 1)]), st.data())
    def test_single_m_family_is_the_kummer_check(self, pj, data):
        # the family's hypothesis is phi(p^j) [y = a] / y^m, so it always holds
        p, j = pj
        tab = _random_rational_table(p, j, data)
        for m in tab.ms():
            sub = level_view(tab, m, j)
            for a in (a for a in range(1, p**j) if gcd(a, p) == 1):
                rep = glue_check(tab, [single_m_weights(tab, m, a, j)], j, depth=1)
                assert rep.hypothesis_failures == 0
                assert rep.worst_valuation == kummer_check(sub, a, j, p).valuation

    def test_random_table_fails(self):
        rng = random.Random(3)
        bad = dirac_measure_table(5, 2, 7, 2)
        for key in list(bad.entries)[:8]:
            bad.entries[key] = CyclotomicNumber.from_rational(F(rng.randint(1, 9)))
        rep = glue_check(bad, [single_m_weights(bad, 0, 1, 2)], 2, depth=1)
        assert not rep.passed or rep.hypothesis_failures > 0


class TestBoundsAndMellin:
    def test_integrality_bound(self):
        one = CyclotomicNumber.from_rational(1)
        assert integrality_bound_check(one, 2, 0, 1, 0, 5)
        past = CyclotomicNumber.from_rational(F(1, 5 ** (1 * (4 * 2 - 0 + 3) + 0 + 1)))
        assert not integrality_bound_check(past, 2, 0, 1, 0, 5)


class TestMeasureFile:
    def test_round_trip(self):
        tab = dirac_measure_table(5, 2, 7, 2)
        tab2 = MeasureTable.loads(tab.dumps())
        assert tab2.p == tab.p and tab2.n == tab.n
        assert set(tab2.entries) == set(tab.entries)
        for k, v in tab.entries.items():
            assert tab2.entries[k] == v

    def test_missing_header(self):
        with pytest.raises(ValueError):
            MeasureTable.loads("p 5\n")
        with pytest.raises(ValueError):
            MeasureTable.loads("n 2\n")

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 2), (5, 1)]), st.data())
    def test_random_table_round_trip(self, pj, data):
        tab = _random_rational_table(*pj, data)
        assert MeasureTable.loads(tab.dumps()).entries == tab.entries

    @pytest.mark.parametrize(
        "extra",
        [
            "entry 0 3 0 1 1000",
            "entry 0 5 1 1 1",
            "entry 2 3 1 2 1/16",
            "entry 0 3 2 2 1",
            "entry 1 3 1 2 1",
            "entry 4 3 1 2 1",
            "entry -2 3 1 2 1",
        ],
        ids=["imprimitive", "not-p-power", "repeated", "index-past-phi", "odd-weight", "weight-above-n", "negative-weight"],
    )
    def test_unread_entry_rejected(self, extra):
        text = dirac_measure_table(3, 2, 4, 1).dumps()
        MeasureTable.loads(text)
        with pytest.raises(ValueError):
            MeasureTable.loads(text + extra + "\n")

    @pytest.mark.parametrize(
        "extra",
        ["kappa 7/3", "bogus 5", "p 3", "n", "n 2 4"],
        ids=["kappa", "unknown-key", "repeated-p", "no-value", "two-values"],
    )
    def test_unread_header_rejected(self, extra):
        # no checker reads kappa, and a later p or n would overwrite the first
        text = dirac_measure_table(3, 2, 4, 1).dumps()
        assert text.startswith("p 3\nn 2\nentry")
        with pytest.raises(ValueError):
            MeasureTable.loads(text + extra + "\n")

    def test_negative_character_index_rejected(self):
        # plain indexing would read index -1 mod 3 as character 1, and the
        # edited table would load equal to the original
        text = dirac_measure_table(3, 2, 4, 1).dumps()
        assert "entry 0 3 1 2 1\n" in text
        with pytest.raises(ValueError):
            MeasureTable.loads(text.replace("entry 0 3 1 2 1\n", "entry 0 3 -1 2 1\n"))

    def test_prime_below_two_rejected(self):
        with pytest.raises(ValueError):
            MeasureTable.loads("p 1\nn 2\nentry 0 1 0 1 1\n")

    @pytest.mark.parametrize("p", [4, 9, 15])
    def test_composite_prime_rejected(self, p):
        # a table at p = 4 loaded, and the kummer command passed it
        text = dirac_measure_table(p, 2, 7, 1).dumps()
        with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
            MeasureTable.loads(text)

    def test_prime_two_accepted(self):
        tab = dirac_measure_table(2, 2, 3, 2)
        assert MeasureTable.loads(tab.dumps()).entries == tab.entries
