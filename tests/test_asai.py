import hashlib
import random
import re
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asaikit import asai as asai_module
from asaikit import cli
from asaikit.arith import _poly_mul_frac, primes_up_to, vp
from asaikit.cohomology import QuadCoeff
from tests.conftest import UNREAD_EIGENFORM_EDITS
from asaikit.asai import (
    FUNDAMENTAL_D,
    MockEigenform,
    QuadFieldData,
    _power_series_inverse,
    asai_coeff,
    coeff_principal,
    dump_eigenform,
    euler_vs_coefficients,
    hecke_power,
    load_eigenform,
    local_asai_factor,
    ordinary_data,
    random_mock_eigenform,
)


class TestQuadField:
    def test_fundamental_discriminant_validation(self):
        for D in (3, 4, 7, 8, 11, 20):
            QuadFieldData(D)
        for D in (5, 6, 9, 12):
            with pytest.raises(ValueError):
                QuadFieldData(D)

    def test_splitting_vs_quadratic_residues(self):
        from asaikit.arith import ArithTables

        for D in (3, 4, 7, 8, 11):
            fld = QuadFieldData(D)
            for l in ArithTables(500).primes:
                s = fld.splitting(l)
                if D % l == 0:
                    assert s == "ramified"
                elif l == 2:
                    assert s == ("split" if (-D) % 8 == 1 else "inert")
                else:
                    qr = any((x * x + D) % l == 0 for x in range(l))
                    assert s == ("split" if qr else "inert")

    def test_integrality(self):
        # (a + b sqrt(-D)) / den as canonical integer triples (a, b, den)
        f3 = QuadFieldData(3)  # O = Z[(1+sqrt(-3))/2]
        assert f3.is_integral(1, 1, 2)
        assert not f3.is_integral(1, 0, 2)
        f4 = QuadFieldData(4)  # O = Z[i], sqrt(-4) = 2i
        assert f4.is_integral(0, 1, 2)
        assert not f4.is_integral(1, 1, 2)

    @pytest.mark.parametrize("D", FUNDAMENTAL_D)
    def test_integrality_by_minimal_polynomial(self, D):
        # x + y sqrt(-D) is integral iff its trace 2x and norm x^2 + D y^2 are integers
        field = QuadFieldData(D)
        for den in range(1, 9):
            for a in range(-2 * den, 2 * den + 1):
                for b in range(-2 * den, 2 * den + 1):
                    e = QuadCoeff._make(a, b, den, D)
                    x, y = F(a, den), F(b, den)
                    want = (2 * x).denominator == 1 and (x * x + D * y * y).denominator == 1
                    assert field.is_integral(e.a, e.b, e.den) == want, (a, b, den)


class TestHeckePower:
    def test_base_and_example(self):
        assert hecke_power(3, 5, 0) == 1
        assert hecke_power(3, 5, 1) == 3
        assert hecke_power(3, 5, 2) == 4  # 3*3 - 5

    def test_rational_roots_oracle(self):
        # factor the quadratic and compare with the power sum
        for (a1, a2) in ((F(2), F(7)), (F(-1), F(3)), (F(1, 2), F(8))):
            for e in range(7):
                want = sum(a1**i * a2 ** (e - i) for i in range(e + 1))
                assert hecke_power(a1 + a2, a1 * a2, e) == want

    def test_power_lists_match_hecke_power(self):
        """The per-ideal lists of c(L^e), extended one step per new power in a random
        order of requests, hold hecke_power's value at every e <= 40."""
        f = sample_form(seed=7, k=4)
        rng = random.Random(3)
        ideals = [(l, which) for l in (2, 3, 7, 11, 13, 5) for which in (0, 1)]
        for l, which, e in rng.sample([(l, w, e) for l, w in ideals for e in range(41)], 41 * len(ideals)):
            norm_pow = F(f.field.ideal_norm(l)) ** (f.k - 1)
            assert f._c_prime_power(l, which, e) == hecke_power(f.c_at_ideal(l, which), norm_pow, e), (l, which, e)


def sample_form(seed=1, k=2, p=5, bound=250):
    return random_mock_eigenform(random.Random(seed), k=k, N=1, p=p, prime_bound=bound)


class TestCoefficients:
    def test_normalization(self):
        f = sample_form()
        assert coeff_principal(f, 1) == 1
        assert asai_coeff(f, 1) == 1

    def test_split_prime(self):
        f = sample_form()
        assert f.field.splitting(13) == "split"
        assert coeff_principal(f, 13) == f.c_at_ideal(13, 0) * f.c_at_ideal(13, 1)

    def test_inert_prime(self):
        f = sample_form()
        assert f.field.splitting(7) == "inert"
        assert coeff_principal(f, 7) == f.c_at_ideal(7, 0)
        # a power: Hecke recursion at norm l^2
        want = hecke_power(f.c_at_ideal(7, 0), F(49) ** (f.k - 1), 2)
        assert coeff_principal(f, 49) == want

    def test_ramified_prime(self):
        f = sample_form()
        assert f.field.splitting(2) == "ramified"
        # (2) = L^2, so c((2)) = c(L^2)
        want = hecke_power(f.c_at_ideal(2, 0), F(2) ** (f.k - 1), 2)
        assert coeff_principal(f, 2) == want

    def test_asai_square_and_squarefree(self):
        f = sample_form()
        assert asai_coeff(f, 4) == coeff_principal(f, 4) + F(2) ** (2 * f.k - 2)
        for r in (6, 15, 35):
            assert asai_coeff(f, r) == coeff_principal(f, r)

    def test_asai_multiplicative(self):
        f = sample_form()
        for r1 in range(1, 11):
            for r2 in range(1, 11):
                if gcd(r1, r2) == 1:
                    assert asai_coeff(f, r1 * r2) == asai_coeff(f, r1) * asai_coeff(f, r2)

    def test_tabulate_matches_pointwise(self):
        f = sample_form(seed=3, bound=450)
        assert dict(f.nonzero(400)) == {
            r: asai_coeff(f, r) for r in range(1, 401) if asai_coeff(f, r)
        }


def _table_digest(f, R):
    """sha256 of the lines "r c(r) d(r)" over the r <= R where c or d is nonzero."""
    f.tabulate(R)
    c, d = dict(f.nonzero(R, "c")), dict(f.nonzero(R))
    text = "".join(f"{r} {c.get(r, 0)} {d.get(r, 0)}\n" for r in sorted(c.keys() | d.keys()))
    return hashlib.sha256(text.encode()).hexdigest()


# _table_digest of cli._mock_eigenform(0, p, 1e5) at R = 1e5, recorded before forms declared their support
CLI_MOCK_TABLE_DIGESTS = {
    3: "6d1f37811b9ebb2bc5c98d81ee7411c6285583542a137b72065faf87a51002fa",
    5: "7617b6336fb57f06c9d526d5de153573cc59f0fed44f35c25870c014af97fb8e",
}

# (p, D) with p split in Q(sqrt(-D)); a ramified l | D has c(l) = c(L^2) != 0 even when c(L) = 0
SPLIT_PAIRS = [
    (p, D)
    for p in (3, 5, 7)
    for D in FUNDAMENTAL_D
    if D % p and QuadFieldData(D).splitting(p) == "split"
]


class TestSparseTables:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.sampled_from((2, 3)),
        N=st.sampled_from((1, 2, 3, 6, 7)),
        pD=st.sampled_from(SPLIT_PAIRS),
        dense=st.booleans(),
        bound=st.integers(1, 600),
    )
    # the ramified l = 23 lies above sqrt(bound) with zero eigen-data: tabulate must still visit it
    @example(seed=0, k=2, N=1, pD=(3, 23), dense=False, bound=100)
    def test_match_pointwise(self, seed, k, N, pD, dense, bound):
        # dense: eigen-data nonzero at every prime; otherwise the acceptance
        # support 31 <= l <= 80.  Even N exercises the gcd(m, N) = 1 filter.
        # Bounds below D^2 put a ramified prime between sqrt(bound) and bound.
        p, D = pD
        assume(N % p)

        f = random_mock_eigenform(
            random.Random(seed),
            k=k,
            N=N,
            D=D,
            p=p,
            prime_bound=max(bound, 2),
            support_bound=None if dense else 80,
            support_min=2 if dense else 31,
        )
        c = [(r, coeff_principal(f, r)) for r in range(1, bound + 1)]
        d = [(r, asai_coeff(f, r)) for r in range(1, bound + 1)]
        assert list(f.nonzero(bound, "c")) == [(r, v) for r, v in c if v]
        assert list(f.nonzero(bound)) == [(r, v) for r, v in d if v]

    def test_inert_square_cancels(self):
        # c(l) = 0 at an inert l gives d(l^2) = c(l^2) + l^(2k-2) = 0: no table entry
        f = random_mock_eigenform(random.Random(0), k=2, p=5, prime_bound=250, support_bound=0)
        f.tabulate(250)
        d = dict(f.nonzero(250))
        for l in (3, 7, 11):
            assert f.field.splitting(l) == "inert"
            assert coeff_principal(f, l * l) != 0
            assert l * l not in d and asai_coeff(f, l * l) == 0

    @pytest.mark.parametrize("N", [1, 7, 35])
    @pytest.mark.parametrize("k", [2, 4])
    def test_tables_equal_the_convolution(self, N, k):
        # over Q(sqrt(-20)) 2 and 5 ramify; 5 | 35 and 7 | N keep d(l^e) = c(l^e), and the
        # inert primes below the support (11, 13, 17, 19) have c(l) = 0, so d(l^2) cancels
        f = random_mock_eigenform(
            random.Random(5), k=k, N=N, D=20, p=3, prime_bound=3000, support_bound=80, support_min=31
        )
        bound = 3000
        c = {r: coeff_principal(f, r) for r in range(1, bound + 1)}
        d = {
            r: sum(
                F(m) ** (2 * k - 2) * c[r // (m * m)]
                for m in range(1, isqrt(r) + 1)
                if r % (m * m) == 0 and gcd(m, N) == 1
            )
            for r in range(1, bound + 1)
        }
        assert list(f.nonzero(bound, "c")) == [(r, v) for r, v in c.items() if v]
        table = dict(f.nonzero(bound))
        assert list(table.items()) == [(r, v) for r, v in d.items() if v]
        inert = [l for l in (11, 13, 17, 19) if f.field.splitting(l) == "inert"]
        assert inert and all(c[l * l] and l * l not in table for l in inert)
        assert c[2] and c[5] and table[4] == c[4] + 2 ** (2 * k - 2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.sampled_from((2, 3, 4)),
        N=st.sampled_from((1, 2, 3, 7, 35)),
        pD=st.sampled_from(SPLIT_PAIRS),
        support_min=st.integers(2, 60),
        support_bound=st.integers(0, 120),
        bound=st.integers(1, 3000),
    )
    def test_declared_support_walk(self, seed, k, N, pD, support_min, support_bound, bound):
        # A form with a declared support walks only the primes up to sqrt(bound), the support,
        # p and the primes dividing D.  Its tables equal those of the same eigen-data with the
        # support unknown and a zero entry at every other prime up to the bound, walked over
        # all primes.  Inert and ramified primes below sqrt(bound) and outside the support
        # have c(l^2) != 0 or c(l) = c(L^2) != 0.
        p, D = pD
        assume(N % p)
        f = random_mock_eigenform(
            random.Random(seed), k=k, N=N, D=D, p=p, prime_bound=max(bound, 2),
            support_bound=support_bound, support_min=support_min,
        )
        assert f.support == {l for l in primes_up_to(support_bound) if l >= support_min and l != p}
        assert set(f.eigen) == {l for l in f.support if l <= max(bound, 2)}
        eigen = {
            l: f.eigen.get(l, (0, 0) if f.field.splitting(l) == "split" else (0,))
            for l in primes_up_to(max(bound, 2))
            if l != p
        }
        g = MockEigenform(f.k, f.N, f.field, eigen, f.p, f.p_satake)
        assert g.support is None
        f.tabulate(bound)
        g.tabulate(bound)
        assert list(f.nonzero(bound, "c")) == list(g.nonzero(bound, "c"))
        assert list(f.nonzero(bound)) == list(g.nonzero(bound))

    def test_nonzero_data_outside_the_support_rejected(self):
        with pytest.raises(ValueError, match="outside the declared support"):
            MockEigenform(2, 1, QuadFieldData(4), {13: (1, 0), 17: (0, 0)}, 5, (2, F(5, 2), 2, F(5, 2)), {17})
        f = MockEigenform(2, 1, QuadFieldData(4), {13: (0, 0), 17: (1, 0)}, 5, (2, F(5, 2), 2, F(5, 2)), {17})
        assert f.c_at_ideal(13) == 0 and f.c_at_ideal(101) == 0 and f.c_at_ideal(17) == 1

    def test_tabulate_past_eigen_data_raises(self):
        f = sample_form(bound=100)
        with pytest.raises(KeyError):
            f.tabulate(120)
        with pytest.raises(KeyError):
            coeff_principal(f, 101)

    def test_covered_bound_and_accessor_range(self):
        # nonzero tabulates what it reads; a covered bound leaves the tables as they are
        f = sample_form(bound=310)
        before = list(f.nonzero(300))
        f.tabulate(200)
        assert list(f.nonzero(300)) == before
        assert list(f.nonzero(200)) == [(r, v) for r, v in before if r <= 200]
        assert list(f.nonzero(310)) == before + [(r, asai_coeff(f, r)) for r in range(301, 311) if asai_coeff(f, r)]

    def test_nonzero_rejects_an_unknown_table(self):
        f = sample_form(bound=100)
        for which in ("D", "C", ""):
            with pytest.raises(ValueError, match="'c' or 'd'"):
                f.nonzero(100, which)

    def test_tabulate_rejects_an_unknown_table(self):
        f = sample_form(bound=100)
        for which in ("D", "C", "", "cd"):
            with pytest.raises(ValueError, match="'c' or 'd'"):
                f.tabulate(100, which)

    def test_nonzero_builds_only_the_table_it_reads(self, monkeypatch):
        # reading d builds no c table; each table keeps its own bound
        built = []
        walk = asai_module._multiplicative_table
        monkeypatch.setattr(asai_module, "_multiplicative_table", lambda *a: built.append(a) or walk(*a))
        f = sample_form(bound=310)
        d = list(f.nonzero(300))
        f.tabulate(300)
        assert len(built) == 1 and list(f.nonzero(200)) == [(r, v) for r, v in d if r <= 200]
        c = list(f.nonzero(300, "c"))
        assert len(built) == 2
        assert c == [(r, coeff_principal(f, r)) for r in range(1, 301) if coeff_principal(f, r)]
        assert list(f.nonzero(300)) == d and len(built) == 2


class TestLocalFactors:
    def test_split_linear_coefficient(self):
        f = sample_form()
        poly = local_asai_factor(f, 13, None)
        assert poly[0] == 1 and len(poly) == 5
        assert poly[1] == -f.c_at_ideal(13, 0) * f.c_at_ideal(13, 1)

    def test_inert_middle_factor(self):
        f = sample_form()
        poly = local_asai_factor(f, 7, None)
        # (1 - cX + q2 X^2)(1 - q2 X^2), q2 = l^(2k-2)
        q2 = F(7) ** (2 * f.k - 2)
        c = f.c_at_ideal(7, 0)
        want = _poly_mul_frac([F(1), -c, q2], [F(1), F(0), -q2])
        assert poly == want

    def test_twisted_vanishing_at_p(self):
        from asaikit.characters import enumerate_characters

        f = sample_form()
        chi = enumerate_characters(5)[1]
        assert local_asai_factor(f, 13, chi)[0] == 1
        # chi(l) = 0 at l = 5 is rejected at the level check instead
        with pytest.raises(ValueError):
            local_asai_factor(f, 5, chi)

    def test_euler_product_matches_coefficients(self):
        for seed in (1, 2):
            for k in (2, 3):
                f = sample_form(seed=seed, k=k, bound=200)
                rep = euler_vs_coefficients(f, 200)
                assert rep.ok, rep

    def test_corrupted_coefficient_detected(self, monkeypatch):
        f = sample_form(bound=200)
        f.tabulate(200)
        true_coeff = asai_module.asai_coeff
        monkeypatch.setattr(
            asai_module, "asai_coeff", lambda g, r: true_coeff(g, r) + (1 if r == 6 else 0)
        )
        rep = euler_vs_coefficients(f, 200)
        assert not rep.ok and rep.first_mismatch == 6


class TestFormalDirichletSeries:
    def test_local_factor_inversion(self):
        # coefficients of 1/(1 - 3X + 2X^2) = 1/((1-X)(1-2X)) at X^e: 2^(e+1) - 1
        assert _power_series_inverse([F(1), F(-3), F(2)], 5) == [2 ** (e + 1) - 1 for e in range(6)]


class TestOrdinaryData:
    def test_explicit_example(self):
        f = MockEigenform(2, 1, QuadFieldData(4), {}, 5, (1, 5, 1, 5))
        od = ordinary_data(f)
        assert od.kappa == 1
        want = _poly_mul_frac(_poly_mul_frac([F(1), F(-5)], [F(1), F(-5)]), [F(1), F(-25)])
        assert list(od.H_poly) == want
        assert od.B[0] == 1

    def test_factorization_exact(self):
        for seed in range(5):
            f = sample_form(seed=seed, bound=30)
            od = ordinary_data(f)
            assert list(od.F_poly) == _poly_mul_frac(list(od.H_poly), [F(1), -od.kappa])
            assert vp(od.kappa, f.p) == 0

    def test_kappa_power_identity(self):
        for seed in range(5):
            f = sample_form(seed=seed, k=3, bound=30)
            od = ordinary_data(f)
            d_p = _power_series_inverse(list(od.F_poly), 12)  # d_p(e) = d_p[e], d_p(e < 0) = 0
            for v in range(13):
                assert sum(od.B[i] * d_p[v - i] for i in range(min(v, 3) + 1)) == od.kappa**v

    def test_geometric_series(self):
        f = sample_form(bound=30)
        od = ordinary_data(f)
        d_p = _power_series_inverse(list(od.F_poly), 20)
        geo = [sum(od.B[i] * d_p[e - i] for i in range(min(e, 3) + 1)) for e in range(21)]
        assert geo == [od.kappa**e for e in range(21)]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.sampled_from((2, 3)))
    def test_d_p_is_the_inverse_of_F(self, seed, k):
        od = ordinary_data(random_mock_eigenform(random.Random(seed), k=k, p=5, prime_bound=30))
        inv = _power_series_inverse(list(od.F_poly), 20)
        assert _poly_mul_frac(list(od.F_poly), inv)[:21] == [1] + [0] * 20

    def test_non_ordinary_rejected(self):
        # weight 3, all Satake parameters divisible by p: every product has
        # positive valuation, so no relabeling yields a unit
        f = MockEigenform(3, 1, QuadFieldData(4), {}, 5, (5, 5, 5, 5))
        with pytest.raises(ValueError):
            ordinary_data(f)

    def test_relabeling_finds_the_unit(self):
        f = MockEigenform(2, 1, QuadFieldData(4), {}, 5, (5, 1, 5, 1))
        od = ordinary_data(f)
        assert vp(od.kappa, 5) == 0


class TestEigenformFile:
    def test_round_trip(self):
        f = sample_form(seed=9, bound=100)
        g = load_eigenform(dump_eigenform(f))
        assert (g.k, g.N, g.p, g.field.D) == (f.k, f.N, f.p, f.field.D)
        assert g.p_satake == f.p_satake
        for r in range(1, 80):
            assert coeff_principal(g, r) == coeff_principal(f, r)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            load_eigenform("k 2\nN 1\n")

    @pytest.mark.parametrize("edit", UNREAD_EIGENFORM_EDITS.values(), ids=UNREAD_EIGENFORM_EDITS)
    def test_unread_line_rejected(self, edit):
        text = dump_eigenform(sample_form(bound=30))
        assert "l 13 split " in text and "N 1\n" in text
        load_eigenform(text)  # the unedited file loads
        with pytest.raises(ValueError):
            load_eigenform(edit(text))

    @pytest.mark.parametrize(
        "p, digest",
        [
            (3, "6e13ecdf38280c2ef6dbbe22b3500c5211ca5f8b46d9cf43da35ef2ee096de6e"),
            (5, "523e5b0059fe61bb9f2ad748cf3b9103cae53b899f7905cb5fd834ae79790ae8"),
        ],
    )
    def test_cli_mock_forms_unchanged(self, p, digest):
        # The CLI's seed-0 mock form at the default R = 1e5 keeps its (r, c(r), d(r)) table,
        # recorded before forms declared their support.  digest is the sha256 of the file
        # written then, without a support line and with a zero record at every prime up to R
        # outside the support; that text still loads, with the support unknown, to the same table.
        R = 100_000
        f = cli._mock_eigenform(0, p, R)
        assert _table_digest(f, R) == CLI_MOCK_TABLE_DIGESTS[p]
        lines = [l for l in dump_eigenform(f).splitlines() if not l.startswith(("support", "l "))]
        for l in primes_up_to(R):
            if l != p:
                tag = f.field.splitting(l)
                lines += [f"l {l} {tag} {c}" for c in f.eigen.get(l, (0, 0) if tag == "split" else (0,))]
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        g = load_eigenform(text)
        assert g.support is None and _table_digest(g, R) == CLI_MOCK_TABLE_DIGESTS[p]

    def test_support_round_trip(self):
        f = random_mock_eigenform(
            random.Random(4), k=2, N=3, D=8, p=11, prime_bound=2000, support_bound=70, support_min=23
        )
        text = dump_eigenform(f)
        assert "\nsupport 23 29 31 37 41 43 47 53 59 61 67\nl 23 " in text
        g = load_eigenform(text)
        assert g.support == f.support and g.eigen == f.eigen
        f.tabulate(2000)
        g.tabulate(2000)
        assert list(g.nonzero(2000, "c")) == list(f.nonzero(2000, "c"))
        assert list(g.nonzero(2000)) == list(f.nonzero(2000))

    def test_file_without_support_line(self):
        # the records cover only the support: with the support unknown a prime past it has no data
        f = random_mock_eigenform(random.Random(4), k=2, p=5, prime_bound=500, support_bound=80, support_min=31)
        text = "".join(l for l in dump_eigenform(f).splitlines(True) if not l.startswith("support"))
        g = load_eigenform(text)
        assert g.support is None and g.eigen == f.eigen
        with pytest.raises(KeyError):
            g.tabulate(500)

    @pytest.mark.parametrize(
        "line",
        ["support 31 37 x", "support 31 37 39", "support 5 31", "support 1", "support 31 31", "support 37"],
    )
    def test_bad_support_line_rejected(self, line):
        # not an integer, not a prime, p itself, below 2, a prime twice, nonzero records outside it
        f = random_mock_eigenform(random.Random(4), k=2, p=5, prime_bound=500, support_bound=80, support_min=31)
        assert any(f.eigen[31])
        text = dump_eigenform(f)
        load_eigenform(text)
        with pytest.raises(ValueError):
            load_eigenform(re.sub("^support.*$", line, text, flags=re.M))

    def test_wrong_record_count_rejected(self):
        f = sample_form(bound=30)
        text = dump_eigenform(f)
        # drop one split record
        lines = [l for l in text.splitlines() if not l.startswith("l 13 ")]
        lines.append("l 13 split 1")
        with pytest.raises(ValueError):
            load_eigenform("\n".join(lines))
