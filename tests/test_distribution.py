import dataclasses
import random
import sys
import threading
from fractions import Fraction as F
from math import gcd, log

import mpmath
import pytest
from mpmath import mp

from asaikit.asai import MockEigenform, QuadFieldData, asai_coeff, random_mock_eigenform
from tests.conftest import acceptance_mock
from asaikit import distribution
from asaikit.arith import Ball, TruncatedSeries, _split_order
from asaikit.characters import enumerate_characters, gauss_sum
from asaikit.distribution import (
    DistParams,
    P_s,
    check_interpolation,
    integrate_character,
    interpolation_rhs,
    mu_tilde,
    twisted_asai_series,
    verify_distribution_relation,
)


class TestParams:
    def test_validation(self):
        f = random_mock_eigenform(random.Random(0), k=2, p=5, prime_bound=60)
        with pytest.raises(ValueError):
            DistParams(f, 5, F(3), 10000, 128)  # s <= k+1
        with pytest.raises(ValueError):
            DistParams(f, 5, F(5), 10, 128)  # R < p^2
        with pytest.raises(ValueError):
            DistParams(f, 5, F(5), 10000, 32)  # prec too low


class TestPs:
    def test_single_term(self, dist_params_small):
        # R=1 would be rejected; instead check the r=1 normalization through
        # the full sum minus the tail of r >= 2 computed directly
        v = P_s(dist_params_small, 0)
        assert all(part._mpf_[3] <= 128 for part in (v.mid.real, v.mid.imag))  # mantissa bits

    def test_integer_periodicity(self, dist_params_small):
        a = P_s(dist_params_small, F(1, 3)).to_mpc()
        b = P_s(dist_params_small, F(4, 3)).to_mpc()
        assert abs(a - b) == 0

    def test_alternating_oracle(self, dist_params_small):
        params = dist_params_small
        got = P_s(params, F(1, 2)).to_mpc()
        with mp.workprec(160):
            want = mpmath.mpf(0)
            for r in range(1, params.R + 1):
                d = asai_coeff(params.f, r)
                if d:
                    want += (
                        mpmath.mpf((-1) ** r)
                        * mpmath.mpf(d.numerator)
                        / d.denominator
                        / mpmath.mpf(r) ** 5
                    )
            assert abs(got - want) < 1e-30


class TestMuTilde:
    def test_direct_summation_oracle(self, dist_params_small):
        params = dist_params_small
        got = mu_tilde(params, 1, 1).to_mpc()
        od = params.ordinary
        with mp.workprec(160):
            want = mpmath.mpc(0)
            for i in range(4):
                b = od.B[i]
                ps = P_s(params, F(3**i, 3)).to_mpc()
                want += mpmath.mpf(b.numerator) / b.denominator * ps * mpmath.mpf(3) ** (-5 * i)
            kap = od.kappa
            want *= mpmath.mpf(3) ** 4 / (mpmath.mpf(kap.numerator) / kap.denominator)
            assert abs(got - want) < 1e-30

    def test_total_mass_two_routes(self, dist_params_small):
        params = dist_params_small
        total = mpmath.mpc(0)
        with mp.workprec(160):
            for a in (1, 2):
                total += mu_tilde(params, a, 1).to_mpc()
            triv = enumerate_characters(3)[0]
            other = integrate_character(params, triv, 1).to_mpc()
            assert abs(total - other) < 1e-30

    def test_linearity_in_coefficients(self):
        f1 = random_mock_eigenform(
            random.Random(3), k=2, p=3, prime_bound=200, support_bound=20
        )
        # doubling all d(r) doubles every coset value: scale c and the m^2 part
        # cannot be scaled coherently, so check linearity through the terms
        params = DistParams(f1, 3, F(5), 200, 96)
        v = mu_tilde(params, 1, 1)
        params.series = TruncatedSeries(((r, 2 * d) for r, d in f1.nonzero(200)), f1.k, 200, F(5), 96)
        v2 = mu_tilde(params, 1, 1)
        with mp.workprec(160):
            assert abs(v2.to_mpc() - 2 * v.to_mpc()) < 1e-25

    @pytest.mark.parametrize("s", [F(5), F(11, 2)])
    def test_coset_weights_enclose_and_are_kept(self, s):
        f = random_mock_eigenform(random.Random(3), k=2, p=3, prime_bound=200, support_bound=20)
        params = DistParams(f, 3, s, 200, 96)
        od = params.ordinary
        for j in (1, 2):
            pref, weights = params.coset_weights(j)
            with mp.workprec(320):

                def exact(x, e):
                    return mpmath.mpf(x.numerator) / x.denominator * mpmath.power(3, mpmath.mpf(e.numerator) / e.denominator)

                assert abs(pref.mid - exact(od.kappa**-j, j * (s - 1))) <= pref.rad
                assert [i for i, _ in weights] == [i for i in range(4) if od.B[i]]
                for i, w in weights:
                    assert 0 < w.rad and abs(w.mid - exact(od.B[i], -i * s)) <= w.rad
        # built once per level: kept when the series is replaced, rebuilt with new ordinary data
        first = params.coset_weights(1)[0]
        params.series = TruncatedSeries(f.nonzero(200), f.k, 200, s, 96)
        assert params.coset_weights(1)[0] is first
        params.ordinary = dataclasses.replace(od, kappa=2 * od.kappa)
        assert params.coset_weights(1)[0] is not first

    def test_coset_values_are_kept_until_their_sources_change(self):
        f = random_mock_eigenform(random.Random(3), k=2, p=3, prime_bound=200, support_bound=20)
        params = DistParams(f, 3, F(5), 200, 96)
        v = mu_tilde(params, 1, 2)
        assert mu_tilde(params, 10, 2) is v and mu_tilde(params, 1, 1) is not v  # a mod p^j, per level
        params.series = TruncatedSeries(((r, 2 * d) for r, d in f.nonzero(200)), f.k, 200, F(5), 96)
        doubled = mu_tilde(params, 1, 2)
        with mp.workprec(160):
            assert abs(doubled.to_mpc() - 2 * v.to_mpc()) < 1e-25
        assert mu_tilde(params, 1, 2) is doubled
        params.ordinary = dataclasses.replace(params.ordinary, kappa=2 * params.ordinary.kappa)
        quartered = mu_tilde(params, 1, 2)  # p^(j(s-1))/kappa^j at j = 2 falls by 4
        with mp.workprec(160):
            assert abs(quartered.to_mpc() - doubled.to_mpc() / 4) < 1e-25

    def test_rejects_non_units(self, dist_params_small):
        with pytest.raises(ValueError):
            mu_tilde(dist_params_small, 3, 1)


class TestDenseOracle:
    """The sparse term pass against the dense loop over every r <= R."""

    def test_P_s_tail_and_mu_tilde_match(self):
        R, s, prec, p = 3000, 5, 128, 3
        params = DistParams(acceptance_mock(11, p, R=R), p, F(s), R, prec)
        k = params.f.k
        with mp.workprec(prec + 16):
            terms = [mpmath.mpf(0)] * (R + 1)
            amax = 0.0
            for r in range(1, R + 1):
                d = asai_coeff(params.f, r)  # pointwise, not from the table the series read
                if d:
                    terms[r] = mpmath.mpf(d.numerator) / d.denominator * mpmath.mpf(r) ** (-s)
                    amax = max(amax, abs(d.numerator / d.denominator) / float(r) ** k)
        tail = amax * float(R) ** (k + 1 - s) / (s - k - 1)
        assert params.tail_bound() == tail

        def dense_P_s(b):
            q, c = b.denominator, b.numerator % b.denominator
            with mp.workprec(prec + 16):
                W = [mpmath.mpf(0)] * q
                for r in range(1, R + 1):
                    if terms[r]:
                        W[r % q] += terms[r]
                acc = mpmath.mpc(0)
                for t in range(q):
                    if W[t]:
                        acc += W[t] * mpmath.expjpi(mpmath.mpf(2 * (t * c % q)) / q)
            return Ball.from_mpc(acc, prec).to_mpc()

        for b in (F(0), F(1, 2), F(1, 3), F(2, 9), F(5, 27)):
            assert P_s(params, b).to_mpc() == dense_P_s(b)

        od = params.ordinary
        for a, j in ((1, 1), (2, 1), (4, 2), (7, 2)):
            with mp.workprec(prec + 16):
                pref = mpmath.mpf(p) ** (j * s - j) / (
                    mpmath.mpf(od.kappa.numerator) / od.kappa.denominator
                ) ** j
                acc = mpmath.mpc(0)
                want_tail = 0.0
                for i in range(4):
                    if od.B[i] == 0:
                        continue
                    w = mpmath.mpf(od.B[i].numerator) / od.B[i].denominator * mpmath.mpf(p) ** (-i * s)
                    acc += w * dense_P_s(F(a * p**i, p**j))
                    want_tail += abs(float(w)) * tail
                acc *= pref
                want_tail *= abs(float(pref))
            got = mu_tilde(params, a, j)
            assert got.to_mpc() == Ball.from_mpc(acc, prec).to_mpc()
            assert want_tail <= got.rad <= want_tail * (1 + 2.0**-45) + 2.0 ** (20 - prec)  # tail + rounding


class TestDistributionRelation:
    def test_passes_at_level_1_and_2(self, dist_params_small):
        for j in (1, 2):
            for a in range(1, 3**j):
                if gcd(a, 3) != 1:
                    continue
                rep = verify_distribution_relation(dist_params_small, a, j)
                assert rep.gap <= rep.bound
                assert rep.gap < 1e-9

    def test_corrupted_ordinary_data_fails(self, dist_params_small):
        params = dist_params_small
        od = params.ordinary
        from asaikit.asai import OrdinaryData

        bad = OrdinaryData(od.F_poly, od.H_poly, (od.B[0], od.B[1], od.B[2] + 1, od.B[3]), od.kappa)
        old = params.ordinary
        params.ordinary = bad
        try:
            rep = verify_distribution_relation(params, 1, 1)
            assert rep.gap > 1e-6
        finally:
            params.ordinary = old


class TestCharacterIntegral:
    def test_j_independence(self, dist_params_small):
        params = dist_params_small
        for chi in enumerate_characters(3):
            # j_chi <= j <= j_chi + 2; the deepest level amplifies the
            # truncation tail by p^(j(s-1)), hence the looser tolerance at R=1e4
            vals = [integrate_character(params, chi, j).to_mpc() for j in (1, 2, 3)]
            assert abs(vals[0] - vals[1]) < 1e-9
            assert abs(vals[0] - vals[2]) < 1e-7


def _row_gaps(params: DistParams) -> tuple[float, float, float]:
    """Worst gaps of the rows distribution-relation, interpolation-identity and j-independence, as `verify` runs them."""
    p = params.p
    relation = max(
        verify_distribution_relation(params, a, j).gap for j in (1, 2) for a in range(1, p**j) if a % p
    )
    interpolation = max(
        check_interpolation(params, chi).gap for M in (1, p, p * p) for chi in enumerate_characters(M)
    )
    level_gap = max(
        abs(integrate_character(params, chi, 1) - integrate_character(params, chi, 2)) for chi in enumerate_characters(p)
    )
    return relation, interpolation, level_gap


class TestNegativeControls:
    """Each distribution row of `verify` fails on wrong ordinary data (the classes above pass it the true data)."""

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda od: dataclasses.replace(od, B=(od.B[0], od.B[1] + 1, *od.B[2:])),
            lambda od: dataclasses.replace(od, kappa=2 * od.kappa),
        ],
        ids=["B1+1", "2kappa"],
    )
    def test_rows_fail_on_wrong_data(self, wrong):
        params = DistParams(acceptance_mock(7, 3, R=10_000), 3, F(5), 10_000, 128)  # as dist_params_small
        params.ordinary = wrong(params.ordinary)
        assert min(_row_gaps(params)) > 1


class TestTailBounds:
    def test_monotone_refinement(self):
        f1 = acceptance_mock(31, 3, R=4000)
        f2 = acceptance_mock(31, 3, R=4000)
        p_small = DistParams(f1, 3, F(5), 2000, 96)
        p_big = DistParams(f2, 3, F(5), 4000, 96)
        v_small = mu_tilde(p_small, 1, 1)
        v_big = mu_tilde(p_big, 1, 1)
        assert v_big.rad <= v_small.rad


class TestInterpolation:
    def test_trivial_character_is_p_deprived_series(self, dist_params_small):
        params = dist_params_small
        triv = enumerate_characters(1)[0]
        series = twisted_asai_series(params, triv).to_mpc()
        # multiply the full series by F(p^-s): should recover the deprived one
        od = params.ordinary
        with mp.workprec(160):
            full = P_s(params, 0).to_mpc()
            fval = sum(
                (mpmath.mpf(c.numerator) / c.denominator) * mpmath.mpf(3) ** (-5 * e)
                for e, c in enumerate(od.F_poly)
            )
            assert abs(series - full * fval) < 1e-9

    @pytest.mark.parametrize("s", [F(5), F(11, 2)])
    def test_rhs_radius_covers_its_weights(self, monkeypatch, s):
        # with a radius-0 series, only the weights' rounding separates the right
        # side from the closed form evaluated at 320 bits: the radius must hold it
        series = Ball(mpmath.mpc("0.7109375", "-0.28125"))
        monkeypatch.setattr(distribution, "twisted_asai_series", lambda params, chi: series)
        for p in (3, 5):
            f = random_mock_eigenform(random.Random(p), k=2, p=p, prime_bound=200, support_bound=20)
            params = DistParams(f, p, s, 200, 96)
            kappa = params.ordinary.kappa
            for chi in enumerate_characters(p * p):
                j = _split_order(chi.conductor(), p)[0]
                rhs = interpolation_rhs(params, chi)
                with mp.workprec(320):
                    pf, sf = mpmath.mpf(p), mpmath.mpf(s.numerator) / s.denominator
                    kf = mpmath.mpf(kappa.numerator) / kappa.denominator
                    want = pf ** (j * (sf - 1)) / kf**j * gauss_sum(chi).embed(320).mid * series.mid
                    if j == 0:
                        want *= (kf - pf ** (sf - 1)) / (kf * (1 - kf * pf ** (-sf)))
                    assert abs(rhs.mid - want) <= rhs.rad, (p, chi.exps)

    def test_identity_all_conductors(self, dist_params_small):
        for M in (1, 3, 9):
            for chi in enumerate_characters(M):
                rep = check_interpolation(dist_params_small, chi)
                assert rep.gap < 1e-9, (M, chi.exps, rep.gap)

    def test_identity_p5(self, dist_params_p5):
        for M in (1, 5):
            for chi in enumerate_characters(M):
                rep = check_interpolation(dist_params_p5, chi)
                assert rep.gap < 1e-9, (M, chi.exps, rep.gap)

    def test_prefactor_only_form(self):
        # eigenvalues all zero away from p: d is supported on squares and
        # p-powers, and the identity reduces to the prefactor assembly
        f = random_mock_eigenform(random.Random(0), k=2, p=3, prime_bound=200, support_bound=0)
        params = DistParams(f, 3, F(5), 200, 96)
        chi = [c for c in enumerate_characters(3) if not c.is_trivial][0]
        lhs = integrate_character(params, chi, 1).to_mpc()
        rhs = interpolation_rhs(params, chi).to_mpc()
        assert abs(lhs - rhs) < 1e-9


def _parent_weight(x, p, e, w):
    """``_weight`` as it rounded under mpmath's working precision w: (mid, rad)."""
    with mp.workprec(w):
        to_mpf = lambda y: mpmath.mpf(y.numerator) / y.denominator
        if e.denominator == 1:
            v, units = to_mpf(x * F(p) ** int(e)), 4.0
        else:
            v, units = to_mpf(x) * mpmath.mpf(p) ** to_mpf(e), 3 * abs(float(e)) * log(p) + 8
        ball = Ball.from_mpc(mpmath.mpc(v), mp.prec, float(abs(v)) * units * 2.0**-mp.prec)
    return ball.mid._mpc_, ball.rad


@pytest.mark.parametrize("w", [64, 144, 1016])
def test_weight_matches_the_mpmath_formula(w):
    # numerators past 2^w are rounded before the quotient, as mpmath divides an mpf by an int
    xs = [F(1), F(-7, 3), F(3**200 + 1, 7**30), F(-(2**1100) - 5, 11)]
    es = [F(0), F(4), F(-9), F(9, 2), F(-23, 2), F(1, 3)]
    for x in xs:
        for p in (3, 5):
            for e in es:
                got = distribution._weight(x, p, e, w)
                assert (got.mid._mpc_, got.rad, got.prec) == (*_parent_weight(x, p, e, w), w), (x, p, e)


def test_threads_share_no_precision():
    """Two threads each check the interpolation identity for every chi mod p^2 on their
    own DistParams (at 128 and 96 bits) while the main thread sits inside
    mp.workprec(53): every gap, bound and midpoint equals that of a serial run, as no
    Ball reads mpmath's process-wide precision."""

    def run(p, out):
        params = DistParams(acceptance_mock(40 + p, p, R=2000), p, F(5), 2000, {3: 128, 5: 96}[p])
        out[p] = [
            (rep.gap, rep.bound, rep.lhs.mid._mpc_, rep.rhs.mid._mpc_)
            for chi in enumerate_characters(p * p)
            for rep in [check_interpolation(params, chi)]
        ]

    serial, threaded = {}, {}
    for p in (3, 5):
        run(p, serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside every would-be precision block
    try:
        with mp.workprec(53):
            workers = [threading.Thread(target=run, args=(p, threaded)) for p in (3, 5)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in workers)
            assert mp.prec == 53
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
