"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here once and for all; exact criteria use tolerance 0.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, inf

import mpmath
import pytest
from mpmath import mp

from asaikit import arith, asai, characters, cohomology, distribution, eisenstein, padic
from tests.conftest import acceptance_mock

_dist_cache: dict[int, list[distribution.DistParams]] = {}


def dist_profiles(p: int) -> list[distribution.DistParams]:
    """Three acceptance eigenforms per prime, shared across criteria 3 and 4."""
    if p not in _dist_cache:
        profiles = []
        for seed in (1, 2, 3):
            f = acceptance_mock(seed, p, k=2, R=100_000)
            profiles.append(distribution.DistParams(f, p, F(5), 100_000, 128))
        _dist_cache[p] = profiles
    return _dist_cache[p]


def report(num: int, name: str, passed: bool, detail: str, t0: float):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} ({name}): {detail} [{time.time() - t0:.1f}s]"
    print(line)
    assert passed, line


def test_criterion_01_generalized_gauss_sums():
    t0 = time.time()
    checked = 0
    for p, jmax in ((3, 3), (5, 3)):
        for j in range(1, jmax + 1):
            q = p**j
            for chi in characters.enumerate_characters(q):
                for M in range(0, q + 1):
                    r = characters.generalized_gauss_sum(chi, M, j)
                    checked += 1
                    if not r.agrees:
                        report(1, "generalized Gauss sums", False, f"mismatch at p={p} j={j} M={M}", t0)
    report(1, "generalized Gauss sums", True, f"{checked} sums, brute force = closed form exactly", t0)


def test_criterion_02_ordinary_factorization():
    t0 = time.time()
    rng = random.Random(0)
    for trial in range(20):
        k = rng.choice((2, 3, 4))
        p = rng.choice((3, 5))
        f = asai.random_mock_eigenform(rng, k=k, p=p, prime_bound=30)
        od = asai.ordinary_data(f)
        d_p = asai._power_series_inverse(list(od.F_poly), 12)  # d_p(e) = d_p[e], d_p(e < 0) = 0
        for v in range(13):
            got = sum(od.B[i] * d_p[v - i] for i in range(min(v, 3) + 1))
            if got != od.kappa**v:
                report(2, "ordinary factorization", False, f"trial {trial} v={v}", t0)
    report(2, "ordinary factorization", True, "kappa^v = sum B_i d_p(v-i), 20 random quadruples, exact", t0)


def test_criterion_03_distribution_relation():
    t0 = time.time()
    worst = 0.0
    for p in (3, 5):
        for params in dist_profiles(p):
            for j in (1, 2):
                for a in range(1, p**j):
                    if gcd(a, p) != 1:
                        continue
                    rep = distribution.verify_distribution_relation(params, a, j)
                    worst = max(worst, rep.gap)
    report(
        3,
        "distribution relation",
        worst < 1e-10,
        f"worst |lhs-rhs| = {worst:.2e} at s=k+3, R=1e5, prec=128 (tol 1e-10)",
        t0,
    )


def test_criterion_04_interpolation_identity():
    t0 = time.time()
    worst = 0.0
    for p in (3, 5):
        params = dist_profiles(p)[0]
        mods = [1] + [p**j for j in (1, 2) if p ** (2 * j) <= 625]
        for M in mods:
            if M > 25:
                continue
            for chi in characters.enumerate_characters(M):
                rep = distribution.check_interpolation(params, chi)
                worst = max(worst, rep.gap)
    report(
        4,
        "interpolation identity",
        worst < 1e-10,
        f"coset sum vs closed form, all conductors <= 25, worst gap {worst:.2e} (tol 1e-10)",
        t0,
    )


def test_criterion_05_euler_product():
    t0 = time.time()
    rng = random.Random(1)
    for trial in range(20):
        k = (2, 3, 4)[trial % 3]
        p = rng.choice((5, 13))
        f = asai.random_mock_eigenform(rng, k=k, N=1, p=p, prime_bound=200)
        rep = asai.euler_vs_coefficients(f, 200)
        if not rep.ok:
            report(5, "Asai Euler product", False, f"trial {trial}: first mismatch r={rep.first_mismatch}", t0)
    report(5, "Asai Euler product", True, "coefficients match up to R=200, 20 forms, k in {2,3,4}, exact", t0)


def _grid():
    """(N, p, j, k) with N p^(2j) <= 200; one entry per modulus at j = 0."""
    out = []
    for j in (1, 2):
        for p in (3, 5, 7, 11, 13):
            q = p ** (2 * j)
            N = 1
            while N * q <= 200:
                if N % p:
                    for k in (4, 6):
                        out.append((N, p, j, k))
                N += 1
    for N in range(1, 201):
        p = next(q for q in (3, 5, 7, 11, 13) if N % q)
        for k in (4, 6):
            out.append((N, p, 0, k))
    return out


def test_criterion_06_constant_term():
    t0 = time.time()
    grid = _grid()
    for (N, p, j, k) in grid:
        a0 = eisenstein.constant_term(eisenstein.LevelParams(N, p, j, k))
        if a0 != 1:
            report(6, "Eisenstein constant term", False, f"a0 != 1 at (N,p,j,k)=({N},{p},{j},{k})", t0)
    report(6, "Eisenstein constant term", True, f"a_0 = 1 exactly on {len(grid)} parameter sets", t0)


def test_criterion_07_higher_coefficients():
    t0 = time.time()
    worst = 0.0
    lpps = (1, 2, 3, 4, 5)
    count = 0
    for (N, p, j, k) in _grid():
        params = eisenstein.LevelParams(N, p, j, k)
        if j >= 1:
            exact = [eisenstein.higher_coeff_exact(params, l) for l in lpps]
        else:
            cl = eisenstein.classical_reduction(params, 5)
            exact = cl.coeffs[1:]
        analytic = eisenstein.higher_coeffs_analytic(params, lpps, 128)
        with mp.workprec(160):
            for e, a in zip(exact, analytic):
                gap = float(abs(e.embed(128).to_mpc() - a.to_mpc()))
                gap /= max(1.0, float(abs(a.to_mpc())))
                worst = max(worst, gap)
                count += 1
    ok = worst < 1e-8
    # classical expansions reproduce exactly
    e4 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 4), 3)
    e6 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 6), 2)
    ok &= [c.as_rational() for c in e4.coeffs] == [1, 240, 2160, 6720]
    ok &= [c.as_rational() for c in e6.coeffs] == [1, -504, -16632]
    report(
        7,
        "Eisenstein higher coefficients",
        ok,
        f"{count} coefficients, worst exact-vs-analytic rel gap {worst:.2e} (tol 1e-8); E4, E6 exact",
        t0,
    )


def test_criterion_08_congruence_group():
    t0 = time.time()
    rng = random.Random(2)
    params_list = [
        eisenstein.LevelParams(1, 3, 1, 4),
        eisenstein.LevelParams(2, 3, 1, 4),
        eisenstein.LevelParams(1, 5, 1, 4),
        eisenstein.LevelParams(1, 3, 2, 4),
        eisenstein.LevelParams(4, 3, 0, 4),
    ]
    total = 0
    members = 0
    while total < 10_000:
        params = params_list[total % len(params_list)]
        a, b, c, d = 1, 0, 0, 1
        for _ in range(8):
            tshift = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a, b = a + tshift * c, b + tshift * d
            else:
                c, d = c + tshift * a, d + tshift * b
        g = eisenstein.IntMatrix2(a, b, c, d)
        fml, conj = eisenstein.membership_two_ways(params, g)
        if fml != conj:
            report(8, "congruence group dual path", False, f"disagreement at {g}", t0)
        members += fml
        total += 1
    report(8, "congruence group dual path", True, f"10000 matrices, criteria agree exactly ({members} members)", t0)


def test_criterion_09_denominator_lemma():
    t0 = time.time()
    rng = random.Random(3)
    combos = 0
    for n in range(0, 5):
        for m in range(0, n + 1):
            for j in (0, 1, 2):
                for p in (5, 7):
                    rep = cohomology.denominator_lemma_check(n, m, p, j, 100, rng)
                    combos += 1
                    if not rep.ok:
                        report(
                            9,
                            "projection denominator bound",
                            False,
                            f"n={n} m={m} j={j} p={p}: worst {rep.worst} < {rep.bound}",
                            t0,
                        )
    report(
        9,
        "projection denominator bound",
        True,
        f"valuation >= -j(2n-m) on 100 random polynomials x {combos} combos, exact",
        t0,
    )


def test_criterion_10_component_identity():
    t0 = time.time()
    for n in range(0, 5):
        rep = cohomology.psi_identity_check(n)
        if not rep.ok:
            report(10, "auxiliary-variable identity", False, f"n={n}: component {rep.first_bad}", t0)
    report(10, "auxiliary-variable identity", True, "symbolic expansion matches closed form, n <= 4, exact", t0)


def test_criterion_11_kummer_machinery():
    t0 = time.time()
    # Dirac positive control with the exact margin
    for p in (3, 5):
        for j in (1, 2, 3):
            chars = characters.enumerate_characters(p**j)
            u = (1 + p) % p**j
            table = {ch: ch.value(u) for ch in chars}
            for a in range(1, p**j):
                if gcd(a, p) != 1:
                    continue
                rep = padic.kummer_check(table, a, j, p)
                if not rep.passed:
                    report(11, "Kummer machinery", False, f"Dirac fails p={p} j={j} a={a}", t0)
                want = F(j - 1) if a % p**j == u else inf
                if rep.valuation != want:
                    report(11, "Kummer machinery", False, f"margin p={p} j={j} a={a}: {rep.valuation}", t0)
    # negative control
    chars = characters.enumerate_characters(25)
    prim = [c for c in chars if c.is_primitive and not c.is_trivial][0]
    table = {ch: arith.CyclotomicNumber.from_rational(1 if ch == prim else 0) for ch in chars}
    neg = padic.kummer_check(table, 2, 2, 5)
    if neg.passed:
        report(11, "Kummer machinery", False, "negative control passed", t0)
    # glue single-m reduction is bit-identical to the one-level check
    for p in (3, 5):
        tab = padic.dirac_measure_table(p, 2, 1 + p, 2)
        for m in (0, 2):
            for a in (1, 2):
                fam = padic.single_m_weights(tab, m, a, 1)
                acc = arith.CyclotomicNumber.from_rational(0)
                for (mm, ch), b in fam.items():
                    acc = acc + b * tab.entries[(mm, ch)]
                sub = padic.level_view(tab, m, 1)
                acc2 = arith.CyclotomicNumber.from_rational(0)
                for ch in characters.enumerate_characters(p):
                    acc2 = acc2 + ch.inverse().value(a) * sub[ch]
                if not (acc == acc2):
                    report(11, "Kummer machinery", False, f"reduction differs p={p} m={m} a={a}", t0)
    report(
        11,
        "Kummer machinery",
        True,
        "Dirac margin exactly j-1, negative control fails, glue reduction bit-identical",
        t0,
    )


def test_criterion_12_bessel_moments():
    t0 = time.time()
    worst = 0.0
    pairs = [(nu, mu) for nu in (0, 1, 2) for mu in (2, 3, 4) if mu > nu]
    for nu, mu in pairs:
        [rep] = arith.bessel_k_moment_check(nu, (mu,), 1)
        worst = max(worst, rep.rel_err)
        if not (rep.rel_err < 1e-6 and rep.kernel_rel_err < 1e-6):
            report(12, "Bessel moment identity", False, f"(nu,mu)=({nu},{mu}): rel err {rep.rel_err:.2e}", t0)
    report(
        12,
        "Bessel moment identity",
        True,
        f"quadrature vs Gamma closed form on {len(pairs)} pairs, worst rel err {worst:.2e} (tol 1e-6)",
        t0,
    )
