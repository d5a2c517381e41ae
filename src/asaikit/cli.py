"""Command-line driver: verification suites, q-expansion export, congruence
sweeps, and report emission.

Exit codes: 0 all checks pass, 1 a verification failed, 2 input or usage
error.  All randomness is drawn from --seed, so identical invocations give
identical reports; check results are cached to a JSON file for `report`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from mpmath import mp

from . import arith, asai, characters, cohomology, distribution, eisenstein, padic

DEFAULT_CACHE = "asaikit_report_cache.json"
SUITES = (
    "arith",
    "characters",
    "asai",
    "distribution",
    "eisenstein",
    "cohomology",
    "padic",
)


@dataclass
class RunConfig:
    precision_bits: int = 128
    truncation_R: int = 100_000
    tolerance_exp: int = 10
    seed: int = 0
    p: int | None = None
    j: int | None = None
    s: str | None = None
    eigenform_path: str | None = None
    cache_path: str = DEFAULT_CACHE

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision must be >= 64 bits")
        if self.tolerance_exp < 6:
            raise ValueError("tolerance exponent must be >= 6")

    @property
    def tol(self) -> float:
        return 10.0 ** (-self.tolerance_exp)


@dataclass
class CheckResult:
    suite: str
    name: str
    anchor: str
    status: str  # pass / fail / error
    gap: float | None
    runtime: float
    detail: str = ""


class Check:
    def __init__(self, suite: str, name: str, anchor: str, fn):
        self.suite = suite
        self.name = name
        self.anchor = anchor
        self.fn = fn

    def run(self) -> CheckResult:
        t0 = time.time()
        try:
            ok, gap, detail = self.fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # a crashed check is a failed check
            ok, gap, detail, status = False, None, f"{type(exc).__name__}: {exc}", "error"
        return CheckResult(self.suite, self.name, self.anchor, status, gap, time.time() - t0, detail)


# ---------------------------------------------------------------------------
# suite definitions


def _load_or_mock_eigenform(cfg: RunConfig, p: int, k: int = 2, bound: int = 2000):
    if cfg.eigenform_path:
        with open(cfg.eigenform_path) as fh:
            return asai.load_eigenform(fh.read())
    rng = random.Random(cfg.seed + p + k)
    return asai.random_mock_eigenform(
        rng,
        k=k,
        N=1,
        p=p,
        prime_bound=bound,
        support_bound=80,
        support_min=31,
        c_num_bound=2,
        satake_units=(2, -2),
    )


def _suite_arith(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed)

    def bernoulli_recurrence():
        for k in range(2, 31):
            s = sum(arith._binomial(k, i) * arith.bernoulli_number(i) for i in range(k))
            if s != 0:
                return False, None, f"k={k}"
        return True, 0.0, ""

    def von_staudt():
        for k in range(2, 31, 2):
            den = arith.bernoulli_number(k).denominator
            prod = 1
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if k % (p - 1) == 0:
                    prod *= p
            if den != prod:
                return False, None, f"k={k}: {den} != {prod}"
        return True, 0.0, ""

    def ring_axioms():
        for m in (3, 4, 5, 8, 9, 12):
            deg = arith.euler_phi(m)
            vals = [
                arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
                for _ in range(3)
            ]
            a, b, c = vals
            if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
                return False, None, f"m={m}"
            if (a * b).norm() != a.norm() * b.norm():
                return False, None, f"norm m={m}"
        return True, 0.0, ""

    def embedding_hom():
        worst = 0.0
        for m in (5, 8, 12):
            deg = arith.euler_phi(m)
            a = arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            b = arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            lhs = (a * b).embed(cfg.precision_bits)
            rhs = a.embed(cfg.precision_bits) * b.embed(cfg.precision_bits)
            worst = max(worst, float((lhs - rhs).abs()))
        return worst < 2.0 ** (-cfg.precision_bits + 12), worst, ""

    def bessel():
        worst = 0.0
        for nu in (0, 1, 2):
            for mu in (3, 4):
                rep = arith.bessel_k_moment_check(nu, mu, 1)
                worst = max(worst, rep.rel_err)
                if not rep.agree:
                    return False, rep.rel_err, f"nu={nu} mu={mu}"
        return True, worst, ""

    return [
        Check("arith", "bernoulli-recurrence", "sum C(k,i) B_i = 0", bernoulli_recurrence),
        Check("arith", "von-staudt-clausen", "denominator of B_k = prod (p-1)|k p", von_staudt),
        Check("arith", "cyclotomic-ring-axioms", "associativity/distributivity mod Phi_m", ring_axioms),
        Check("arith", "embedding-homomorphism", "zeta_m -> exp(2 pi i/m) multiplicative", embedding_hom),
        Check("arith", "bessel-moment", "int K_nu(at) t^(mu-1) = Gamma closed form", bessel),
    ]


def _suite_characters(cfg: RunConfig) -> list[Check]:
    def orthogonality():
        for M in (5, 8, 12, 45, 50):
            chars = characters.enumerate_characters(M)
            units = [a for a in range(1, M) if gcd(a, M) == 1]
            for a in units[:3]:
                for b in units[:3]:
                    s = arith.CyclotomicNumber.from_rational(0)
                    for ch in chars:
                        s = s + ch.value(a) * ch.value(b).conjugate()
                    want = len(chars) if (a - b) % M == 0 else 0
                    if s != want:
                        return False, None, f"M={M} a={a} b={b}"
        return True, 0.0, ""

    def gauss_closed_form():
        for p in (3, 5):
            for j in (1, 2):
                q = p**j
                for ch in characters.enumerate_characters(q):
                    for M in range(0, q + 1):
                        r = characters.generalized_gauss_sum(ch, M, j)
                        if not r.agrees:
                            return False, None, f"p={p} j={j} M={M}"
        return True, 0.0, ""

    def gauss_conjugation():
        for M in (5, 7, 9, 16):
            for ch in characters.enumerate_characters(M):
                if not ch.is_primitive or ch.is_trivial:
                    continue
                g = characters.gauss_sum(ch).value
                gbar = characters.gauss_sum(ch.inverse()).value
                want = ch.value(-1) * M
                if g * gbar != want:
                    return False, None, f"M={M}"
        return True, 0.0, ""

    def bernoulli_denominators():
        for p, j in ((3, 1), (3, 2), (5, 1)):
            for ch in characters.enumerate_characters(p**j):
                if not ch.is_primitive or ch.modulus == 1:
                    continue
                b = characters.generalized_bernoulli(2, ch)
                if b.is_zero():
                    continue
                v = padic.padic_valuation(b, p)
                if v < -j:
                    return False, None, f"p={p} j={j} v={v}"
        return True, 0.0, ""

    def l_value_vs_series():
        quad5 = [
            c
            for c in characters.enumerate_characters(5)
            if not c.is_trivial and (c * c).is_trivial
        ][0]
        exact = characters.L_special_exact(2, quad5).numeric(cfg.precision_bits).to_mpc()
        approx = characters.L_truncated(2, quad5, 20000, cfg.precision_bits)
        gap = float(abs(exact - approx.value.to_mpc()))
        return gap < approx.tail_bound * 1.05, gap, ""

    return [
        Check("characters", "orthogonality", "sum_chi chi(a) chibar(b) = phi(M) [a=b]", orthogonality),
        Check("characters", "generalized-gauss-closed-form", "G_{M,p^j} = p^(j-j_chi) G(chi) chibar(M/p^(j-j_chi))", gauss_closed_form),
        Check("characters", "gauss-conjugation", "G(chi) G(chibar) = chi(-1) C", gauss_conjugation),
        Check("characters", "twisted-bernoulli-denominator", "B_{k,psibar} in p^(-j) integers", bernoulli_denominators),
        Check("characters", "special-value-vs-series", "L(k,psi) closed form vs truncation", l_value_vs_series),
    ]


def _suite_asai(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed + 17)

    def splitting_kronecker():
        for D in (3, 4, 7, 8, 11):
            fld = asai.QuadFieldData(D)
            for l in arith.ArithTables(500).primes:
                s = fld.splitting(l)
                if D % l == 0:
                    ok = s == "ramified"
                elif l == 2:
                    ok = s == ("split" if (-D) % 8 == 1 else "inert")
                else:
                    qr = any((x * x + D) % l == 0 for x in range(l))
                    ok = s == ("split" if qr else "inert")
                if not ok:
                    return False, None, f"D={D} l={l}"
        return True, 0.0, ""

    def euler_product():
        for trial in range(5):
            k = rng.choice((2, 3, 4))
            p = rng.choice((5, 13))
            f = asai.random_mock_eigenform(rng, k=k, N=1, p=p, prime_bound=200)
            rep = asai.euler_vs_coefficients(f, 200)
            if not rep.ok:
                return False, None, f"trial {trial} r={rep.first_mismatch}"
        return True, 0.0, ""

    def multiplicativity():
        f = asai.random_mock_eigenform(rng, k=2, N=1, p=5, prime_bound=120)
        for r1 in range(1, 11):
            for r2 in range(1, 11):
                if gcd(r1, r2) == 1 and r1 * r2 <= 100:
                    if asai.asai_coeff(f, r1 * r2) != asai.asai_coeff(f, r1) * asai.asai_coeff(f, r2):
                        return False, None, f"({r1},{r2})"
        return True, 0.0, ""

    def ordinary_identities():
        for trial in range(20):
            f = asai.random_mock_eigenform(rng, k=rng.choice((2, 3)), N=1, p=5, prime_bound=30)
            od = asai.ordinary_data(f)
            geo = [sum(od.B[i] * od.d_p(e - i) for i in range(4)) for e in range(21)]
            if geo != [od.kappa**e for e in range(21)]:
                return False, None, f"trial {trial}"
        return True, 0.0, ""

    return [
        Check("asai", "splitting-vs-kronecker", "split/inert/ramified by (-D|l)", splitting_kronecker),
        Check("asai", "euler-product", "prod G_l(s,f) = sum d(r) r^(-s)", euler_product),
        Check("asai", "asai-multiplicativity", "d(r1 r2) = d(r1) d(r2), coprime", multiplicativity),
        Check("asai", "ordinary-factorization", "H/F geometric in kappa; kappa^v = sum B_i d_p(v-i)", ordinary_identities),
    ]


def _suite_distribution(cfg: RunConfig) -> list[Check]:
    cache: dict[int, distribution.DistParams] = {}
    primes = (cfg.p,) if cfg.p else (3, 5)
    levels = (cfg.j,) if cfg.j else (1, 2)

    def run_for(p):
        if p not in cache:
            f = _load_or_mock_eigenform(cfg, p, bound=cfg.truncation_R)
            s = _parse_s(cfg.s, f.k) if cfg.s else Fraction(f.k + 3)
            cache[p] = distribution.DistParams(f, f.p, s, cfg.truncation_R, cfg.precision_bits)
        return cache[p]

    def dist_relation():
        worst = 0.0
        for p in primes:
            params = run_for(p)
            for j in levels:
                for a in range(1, p**j):
                    if gcd(a, p) != 1:
                        continue
                    rep = distribution.verify_distribution_relation(params, a, j)
                    worst = max(worst, rep.gap)
                    if rep.gap > cfg.tol:
                        return False, rep.gap, f"p={p} j={j} a={a}"
        return True, worst, ""

    def interpolation():
        worst = 0.0
        for p in primes:
            params = run_for(p)
            mods = [1, p, p * p]
            for M in mods:
                for chi in characters.enumerate_characters(M):
                    rep = distribution.check_interpolation(params, chi)
                    worst = max(worst, rep.gap)
                    if rep.gap > cfg.tol:
                        return False, rep.gap, f"p={p} M={M} chi={chi.exps}"
        return True, worst, ""

    def j_independence():
        worst = 0.0
        for p in primes:
            params = run_for(p)
            for chi in characters.enumerate_characters(p):
                v1 = distribution.integrate_character(params, chi, 1)
                v2 = distribution.integrate_character(params, chi, 2)
                with mp.workprec(cfg.precision_bits + 16):
                    gap = float(abs(v1.value.to_mpc() - v2.value.to_mpc()))
                worst = max(worst, gap)
                if gap > cfg.tol:
                    return False, gap, f"p={p} chi={chi.exps}"
        return True, worst, ""

    def parity():
        worst = 0.0
        for p in primes:
            params = run_for(p)
            for chi in characters.enumerate_characters(p * p):
                sym = distribution.integrate_character(params, chi, 2, symmetrized=True)
                plain = distribution.integrate_character(params, chi, 2)
                with mp.workprec(cfg.precision_bits + 16):
                    want = 0 if chi.is_odd else 2 * plain.value.to_mpc()
                    gap = float(abs(sym.value.to_mpc() - want))
                worst = max(worst, gap)
                if gap > cfg.tol:
                    return False, gap, f"p={p} chi={chi.exps}"
        return True, worst, ""

    return [
        Check("distribution", "distribution-relation", "coset refinement sums match", dist_relation),
        Check("distribution", "interpolation-identity", "coset sum = p^(j(s-1))/kappa^j G(chi) G(s,chibar,f)", interpolation),
        Check("distribution", "j-independence", "character integral stable in the level", j_independence),
        Check("distribution", "parity-and-symmetrization", "even: factor 2; odd: zero", parity),
    ]


def _suite_eisenstein(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed + 5)

    def membership():
        count = 0
        for params in (
            eisenstein.LevelParams(1, 3, 1, 4),
            eisenstein.LevelParams(2, 3, 1, 4),
            eisenstein.LevelParams(1, 5, 1, 4),
            eisenstein.LevelParams(4, 3, 0, 4),
        ):
            for _ in range(1500):
                g = _random_sl2(rng)
                fml, conj = eisenstein.membership_two_ways(params, g)
                if fml != conj:
                    return False, None, f"{params} {g}"
                count += fml
        return True, float(count), "members found"

    def constant_terms():
        for (N, p, j, k) in ((1, 3, 1, 4), (6, 5, 1, 4), (2, 3, 2, 4), (1, 3, 0, 6)):
            if eisenstein.constant_term(eisenstein.LevelParams(N, p, j, k)) != 1:
                return False, None, f"({N},{p},{j},{k})"
        return True, 0.0, ""

    def exact_vs_analytic():
        worst = 0.0
        for (N, p, j, k) in ((1, 3, 1, 4), (2, 3, 1, 4), (1, 5, 1, 4), (1, 3, 1, 6)):
            params = eisenstein.LevelParams(N, p, j, k)
            for lpp in (1, 2, 3):
                e = eisenstein.higher_coeff_exact(params, lpp)
                a = eisenstein.higher_coeff_analytic(params, lpp, cfg.precision_bits)
                gap = float(abs(e.embed(cfg.precision_bits).to_mpc() - a.to_mpc()))
                gap /= max(1.0, float(abs(a.to_mpc())))
                worst = max(worst, gap)
                if gap > 1e-8:
                    return False, gap, f"({N},{p},{j},{k}) l''={lpp}"
        return True, worst, ""

    def classical():
        e4 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 4), 3)
        e6 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 6), 2)
        ok = [c.as_rational() for c in e4.coeffs] == [1, 240, 2160, 6720] and [
            c.as_rational() for c in e6.coeffs
        ] == [1, -504, -16632]
        return ok, 0.0, ""

    def lambda_bijection():
        params = eisenstein.LevelParams(2, 3, 1, 4)
        lam = eisenstein.enumerate_lambda(params, 40)
        brute = set()
        M, q = params.modulus, 3
        for c in range(-40, 41):
            for d in range(-40, 41):
                if (c, d) != (0, 0) and gcd(c, d) == 1 and c % M == 0 and (
                    (d - 1) % q == 0 or (d + 1) % q == 0
                ):
                    brute.add((c, d) if (c > 0 or (c == 0 and d > 0)) else (-c, -d))
        return set(lam) == brute, float(len(lam)), ""

    return [
        Check("eisenstein", "membership-dual-path", "a=d mod p^j, c=0 mod Np^2j vs conjugation", membership),
        Check("eisenstein", "constant-term", "a_0 = 1 by orthogonality", constant_terms),
        Check("eisenstein", "exact-vs-analytic", "Bernoulli route vs Moebius series", exact_vs_analytic),
        Check("eisenstein", "classical-reduction", "1 - (2k/B_k) sum sigma_(k-1) q^n", classical),
        Check("eisenstein", "lambda-bijection", "cosets <-> constrained coprime pairs", lambda_bijection),
    ]


def _suite_cohomology(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed + 23)
    D = 3

    def rand_poly(n):
        return cohomology.BiHomogPoly(
            n,
            D,
            {
                (i, j): cohomology.QuadCoeff(
                    Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), D
                )
                for i in range(n + 1)
                for j in range(n + 1)
                if rng.random() < 0.7
            },
        )

    def action_law():
        for _ in range(20):
            g1, g2 = _random_sl2_quad(rng, D), _random_sl2_quad(rng, D)
            P = rand_poly(2)
            if cohomology.sl2_act(_matmul(g1, g2), P) != cohomology.sl2_act(
                g1, cohomology.sl2_act(g2, P)
            ):
                return False, None, ""
        return True, 0.0, ""

    def equivariance():
        for _ in range(10):
            g = _random_sl2_quad(rng, D)
            P = rand_poly(2)
            for m in range(3):
                if cohomology.clebsch_project(cohomology.sl2_act(g, P), m) != cohomology.homog_act(
                    g, cohomology.clebsch_project(P, m)
                ):
                    return False, None, f"m={m}"
        return True, 0.0, ""

    def denominator_lemma():
        for n in (2, 3):
            for m in range(0, n + 1):
                for j in (1, 2):
                    rep = cohomology.denominator_lemma_check(n, m, 5, j, 20, rng)
                    if not rep.ok:
                        return False, None, f"n={n} m={m} j={j}"
        return True, 0.0, ""

    def psi_identity():
        for n in range(0, 5):
            rep = cohomology.psi_identity_check(n)
            if not rep.ok:
                return False, None, f"n={n} alpha={rep.first_bad}"
        return True, 0.0, ""

    def pairing_symmetry():
        f = _load_or_mock_eigenform(cfg, 5, bound=2000)
        sp = Fraction(f.k + 4)
        v1 = cohomology.pairing_series(f, Fraction(1, 5), sp, 2000, cfg.precision_bits)
        v2 = cohomology.pairing_series(f, Fraction(-1, 5), sp, 2000, cfg.precision_bits)
        gap = float(abs(v1.value.to_mpc() - v2.value.to_mpc()))
        return gap < 1e-20, gap, ""

    return [
        Check("cohomology", "action-composition", "(g1 g2).P = g1.(g2.P)", action_law),
        Check("cohomology", "projection-equivariance", "component projection commutes with the action", equivariance),
        Check("cohomology", "denominator-lemma", "valuation >= -j(2n-m) after projection", denominator_lemma),
        Check("cohomology", "auxiliary-identity", "component closed form A^2 c_a - 2AB c_(a-1) + B^2 c_(a-2)", psi_identity),
        Check("cohomology", "pairing-evenness", "series even in the twist parameter", pairing_symmetry),
    ]


def _suite_padic(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed + 31)

    def valuation_axioms():
        for m, p in ((9, 3), (27, 3), (25, 5)):
            deg = arith.euler_phi(m)
            for _ in range(6):
                a = arith.CyclotomicNumber(m, [Fraction(rng.randint(-6, 6)) for _ in range(deg)])
                b = arith.CyclotomicNumber(m, [Fraction(rng.randint(-6, 6)) for _ in range(deg)])
                if a.is_zero() or b.is_zero():
                    continue
                va, vb = padic.padic_valuation(a, p), padic.padic_valuation(b, p)
                if padic.padic_valuation(a * b, p) != va + vb:
                    return False, None, f"mult m={m}"
                if padic.padic_valuation(a + b, p) < min(va, vb):
                    return False, None, f"ultrametric m={m}"
        return True, 0.0, ""

    def dirac_control():
        for p in (3, 5):
            for j in (1, 2, 3):
                chars = characters.enumerate_characters(p**j)
                u = (1 + p) % p**j
                table = {ch: ch.value(u) for ch in chars}
                for a in range(1, min(p**j, 30)):
                    if gcd(a, p) != 1:
                        continue
                    rep = padic.kummer_check(table, a, j, p)
                    if not rep.passed:
                        return False, None, f"p={p} j={j} a={a}"
                    if a % p**j == u and rep.valuation != j - 1:
                        return False, None, f"margin p={p} j={j}"
        return True, 0.0, ""

    def negative_control():
        chars = characters.enumerate_characters(9)
        prim = [c for c in chars if c.is_primitive][0]
        table = {
            ch: arith.CyclotomicNumber.from_rational(1 if ch == prim else 0) for ch in chars
        }
        rep = padic.kummer_check(table, 2, 2, 3)
        return (not rep.passed), float(rep.valuation), ""

    def glue_reduction():
        tab = padic.dirac_measure_table(3, 2, 4, 2)
        for m in (0, 2):
            for a in (1, 2):
                fam = padic.single_m_weights(tab, m, a, 1)
                acc = arith.CyclotomicNumber.from_rational(0)
                for (mm, ch), b in fam.items():
                    acc = acc + b * tab.entries[(mm, ch)]
                sub = padic.level_view(tab, m, 1)
                acc2 = arith.CyclotomicNumber.from_rational(0)
                for ch in characters.enumerate_characters(3):
                    acc2 = acc2 + ch.value(pow(a, -1, 3)) * sub[ch]
                if acc != acc2:
                    return False, None, f"m={m} a={a}"
        rep = padic.glue_check(tab, [padic.single_m_weights(tab, 0, 1, 1)], 1, depth=1)
        return rep.passed, None, ""

    return [
        Check("padic", "valuation-axioms", "v(xy)=v(x)+v(y); v(x+y)>=min", valuation_axioms),
        Check("padic", "dirac-kummer-control", "sum chi^(-1)(a) chi(u) = phi(p^j)[a=u]", dirac_control),
        Check("padic", "negative-control", "single-character table fails", negative_control),
        Check("padic", "glue-single-m", "family reduction equals one-level check", glue_reduction),
    ]


def _random_sl2(rng: random.Random, steps: int = 8) -> "eisenstein.IntMatrix2":
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b = a + t * c, b + t * d
        else:
            c, d = c + t * a, d + t * b
    return eisenstein.IntMatrix2(a, b, c, d)


def _random_sl2_quad(rng: random.Random, D: int):
    g = _random_sl2(rng, 6)
    q = lambda x: cohomology.QuadCoeff(x, 0, D)
    return ((q(g.a), q(g.b)), (q(g.c), q(g.d)))


def _matmul(g1, g2):
    (a1, b1), (c1, d1) = g1
    (a2, b2), (c2, d2) = g2
    return ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2), (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))


def _parse_s(text: str, k: int) -> Fraction:
    """Evaluation point: a rational literal or a 'k+<offset>' expression."""
    text = text.strip().replace(" ", "")
    if text.startswith("k+"):
        return Fraction(k) + Fraction(text[2:])
    return Fraction(text)


SUITE_BUILDERS = {
    "arith": _suite_arith,
    "characters": _suite_characters,
    "asai": _suite_asai,
    "distribution": _suite_distribution,
    "eisenstein": _suite_eisenstein,
    "cohomology": _suite_cohomology,
    "padic": _suite_padic,
}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    names = SUITES if args.suite == "all" else (args.suite,)
    if cfg.eigenform_path and not os.path.exists(cfg.eigenform_path):
        print(f"error: input file not found: {cfg.eigenform_path}", file=sys.stderr)
        return 2
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITE_BUILDERS[name](cfg))
    results = [c.run() for c in checks]
    all_ok = True
    for r in results:
        mark = "PASS" if r.status == "pass" else "FAIL"
        gap = "" if r.gap is None else f" gap={r.gap:.3e}"
        detail = f" [{r.detail}]" if r.detail and r.status != "pass" else ""
        print(f"[{mark}] {r.suite}/{r.name}{gap} ({r.runtime:.2f}s){detail}")
        all_ok &= r.status == "pass"
    _write_cache(cfg, results)
    print(f"{'all checks passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def cmd_eisenstein(args) -> int:
    if args.k % 2 or args.k < 4:
        print(
            "error: the weight must be even and >= 4 (the weight-2 case sits "
            "outside the implemented range)",
            file=sys.stderr,
        )
        return 2
    try:
        params = eisenstein.LevelParams(args.N, args.p, args.j, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exp = eisenstein.qexpansion(params, args.T)
    text = eisenstein.dump_qexpansion(exp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"a_0 = {exp.coeffs[0]}  c_j = {exp.c_j}")
    return 0


def cmd_kummer(args) -> int:
    try:
        with open(args.measure_table) as fh:
            table = padic.MeasureTable.loads(fh.read())
    except OSError as exc:
        print(f"error: cannot read measure table: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: malformed measure table: {exc}", file=sys.stderr)
        return 2
    p, j = table.p, args.j
    if args.p and args.p != p:
        print(f"error: table is for p={p}, got --p {args.p}", file=sys.stderr)
        return 2
    ok = True
    q = p**j
    for a in range(1, q):
        if gcd(a, p) != 1:
            continue
        try:
            sub = padic.level_view(table, 0, j)
        except KeyError:
            print("error: table lacks characters at this level", file=sys.stderr)
            return 2
        rep = padic.kummer_check(sub, a, j, p)
        print(f"kummer a={a}: v={rep.valuation} required={rep.required} {'pass' if rep.passed else 'FAIL'}")
        ok &= rep.passed
    fams = []
    for m in table.ms():
        for a in (1, 2):
            if gcd(a, p) == 1:
                fams.append(padic.single_m_weights(table, m, a, j))
    rep = padic.glue_check(table, fams, j, depth=args.depth)
    print(
        f"glue: families={rep.families} hypothesis_failures={rep.hypothesis_failures} "
        f"worst_v={rep.worst_valuation} {'pass' if rep.passed else 'FAIL'}"
    )
    ok &= rep.passed
    return 0 if ok else 1


def cmd_report(args) -> int:
    cache = args.cache or DEFAULT_CACHE
    if not os.path.exists(cache):
        print(f"error: no cached runs found at {cache}; run `verify` first", file=sys.stderr)
        return 2
    with open(cache) as fh:
        data = json.load(fh)
    rows = data["results"]
    if args.format == "json":
        payload = json.dumps(data, indent=2)
    else:
        lines = ["suite,check,anchor,status,gap,runtime"]
        for r in rows:
            gap = "" if r["gap"] is None else repr(r["gap"])
            lines.append(
                f"{r['suite']},{r['name']},\"{r['anchor']}\",{r['status']},{gap},{r['runtime']:.3f}"
            )
        payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _write_cache(cfg: RunConfig, results: list[CheckResult]) -> None:
    data = {
        "config": {
            "precision_bits": cfg.precision_bits,
            "truncation_R": cfg.truncation_R,
            "tolerance_exp": cfg.tolerance_exp,
            "seed": cfg.seed,
        },
        "results": [
            {
                "suite": r.suite,
                "name": r.name,
                "anchor": r.anchor,
                "status": r.status,
                "gap": r.gap,
                "runtime": r.runtime,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    with open(cfg.cache_path, "w") as fh:
        json.dump(data, fh, indent=1)


def _config_from(args) -> RunConfig:
    prec = args.prec if args.prec else int(os.environ.get("ASAIKIT_PREC", "128"))
    return RunConfig(
        precision_bits=prec,
        truncation_R=args.R,
        tolerance_exp=args.tol,
        seed=args.seed,
        p=args.p,
        j=args.j,
        s=args.s,
        eigenform_path=args.eigenform,
        cache_path=args.cache or DEFAULT_CACHE,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="asaikit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--j", type=int, default=None)
    v.add_argument("--s", type=str, default=None)
    v.add_argument("--R", type=int, default=100_000)
    v.add_argument("--prec", type=int, default=None)
    v.add_argument("--tol", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--eigenform", type=str, default=None)
    v.add_argument("--cache", type=str, default=None)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eisenstein", help="write an exact q-expansion")
    e.add_argument("--N", type=int, default=1)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--j", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--T", type=int, default=10)
    e.add_argument("--out", type=str, default=None)
    e.set_defaults(fn=cmd_eisenstein)

    kcmd = sub.add_parser("kummer", help="congruence sweep over a measure table")
    kcmd.add_argument("measure_table")
    kcmd.add_argument("--p", type=int, default=None)
    kcmd.add_argument("--j", type=int, default=1)
    kcmd.add_argument("--depth", type=int, default=2)
    kcmd.set_defaults(fn=cmd_kummer)

    r = sub.add_parser("report", help="emit the cached verification report")
    r.add_argument("--out", type=str, default=None)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--cache", type=str, default=None)
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
