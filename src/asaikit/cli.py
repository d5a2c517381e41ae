"""Command-line driver: verification suites, q-expansion export, congruence
sweeps, and report emission.

Exit codes: 0 all checks pass, 1 a verification failed, 2 input or usage
error.  All randomness is drawn from --seed, so identical invocations give
identical reports; check results are cached to a JSON file for `report`.

`verify` with more than one suite runs each suite in a forked worker, at most
one per available CPU, when the platform forks and the process has no other
thread; the parent prints the rows in suite order and writes the same cache,
so output, exit code and cache are those of the in-process run, bar the
runtimes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import takewhile
from math import comb, gcd, isfinite

from . import arith, asai, characters, cohomology, distribution, eisenstein, padic

DEFAULT_CACHE = "asaikit_report_cache.json"
# gaps and radii are floats, which underflow to 0 near 2^(-1074); a finer --prec would
# pass a row on a gap that is no longer seen
MAX_PRECISION_BITS = 1000
MAX_S = 1000  # from --s 1000 on p^(j(s-1)) overflows every distribution gap; a larger s only costs memory
MAX_GLUE_UNITS = 10**6  # glue_check lists every unit mod p^(j+depth); 10^6 of them take about a minute
# the distribution relation folds the series mod p^(j+1): the worst level allowed, --p 3 --j 11,
# ran in 1.6 s (its first coset fails); the slowest passing run found, --p 3 --j 7 --tol 6, in 9.3 s
MAX_DISTRIBUTION_BUCKETS = 10**6
# the exact q-expansion lists every character mod M = N p^(2j), each with an M-entry table: the
# worst level below the bound, a prime M = 1999 at j = 0, takes about 3 s and 130 MB; M = 6561 0.7 GB
MAX_EISENSTEIN_MODULUS = 2000


def _flag(flag: str, default=None, type=int):
    """A RunConfig field set by the `verify` option `flag`, parsed by `type`."""
    return field(default=default, metadata={"flag": flag, "type": type})


@dataclass
class RunConfig:
    """Settings of one `verify` run: each field is set by one flag, or keeps its default."""

    precision_bits: int = _flag("--prec", 128)
    truncation_R: int = _flag("--R", 100_000)
    tolerance_exp: int = _flag("--tol", 10)
    seed: int = _flag("--seed", 0)
    p: int | None = _flag("--p")
    j: int | None = _flag("--j")
    s: str | None = _flag("--s", type=str)
    eigenform_path: str | None = _flag("--eigenform", type=str)
    cache_path: str = _flag("--cache", DEFAULT_CACHE, str)

    def __post_init__(self):
        if not 64 <= self.precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(f"--prec must be between 64 and {MAX_PRECISION_BITS} bits, got {self.precision_bits}")
        if self.tolerance_exp < 6:
            raise ValueError("tolerance exponent must be >= 6")
        if self.p is not None and (self.p < 3 or arith.factorize(self.p) != [(self.p, 1)]):
            raise ValueError(f"--p must be an odd prime, got {self.p}")
        if self.j is not None and self.j < 1:
            raise ValueError(f"--j must be >= 1, got {self.j}")
        if self.s is not None:
            try:
                _parse_s(self.s, 0)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"--s must be a rational or k+<rational>, got {self.s!r}") from None


def _run_check(suite: str, name: str, anchor: str, cases) -> dict:
    """Drive one check's cases and return its report row.

    ``cases`` yields ``(label, ok)`` per exact case and ``(label, gap, bound)``
    per numeric case, which passes when ``gap <= bound``.  The row keeps the
    largest gap; the first failing case ends the check as ``fail`` and its
    label becomes the detail.  A check that raises, or yields a gap that is
    not finite, is an ``error``.  What the generator returns (a count, say)
    is the detail of a pass.
    """
    t0 = time.perf_counter()
    status, worst, detail = "pass", None, ""
    try:
        while True:
            try:
                case = next(cases)
            except StopIteration as done:
                detail = done.value or ""
                break
            if len(case) == 3:
                label, gap, bound = case
                if not isfinite(gap):
                    raise FloatingPointError(f"{label}: gap {gap}")
                worst = gap if worst is None else max(worst, gap)
                ok = gap <= bound
            else:
                label, ok = case
            if not ok:
                status, detail = "fail", label
                break
    except Exception as exc:  # a crashed check is a failed check
        status, worst, detail = "error", None, f"{type(exc).__name__}: {exc}"
    runtime = time.perf_counter() - t0
    return {
        "suite": suite,
        "name": name,
        "anchor": anchor,
        "status": status,
        "gap": worst,
        "runtime": runtime,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# suite definitions
#
# A builder's parameters are the RunConfig fields its checks read; it returns
# (name, anchor, cases) per check, cases being a generator for `_run_check`.


def _read_eigenform(path: str) -> asai.MockEigenform:
    """The form in an eigenform file; an unreadable or malformed file is a ValueError."""
    try:
        with open(path) as fh:
            return asai.load_eigenform(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read the eigenform file: {exc}") from None
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed eigenform file {path}: {exc}") from None


def _mock_eigenform(seed: int, p: int, bound: int) -> asai.MockEigenform:
    rng = random.Random(seed + p + 2)  # 2: the weight of the mock form
    return asai.random_mock_eigenform(
        rng,
        k=2,
        N=1,
        p=p,
        prime_bound=bound,
        support_bound=80,
        support_min=31,
        c_num_bound=2,
        satake_units=(2, -2),
    )


def _suite_arith(seed: int, precision_bits: int) -> list:
    rng = random.Random(seed)

    def bernoulli_recurrence():
        for k in range(2, 31):
            s = sum(comb(k, i) * arith.bernoulli_number(i) for i in range(k))
            yield f"k={k}", s == 0

    def von_staudt():
        for k in range(2, 31, 2):
            den = arith.bernoulli_number(k).denominator
            prod = 1
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if k % (p - 1) == 0:
                    prod *= p
            yield f"k={k}: {den} != {prod}", den == prod

    def ring_axioms():
        for m in (3, 4, 5, 8, 9, 12):
            deg = arith.euler_phi(m)
            vals = [
                arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
                for _ in range(3)
            ]
            a, b, c = vals
            yield f"m={m}", (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
            yield f"norm m={m}", (a * b).norm() == a.norm() * b.norm()

    def embedding_hom():
        for m in (5, 8, 12):
            deg = arith.euler_phi(m)
            a = arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            b = arith.CyclotomicNumber(m, [Fraction(rng.randint(-5, 5)) for _ in range(deg)])
            diff = (a * b).embed(precision_bits) - a.embed(precision_bits) * b.embed(precision_bits)
            yield f"m={m}", abs(diff), 2.0 ** (12 - precision_bits)

    def bessel():
        mus = (3, 4)
        for nu in (0, 1, 2):
            # one call per nu: both moments share its kernel comparison
            for mu, rep in zip(mus, arith.bessel_k_moment_check(nu, mus, 1)):
                yield f"nu={nu} mu={mu}", max(rep.rel_err, rep.kernel_rel_err), 1e-6

    return [
        ("bernoulli-recurrence", "sum C(k,i) B_i = 0", bernoulli_recurrence()),
        ("von-staudt-clausen", "denominator of B_k = prod (p-1)|k p", von_staudt()),
        ("cyclotomic-ring-axioms", "associativity/distributivity mod Phi_m", ring_axioms()),
        ("embedding-homomorphism", "zeta_m -> exp(2 pi i/m) multiplicative", embedding_hom()),
        (
            "bessel-moment",
            "int K_nu(at) t^(mu-1) via Schlaefli = Gamma closed form; Schlaefli K_nu(a) = besselk",
            bessel(),
        ),
    ]


def _suite_characters(precision_bits: int) -> list:
    def orthogonality():
        for M in (5, 8, 12, 45, 50):
            chars = characters.enumerate_characters(M)
            units = characters._unit_group(M).units
            for a in units[:3]:
                for b in units[:3]:
                    s = arith.cyclotomic_dot((ch.value(a), ch.value(b).conjugate()) for ch in chars)
                    want = len(chars) if (a - b) % M == 0 else 0
                    yield f"M={M} a={a} b={b}", s == want

    def gauss_closed_form():
        for p in (3, 5):
            for j in (1, 2):
                q = p**j
                for ch in characters.enumerate_characters(q):
                    for M in range(0, q + 1):
                        r = characters.generalized_gauss_sum(ch, M, j)
                        yield f"p={p} j={j} M={M}", r.agrees

    def gauss_conjugation():
        for M in (5, 7, 9, 16):
            for ch in characters.enumerate_characters(M):
                if not ch.is_primitive or ch.is_trivial:
                    continue
                g = characters.gauss_sum(ch)
                gbar = characters.gauss_sum(ch.inverse())
                yield f"M={M}", g * gbar == ch.value(-1) * M

    def bernoulli_denominators():
        for p, j in ((3, 1), (3, 2), (5, 1)):
            for ch in characters.enumerate_characters(p**j):
                if not ch.is_primitive or ch.modulus == 1:
                    continue
                b = characters.generalized_bernoulli(2, ch)
                if b.is_zero():
                    continue
                v = padic.padic_valuation(b, p)
                yield f"p={p} j={j} v={v}", v >= -j

    def l_value_vs_series():
        quad5 = [
            c
            for c in characters.enumerate_characters(5)
            if not c.is_trivial and (c * c).is_trivial
        ][0]
        exact = characters.L_special_exact(2, quad5).numeric(precision_bits)
        approx = characters.L_truncated(2, quad5, 20000, precision_bits)
        yield "quadratic mod 5, R=20000", abs(exact - approx), 1.05 * approx.rad

    return [
        ("orthogonality", "sum_chi chi(a) chibar(b) = phi(M) [a=b]", orthogonality()),
        ("generalized-gauss-closed-form", "G_{M,p^j} = p^(j-j_chi) G(chi) chibar(M/p^(j-j_chi))", gauss_closed_form()),
        ("gauss-conjugation", "G(chi) G(chibar) = chi(-1) C", gauss_conjugation()),
        ("twisted-bernoulli-denominator", "B_{k,psibar} in p^(-j) integers", bernoulli_denominators()),
        ("special-value-vs-series", "L(k,psi) closed form vs truncation", l_value_vs_series()),
    ]


def _suite_asai(seed: int) -> list:
    rng = random.Random(seed + 17)

    def splitting_kronecker():
        for D in (3, 4, 7, 8, 11):
            fld = asai.QuadFieldData(D)
            for l in arith.primes_up_to(500):
                s = fld.splitting(l)
                if D % l == 0:
                    ok = s == "ramified"
                elif l == 2:
                    ok = s == ("split" if (-D) % 8 == 1 else "inert")
                else:
                    qr = any((x * x + D) % l == 0 for x in range(l))
                    ok = s == ("split" if qr else "inert")
                yield f"D={D} l={l}", ok

    def euler_product():
        for trial in range(5):
            k = rng.choice((2, 3, 4))
            p = rng.choice((5, 13))
            f = asai.random_mock_eigenform(rng, k=k, N=1, p=p, prime_bound=200)
            rep = asai.euler_vs_coefficients(f, 200)
            yield f"trial {trial} r={rep.first_mismatch}: d(r) = {rep.expected}, Euler product {rep.got}", rep.ok

    def multiplicativity():
        f = asai.random_mock_eigenform(rng, k=2, N=1, p=5, prime_bound=120)
        for r1 in range(1, 11):
            for r2 in range(1, 11):
                if gcd(r1, r2) == 1 and r1 * r2 <= 100:
                    lhs = asai.asai_coeff(f, r1 * r2)
                    yield f"({r1},{r2})", lhs == asai.asai_coeff(f, r1) * asai.asai_coeff(f, r2)

    def ordinary_identities():
        for trial in range(20):
            f = asai.random_mock_eigenform(rng, k=rng.choice((2, 3)), N=1, p=5, prime_bound=30)
            od = asai.ordinary_data(f)
            d_p = asai._power_series_inverse(list(od.F_poly), 20)  # d_p(e) = d_p[e], d_p(e < 0) = 0
            geo = [sum(od.B[i] * d_p[e - i] for i in range(min(e, 3) + 1)) for e in range(21)]
            yield f"trial {trial}", geo == [od.kappa**e for e in range(21)]

    return [
        ("splitting-vs-kronecker", "split/inert/ramified by (-D|l)", splitting_kronecker()),
        ("euler-product", "prod G_l(s,f) = sum d(r) r^(-s)", euler_product()),
        ("asai-multiplicativity", "d(r1 r2) = d(r1) d(r2), coprime", multiplicativity()),
        ("ordinary-factorization", "H/F geometric in kappa; kappa^v = sum B_i d_p(v-i)", ordinary_identities()),
    ]


def _distribution_primes(p: int | None, form: asai.MockEigenform | None) -> tuple[int, ...]:
    """The primes the distribution suite runs at: the form's own p, else --p, else 3 and 5."""
    if form is not None:
        return (form.p,)
    return (3, 5) if p is None else (p,)


def _check_distribution_settings(cfg: RunConfig, form: asai.MockEigenform | None) -> None:
    """Reject, before any suite runs, the settings the distribution suite cannot run at."""
    if form is not None and cfg.p is not None and cfg.p != form.p:
        raise ValueError(f"the eigenform is for p={form.p}, got --p {cfg.p}")
    for p in _distribution_primes(cfg.p, form):
        if cfg.truncation_R < p * p:
            raise ValueError(f"--R must be at least p^2 = {p * p}, got {cfg.truncation_R}")
        if cfg.j is not None and p ** min(cfg.j + 1, 20) > MAX_DISTRIBUTION_BUCKETS:  # p >= 3, so p^20 > 10^6
            buckets = f"{p}^{cfg.j + 1}"
            raise ValueError(f"--j {cfg.j} folds the series into {buckets} buckets, over {MAX_DISTRIBUTION_BUCKETS:,}")
    k = 2 if form is None else form.k  # 2: the weight of the mock form
    if cfg.s is not None and not k + 1 < _parse_s(cfg.s, k) <= MAX_S:
        raise ValueError(f"--s must exceed k + 1 = {k + 1} and be at most {MAX_S}, got {cfg.s!r}")


def _suite_distribution(
    seed: int,
    precision_bits: int,
    truncation_R: int,
    tolerance_exp: int,
    p: int | None,
    j: int | None,
    s: str | None,
    eigenform_path: str | None,
) -> list:
    cache: dict[int, distribution.DistParams] = {}
    form = _read_eigenform(eigenform_path) if eigenform_path else None
    primes = _distribution_primes(p, form)
    levels = (1, 2) if j is None else (j,)
    tol = 10.0 ** (-tolerance_exp)

    def run_for(p):
        if p not in cache:
            f = form if form is not None else _mock_eigenform(seed, p, truncation_R)
            point = Fraction(f.k + 3) if s is None else _parse_s(s, f.k)
            cache[p] = distribution.DistParams(f, f.p, point, truncation_R, precision_bits)
        return cache[p]

    def dist_relation():
        for p in primes:
            params = run_for(p)
            for j in levels:
                for a in characters._unit_group(p**j).units:
                    rep = distribution.verify_distribution_relation(params, a, j)
                    yield f"p={p} j={j} a={a}", rep.gap, tol

    def interpolation():
        for p in primes:
            params = run_for(p)
            for M in (1, p, p * p):
                for chi in characters.enumerate_characters(M):
                    rep = distribution.check_interpolation(params, chi)
                    yield f"p={p} M={M} chi={chi.exps}", rep.gap, tol

    def j_independence():
        for p in primes:
            params = run_for(p)
            for chi in characters.enumerate_characters(p):
                v1 = distribution.integrate_character(params, chi, 1)
                v2 = distribution.integrate_character(params, chi, 2)
                yield f"p={p} chi={chi.exps}", abs(v1 - v2), tol

    return [
        ("distribution-relation", "coset refinement sums match", dist_relation()),
        ("interpolation-identity", "coset sum = p^(j(s-1))/kappa^j G(chi) G(s,chibar,f)", interpolation()),
        ("j-independence", "character integral stable in the level", j_independence()),
    ]


def _suite_eisenstein(seed: int, precision_bits: int) -> list:
    rng = random.Random(seed + 5)

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
                if fml != conj:  # only a failing case's label is read
                    yield f"{params} {g}", False
                count += fml
        return f"{count} members found"

    def constant_terms():
        for (N, p, j, k) in ((1, 3, 1, 4), (6, 5, 1, 4), (2, 3, 2, 4), (1, 3, 0, 6)):
            a0 = eisenstein.constant_term(eisenstein.LevelParams(N, p, j, k))
            yield f"({N},{p},{j},{k})", a0 == 1

    def exact_vs_analytic():
        for (N, p, j, k) in ((1, 3, 1, 4), (2, 3, 1, 4), (1, 5, 1, 4), (1, 3, 1, 6)):
            params = eisenstein.LevelParams(N, p, j, k)
            analytic = eisenstein.higher_coeffs_analytic(params, (1, 2, 3), precision_bits)
            for lpp, a in zip((1, 2, 3), analytic):
                d = eisenstein.higher_coeff_exact(params, lpp).embed(precision_bits) - a
                yield f"({N},{p},{j},{k}) l''={lpp}", abs(d), d.rad

    def classical():
        e4 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 4), 3)
        yield "E4", [c.as_rational() for c in e4.coeffs] == [1, 240, 2160, 6720]
        e6 = eisenstein.classical_reduction(eisenstein.LevelParams(1, 3, 0, 6), 2)
        yield "E6", [c.as_rational() for c in e6.coeffs] == [1, -504, -16632]

    def lambda_bijection():
        # The reference completes each coprime (c, d) with c = 0 mod M to a matrix of SL2(Z)
        # and asks the conjugation criterion: any completion will do, as a = d^(-1) mod p^j
        # is fixed and a moves only by multiples of c.  At p^j = 3 every d prime to c is
        # +-1 mod 3, so the level p = 5 is where the d-condition acts.
        counts = []
        for (N, p, j, k), height in (((2, 3, 1, 4), 40), ((1, 5, 1, 4), 60)):
            params = eisenstein.LevelParams(N, p, j, k)
            lam = eisenstein.enumerate_lambda(params, height)
            ref = set()
            for c in range(0, height + 1, params.modulus):
                for d in range(-height if c else 1, height + 1):
                    if gcd(c, d) == 1:
                        a, b = _complete_sl2(c, d)
                        if eisenstein.membership_two_ways(params, eisenstein.IntMatrix2(a, b, c, d))[1]:
                            ref.add((c, d))
            yield f"({N},{p},{j},{k}) {len(lam)} cosets, {len(ref)} pairs", set(lam) == ref
            counts.append(str(len(lam)))
        return f"{', '.join(counts)} pairs"

    return [
        ("membership-dual-path", "a=d mod p^j, c=0 mod Np^2j vs conjugation", membership()),
        ("constant-term", "a_0 = 1 by orthogonality", constant_terms()),
        ("exact-vs-analytic", "Bernoulli route vs Moebius series", exact_vs_analytic()),
        ("classical-reduction", "1 - (2k/B_k) sum sigma_(k-1) q^n", classical()),
        ("lambda-bijection", "cosets <-> constrained coprime pairs", lambda_bijection()),
    ]


def _suite_cohomology(seed: int) -> list:
    rng = random.Random(seed + 23)
    D = 3

    def rand_poly(n):
        return cohomology.BiHomogPoly(
            n,
            D,
            {
                (i, j): cohomology.QuadCoeff(rng.randint(-3, 3), rng.randint(-3, 3), D)
                for i in range(n + 1)
                for j in range(n + 1)
                if rng.random() < 0.7
            },
        )

    def action_law():
        for trial in range(20):
            g1, g2 = _random_sl2_rows(rng), _random_sl2_rows(rng)
            P = rand_poly(2)
            lhs = cohomology.sl2_act(_matmul(g1, g2), P)
            yield f"trial {trial}", lhs == cohomology.sl2_act(g1, cohomology.sl2_act(g2, P))

    def equivariance():
        for _ in range(10):
            g = _random_sl2_rows(rng)
            P = rand_poly(2)
            for m in range(3):
                lhs = cohomology.clebsch_project(cohomology.sl2_act(g, P), m)
                yield f"m={m}", lhs == cohomology.homog_act(g, cohomology.clebsch_project(P, m))

    def denominator_lemma():
        for n in (2, 3):
            for m in range(0, n + 1):
                for j in (1, 2):
                    rep = cohomology.denominator_lemma_check(n, m, 5, j, 20, rng)
                    yield f"n={n} m={m} j={j}", rep.ok

    def psi_identity():
        for n in range(0, 5):
            rep = cohomology.psi_identity_check(n)
            yield f"n={n} alpha={rep.first_bad}", rep.ok

    return [
        ("action-composition", "(g1 g2).P = g1.(g2.P)", action_law()),
        ("projection-equivariance", "component projection commutes with the action", equivariance()),
        ("denominator-lemma", "valuation >= -j(2n-m) after projection", denominator_lemma()),
        ("auxiliary-identity", "component closed form A^2 c_a - 2AB c_(a-1) + B^2 c_(a-2)", psi_identity()),
    ]


def _suite_padic(seed: int) -> list:
    rng = random.Random(seed + 31)

    def valuation_axioms():
        for m, p in ((9, 3), (27, 3), (25, 5)):
            deg = arith.euler_phi(m)
            for _ in range(6):
                a = arith.CyclotomicNumber(m, [Fraction(rng.randint(-6, 6)) for _ in range(deg)])
                b = arith.CyclotomicNumber(m, [Fraction(rng.randint(-6, 6)) for _ in range(deg)])
                if a.is_zero() or b.is_zero():
                    continue
                va, vb = padic.padic_valuation(a, p), padic.padic_valuation(b, p)
                yield f"mult m={m}", padic.padic_valuation(a * b, p) == va + vb
                yield f"ultrametric m={m}", padic.padic_valuation(a + b, p) >= min(va, vb)

    def dirac_control():
        for p in (3, 5):
            for j in (1, 2, 3):
                chars = characters.enumerate_characters(p**j)
                u = (1 + p) % p**j
                table = {ch: ch.value(u) for ch in chars}
                for a in takewhile(lambda a: a < 30, characters._unit_group(p**j).units):
                    rep = padic.kummer_check(table, a, j, p)
                    yield f"p={p} j={j} a={a}", rep.passed
                    if a % p**j == u:
                        yield f"margin p={p} j={j}", rep.valuation == j - 1

    def negative_control():
        chars = characters.enumerate_characters(9)
        prim = [c for c in chars if c.is_primitive][0]
        table = {
            ch: arith.CyclotomicNumber.from_rational(1 if ch == prim else 0) for ch in chars
        }
        rep = padic.kummer_check(table, 2, 2, 3)
        yield f"passed with v={rep.valuation}", not rep.passed
        return f"v={rep.valuation}"

    def glue_reduction():
        tab = padic.dirac_measure_table(3, 2, 4, 2)
        for m in (0, 2):
            for a in (1, 2):
                fam = padic.single_m_weights(tab, m, a, 1)
                acc = arith.cyclotomic_dot((b, tab.entries[key]) for key, b in fam.items())
                sub = padic.level_view(tab, m, 1)
                a_inv = pow(a, -1, 3)
                acc2 = arith.cyclotomic_dot((ch.value(a_inv), x) for ch, x in sub.items())
                yield f"m={m} a={a}", acc == acc2
        rep = padic.glue_check(tab, [padic.single_m_weights(tab, 0, 1, 1)], 1, depth=1)
        yield "glue_check", rep.passed

    return [
        ("valuation-axioms", "v(xy)=v(x)+v(y); v(x+y)>=min", valuation_axioms()),
        ("dirac-kummer-control", "sum chi^(-1)(a) chi(u) = phi(p^j)[a=u]", dirac_control()),
        ("negative-control", "single-character table fails", negative_control()),
        ("glue-single-m", "family reduction equals one-level check", glue_reduction()),
    ]


def _random_sl2(rng: random.Random, steps: int = 8) -> "eisenstein.IntMatrix2":
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        t = rng.randrange(7) - 3  # randint(-3, 3)'s draw, without its argument handling
        if rng.random() < 0.5:
            a, b = a + t * c, b + t * d
        else:
            c, d = c + t * a, d + t * b
    return eisenstein.IntMatrix2(a, b, c, d)


def _random_sl2_rows(rng: random.Random):
    g = _random_sl2(rng, 6)
    return ((g.a, g.b), (g.c, g.d))


def _complete_sl2(c: int, d: int) -> tuple[int, int]:
    """(a, b) with a d - b c = 1, for coprime c and d (so d = +-1 when c = 0)."""
    if c == 0:
        return d, 0
    a = pow(d, -1, abs(c))
    return a, (a * d - 1) // c


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
SUITES = tuple(SUITE_BUILDERS)


def _suite_rows(suite: str, settings: dict):
    """One suite's report rows, each as its check ends: the builder's checks, each run by `_run_check`."""
    for name, anchor, cases in SUITE_BUILDERS[suite](**settings):
        yield _run_check(suite, name, anchor, cases)


def _available_cpus() -> int:
    """The CPUs this process may run on, and so the most suites `verify` runs at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _WorkerFailed(Exception):
    """A suite's worker exited nonzero, died on a signal or sent incomplete rows."""


def _rows_in_workers(jobs: list[tuple[str, dict]], slots: int, emit) -> None:
    """Run `_suite_rows` for each (suite, settings) job in a forked worker, at most `slots` alive.

    Workers start in job order, each as a slot frees.  ``emit(row)`` is called for every
    row in job order too, for each job as soon as it and every earlier job are done.  A
    worker sends its rows as JSON down a pipe, which is exact: every gap is a finite
    float or None.  A failed worker raises `_WorkerFailed`; on the way out, by return
    or by any exception, every live worker is killed and reaped.
    """
    import selectors
    import signal

    sel = selectors.DefaultSelector()
    live = {}  # pid -> index of its job
    chunks: dict[int, list[bytes]] = {}
    done = {}  # job index -> rows not yet emitted
    started = emitted = 0
    try:
        while emitted < len(jobs):
            while started < len(jobs) and len(live) < slots:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    _worker(w, *jobs[started])
                os.close(w)
                live[pid], chunks[started] = started, []
                sel.register(r, selectors.EVENT_READ, pid)
                started += 1
            for key, _ in sel.select():
                i = live[key.data]
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[i].append(chunk)
                    continue
                sel.unregister(key.fd)
                os.close(key.fd)
                code = os.waitstatus_to_exitcode(os.waitpid(key.data, 0)[1])
                del live[key.data]
                suite = jobs[i][0]
                if code:
                    how = f"exit status {code}" if code > 0 else f"signal {-code}"
                    raise _WorkerFailed(f"the {suite} suite's worker ended with {how}")
                try:
                    done[i] = json.loads(b"".join(chunks.pop(i)))
                except ValueError:
                    raise _WorkerFailed(f"the {suite} suite's worker sent incomplete rows") from None
            while emitted in done:
                for row in done.pop(emitted):
                    emit(row)
                emitted += 1
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for key in list(sel.get_map().values()):
            os.close(key.fd)
        sel.close()


def _worker(fd: int, suite: str, settings: dict) -> None:
    """A forked worker: write the suite's rows as JSON to the pipe ``fd``, then end the process.

    It never returns into its caller, never flushes the stdio buffers it inherited
    (`os._exit`), and exits 1 on any exception, an interrupt included.
    """
    code = 1
    try:
        rows = json.dumps(list(_suite_rows(suite, settings))).encode()
        with open(fd, "wb") as pipe:
            pipe.write(rows)
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    # a suite reads the RunConfig fields its builder takes; a flag no selected suite reads is an error
    reads = {n: list(inspect.signature(SUITE_BUILDERS[n]).parameters) for n in names}
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name) is not None}
    read_any = {"cache_path"}.union(*reads.values())
    unread = [f.metadata["flag"] for f in fields(RunConfig) if f.name in given and f.name not in read_any]
    if unread:
        print(f"error: verify {args.suite} does not read {', '.join(unread)}", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig(**given)
        form = _read_eigenform(cfg.eigenform_path) if cfg.eigenform_path else None
        if "distribution" in names:
            _check_distribution_settings(cfg, form)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = [(suite, {name: getattr(cfg, name) for name in reads[suite]}) for suite in names]
    rows = []

    def emit(row):
        mark = "PASS" if row["status"] == "pass" else "FAIL"
        gap = "" if row["gap"] is None else f" gap={row['gap']:.3e}"
        detail = f" [{row['detail']}]" if row["detail"] and row["status"] != "pass" else ""
        print(f"[{mark}] {row['suite']}/{row['name']}{gap} ({row['runtime']:.2f}s){detail}")
        rows.append(row)

    slots = min(len(jobs), _available_cpus())
    if slots > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        try:
            _rows_in_workers(jobs, slots, emit)
        except _WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        for suite, settings in jobs:
            for row in _suite_rows(suite, settings):
                emit(row)
    try:
        with open(cfg.cache_path, "w") as fh:
            json.dump({"config": asdict(cfg), "results": rows}, fh, indent=1)
    except OSError as exc:
        print(f"error: cannot write the report cache: {exc}", file=sys.stderr)
        return 2
    all_ok = all(row["status"] == "pass" for row in rows)
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
        if params.modulus > MAX_EISENSTEIN_MODULUS:
            raise ValueError(f"the level M = N p^(2j) = {params.modulus} exceeds {MAX_EISENSTEIN_MODULUS}")
        exp = eisenstein.qexpansion(params, args.T)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _emit(eisenstein.dump_qexpansion(exp), args.out):
        return 2
    print(f"a_0 = {exp.coeffs[0]}  c_j = {exp.c_j}")
    return 0


def cmd_kummer(args) -> int:
    if args.j < 1 or args.depth < 0:
        print(f"error: need --j >= 1 and --depth >= 0, got --j {args.j} --depth {args.depth}", file=sys.stderr)
        return 2
    try:
        with open(args.measure_table) as fh:
            table = padic.MeasureTable.loads(fh.read())
    except OSError as exc:
        print(f"error: cannot read measure table: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        print(f"error: malformed measure table: {exc}", file=sys.stderr)
        return 2
    p, j = table.p, args.j
    if args.p is not None and args.p != p:
        print(f"error: table is for p={p}, got --p {args.p}", file=sys.stderr)
        return 2
    if p ** min(j + args.depth, 20) > MAX_GLUE_UNITS:  # p >= 2, so p^20 > 10^6
        units = f"{p}^{j + args.depth}"
        print(f"error: --j + --depth lists the units mod {units}, over {MAX_GLUE_UNITS:,}", file=sys.stderr)
        return 2
    try:  # every slice the sweep and the gluing families read, before any output
        sub = padic.level_view(table, 0, j)
        for m in table.ms():
            padic.level_view(table, m, j)
    except KeyError:
        print("error: table lacks characters at this level", file=sys.stderr)
        return 2
    ok = True
    for a in characters._unit_group(p**j).units:
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
    try:
        with open(cache) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the report cache {cache}: {exc}", file=sys.stderr)
        return 2
    rows = data.get("results") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(map(_is_row, rows)):
        print(f"error: {cache} holds no list of result rows; rerun `verify`", file=sys.stderr)
        return 2
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
    return 0 if _emit(payload, args.out) else 2


def _is_row(row) -> bool:
    """Whether a cached row has the fields `report` prints, as `_run_check` writes them."""
    return (
        isinstance(row, dict)
        and all(isinstance(row.get(key), str) for key in ("suite", "name", "anchor"))
        and row.get("status") in ("pass", "fail", "error")
        # exact types: a JSON true or false loads as a bool, which isinstance counts as an int
        and type(row.get("runtime")) in (int, float)
        and isfinite(row["runtime"])
        and "gap" in row
        and (row["gap"] is None or type(row["gap"]) in (int, float) and isfinite(row["gap"]))
    )


def _emit(text: str, out: str | None) -> bool:
    """Write text to the file ``out``, or to stdout without one; False, after an error line, if it cannot."""
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {out}")
    return True


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="asaikit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    # default None: cmd_verify tells a given flag from an absent one, RunConfig holds the defaults
    for f in fields(RunConfig):
        v.add_argument(f.metadata["flag"], dest=f.name, type=f.metadata["type"])
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
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # stdout's reader is gone (`asaikit verify all | head`): send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
