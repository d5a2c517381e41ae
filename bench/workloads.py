"""The three benchmark workloads.

Each workload has a ``setup(seed, tmpdir)`` that builds its seeded inputs and
a ``run(inputs, tally)`` that makes one timed pass.  Every comparison goes
through the tally at the tolerances fixed in tests/test_acceptance.py, and
every exact output is fed into the tally's digest, so that two commits can be
checked for bit-identical exact results.

Calls into the package always go through the module attribute
(``distribution.P_s``, not a copied name), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd, inf

from mpmath import mp

from asaikit import arith, asai, characters, cli, cohomology, distribution, eisenstein, padic

DIST_TOL = 1e-10  # criteria 03/04: distribution checks at R = 1e5, j <= 2
QEXP_REL_TOL = 1e-8  # criterion 07: exact against analytic q-coefficients
LPPS = (1, 2, 3, 4, 5)


class Tally:
    """Comparisons attempted and failed, plus a digest of every exact output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._hash = hashlib.sha256()

    def check(self, label: str, fn) -> None:
        """One comparison; fn returns its verdict."""
        self.group(label, 1, lambda: [fn()])

    def group(self, label: str, n: int, fn) -> None:
        """n comparisons computed together; fn returns their n verdicts.

        A computation that raises fails all n: an erroring check is a failed check.
        """
        try:
            oks = [bool(ok) for ok in fn()]
            if len(oks) != n:
                raise RuntimeError(f"expected {n} verdicts, got {len(oks)}")
        except Exception as exc:
            oks = [False] * n
            label = f"{label}: {type(exc).__name__}: {exc}"
        self.attempted += n
        bad = oks.count(False)
        self.failed += bad
        if bad and len(self.failures) < 5:
            self.failures.append(label)

    def exact(self, *values) -> None:
        self._hash.update(repr(_canonical(values)).encode())

    def digest(self) -> str:
        return self._hash.hexdigest()


def _canonical(x):
    if isinstance(x, arith.CyclotomicNumber):
        return ("cyc", x.order, tuple((c.numerator, c.denominator) for c in x.coeffs))
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if isinstance(x, (list, tuple)):
        return tuple(_canonical(v) for v in x)
    return x


def _stratified(rng: random.Random, items: list, n: int) -> list:
    """One item from each of n consecutive, nearly equal slices of items.

    The items are sorted by a cost proxy first, so each seed draws a sample of
    about the same cost and the seed moves the inputs, not the run time.
    """
    cuts = [round(i * len(items) / n) for i in range(n + 1)]
    return [items[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def _rel_gap(exact, analytic) -> float:
    """Criterion 07's measure: |exact - analytic| / max(1, |analytic|) at 160 bits."""
    with mp.workprec(160):
        gap = float(abs(exact.embed(128).to_mpc() - analytic.to_mpc()))
        return gap / max(1.0, float(abs(analytic.to_mpc())))


def _level_grid(j: int) -> list[tuple[int, int, int]]:
    """(N, p, k) with N p^(2j) <= 200, as in the acceptance grid; one p per N at j = 0."""
    out = []
    if j == 0:
        for N in range(1, 201):
            p = next(q for q in (3, 5, 7, 11, 13) if N % q)
            out += [(N, p, k) for k in (4, 6)]
        return out
    for p in (3, 5, 7, 11, 13):
        N = 1
        while N * p ** (2 * j) <= 200:
            if N % p:
                out += [(N, p, k) for k in (4, 6)]
            N += 1
    return out


# ---------------------------------------------------------------------------
# verify-all: the CLI end to end


def setup_verify_all(seed: int, tmpdir: str) -> dict:
    cache = os.path.join(tmpdir, "report.json")
    return {"argv": ["verify", "all", "--seed", str(seed), "--cache", cache], "cache": cache}


def run_verify_all(inputs: dict, tally: Tally) -> dict:
    suite_s = dict.fromkeys(cli.SUITES, 0.0)

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs["argv"])
        with open(inputs["cache"]) as fh:
            rows = json.load(fh)["results"]
        for row in rows:
            tally.check(f"{row['suite']}/{row['name']}", lambda: row["status"] == "pass")
            tally.exact(row["suite"], row["name"], row["status"])
            suite_s[row["suite"]] += row["runtime"]
        return code == 0

    tally.check("verify all: exit status", verify)
    return {f"cli.suite.{s}.s": t for s, t in suite_s.items()}


# ---------------------------------------------------------------------------
# analytic-sweep: distribution checks and the Moebius series (criteria 03/04/07)

DIST_R = 100_000
ANALYTIC_LEVELS = 20


def setup_analytic_sweep(seed: int, tmpdir: str) -> dict:
    forms = {}
    for p in (3, 5):
        # acceptance-style mock form (tests/conftest.py: acceptance_mock)
        rng = random.Random(f"analytic-sweep/{seed}/{p}")
        forms[p] = asai.random_mock_eigenform(
            rng,
            k=2,
            N=1,
            p=p,
            prime_bound=DIST_R,
            support_bound=80,
            support_min=31,
            c_num_bound=2,
            satake_units=(2, -2),
        )
    grid = sorted(_level_grid(0), key=lambda t: (t[2], t[0]))
    levels = _stratified(random.Random(f"analytic-sweep/{seed}/levels"), grid, ANALYTIC_LEVELS)
    return {"forms": forms, "levels": levels}


def run_analytic_sweep(inputs: dict, tally: Tally) -> dict:
    for p, f in inputs["forms"].items():
        params = distribution.DistParams(f, p, Fraction(5), DIST_R, 128)
        for j in (1, 2):
            for a in range(1, p**j):
                if gcd(a, p) == 1:
                    tally.check(
                        f"distribution relation p={p} j={j} a={a}",
                        lambda: distribution.verify_distribution_relation(params, a, j).gap < DIST_TOL,
                    )
        for M in (1, p, p * p):
            for chi in characters.enumerate_characters(M):
                tally.check(
                    f"interpolation p={p} chi={chi.modulus}:{chi.exps}",
                    lambda: distribution.check_interpolation(params, chi).gap < DIST_TOL,
                )
    for N, p, k in inputs["levels"]:
        params = eisenstein.LevelParams(N, p, 0, k)

        def coefficients():
            exact = eisenstein.classical_reduction(params, len(LPPS)).coeffs[1:]
            analytic = eisenstein.higher_coeffs_analytic(params, LPPS, 128)
            tally.exact(exact)
            return [_rel_gap(e, a) < QEXP_REL_TOL for e, a in zip(exact, analytic)]

        tally.group(f"q-coefficients N={N} p={p} k={k}", len(LPPS), coefficients)
    return {}


# ---------------------------------------------------------------------------
# exact-sweep: Gauss sums, exact q-expansions, denominators, Kummer margins
# (criteria 01/06/07/09/11)


GAUSS_M = 8
EXACT_LEVELS = 8
DENOMINATOR_TRIALS = 15
KUMMER_UNITS = 20


def setup_exact_sweep(seed: int, tmpdir: str) -> dict:
    rng = random.Random(f"exact-sweep/{seed}")
    # 11 and 13 have one level each (N = 1) and are the costliest moduli, so
    # one weight always runs at each; the rest is sampled in strata of phi(M).
    grid = _level_grid(1)
    fixed = [(1, 11, 6), (1, 13, 4)]
    rest = sorted((t for t in grid if t[1] not in (11, 13)), key=lambda t: (arith.euler_phi(t[0] * t[1] ** 2), t[2]))
    kummer = []
    for p, j in ((3, 3), (5, 3)):
        units = [a for a in range(1, p**j) if a % p]
        u = rng.choice(units)  # the Dirac point; it carries the exact margin j - 1
        others = [a for a in units if a != u]
        tested = sorted(rng.sample(others, min(KUMMER_UNITS - 1, len(others))) + [u])
        kummer.append((p, j, u, tested))
    return {
        "gauss_M": sorted(rng.sample(range(0, 126), GAUSS_M)),
        "levels": fixed + _stratified(rng, rest, EXACT_LEVELS - len(fixed)),
        "denominator_seed": rng.getrandbits(64),
        "kummer": kummer,
    }


def run_exact_sweep(inputs: dict, tally: Tally) -> dict:
    for chi in characters.enumerate_characters(125):
        for M in inputs["gauss_M"]:

            def gauss():
                r = characters.generalized_gauss_sum(chi, M, 3)
                tally.exact(r.value)
                return r.agrees

            tally.check(f"gauss sum chi={chi.exps} M={M}", gauss)
    for N, p, k in inputs["levels"]:
        params = eisenstein.LevelParams(N, p, 1, k)

        def constant():
            a0 = eisenstein.constant_term(params)
            tally.exact(a0)
            return a0 == 1

        def coefficients():
            exact = [eisenstein.higher_coeff_exact(params, lpp) for lpp in LPPS]
            analytic = eisenstein.higher_coeffs_analytic(params, LPPS, 128)
            tally.exact(exact)
            return [_rel_gap(e, a) < QEXP_REL_TOL for e, a in zip(exact, analytic)]

        tally.check(f"constant term N={N} p={p} k={k}", constant)
        tally.group(f"q-coefficients N={N} p={p} k={k}", len(LPPS), coefficients)
    rng = random.Random(inputs["denominator_seed"])
    for n in range(0, 4):
        for m in range(0, n + 1):
            for j in (0, 1, 2):
                for p in (5, 7):

                    def denominators():
                        rep = cohomology.denominator_lemma_check(n, m, p, j, DENOMINATOR_TRIALS, rng)
                        tally.exact(rep.worst, rep.worst_pre)
                        return rep.ok

                    tally.check(f"denominator lemma n={n} m={m} j={j} p={p}", denominators)
    for p, j, u, tested in inputs["kummer"]:
        table = {ch: ch.value(u) for ch in characters.enumerate_characters(p**j)}
        for a in tested:

            def margin():
                rep = padic.kummer_check(table, a, j, p)
                tally.exact(rep.valuation)
                # Dirac control: the sum is phi(p^j) [a = u], of valuation exactly j - 1
                return rep.passed and rep.valuation == (Fraction(j - 1) if a == u else inf)

            tally.check(f"kummer p={p} j={j} a={a}", margin)
    return {}


WORKLOADS = {
    "verify-all": (setup_verify_all, run_verify_all),
    "analytic-sweep": (setup_analytic_sweep, run_analytic_sweep),
    "exact-sweep": (setup_exact_sweep, run_exact_sweep),
}
