"""Exact p-adic valuations on cyclotomic values and the finite-level
congruence checkers.

One engine, ``akc_check``, forms every congruence combination and takes its
valuation: if sum_i b_i f_i(y) lies in p^n O at every sampled unit y, then
sum_i b_i (integral of f_i) must too.  The specialized Kummer test
(``kummer_check``: characters against a table, hypothesis by orthogonality)
and the measure-gluing families (``glue_check``: one run per family) are both
calls into it, and nothing else here takes a valuation.

Valuations are computed exactly along one route, at orders p^a m' with m'
dividing p - 1 (m' = 1, 2 included): each prime above p is an embedding
sending zeta_m' to w^t, t a unit mod m', with w the Teichmueller root modulo
p^T that lifts g^((p-1)/m'), g = ``characters._primitive_root(p)``; the image
is expanded in the uniformizer pi = 1 - zeta_(p^a), and the lowest pi-adic
term gives the valuation there; the valuation is the minimum over those
primes.  The residue-degree > 1 case (any other m') is out of scope and
rejected.

All checkers only ever certify finite-level evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, inf

from .arith import CyclotomicNumber, _reduce_mod_cyclotomic, _split_order, cyclotomic_dot, euler_phi, is_prime, vp
from .characters import DirichletCharacter, _primitive_root, _unit_group, enumerate_characters

__all__ = [
    "padic_valuation",
    "KummerReport",
    "kummer_check",
    "AkcReport",
    "akc_check",
    "MeasureTable",
    "GlueReport",
    "glue_check",
    "single_m_weights",
    "dirac_measure_table",
]


# ---------------------------------------------------------------------------
# valuations


def padic_valuation(x: CyclotomicNumber, p: int) -> Fraction | float:
    """Valuation normalized with v(p) = 1, the minimum over the primes above p; +inf at zero.

    The order is p^a m' with m' | p - 1, so that every prime-to-p root of unity
    lives in Z_p.  The primes above p are the embeddings zeta_m' -> w^t,
    t in (Z/m')^x, with w the Teichmueller root; each sends x = X/den (X
    integral) into Z_p[zeta_q], q = p^a.  There 1 - zeta_q is a uniformizer
    with ramification index e = phi(q): writing the image as sum_j b_j pi^j,
    pi = 1 - zeta_q, j < e, the terms have pi-adic valuations e vp(b_j) + j,
    distinct mod e, so the smallest gives the valuation at that prime.  The
    b_j are known modulo p^T; a nonzero residue is exact, since every term
    with b_j = 0 mod p^T has valuation at least eT, and T doubles only when
    every residue is 0.
    """
    if x.is_zero():
        return inf
    if x.is_rational():
        return vp(x.as_rational(), p)
    a, m_prime = _split_order(x.order, p)
    if (p - 1) % m_prime:
        raise ValueError(
            f"mixed root order {x.order}: prime-to-p part {m_prime} does not embed in Z_{p}"
        )
    q = p**a
    e = euler_phi(q)
    ints, den = x.num, x.den
    # zeta_n = zeta_q^u zeta_m'^v: zeta_n^i goes to zeta_q^(iu) w^(t iv)
    u, v = pow(m_prime, -1, q), pow(q, -1, m_prime)
    least, T = inf, 24
    for t in _unit_group(m_prime).units:  # t = 0 when m' = 1
        while True:
            modulus = p**T
            w = pow(_teichmueller_root(p, m_prime, T), t, modulus)
            roots = [pow(w, r, modulus) for r in range(m_prime)]
            g = [0] * q
            for i, c in enumerate(ints):
                if c:
                    g[i * u % q] += c * roots[i * v % m_prime]
            g = _reduce_mod_cyclotomic(g, q)
            # zeta_q = 1 - pi; the sign (-1)^j of b_j does not change its valuation
            b = [sum(comb(i, j) * g[i] for i in range(j, e)) % modulus for j in range(e)]
            vals = [e * vp(bj, p) + j for j, bj in enumerate(b) if bj]
            if vals:
                break
            T *= 2
        least = min(least, *vals)
    return least / e - vp(den, p)


def _teichmueller_root(p: int, m_prime: int, T: int) -> int:
    """Primitive m'-th root of unity in Z/p^T: a Teichmueller lift.

    It lifts g^((p-1)/m') for the generator g = ``_primitive_root(p)`` of the
    unit group mod p (1 when m' = 1, the only m' at p = 2), so the choice of
    embedding is deterministic; the valuation, a minimum over all w^t, does
    not depend on it.  base^(p^(T-1)) mod p^T depends only on base mod p,
    and it is the root of x^m' = 1 congruent to base.
    """
    base = pow(_primitive_root(p), (p - 1) // m_prime, p)
    return pow(base, p ** (T - 1), p**T)


# ---------------------------------------------------------------------------
# Kummer congruences at one level


@dataclass(frozen=True)
class KummerReport:
    a: int
    j: int
    valuation: Fraction | float
    required: Fraction
    passed: bool


def kummer_check(
    table: dict[DirichletCharacter, CyclotomicNumber], a: int, j: int, p: int
) -> KummerReport:
    """sum over all chi mod p^j of chi^(-1)(a) value_chi, tested against p^(j-1).

    The table must cover every character mod p^j; the congruence target is
    valuation >= j - 1 (the exact margin of the Dirac control, since
    v(phi(p^j)) = j - 1).
    """
    chars = enumerate_characters(p**j)
    missing = [ch for ch in chars if ch not in table]
    if missing:
        raise ValueError(f"table is missing {len(missing)} characters mod {p}^{j}")
    if gcd(a, p) != 1:
        raise ValueError("a must be a unit")
    a_inv = pow(a, -1, p**j)  # chi^(-1)(a) = chi(a^(-1)): no inverse character is built
    # The functions are the characters themselves, and the hypothesis
    # sum_chi chi^(-1)(a) chi(y) = phi(p^j) [y = a] lies in p^(j-1) O at every
    # unit y by orthogonality, so nothing is sampled: sampling would cost
    # phi(p^j)^2 products per call.
    rep = akc_check([(ch.value(a_inv), {}) for ch in chars], [table[ch] for ch in chars], j - 1, p)
    return KummerReport(a % p**j, j, rep.conclusion_valuation, rep.required, rep.passed)


# ---------------------------------------------------------------------------
# abstract congruences on sampled functions


@dataclass(frozen=True)
class AkcReport:
    hypothesis_holds: bool
    counterexample_y: int | None
    conclusion_valuation: Fraction | float | None
    required: Fraction
    passed: bool | None


def akc_check(
    functions: list[tuple[CyclotomicNumber, dict[int, CyclotomicNumber]]],
    targets: list[CyclotomicNumber],
    n: int,
    p: int,
) -> AkcReport:
    """Finite-level surrogate of the abstract congruence criterion.

    ``functions`` pairs each weight b_i with the sampled values {y -> f_i(y)};
    if sum_i b_i f_i(y) has valuation >= n at every sampled y, the combination
    of targets must too.  A function given no samples adds nothing to the
    hypothesis, so a caller that proves it instead passes empty samples.
    Results are evidence at the sampled level, never a proof.
    """
    ys = sorted({y for _, vals in functions for y in vals})
    req = Fraction(n)
    for y in ys:
        if padic_valuation(cyclotomic_dot((b, vals[y]) for b, vals in functions if y in vals), p) < req:
            return AkcReport(False, y, None, req, None)
    v = padic_valuation(cyclotomic_dot((b, t) for (b, _), t in zip(functions, targets)), p)
    return AkcReport(True, None, v, req, v >= req)


# ---------------------------------------------------------------------------
# measure tables and gluing


@dataclass
class MeasureTable:
    """Finite family (m even, chi of p-power conductor) -> interpolated value."""

    p: int
    n: int
    entries: dict[tuple[int, DirichletCharacter], CyclotomicNumber] = field(default_factory=dict)

    def ms(self) -> list[int]:
        return sorted({m for (m, _) in self.entries})

    def dumps(self) -> str:
        lines = [f"p {self.p}", f"n {self.n}"]
        for (m, ch), val in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], kv[0][1].modulus, kv[0][1].exps)
        ):
            idx = enumerate_characters(ch.modulus).index(ch)
            vec = " ".join(map(str, val.coeffs))
            lines.append(f"entry {m} {ch.modulus} {idx} {val.order} {vec}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "MeasureTable":
        """Parse ``dumps`` output, rejecting any line that nothing reads.

        The header is one ``p`` line, p a prime, and one ``n`` line.  An entry
        key (m, chi) must have m in {0, 2, ..., n} and name, by an index in
        0..phi(modulus) - 1, a primitive character whose modulus is a power of
        p; each key may appear only once.
        """
        return MeasureTable.from_rows(*MeasureTable.parse(text))

    @staticmethod
    def parse(text: str) -> tuple[int, int, list[tuple]]:
        """The first step of ``loads``, which builds no character: p, n and each entry's
        (m, modulus, index, order, value coefficients), with the header, m and the modulus
        checked."""
        header: dict[str, str] = {}
        raw = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "entry":
                raw.append(parts[1:])
            elif parts[0] not in ("p", "n") or len(parts) != 2:
                raise ValueError(f"unexpected header line {line!r}: the header is one p and one n line")
            elif parts[0] in header:
                raise ValueError(f"repeated header {parts[0]}")
            else:
                header[parts[0]] = parts[1]
        for key in ("p", "n"):
            if key not in header:
                raise ValueError(f"measure table missing header {key}")
        p, n = int(header["p"]), int(header["n"])
        if not is_prime(p):
            raise ValueError(f"p must be a prime, got {p}")
        rows = []
        for row in raw:
            m, cond, idx, order = (int(x) for x in row[:4])
            if m % 2 or not 0 <= m <= n:
                raise ValueError(f"entry weight m = {m} is not one of 0, 2, ..., n = {n}")
            if cond < 1 or _split_order(cond, p)[1] != 1:
                raise ValueError(f"entry modulus {cond} is not a power of p = {p}")
            rows.append((m, cond, idx, order, row[4:]))
        return p, n, rows

    @staticmethod
    def from_rows(p: int, n: int, rows: list[tuple]) -> "MeasureTable":
        """The second step of ``loads``: the table of ``parse``'s rows, each index a primitive
        character named once."""
        entries = {}
        for m, cond, idx, order, coeffs in rows:
            chars = enumerate_characters(cond)
            if not 0 <= idx < len(chars):
                raise ValueError(f"entry character index {idx} is outside 0..{len(chars) - 1} mod {cond}")
            ch = chars[idx]
            if not ch.is_primitive:
                raise ValueError(f"entry character {idx} mod {cond} is not primitive")
            if (m, ch) in entries:
                raise ValueError(f"repeated entry for m = {m}, character {idx} mod {cond}")
            entries[(m, ch)] = CyclotomicNumber(order, [Fraction(x) for x in coeffs])
        return MeasureTable(p, n, entries)


def dirac_measure_table(p: int, n: int, u: int, j_max: int) -> MeasureTable:
    """Table of a point-mass measure at the unit u: entry(m, chi) = u^(-m) chi(u).

    Keys are primitive characters of conductor p^j' for j' <= j_max (one key
    per distinct character of the unit group).  Such a table satisfies every
    finite-level congruence family by construction, since the combined sums
    are literal evaluations at y = u.
    """
    if gcd(u, p) != 1:
        raise ValueError("u must be a unit")
    t = MeasureTable(p, n)
    for j in range(0, j_max + 1):
        for ch in enumerate_characters(p**j if j else 1):
            if not ch.is_primitive:
                continue
            for m in range(0, n + 1, 2):
                t.entries[(m, ch)] = ch.value(u) * Fraction(1, u**m)
    return t


def level_view(
    table: MeasureTable, m: int, j: int
) -> dict[DirichletCharacter, CyclotomicNumber]:
    """The m-slice of a table as a full character table mod p^j (primitive keys)."""
    out = {}
    for ch in enumerate_characters(table.p**j):
        out[ch] = table.entries[(m, ch.primitive())]
    return out


def single_m_weights(
    table: MeasureTable, m: int, a: int, j: int
) -> dict[tuple[int, DirichletCharacter], CyclotomicNumber]:
    """The weight family b_(m', chi) = chi^(-1)(a) [m' = m] reducing gluing to one level."""
    q = table.p**j
    if gcd(a, table.p) != 1:
        raise ValueError("a must be a unit")
    a_inv = pow(a, -1, q)
    return {(m, ch.primitive()): ch.value(a_inv) for ch in enumerate_characters(q)}


@dataclass(frozen=True)
class GlueReport:
    families: int
    hypothesis_failures: int
    passed: bool
    worst_valuation: Fraction | float
    required: Fraction


def glue_check(
    table: MeasureTable,
    weight_families: list[dict[tuple[int, DirichletCharacter], CyclotomicNumber]],
    j: int,
    depth: int = 2,
) -> GlueReport:
    """Mixed-family congruences: weights against x_p^(-m) chi over sampled units.

    Each family is one ``akc_check`` at n = j - 1, with the functions
    f_(m,chi)(y) = chi(y) / y^m sampled exactly on all units y mod p^(j+depth)
    and the table entries as their integrals; the reports are tallied here.
    """
    p = table.p
    # up to 10^6 units (cli.MAX_GLUE_UNITS), listed here: characters._unit_group's
    # unbounded cache would keep them for the life of the process
    units = [y for y in range(1, p ** (j + depth)) if gcd(y, p) == 1]
    reports = []
    for fam in weight_families:
        functions = [
            (b, {y: ch.value(y) * Fraction(1, y**m) for y in units}) for (m, ch), b in fam.items()
        ]
        reports.append(akc_check(functions, [table.entries[key] for key in fam], j - 1, p))
    held = [rep for rep in reports if rep.hypothesis_holds]
    worst = min((rep.conclusion_valuation for rep in held), default=inf)
    passed = all(rep.passed for rep in held)
    return GlueReport(len(reports), len(reports) - len(held), passed, worst, Fraction(j - 1))
