"""Complex-valued distributions on Z_p^x attached to a mock eigenform.

The coset values interpolate the twisted coefficient series
P_s(b) = sum d(r) e(r b) r^(-s); everything is evaluated in the region of
absolute convergence s > k+1.  Every value is an ``arith.Ball``: a series
truncated at R carries its tail bound and its rounding in the radius, and
coset values, character integrals and the closed form propagate those radii
through Ball arithmetic.  The tail's majorant constant is taken from the
computed range of |d(r)|/r^k rather than an unconditional growth bound, so
it is not a proof beyond R, for synthetic eigen-data as for real.

Evaluation strategy: ``DistParams.series`` is one ``arith.TruncatedSeries``
over the nonzero support of d (a few thousand r at R = 1e5), on the integer
fixed-point kernel of ``arith``.  It stores each term as the integer nearest
d(r) r^(-s) 2^F, F = prec + 48, once, in ascending r, with the tail and the
mass.  The residue buckets mod q are exact integer sums of the terms, folded
once per q; P_s at rationals with denominator q (``at``) and the character
twists (``twisted``) multiply the buckets by the integers nearest 2^F e(t/n)
and add in Python integers, so each value is rounded once, to an mpc.  The
radius is the tail plus a proved rounding bound: count/2 2^(-F) for the
terms, mass sqrt(2) 2^(-F) for the roots, and the mpf error of the terms
when s is not an integer.  The series keeps each P_s(b) by b mod 1, so the
coset values that ``mu_tilde``, ``verify_distribution_relation`` and
``integrate_character`` share are summed once, and ``DistParams`` keeps the
form-only weights of ``mu_tilde`` per level, as Balls that carry their own
rounding, and each coset value per (j, a mod p^j).  ``integrate_character``
adds the coset values per value of chi and multiplies each sum once by its
root of unity, an ``arith.root_ball`` read from the same integer table as the
series.

No value here reads mpmath's process-wide precision.  Every Ball carries its
own: an operation runs at the larger precision of its operands, an exact
constant carries none, and the radius holds that rounding.  So a coset value
is summed at prec + 16 bits, the precision of its weights, and rounded to
prec; sums of coset values run at prec, with that rounding in the radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log

from mpmath import mp
from mpmath.libmp import from_int, fzero, mpf_mul, mpf_pow, round_nearest, to_float

from .arith import Ball, TruncatedSeries, _split_order, root_ball, to_mpf, vp
from .asai import MockEigenform, OrdinaryData, ordinary_data
from .characters import DirichletCharacter, gauss_sum

__all__ = [
    "DistParams",
    "P_s",
    "mu_tilde",
    "IdentityReport",
    "verify_distribution_relation",
    "integrate_character",
    "interpolation_rhs",
    "check_interpolation",
]


class DistParams:
    """Evaluation parameters: eigenform, split prime, real s > k+1, truncation, precision.

    ``ordinary`` and ``series`` are built from the form once; the values read
    from them are kept on the params: ``coset_weights`` per level j, and
    ``mu_tilde`` per (j, a mod p^j), each only while the objects it was built
    from are still in place.
    """

    def __init__(self, f: MockEigenform, p: int, s, R: int, prec: int = 128):
        s = Fraction(s)
        if p != f.p:
            raise ValueError("p must be the split prime carried by the eigenform")
        if s <= f.k + 1:
            raise ValueError("need s > k + 1 for absolute convergence")
        if R < p * p:
            raise ValueError("truncation bound must be at least p^2")
        if prec < 64:
            raise ValueError("precision must be at least 64 bits")
        self.f = f
        self.p = p
        self.s = s
        self.R = R
        self.prec = prec
        self.ordinary: OrdinaryData = ordinary_data(f)
        self.series = TruncatedSeries(f.nonzero(R), f.k, R, s, prec)  # nonzero d(r)
        self._weights: dict[int, tuple[OrdinaryData, Ball, tuple[tuple[int, Ball], ...]]] = {}
        self._cosets: dict[tuple[int, int], tuple[OrdinaryData, TruncatedSeries, Ball]] = {}

    def tail_bound(self) -> float:
        """Tail bound for sum_{r>R} |d(r)| r^(-s) with the empirical majorant."""
        return self.series.tail

    def coset_weights(self, j: int) -> tuple[Ball, tuple[tuple[int, Ball], ...]]:
        """``mu_tilde``'s level-j factor p^(j(s-1))/kappa^j (also ``interpolation_rhs``'
        weight at j = j_chi) and its (i, B_i p^(-is)) for B_i != 0.

        They depend on ``ordinary`` and j alone, so they are built once per j
        (and again if ``ordinary`` is replaced), as Balls that carry
        prec + 16 bits (so the coset sums they enter run at that precision)
        and whose radii hold their own rounding.
        """
        od = self.ordinary
        kept = self._weights.get(j)
        if kept is None or kept[0] is not od:
            p = self.p
            if vp(od.kappa, p) != 0:
                raise ValueError("kappa is not a p-adic unit")
            w = self.prec + 16
            pref = _weight(od.kappa**-j, p, j * (self.s - 1), w)
            weights = tuple((i, _weight(b, p, -i * self.s, w)) for i, b in enumerate(od.B) if b)
            kept = self._weights[j] = (od, pref, weights)
        return kept[1:]


def _weight(x: Fraction, p: int, e: Fraction, w: int) -> Ball:
    """x p^e as a Ball that carries w bits, computed at w bits through libmp.

    For integer e, x p^e is rational and ``to_mpf`` rounds it twice (the
    numerator and the quotient), within 2^(2-w) |x p^e|.  Otherwise x and e
    are rounded twice each, which moves p^e by at most 2.02 |e| ln p units of
    2^(-w); the power's logarithm and exponential add |e| ln p 2^(-9) + 2 units
    and the product one, so the radius (3 |e| ln p + 8) 2^(-w) |x p^e| holds.
    """
    if e.denominator == 1:
        v, units = to_mpf(x * Fraction(p) ** int(e), w)._mpf_, 4.0
    else:
        power = mpf_pow(from_int(p, w, round_nearest), to_mpf(e, w)._mpf_, w, round_nearest)
        v, units = mpf_mul(to_mpf(x, w)._mpf_, power, w, round_nearest), 3 * abs(float(e)) * log(p) + 8
    return Ball.from_mpc(mp.make_mpc((v, fzero)), w, abs(to_float(v, rnd=round_nearest)) * units * 2.0**-w)


def P_s(params: DistParams, b: Fraction | int) -> Ball:
    """sum_{r<=R} d(r) e(r b) r^(-s), periodic in b; the radius holds the tail."""
    return params.series.at(b)


def mu_tilde(params: DistParams, a: int, j: int) -> Ball:
    """Coset value p^(j(s-1))/kappa^j * sum_i B_i P_s(a p^i / p^j) p^(-i s).

    It depends on a mod p^j only, so ``params`` keeps it per (j, a mod p^j)
    and returns the same Ball on the next call.  A kept value is read only
    while ``params.ordinary`` and ``params.series`` are the objects it was
    built from, as ``coset_weights`` and ``series.at`` require; replacing
    either gives a fresh value.
    """
    p = params.p
    if j < 1:
        raise ValueError("level j must be >= 1")
    if gcd(a, p) != 1:
        raise ValueError("a must be a unit modulo p")
    key = (j, a % p**j)
    kept = params._cosets.get(key)
    if kept is None or kept[0] is not params.ordinary or kept[1] is not params.series:
        pref, weights = params.coset_weights(j)
        acc = Ball.exact(0)
        for i, w in weights:
            acc = acc + P_s(params, Fraction(a * p**i, p**j)) * w
        acc = acc * pref
        value = Ball.from_mpc(acc.mid, params.prec, acc.rad)
        kept = params._cosets[key] = (params.ordinary, params.series, value)
    return kept[2]


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of an identity; ``gap`` is |lhs - rhs| of the midpoints, ``bound`` the radius of lhs - rhs."""

    lhs: Ball
    rhs: Ball
    gap: float
    bound: float


def verify_distribution_relation(params: DistParams, a: int, j: int) -> IdentityReport:
    """Refine the coset a + p^j Z_p into p cosets one level deeper and compare."""
    p = params.p
    rhs = mu_tilde(params, a, j)
    acc = Ball.exact(0)
    for t in range(p):
        acc = acc + mu_tilde(params, a + t * p**j, j + 1)
    diff = acc - rhs
    return IdentityReport(acc, rhs, abs(diff), diff.rad)


def integrate_character(params: DistParams, chi: DirichletCharacter, j: int) -> Ball:
    """sum_{a mod p^j} chi(a) mu_s(a + p^j Z_p), the direct weighted coset sum.

    The coset values are added per value e(t/n) of chi first, as
    ``arith.character_sum`` adds buckets, and each sum is multiplied once by
    its root, an ``arith.root_ball``.
    """
    q = params.p**j
    if chi.modulus != 1 and q % chi.modulus:
        raise ValueError("need j >= j_chi")
    by_value: dict[int, Ball] = {}
    for a in range(1, q + 1):
        if gcd(a, params.p) != 1:
            continue
        t = chi.exponent_of(a)
        if t is None:
            continue
        v = mu_tilde(params, a, j)
        by_value[t] = by_value[t] + v if t in by_value else v
    acc = Ball.exact(0)
    for t, v in by_value.items():
        acc = acc + v * root_ball(chi.value_order, t, params.prec + 16)
    return Ball.from_mpc(acc.mid, params.prec, acc.rad)


def twisted_asai_series(params: DistParams, chi: DirichletCharacter) -> Ball:
    """G(s, chi, f) = sum_{r<=R, gcd(r,p)=1} chi(r) d(r) r^(-s) (p-deprived twist)."""
    p = params.p
    chi0 = chi.primitive()
    C = chi0.modulus
    # the bucket modulus must detect p | r; p-power conductors already do
    return params.series.twisted(chi0, C if C % p == 0 else C * p, coprime_to=p)


def interpolation_rhs(params: DistParams, chi: DirichletCharacter) -> Ball:
    """Closed form p^(j_chi (s-1)) / kappa^j_chi * G(chi) * G(s, chibar, f).

    For the principal character the same computation carries the extra factor
    (kappa - p^(s-1)) / (kappa (1 - kappa p^(-s))): the frequency-twisted unit
    sums degenerate to Ramanujan sums there, which changes how the p-power
    part of the series resums.  The weight p^(j_chi (s-1)) / kappa^j_chi is
    ``coset_weights``', and the principal factor is Ball arithmetic on
    kappa, p^(s-1) and kappa p^(-s) built by ``_weight``, so the radius
    holds the rounding of both.
    """
    p, s = params.p, params.s
    od = params.ordinary
    j_chi, Cc = _split_order(chi.conductor(), p)
    if Cc != 1:
        raise ValueError("character conductor must be a p-power")
    series = twisted_asai_series(params, chi.inverse())
    w = params.prec + 16
    acc = gauss_sum(chi).embed(w) * series
    if j_chi:
        acc = acc * params.coset_weights(j_chi)[0]
    else:
        kappa, kappa_ps = _weight(od.kappa, p, Fraction(0), w), _weight(od.kappa, p, -s, w)
        acc = acc * (kappa - _weight(Fraction(1), p, s - 1, w)) / (kappa * (Ball.exact(1) - kappa_ps))
    return Ball.from_mpc(acc.mid, params.prec, acc.rad)


def check_interpolation(params: DistParams, chi: DirichletCharacter) -> IdentityReport:
    """Two-sided check: direct coset sum against the closed form."""
    level = max(_split_order(chi.modulus, params.p)[0], 1)
    lhs = integrate_character(params, chi, level)
    rhs = interpolation_rhs(params, chi)
    diff = lhs - rhs
    return IdentityReport(lhs, rhs, abs(diff), diff.rad)
