"""Complex-valued distributions on Z_p^x attached to a mock eigenform.

The coset values interpolate the twisted coefficient series
P_s(b) = sum d(r) e(r b) r^(-s); everything is evaluated in the region of
absolute convergence s > k+1.  Series are truncated at R with explicit tail
bounds; the majorant constant is taken from the computed range of |d(r)|/r^k
rather than an unconditional growth bound, so the bound is honest for
synthetic eigen-data as well.

Evaluation strategy (the series helpers of ``arith``): one pass over the
nonzero support of d (a few thousand r at R = 1e5) stores (r, d(r) r^(-s))
in ascending r; P_s at rationals with denominator q and the character twists
are then root-of-unity combinations of the q residue buckets, so whole
families of coset values cost almost nothing beyond that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mp

from .arith import (
    BigComplex,
    SeriesValue,
    _split_order,
    character_sum,
    fold,
    frequency_sum,
    power_tail,
    power_terms,
    root_table,
    to_mpf,
    vp,
)
from .asai import MockEigenform, OrdinaryData, ordinary_data
from .characters import DirichletCharacter, gauss_sum

__all__ = [
    "DistParams",
    "CosetValue",
    "SeriesValue",
    "P_s",
    "mu_tilde",
    "mu_symmetrized",
    "DistRelationReport",
    "verify_distribution_relation",
    "integrate_character",
    "interpolation_rhs",
    "InterpolationReport",
    "check_interpolation",
]


class DistParams:
    """Evaluation parameters: eigenform, split prime, real s > k+1, truncation, precision."""

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
        f.tabulate(R)
        with mp.workprec(prec + 16):
            self._terms = list(power_terms(f.nonzero(R), s))  # nonzero (r, d(r) r^(-s))
        self._tail0 = power_tail(f.nonzero(R), f.k, R, s)
        self._buckets: dict[int, list] = {}

    def tail_bound(self) -> float:
        """Tail bound for sum_{r>R} |d(r)| r^(-s) with the empirical majorant."""
        return self._tail0

    def _bucket(self, q: int) -> list:
        if q not in self._buckets:
            with mp.workprec(self.prec + 16):
                self._buckets[q] = fold(self._terms, q)
        return self._buckets[q]


@dataclass(frozen=True)
class CosetValue:
    a: int
    j: int
    value: BigComplex
    tail_bound: float


def P_s(params: DistParams, b: Fraction | int) -> SeriesValue:
    """sum_{r<=R} d(r) e(r b) r^(-s), with attached tail bound (periodic in b)."""
    b = Fraction(b)
    W = params._bucket(b.denominator)
    with mp.workprec(params.prec + 16):
        acc = frequency_sum(W, b)
    return SeriesValue(BigComplex.from_mpc(acc, params.prec), params.tail_bound())


def mu_tilde(params: DistParams, a: int, j: int) -> CosetValue:
    """Coset value p^(j(s-1))/kappa^j * sum_i B_i P_s(a p^i / p^j) p^(-i s)."""
    p, s = params.p, params.s
    if j < 1:
        raise ValueError("level j must be >= 1")
    if gcd(a, p) != 1:
        raise ValueError("a must be a unit modulo p")
    od = params.ordinary
    if vp(od.kappa, p) != 0:
        raise ValueError("kappa is not a p-adic unit")
    with mp.workprec(params.prec + 16):
        sf = to_mpf(s)
        pref = mpmath.mpf(p) ** (j * sf - j) / to_mpf(od.kappa) ** j
        acc = mpmath.mpc(0)
        tail = 0.0
        base_tail = params.tail_bound()
        for i in range(4):
            if od.B[i] == 0:
                continue
            piece = P_s(params, Fraction(a * p**i, p**j))
            w = to_mpf(od.B[i]) * mpmath.mpf(p) ** (-i * sf)
            acc += w * piece.value.to_mpc()
            tail += abs(float(w)) * base_tail
        acc *= pref
        tail *= abs(float(pref))
    return CosetValue(a % p**j, j, BigComplex.from_mpc(acc, params.prec), tail)


def mu_symmetrized(params: DistParams, a: int, j: int) -> CosetValue:
    """mu_tilde(a) + mu_tilde(-a): even in a by construction."""
    plus = mu_tilde(params, a, j)
    minus = mu_tilde(params, (-a) % params.p**j, j)
    return CosetValue(
        a % params.p**j,
        j,
        plus.value + minus.value,
        plus.tail_bound + minus.tail_bound,
    )


@dataclass(frozen=True)
class DistRelationReport:
    lhs: BigComplex
    rhs: BigComplex
    gap: float
    bound: float
    passed: bool


def verify_distribution_relation(params: DistParams, a: int, j: int) -> DistRelationReport:
    """Refine the coset a + p^j Z_p into p cosets one level deeper and compare."""
    p = params.p
    rhs = mu_tilde(params, a, j)
    with mp.workprec(params.prec + 16):
        acc = mpmath.mpc(0)
        tail = rhs.tail_bound
        for t in range(p):
            piece = mu_tilde(params, a + t * p**j, j + 1)
            acc += piece.value.to_mpc()
            tail += piece.tail_bound
        gap = float(abs(acc - rhs.value.to_mpc()))
    return DistRelationReport(
        BigComplex.from_mpc(acc, params.prec), rhs.value, gap, tail, gap <= tail
    )


def integrate_character(
    params: DistParams, chi: DirichletCharacter, j: int, symmetrized: bool = False
) -> SeriesValue:
    """sum_{a mod p^j} chi(a) mu_s(a + p^j Z_p), the direct weighted coset sum."""
    q = params.p**j
    if chi.modulus != 1 and q % chi.modulus:
        raise ValueError("need j >= j_chi")
    with mp.workprec(params.prec + 16):
        roots = root_table(chi.value_order, mp.prec)
        acc = mpmath.mpc(0)
        tail = 0.0
        for a in range(1, q + 1):
            if gcd(a, params.p) != 1:
                continue
            t = chi.exponent_of(a)
            if t is None:
                continue
            piece = (mu_symmetrized if symmetrized else mu_tilde)(params, a, j)
            acc += roots[t] * piece.value.to_mpc()
            tail += piece.tail_bound
    return SeriesValue(BigComplex.from_mpc(acc, params.prec), tail)


def twisted_asai_series(params: DistParams, chi: DirichletCharacter) -> SeriesValue:
    """G(s, chi, f) = sum_{r<=R, gcd(r,p)=1} chi(r) d(r) r^(-s) (p-deprived twist)."""
    p = params.p
    chi0 = chi.primitive()
    C = chi0.modulus
    # the bucket modulus must detect p | r; p-power conductors already do
    W = params._bucket(C if C % p == 0 else C * p)
    with mp.workprec(params.prec + 16):
        acc = character_sum(W, chi0, coprime_to=p)
    return SeriesValue(BigComplex.from_mpc(acc, params.prec), params.tail_bound())


def interpolation_rhs(params: DistParams, chi: DirichletCharacter) -> SeriesValue:
    """Closed form p^(j_chi (s-1)) / kappa^j_chi * G(chi) * G(s, chibar, f).

    For the principal character the same computation carries the extra factor
    (kappa - p^(s-1)) / (kappa (1 - kappa p^(-s))): the frequency-twisted unit
    sums degenerate to Ramanujan sums there, which changes how the p-power
    part of the series resums.
    """
    p, s = params.p, params.s
    od = params.ordinary
    j_chi, Cc = _split_order(chi.conductor(), p)
    if Cc != 1:
        raise ValueError("character conductor must be a p-power")
    series = twisted_asai_series(params, chi.inverse())
    with mp.workprec(params.prec + 16):
        sf = to_mpf(s)
        kf = to_mpf(od.kappa)
        pref = mpmath.mpf(p) ** (j_chi * (sf - 1)) / kf**j_chi
        gval = gauss_sum(chi).value.embed(params.prec + 16).to_mpc()
        acc = pref * gval * series.value.to_mpc()
        scale = abs(float(pref)) * float(abs(gval))
        if j_chi == 0:
            corr = (kf - mpmath.mpf(p) ** (sf - 1)) / (kf * (1 - kf * mpmath.mpf(p) ** (-sf)))
            acc *= corr
            scale *= abs(float(corr))
    return SeriesValue(BigComplex.from_mpc(acc, params.prec), series.tail_bound * scale)


@dataclass(frozen=True)
class InterpolationReport:
    lhs: BigComplex
    rhs: BigComplex
    gap: float
    bound: float
    passed: bool


def check_interpolation(params: DistParams, chi: DirichletCharacter) -> InterpolationReport:
    """Two-sided check: direct coset sum against the closed form."""
    level = max(_split_order(chi.modulus, params.p)[0], 1)
    lhs = integrate_character(params, chi, level)
    rhs = interpolation_rhs(params, chi)
    with mp.workprec(params.prec + 16):
        gap = float(abs(lhs.value.to_mpc() - rhs.value.to_mpc()))
    bound = lhs.tail_bound + rhs.tail_bound
    return InterpolationReport(lhs.value, rhs.value, gap, bound, gap <= max(bound, 1e-30))
