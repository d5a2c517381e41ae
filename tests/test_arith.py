import operator
import random
import sys
import threading
from fractions import Fraction as F
from math import comb, gcd, lcm, log

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import mpc_expjpi

from asaikit import arith
from asaikit.arith import (
    ArithTables,
    Ball,
    CyclotomicNumber,
    bernoulli_number,
    bernoulli_polynomial,
    bessel_k_moment_check,
    cyclotomic_dot,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    fixed_power_terms,
    fixed_root_table,
    fold,
    is_prime,
    mobius_buckets,
    mobius_terms,
    primes_up_to,
    root_ball,
    to_mpf,
    vp,
    TruncatedSeries,
    _mag,
    _mobius_bucket,
    _two_pi_power,
    _up,
)
from asaikit.characters import enumerate_characters


def bernoulli_oracle(upto):
    """Independent recurrence: sum_{i<k} C(k,i) B_i = 0 for k >= 2, seeded at B_0 = 1."""
    B = [F(1)]
    for k in range(2, upto + 2):
        s = sum(comb(k, i) * B[i] for i in range(k - 1))
        B.append(-s / comb(k, k - 1))
    return B


class TestBernoulli:
    def test_base_cases(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == F(-1, 2)

    def test_against_recurrence_oracle(self):
        oracle = bernoulli_oracle(30)
        for k in range(31):
            assert bernoulli_number(k) == oracle[k]
        assert bernoulli_number(12) == F(-691, 2730)

    def test_recurrence_invariant(self):
        for k in range(2, 31):
            assert sum(comb(k, i) * bernoulli_number(i) for i in range(k)) == 0

    def test_von_staudt_clausen(self):
        for k in range(2, 31, 2):
            prod = 1
            for p in primes_up_to(k + 2):
                if k % (p - 1) == 0:
                    prod *= p
            assert bernoulli_number(k).denominator == prod

    def test_polynomial(self):
        assert bernoulli_polynomial(2, 0) == F(1, 6)
        assert bernoulli_polynomial(1, F(1, 2)) == 0
        assert bernoulli_polynomial(2, 1) == F(1, 6)
        # B_k(1) = B_k(0) for k != 1
        for k in (0, 2, 3, 4, 7, 12):
            assert bernoulli_polynomial(k, 1) == bernoulli_polynomial(k, 0)


class TestCyclotomic:
    def test_i_squared(self):
        i = CyclotomicNumber.zeta(4)
        assert i * i == -1

    def test_eisenstein_product(self):
        z = CyclotomicNumber.zeta(3)
        assert (1 - z) * (1 - z**2) == 3

    def test_identity(self):
        z = CyclotomicNumber.zeta(8)
        a = 2 + 3 * z
        assert a * CyclotomicNumber.from_rational(1, 8) == a

    def test_lift_and_mixed_arithmetic(self):
        z3 = CyclotomicNumber.zeta(3)
        z12 = CyclotomicNumber.zeta(12)
        assert z3.lift(12) == z12**4
        assert (z3 + z12).order == 12

    def test_ring_axioms_random(self):
        rng = random.Random(0)
        for m in (3, 4, 5, 8, 9, 12):
            deg = euler_phi(m)
            for _ in range(5):
                a, b, c = (
                    CyclotomicNumber(m, [F(rng.randint(-5, 5)) for _ in range(deg)])
                    for _ in range(3)
                )
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a

    def test_norm_examples(self):
        # oracle: norm(1 - zeta_m) = Phi_m(1)
        for m in (5, 9, 7, 8):
            phi_at_1 = sum(cyclotomic_polynomial(m))
            assert (1 - CyclotomicNumber.zeta(m)).norm() == phi_at_1
        assert (1 - CyclotomicNumber.zeta(5)).norm() == 5
        assert (1 - CyclotomicNumber.zeta(9)).norm() == 3

    def test_cyclotomic_polynomial_integral(self):
        # oracle: prod over d | m of Phi_d = x^m - 1, which determines every Phi_m
        for m in range(1, 201):
            phi = cyclotomic_polynomial(m)
            assert type(phi) is tuple and all(type(c) is int for c in phi)
            assert len(phi) == euler_phi(m) + 1 and phi[-1] == 1
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    fac = cyclotomic_polynomial(d)
                    out = [0] * (len(prod) + len(fac) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(fac):
                            out[i + j] += a * b
                    prod = out
            assert prod == [-1] + [0] * (m - 1) + [1]
        # the first coefficient of absolute value 2 appears at m = 105
        assert max(map(abs, cyclotomic_polynomial(105))) == 2
        assert max(map(abs, cyclotomic_polynomial(104))) == 1

    def test_norm_of_rational(self):
        c = CyclotomicNumber.from_rational(F(3, 2), 12)
        assert c.norm() == F(3, 2) ** euler_phi(12)

    def test_norm_multiplicative(self):
        rng = random.Random(1)
        for m in (5, 8, 12):
            deg = euler_phi(m)
            for _ in range(5):
                a = CyclotomicNumber(m, [F(rng.randint(-4, 4)) for _ in range(deg)])
                b = CyclotomicNumber(m, [F(rng.randint(-4, 4)) for _ in range(deg)])
                assert (a * b).norm() == a.norm() * b.norm()

    def test_inverse(self):
        rng = random.Random(2)
        for m in (5, 9, 12):
            deg = euler_phi(m)
            a = CyclotomicNumber(m, [F(rng.randint(1, 5)) for _ in range(deg)])
            assert a * a.inverse() == 1

    def test_galois_conjugate(self):
        z = CyclotomicNumber.zeta(5)
        g = z + z**4
        assert g.conjugate() == g


class TestFloatsRejected:
    """A float is already rounded: the exact kernel refuses it rather than converting it."""

    def test_coefficients(self):
        with pytest.raises(TypeError):
            CyclotomicNumber(3, [0.1, 0])

    def test_weights(self):
        with pytest.raises(TypeError):
            CyclotomicNumber.from_exponents(5, {1: 1.5})

    def test_rational(self):
        with pytest.raises(TypeError):
            CyclotomicNumber.from_rational(0.5, 4)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_scalars(self, op):
        with pytest.raises(TypeError):
            op(CyclotomicNumber.zeta(5), 0.5)
        with pytest.raises(TypeError):
            op(0.5, CyclotomicNumber.zeta(5))


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction oracle: schoolbook products reduced by
# long division modulo cyclotomic_polynomial(m), on orders up to 60

SMALL_RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _vectors(m: int, n: int):
    """n coefficient vectors of length phi(m) for order m."""
    vec = st.lists(SMALL_RATIONAL, min_size=euler_phi(m), max_size=euler_phi(m)).map(tuple)
    return st.tuples(st.just(m), *[vec] * n)


ONE_VECTOR = st.integers(1, 60).flatmap(lambda m: _vectors(m, 1))
TWO_VECTORS = st.integers(1, 60).flatmap(lambda m: _vectors(m, 2))
# orders whose lcm stays at most 1800
MIXED_ORDER_VECTOR = st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25)).flatmap(lambda m: _vectors(m, 1))


def _oracle_reduce(poly, m: int) -> tuple:
    """poly modulo Phi_m by long division over Q, as phi(m) Fractions."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    poly = [F(c) for c in poly] + [F(0)] * max(0, d - len(poly))
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        for j in range(d + 1):
            poly[i - d + j] -= c * phi[j]
    return tuple(poly[:d])


def _oracle_mul(a: tuple, b: tuple, m: int) -> tuple:
    prod = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _oracle_reduce(prod, m)


def _oracle_spread(c: tuple, m: int, step: int) -> tuple:
    """sum_i c_i x^(i step) modulo Phi_m."""
    poly = [F(0)] * m
    for i, x in enumerate(c):
        poly[i * step % m] += x
    return _oracle_reduce(poly, m)


def _canonical_form(x: CyclotomicNumber) -> bool:
    return (
        len(x.num) == euler_phi(x.order)
        and all(type(c) is int for c in x.num)
        and type(x.den) is int
        and x.den > 0
        and gcd(x.den, *x.num) == 1
    )


class TestIntegerKernel:
    """The integer kernel against a Fraction oracle built from the same random rationals."""

    @settings(max_examples=30, deadline=None)
    @given(TWO_VECTORS)
    def test_ring_operations(self, data):
        m, u, v = data
        a, b = CyclotomicNumber(m, u), CyclotomicNumber(m, v)
        for got, want in (
            (a + b, tuple(x + y for x, y in zip(u, v))),
            (a - b, tuple(x - y for x, y in zip(u, v))),
            (a * b, _oracle_mul(u, v, m)),
            (-a, tuple(-x for x in u)),
        ):
            assert _canonical_form(got)
            assert got.coeffs == want

    @settings(max_examples=20, deadline=None)
    @given(TWO_VECTORS)
    def test_division(self, data):
        m, u, v = data
        assume(any(v))
        q = CyclotomicNumber(m, u) / CyclotomicNumber(m, v)
        assert _canonical_form(q)
        assert _oracle_mul(q.coeffs, v, m) == u

    @settings(max_examples=20, deadline=None)
    @given(TWO_VECTORS, st.integers(0, 60))
    @example((1, (F(-3, 2),), (F(4),)), 0)
    @example((12, (F(5, 3), F(0), F(0), F(0)), (F(1), F(-2), F(0), F(1, 2))), 1)
    @example((6, (F(2), F(-1)), (F(1, 3), F(5))), 1)
    @example((30, tuple(F(i % 5 - 2, 1 + i % 3) for i in range(8)), (F(7),) + (F(0),) * 7), 3)
    @example((58, tuple(F((-1) ** i * i, 1 + i % 4) for i in range(28)), (F(1),) * 28), 5)
    def test_norm_and_inverse(self, data, k):
        """The norm against the product of the embeddings at every primitive e(t/m), at 200 bits;
        the inverse, its commuting with the Galois action, and the multiplicativity of the norm."""
        m, u, v = data
        a, b = CyclotomicNumber(m, u), CyclotomicNumber(m, v)
        assume(not a.is_zero())
        units = [t for t in range(m) if gcd(t, m) == 1]
        norm = a.norm()
        with mp.workprec(200):
            want = mpmath.mpc(1)
            for t in units:
                want *= sum((to_mpf(c, 200) * mpmath.expjpi(mpmath.mpf(2 * i * t) / m) for i, c in enumerate(u)), mpmath.mpc(0))
            assert abs(want - to_mpf(norm, 200)) <= 2.0**-100 * (1 + abs(want))
        inv = a.inverse()
        assert _canonical_form(inv) and a * inv == 1
        t = units[k % len(units)]
        assert a.galois(t).inverse() == inv.galois(t)
        assert (a * b).norm() == norm * b.norm()

    @settings(max_examples=30, deadline=None)
    @given(ONE_VECTOR, SMALL_RATIONAL, st.integers(-7, 7))
    def test_scalars(self, data, r, n):
        m, u = data
        a = CyclotomicNumber(m, u)
        for got, want in (
            (a * r, tuple(x * r for x in u)),
            (r * a, tuple(x * r for x in u)),
            (a * n, tuple(x * n for x in u)),
            (a + r, (u[0] + r,) + u[1:]),
            (r - a, (r - u[0],) + tuple(-x for x in u[1:])),
        ):
            assert _canonical_form(got)
            assert got.coeffs == want
        if r:
            assert (a / r).coeffs == tuple(x / r for x in u)
        assert CyclotomicNumber.from_rational(r, m).coeffs == (r,) + (F(0),) * (euler_phi(m) - 1)

    @settings(max_examples=30, deadline=None)
    @given(ONE_VECTOR, st.integers(1, 4), st.integers(-60, 60))
    def test_galois_and_lift(self, data, k, t):
        m, u = data
        a = CyclotomicNumber(m, u)
        lifted = a.lift(k * m)
        assert _canonical_form(lifted)
        assert lifted.coeffs == _oracle_spread(u, k * m, k)
        assume(gcd(t, m) == 1)
        g = a.galois(t)
        assert _canonical_form(g)
        assert g.coeffs == _oracle_spread(u, m, t)

    @settings(max_examples=30, deadline=None)
    @given(TWO_VECTORS, st.integers(2, 3))
    def test_equality(self, data, k):
        m, u, v = data
        a = CyclotomicNumber(m, u)
        assert a == CyclotomicNumber(m, list(u))
        assert a == a.lift(k * m) and a.lift(k * m) == a
        assert (a == CyclotomicNumber(m, v)) == (u == v)
        assert a != a + F(1, 7)
        assert (a == u[0]) == (not any(u[1:]))

    @settings(max_examples=30, deadline=None)
    @given(ONE_VECTOR)
    def test_coeffs_round_trip(self, data):
        m, u = data
        a = CyclotomicNumber(m, u)
        assert _canonical_form(a)
        assert a.coeffs == u and all(type(c) is F for c in a.coeffs)
        b = CyclotomicNumber(m, a.coeffs)
        assert (b.num, b.den) == (a.num, a.den)
        assert a.is_zero() == ((a.num, a.den) == ((0,) * euler_phi(m), 1))

    @settings(max_examples=30, deadline=None)
    @given(ONE_VECTOR)
    def test_embed(self, data):
        m, u = data
        ball = CyclotomicNumber(m, u).embed(80)
        with mp.workprec(200):
            want = sum((to_mpf(c, 200) * mpmath.expjpi(mpmath.mpf(2 * i) / m) for i, c in enumerate(u)), mpmath.mpc(0))
            assert abs(ball.to_mpc() - want) <= ball.rad + 2.0**-150

    @settings(max_examples=30, deadline=None)
    @given(MIXED_ORDER_VECTOR, MIXED_ORDER_VECTOR)
    def test_mixed_order_products(self, x, y):
        # a b and a / b land at the lcm order; the oracle multiplies the operands spread to that order
        (m, u), (n, v) = x, y
        a, b = CyclotomicNumber(m, u), CyclotomicNumber(n, v)
        k = lcm(m, n)
        want = _oracle_mul(_oracle_spread(u, k, k // m), _oracle_spread(v, k, k // n), k)
        got = a * b
        assert _canonical_form(got)
        assert (got.order, got.coeffs) == (k, want)
        assume(any(v))
        q = a / b
        assert _canonical_form(q) and q.order == k
        assert _oracle_mul(q.coeffs, _oracle_spread(v, k, k // n), k) == _oracle_spread(u, k, k // m)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(MIXED_ORDER_VECTOR, MIXED_ORDER_VECTOR), max_size=5))
    def test_dot(self, pairs):
        # one buffer at the lcm order and denominator equals the fold acc = acc + a b
        pairs = [(CyclotomicNumber(*x), CyclotomicNumber(*y)) for x, y in pairs]
        want = CyclotomicNumber.from_rational(0)
        for a, b in pairs:
            want = want + a * b
        got = cyclotomic_dot(iter(pairs))
        assert _canonical_form(got)
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den)

    def test_cross_order_sum(self):
        u, v = (F(1, 2), F(-3), F(0), F(5, 6)), (F(2), F(0), F(1, 4), F(-1))
        s = CyclotomicNumber(12, u) + CyclotomicNumber(10, v)
        assert s.order == 60 and _canonical_form(s)
        assert s.coeffs == tuple(x + y for x, y in zip(_oracle_spread(u, 60, 5), _oracle_spread(v, 60, 6)))


class TestEmbedding:
    def test_zeta4_is_i(self):
        v = CyclotomicNumber.zeta(4).embed(64)
        assert abs(v.to_mpc() - mpmath.mpc(0, 1)) < 2.0**-60

    def test_vanishing_sum(self):
        z = CyclotomicNumber.zeta(3)
        s = 1 + z + z**2
        assert abs(s.embed(64).to_mpc()) < 2.0**-60

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        prec = 128
        for m in (5, 8):
            deg = euler_phi(m)
            a = CyclotomicNumber(m, [F(rng.randint(-5, 5)) for _ in range(deg)])
            b = CyclotomicNumber(m, [F(rng.randint(-5, 5)) for _ in range(deg)])
            with mp.workprec(prec):
                diff = (a * b).embed(prec) - a.embed(prec) * b.embed(prec)
            assert float(abs(diff.to_mpc())) < 2.0 ** (-prec + 8)


GAUSSIAN = st.tuples(*[st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)] * 2)
BALL_PREC = st.sampled_from([64, 96, 128, 200])
START_RAD = st.just(0.0) | st.floats(min_value=0, max_value=1e-3)
UNIT = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])


def _parts(z) -> tuple[F, F]:
    """The exact real and imaginary parts of an mpc."""
    return tuple(F((-1) ** sign * man) * F(2) ** exp for sign, man, exp, _ in (z.real._mpf_, z.imag._mpf_))


def _ball(x, prec, rad, unit):
    """A Ball at prec bits around the Gaussian rational x, and an exact point on its rim.

    The midpoint starts from an approximation of x 64 bits finer, whose exact
    distance to x joins the starting radius; the point is x + rad * unit.
    """
    with mp.workprec(prec + 64):
        z = mpmath.mpc(*(mpmath.mpf(c.numerator) / c.denominator for c in x))
    re, im = _parts(z)
    ball = Ball.from_mpc(z, prec, float(abs(re - x[0]) + abs(im - x[1])) * (1 + 2.0**-40) + rad)
    return ball, (x[0] + unit[0] * F(rad), x[1] + unit[1] * F(rad))


def _encloses(ball, x) -> bool:
    re, im = _parts(ball.mid)
    return (re - x[0]) ** 2 + (im - x[1]) ** 2 <= F(ball.rad) ** 2


class TestBall:
    """Every Ball operation encloses the exact result, computed in Fractions."""

    @settings(max_examples=100, deadline=None)
    @given(x=GAUSSIAN, prec=BALL_PREC, rad=START_RAD, unit=UNIT)
    def test_from_mpc_rounding(self, x, prec, rad, unit):
        b, (a, c) = _ball(x, prec, rad, unit)
        assert _encloses(b, (a, c))
        assert all(part._mpf_[3] <= prec for part in (b.mid.real, b.mid.imag))
        assert _encloses(-b, (-a, -c))

    @settings(max_examples=200, deadline=None)
    @given(x=GAUSSIAN, y=GAUSSIAN, prec=BALL_PREC, rx=START_RAD, ry=START_RAD, ux=UNIT, uy=UNIT)
    def test_ball_operations(self, x, y, prec, rx, ry, ux, uy):
        (bx, (a, b)), (by, (c, d)) = _ball(x, prec, rx, ux), _ball(y, prec, ry, uy)
        with mp.workprec(prec):
            assert _encloses(bx + by, (a + c, b + d))
            assert _encloses(bx - by, (a - c, b - d))
            assert _encloses(bx * by, (a * c - b * d, a * d + b * c))
            if float(abs(by.mid)) > 2 * by.rad:
                n = c * c + d * d
                assert _encloses(bx / by, ((a * c + b * d) / n, (b * c - a * d) / n))

    @settings(max_examples=100, deadline=None)
    @given(x=GAUSSIAN, y=GAUSSIAN, prec=BALL_PREC, rx=START_RAD, ry=START_RAD, ux=UNIT, uy=UNIT)
    def test_operations_ignore_the_working_precision(self, x, y, prec, rx, ry, ux, uy):
        # a Ball rounds at the precision it carries, not at mpmath's process-wide one
        (bx, _), (by, _) = _ball(x, prec, rx, ux), _ball(y, prec, ry, uy)
        ops = [operator.add, operator.sub, operator.mul]
        if float(abs(by.mid)) > 2 * by.rad:
            ops.append(operator.truediv)
        for op in ops:
            with mp.workprec(53):
                low = op(bx, by)
            with mp.workprec(prec):
                high = op(bx, by)
            assert (low.mid._mpc_, low.rad, low.prec) == (high.mid._mpc_, high.rad, high.prec) and low.prec == prec
            with mp.workprec(prec):
                magnitude = float(abs(high.mid))
            with mp.workprec(53):
                assert abs(low) == magnitude
        exact = Ball.exact(3, -1)
        assert exact.prec == 0 and (exact * exact).prec == 0 and (exact + bx).prec == prec
        with pytest.raises(ValueError):
            exact / exact

    def test_scalar_operands_rejected(self):
        # a rounded scalar would enter without its error: only a Ball is an operand
        x = Ball(mpmath.mpc(1, 2), 1e-20)
        for op in (
            lambda: x + 1,
            lambda: 1 + x,
            lambda: x - mpmath.mpf(1),
            lambda: x * mpmath.mpc(0, 1),
            lambda: 0.5 * x,
            lambda: x / 2,
        ):
            with pytest.raises(TypeError):
                op()

    def test_divisor_containing_zero(self):
        with pytest.raises(ZeroDivisionError):
            Ball(mpmath.mpc(1)) / Ball(mpmath.mpc(1e-3), 1e-2)


class TestIsPrime:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-5, max_value=10**6))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == (n > 1 and factorize(n) == [(n, 1)])

    def test_small_range(self):
        assert [n for n in range(-3, 2000) if is_prime(n)] == primes_up_to(2000)

    @pytest.mark.parametrize(
        "n",
        [2047, 3215031751, 3825123056546413051, 318665857834031151167461],
        ids=["base-2", "bases-to-7", "bases-to-23", "bases-to-37"],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        # the least strong pseudoprimes to the primes up to 2, 7, 23 and 37 (OEIS A014233)
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(9_999_999_999_999_937) and is_prime(10**18 + 3)
        assert not is_prime((10**12 + 39) * (10**12 + 61))

    def test_refused_from_the_bound(self):
        # the bound is the least strong pseudoprime to the primes up to 41
        with pytest.raises(ValueError):
            is_prime(arith._MR_BOUND)


class TestArithTables:
    def test_sieve_vs_trial_division(self):
        t = ArithTables(10**4)
        primes = primes_up_to(10**4)
        rng = random.Random(4)
        for n in [rng.randint(2, 10**4) for _ in range(200)]:
            fac = factorize(n)
            prod = 1
            for q, e in fac:
                prod *= q**e
            assert prod == n
            assert [q for q, _ in fac] == [q for q in primes if n % q == 0]
            # phi by the product formula
            phi = n
            for q, _ in fac:
                phi = phi // q * (q - 1)
            assert euler_phi(n) == phi
            # mobius by squarefreeness
            sqfree = all(e == 1 for _, e in fac)
            assert t.mobius(n) == ((-1) ** len(fac) if sqfree else 0)

    def test_mobius_square_vanishing(self):
        t = ArithTables(1000)
        for p in (2, 3, 5, 7):
            for m in range(1, 1000 // (p * p)):
                assert t.mobius(p * p * m) == 0

    def test_prime_sieve_matches_tables(self):
        """The sieve against the Miller-Rabin test, one prime at a time."""
        assert primes_up_to(0) == primes_up_to(1) == []
        for n in list(range(1, 200)) + [10**4, 10**4 + 7]:
            assert primes_up_to(n) == [q for q in range(n + 1) if is_prime(q)]


class TestBessel:
    def test_moment_identity(self):
        for nu, mu, a in ((0, 2, 1), (1, 3, 2)):
            [r] = bessel_k_moment_check(nu, (mu,), a)
            assert r.rel_err < 1e-6 and r.kernel_rel_err < 1e-6

    def test_scaling_in_a(self):
        [r1] = bessel_k_moment_check(0, (2,), 1)
        [r2] = bessel_k_moment_check(0, (2,), 2)
        ratio = float(r2.lhs / r1.lhs)
        assert abs(ratio - 2.0**-2) < 1e-6

    def test_divergent_parameters_rejected(self):
        with pytest.raises(ValueError):
            bessel_k_moment_check(2, (2,), 1)

    def test_known_moments(self):
        """int K_0(t) t dt = 1, int K_1(t) t^2 dt = 2, int K_0(t) t^2 dt = pi/2."""
        with mp.workprec(80):
            for nu, mu, want in ((0, 2, mpmath.mpf(1)), (1, 3, mpmath.mpf(2)), (0, 3, mpmath.pi / 2)):
                [rep] = bessel_k_moment_check(nu, (mu,), 1)
                lhs = rep.lhs
                assert abs(lhs - want) / want < 1e-20, (nu, mu)

    @settings(max_examples=40, deadline=None)
    @given(
        nu=st.integers(0, 3),
        mu=st.fractions(min_value=0, max_value=8, max_denominator=16),
        a=st.fractions(min_value=F(1, 8), max_value=8, max_denominator=64),
    )
    def test_identity_over_parameters(self, nu, mu, a):
        assume(mu > nu)
        [r] = bessel_k_moment_check(nu, (mu,), a)
        assert r.rel_err < 1e-6 and r.kernel_rel_err < 1e-6, (r.rel_err, r.kernel_rel_err)

    def test_kernel_at_large_argument(self):
        """K_nu(100) ~ 5e-45: the kernel quadrature must not stop at an absolute tolerance."""
        [r] = bessel_k_moment_check(1, (2,), 100)
        assert r.rel_err < 1e-6 and r.kernel_rel_err < 1e-20

    def test_kernel_comparison_decides(self, monkeypatch):
        """A K_nu 1 % off shows in kernel_rel_err although the moment side is untouched."""
        # the check runs in a context of its own; building one re-binds every special function
        # on MPContext, so the patch goes on the instance, which is made first
        ctx = arith._bessel_context()
        besselk = ctx.besselk
        monkeypatch.setattr(ctx, "besselk", lambda nu, x: 1.01 * besselk(nu, x))
        [r] = bessel_k_moment_check(1, (3,), 1)
        assert r.rel_err < 1e-20
        assert abs(r.kernel_rel_err - 1 / 101) < 1e-6

    def test_threads_share_no_precision(self):
        """Two threads run the checks of `verify arith` and a large-a case while the main
        thread sits inside mp.workprec(53): every report equals that of a serial run, as
        each thread's quadratures run in a context of its own.  With mp.workprec(80) they
        differed in 3 of 3 runs, and one raised ZeroDivisionError inside besselk."""
        cases = ((0, (3, 4), 1), (1, (3, 4), 1), (2, (3, 4), 1), (1, (3,), 100))

        def run(out):
            out.append([
                (r.lhs._mpf_, r.rhs._mpf_, r.rel_err, r.kernel_rel_err)
                for case in cases * 2
                for r in bessel_k_moment_check(*case)
            ])

        serial, threaded = [], []
        run(serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside every quadrature
        try:
            with mp.workprec(53):
                workers = [threading.Thread(target=run, args=(threaded,)) for _ in range(2)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in workers)
                assert mp.prec == 53
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 2
        [r] = bessel_k_moment_check(0, (2,), 2)
        assert r.lhs.context is mp and r.rhs.context is mp


def test_vp():
    assert vp(F(9, 5), 3) == 2
    assert vp(F(5, 27), 3) == -3
    assert vp(F(0), 3) == float("inf")


# sparse (r, a) pairs, r <= 500, ascending as the form tables yield them; +-1
# (Moebius coefficients) skips the product with a in fixed_power_terms
SPARSE_PAIRS = st.dictionaries(
    st.integers(1, 500),
    st.sampled_from([F(1), F(-1)]) | st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
    max_size=40,
).map(lambda d: sorted(d.items()))
SERIES_S = st.sampled_from([F(3), F(5), F(7, 2)])
SERIES_PRECS = (64, 96, 128)


def _direct_sum(pairs, s, weight, prec=320):
    """sum a(r) weight(r) r^(-s) term by term at ``prec`` bits."""
    with mp.workprec(prec):
        sf = mpmath.mpf(s.numerator) / s.denominator
        acc = mpmath.mpc(0)
        for r, a in pairs:
            acc += weight(r) * (mpmath.mpf(a.numerator) / a.denominator * mpmath.power(r, -sf))
    return acc


def _rounding_encloses(ball, series, want, tails=1):
    """|direct - mid| <= rad - tails: the rounding part of the radius alone covers the truncated sum."""
    with mp.workprec(320):
        assert abs(want - ball.mid) <= ball.rad - tails * series.tail


def _e(r, b):
    with mp.workprec(320):
        return mpmath.expjpi(2 * mpmath.mpf(r * b.numerator) / b.denominator)


class TestSeriesPath:
    """The integer kernel (fixed_power_terms, fold, fixed_root_table) and TruncatedSeries
    (k = 0, R = 500), whose at and twisted choose their own bucket modulus, against a
    320-bit direct per-term sum, at 64, 96 and 128 bits."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), F_bits=st.integers(8, 400))
    def test_root_table_within_one_unit(self, n, F_bits):
        # each coordinate within one unit of 2^F e(t/n), so the root Ball encloses e(t/n)
        cos, sin = fixed_root_table(n, F_bits)
        with mp.workprec(max(320, F_bits + 64)):
            for t in range(n):
                e = mpmath.expjpi(mpmath.mpf(2 * t) / n)
                z = e * mpmath.ldexp(1, F_bits)
                assert abs(cos[t] - z.real) < 1 and abs(sin[t] - z.imag) < 1, t
                ball = root_ball(n, t, F_bits)
                assert abs(ball.mid - e) <= ball.rad, t

    @pytest.mark.parametrize("F_bits", [64, 176])
    def test_root_table_mirror(self, F_bits):
        for n in range(1, 201):
            cos, sin = fixed_root_table(n, F_bits)
            assert len(cos) == len(sin) == n
            for t in range(1, n):
                assert cos[n - t] == cos[t] and sin[n - t] == -sin[t], (n, t)

    @settings(max_examples=60, deadline=None)
    @given(
        bound=st.integers(1, 3000),
        k=st.integers(2, 8),
        coprime_to=st.integers(1, 10**4),
        multiple_of=st.sampled_from([1, 1, 2, 3, 6, 35, 4000]),
        F_bits=st.sampled_from([64, 176]),
    )
    def test_mobius_terms(self, bound, k, coprime_to, multiple_of, F_bits):
        # the sieve-masked terms are fixed_power_terms over the Moebius table, filtered by gcd and g | m
        mob = ArithTables(bound).mobius
        pairs = [
            (m, mob(m))
            for m in range(1, bound + 1)
            if mob(m) and gcd(m, coprime_to) == 1 and m % multiple_of == 0
        ]
        want = list(fixed_power_terms(pairs, k, F_bits))
        got = list(mobius_terms(bound, k, F_bits, coprime_to, multiple_of))
        assert sorted(got) == want
        for q in (1, 2, 3, 5, 6, 10, 15, 30):
            assert fold(got, q) == fold(want, q), q

    @settings(max_examples=60, deadline=None)
    @given(
        bound=st.integers(1, 3000),
        k=st.integers(2, 8),
        levels=st.lists(
            st.tuples(st.integers(1, 10**4), st.integers(0, 5), st.integers(0, 2)), min_size=1, max_size=6
        ),
        F_bits=st.sampled_from([64, 176]),
    )
    def test_mobius_buckets(self, bound, k, levels, F_bits):
        # the shared buckets are bit-identical to one level's own fold; the levels come in a
        # random order from an empty cache, so later ones read buckets that earlier ones filled
        _mobius_bucket.cache_clear()
        for M, pick, e in levels:
            primes = [l for l, _ in factorize(M)]
            q = primes[pick % len(primes)] ** e if primes else 1
            assert mobius_buckets(bound, k, F_bits, M, q) == fold(mobius_terms(bound, k, F_bits, M), q), (M, q)

    def test_mobius_buckets_need_the_primes_of_q_in_M(self):
        with pytest.raises(ValueError):
            mobius_buckets(100, 4, 64, 7, 3)

    @settings(max_examples=60, deadline=None)
    @given(pairs=SPARSE_PAIRS, s=SERIES_S, q=st.integers(1, 30), c=st.integers(0, 10**6))
    def test_frequency_sum(self, pairs, s, q, c):
        b = F(c % q, q)
        want = _direct_sum(pairs, s, lambda r: _e(r, b))
        want2 = _direct_sum(pairs, s, lambda r: _e(r, b) + _e(r, -b))
        for prec in SERIES_PRECS:
            series = TruncatedSeries(pairs, 0, 500, s, prec)
            _rounding_encloses(series.at(b), series, want)
            with mp.workprec(prec):
                pair = series.at(b) + series.at(-b)
            _rounding_encloses(pair, series, want2, tails=2)

    @settings(max_examples=30, deadline=None)
    @given(pairs=SPARSE_PAIRS, s=SERIES_S, q=st.integers(1, 30), c=st.integers(0, 10**6), other=st.integers(1, 30))
    def test_single_frequency_memo(self, pairs, s, q, c, other):
        # a kept at(b) is the Ball a fresh series gives, for b, b + 1 and b again;
        # a frequency with another denominator is not read from it
        def fresh():
            return TruncatedSeries(pairs, 0, 500, s, 96)

        def parts(ball):
            return ball.mid, ball.rad

        b, b2 = F(c, q), F(c, other)
        series = fresh()
        first = series.at(b)
        assert series.at(b + 1) is first and series.at(b) is first
        assert parts(first) == parts(fresh().at(b))
        assert parts(series.at(b2)) == parts(fresh().at(b2))

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=SPARSE_PAIRS,
        s=SERIES_S,
        M=st.integers(1, 30),
        i=st.integers(0, 10**6),
        coprime_to=st.sampled_from([1, 2, 3, 5]),
    )
    def test_character_sum(self, pairs, s, M, i, coprime_to):
        chars = enumerate_characters(M)
        chi = chars[i % len(chars)]

        def weight(r):
            if gcd(r, coprime_to) != 1:
                return 0
            return chi.value(r).embed(320).to_mpc()

        want = _direct_sum(pairs, s, weight)
        for prec in SERIES_PRECS:
            series = TruncatedSeries(pairs, 0, 500, s, prec)
            _rounding_encloses(series.twisted(chi, coprime_to), series, want)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(
            st.sampled_from([1, -1]) | st.integers(-(10**6), 10**6) | st.fractions(max_denominator=50),
            min_size=1,
            max_size=300,
        ),
        k=st.sampled_from([2, 4, 6]),
        q=st.integers(1, 60),
        bits=st.integers(8, 200),
    )
    def test_fixed_point_buckets(self, coeffs, k, q, bits):
        # terms a(r) r^(-k) for r = 1..len(coeffs), integer or rational a: each
        # integer bucket lies within (terms in the bucket)/2 of 2^bits times its exact sum
        pairs = list(enumerate(coeffs, start=1))
        W = fold(fixed_power_terms(pairs, k, bits), q)
        exact = [F(0)] * q
        count = [0] * q
        for r, a in pairs:
            exact[r % q] += F(a) * 2**bits / r**k
            count[r % q] += 1
        for t in range(q):
            assert isinstance(W[t], int)
            assert abs(W[t] - exact[t]) <= F(count[t], 2), t

    @settings(max_examples=60, deadline=None)
    @given(pairs=SPARSE_PAIRS, s=st.sampled_from([F(7, 2), F(11, 3), F(9, 4)]), bits=st.integers(40, 200))
    def test_fixed_point_terms_at_rational_s(self, pairs, s, bits):
        # one mpf at bits + 16 per term: within 1/2 + (2 s ln r + 8) 2^(-16) |a r^(-s)| of a 2^bits r^(-s)
        terms = dict(fixed_power_terms(pairs, s, bits))
        with mp.workprec(bits + 96):
            sf = mpmath.mpf(s.numerator) / s.denominator
            for r, a in pairs:
                exact = mpmath.mpf(a.numerator) / a.denominator * mpmath.power(r, -sf)
                bound = 0.5 + (2 * float(s) * log(r) + 8) * 2.0**-16 * abs(exact)
                assert abs(terms[r] - mpmath.ldexp(exact, bits)) <= bound, r


def _parent_from_mpc(z, prec, rad):
    """``Ball.from_mpc`` as it rounded under mpmath's working precision: (mid, rad)."""
    with mp.workprec(prec):
        mid = mp.make_mpc((mpmath.mpf(z.real)._mpf_, mpmath.mpf(z.imag)._mpf_))
    return mid, _up(rad + _mag(mid) * 2.0 ** (1 - prec))


def _parent_to_mpf(x):
    """A rational at mpmath's working precision: the numerator rounded, then the quotient."""
    return mpmath.mpf(x.numerator) / x.denominator


REFERENCE_PRECS = [64, 144, 1016]


def _assert_nearest_roots(n, F_bits, slack):
    """fixed_root_table(n, F_bits) against a reference at F + 200 bits: each entry is the
    nearest integer, or a neighbour where the target lies within ``slack`` of a tie."""
    table = fixed_root_table(n, F_bits)
    with mp.workprec(F_bits + 200):
        for t in range(n):
            z = mpmath.expjpi(mpmath.mpf(2 * t) / n) * mpmath.ldexp(1, F_bits)
            for got, v in zip((table[0][t], table[1][t]), (z.real, z.imag)):
                low = int(mpmath.floor(v))
                frac = v - low
                if abs(frac - 0.5) > slack:
                    assert got == low + (frac > 0.5), (n, t)
                else:
                    assert got in (low, low + 1), (n, t)


class TestMpmathReference:
    """The libmp evaluations at an explicit precision give the same bits as the mpmath
    formulas they replaced, which rounded at mpmath's working precision (kept here); the
    root table, built by exact rotation, is checked against a reference at F + 200 bits."""

    @pytest.mark.parametrize("prec", REFERENCE_PRECS)
    def test_from_mpc(self, prec):
        with mp.workprec(prec + 100):
            zs = [mpmath.mpc(mpmath.pi, -mpmath.e), mpmath.mpc(1) / 3, mpmath.mpc(0, mpmath.sqrt(2)) * 10**30]
        for z in zs:
            ball = Ball.from_mpc(z, prec, 1e-30)
            mid, rad = _parent_from_mpc(z, prec, 1e-30)
            assert (ball.mid._mpc_, ball.rad, ball.prec) == (mid._mpc_, rad, prec)

    @pytest.mark.parametrize("prec", REFERENCE_PRECS)
    def test_two_pi_power(self, prec):
        for k in (0, 1, 2, 4, 7, 30, 64):
            with mp.workprec(prec):
                v = (2 * mpmath.pi) ** k
                mid, rad = _parent_from_mpc(mpmath.mpc(v), prec, float(v) * (k + 3) * 2.0**-prec)
            ball = _two_pi_power(k, prec)
            assert (ball.mid._mpc_, ball.rad, ball.prec) == (mid._mpc_, rad, prec), k

    @pytest.mark.parametrize("prec", REFERENCE_PRECS)
    def test_fixed_root_table(self, prec):
        # every entry is the integer nearest 2^F e(t/n), except within 2^(-12) of a tie
        for n in (1, 2, 3, 5, 8, 12, 27, 125):
            _assert_nearest_roots(n, prec, 2.0**-12)
            assert root_ball(n, n - 1, prec).prec == prec

    @pytest.mark.parametrize("n, F_bits", [(373, 8), (370, 53), (203, 192), (3125, 320)])
    def test_fixed_root_table_near_ties(self, n, F_bits):
        # one entry of each (and its mirror) lies within 2^(-15) of a tie; 16 guard bits
        # on a direct evaluation per t rounded it the wrong way
        _assert_nearest_roots(n, F_bits, 0.0)

    def test_fixed_root_table_evaluates_once(self, monkeypatch):
        # one evaluation of e(1/n) per new (n, F); the other roots are rotated on integers
        calls = []
        monkeypatch.setattr(arith, "mpc_expjpi", lambda *a: calls.append(a) or mpc_expjpi(*a))
        fixed_root_table.cache_clear()
        for n, F_bits in ((1, 64), (2, 64), (125, 64), (125, 96), (125, 64), (3125, 144)):
            fixed_root_table(n, F_bits)
        assert len(calls) == 5

    @settings(max_examples=40, deadline=None)
    @given(data=ONE_VECTOR, prec=st.sampled_from(REFERENCE_PRECS))
    def test_embed(self, data, prec):
        m, u = data
        a = CyclotomicNumber(m, u)
        with mp.workprec(prec + 16):
            zeta = mpmath.expjpi(mpmath.mpf(2) / a.order)
            acc = mpmath.mpc(0)
            for c in reversed(a.coeffs):
                acc = acc * zeta + _parent_to_mpf(c)
        mass = sum(abs(float(c)) for c in a.coeffs)
        mid, rad = _parent_from_mpc(acc, prec, 8 * (len(a.coeffs) + 1) * mass * 2.0 ** (-prec - 16))
        ball = a.embed(prec)
        assert (ball.mid._mpc_, ball.rad, ball.prec) == (mid._mpc_, rad, prec)
