from fractions import Fraction

import pytest

from cylpart import (Profile, QQ, QuadraticField, RingMismatch,
                     TruncatedSeries, ZZ, borodin_product, euler_sum,
                     path_counts, product_inv_factors)
from cylpart.rings import ring_of
from cylpart.series import NonpositiveExponent, OrderMismatch, euler_top

from conftest import mul_one_plus

K3, K5 = QuadraticField(3), QuadraticField(5)
GOLDEN = (K5.one + K5.sqrt()) * Fraction(1, 2)


def powers(beta, ring, count):
    """beta^0 .. beta^(count - 1) in ``ring``."""
    out = [ring.one]
    for _ in range(count - 1):
        out.append(out[-1] * ring.coerce(beta))
    return out


def euler_distinct(beta, order, ring=None):
    """(-beta*q; q)_infinity as the finite-factor product to the truncation
    order, one factor (1 + beta*q^j) at a time: an independent reference
    for :func:`euler_sum` of the powers beta^n."""
    ring = ring or ring_of(beta)
    beta = ring.coerce(beta)
    prod = TruncatedSeries.one(ring, order)
    for j in range(1, order + 1):
        prod = mul_one_plus(prod, j, beta)
    return prod


def poch_finite(n, order):
    """(q; q)_n truncated, one factor (1 - q^j) at a time: an independent
    reference for the inverse products."""
    s = TruncatedSeries.one(ZZ, order)
    for j in range(1, min(n, order) + 1):
        s = mul_one_plus(s, j, -1)
    return s


def poch_infinite(base_exp, modulus, order):
    """(q^m; q^t)_infinity truncated: product of (1 - q^{m + j t}), j >= 0."""
    s = TruncatedSeries.one(ZZ, order)
    for e in range(base_exp, order + 1, modulus):
        s = mul_one_plus(s, e, -1)
    return s


def brute_partition_counts(order, allowed=None, distinct=False):
    """Independent dynamic program for partition counts by weight."""
    parts = [p for p in range(1, order + 1)
             if allowed is None or p in allowed]
    counts = [1] + [0] * order
    for p in parts:
        if distinct:
            for n in range(order, p - 1, -1):
                counts[n] += counts[n - p]
        else:
            for n in range(p, order + 1):
                counts[n] += counts[n - p]
    return tuple(counts)


class TestArithmetic:
    def test_mul_example(self):
        a = TruncatedSeries.from_coeffs(ZZ, [1, 1], 2)
        b = TruncatedSeries.from_coeffs(ZZ, [1, -1], 2)
        assert (a * b).coeffs == (1, 0, -1)

    def test_scale(self):
        s = TruncatedSeries.from_coeffs(ZZ, [1, 1, 1], 2).scale(3)
        assert s.coeffs == (3, 3, 3)

    def test_product_with_inverse_is_one(self):
        inv = product_inv_factors([(1, 1)], 20)
        poch = poch_infinite(1, 1, 20)
        assert (inv * poch).coeffs == TruncatedSeries.one(ZZ, 20).coeffs

    def test_order_and_ring_guards(self):
        a = TruncatedSeries.from_coeffs(ZZ, [1], 3)
        with pytest.raises(OrderMismatch):
            a + TruncatedSeries.from_coeffs(ZZ, [1], 4)
        with pytest.raises(RingMismatch):
            a + TruncatedSeries.from_coeffs(QQ, [1], 3)

    def test_str_and_json(self):
        s = TruncatedSeries.from_coeffs(ZZ, [1, 0, 2], 2)
        assert str(s) == "1 + 2*q^2 + O(q^3)"
        js = s.to_json()
        assert js == {"ring": "Z", "order": 2, "coeffs": ["1", "0", "2"]}


class TestProducts:
    def test_all_parts(self):
        s = product_inv_factors([(1, 1)], 5)
        assert s.coeffs == (1, 1, 2, 3, 5, 7)
        assert s.coeffs == brute_partition_counts(5)

    def test_empty_factor_list(self):
        assert product_inv_factors([], 6).coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_congruence_classes_mod_five(self):
        s = product_inv_factors([(1, 5), (4, 5)], 8)
        allowed = {p for p in range(1, 9) if p % 5 in (1, 4)}
        assert s.coeffs == brute_partition_counts(8, allowed=allowed)

    def test_nonpositive_exponent(self):
        with pytest.raises(NonpositiveExponent):
            product_inv_factors([(0, 5)], 4)


class TestBorodin:
    def test_rogers_ramanujan_shape(self):
        left = borodin_product(Profile.of(2, 1), 20)
        right = product_inv_factors([(1, 1), (1, 5), (4, 5)], 20)
        assert left.coeffs == right.coeffs

    def test_constant_term(self):
        for prof in [Profile.of(2, 1), Profile.of(1, 2, 0), Profile.of(4, 3)]:
            assert borodin_product(prof, 6).coeffs[0] == 1

    def test_nonnegative_coefficients(self):
        for prof in [Profile.of(2, 1), Profile.of(1, 1, 1), Profile.of(0, 2, 0),
                     Profile.of(3, 0, 1), Profile.of(2, 2)]:
            assert all(c >= 0 for c in borodin_product(prof, 15).coeffs)


class TestEuler:
    def test_distinct_counts(self):
        s = euler_distinct(1, 6)
        assert s.coeffs == (1, 1, 1, 2, 2, 3, 4)
        assert s.coeffs == brute_partition_counts(6, distinct=True)

    def test_zero_weight(self):
        assert euler_distinct(0, 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_weighted(self):
        # (1 + 2q)(1 + 2q^2)(1 + 2q^3) up to q^3
        assert euler_distinct(2, 3).coeffs == (1, 2, 2, 6)

    def test_product_equals_sum_across_rings(self):
        for beta, ring in [(1, ZZ), (2, ZZ), (-1, ZZ),
                           (K3.sqrt(), K3), (GOLDEN, K5)]:
            assert euler_distinct(beta, 30, ring).coeffs == \
                euler_sum(powers(beta, ring, euler_top(30) + 1), 30, ring).coeffs, beta

    def test_lambert_termwise(self):
        # sum of n^k q^{n(n+1)/2}/(q;q)_n: the k-fold z d/dz of (-zq;q) at z = 1
        assert euler_sum([n ** 0 for n in range(4)], 8).coeffs == \
            euler_distinct(1, 8).coeffs
        assert euler_sum([n for n in range(3)], 3).coeffs == (0, 1, 1, 3)
        assert euler_sum([n ** 2 for n in range(4)], 5).coeffs[0] == 0


class TestEulerSum:
    """euler_sum against the term-by-term sum it replaces."""

    @staticmethod
    def termwise(coeffs, order, ring):
        total = TruncatedSeries.zero(ring, order)
        for n, c in enumerate(coeffs):
            if n * (n + 1) // 2 > order:
                break
            term = TruncatedSeries.one(ZZ, order).mul_inv_poch(n).into_ring(ring)
            total = total + term.shift(n * (n + 1) // 2).scale(c)
        return total

    @staticmethod
    def sequences(ring, betas):
        top = 10   # euler_top(60)
        for parts in [(1, 1, 1), (2, 0, 0), (4, 0), (2, 1, 1), (2, 1)]:
            yield path_counts(Profile.of(*parts), top).totals
        for beta in betas:
            pw = powers(beta, ring, top + 1)
            for k in range(3):
                yield [n ** k * p for n, p in enumerate(pw)]
            for parity in range(2):
                yield [p if n % 2 == parity else 0 for n, p in enumerate(pw)]

    def test_top(self):
        for order in range(200):
            top = euler_top(order)
            assert top * (top + 1) // 2 <= order < (top + 1) * (top + 2) // 2

    def test_over_integers_every_order(self):
        for seq in self.sequences(ZZ, [2, -1]):
            for order in range(61):
                assert euler_sum(seq, order).coeffs == \
                    self.termwise(seq, order, ZZ).coeffs, (seq, order)

    @pytest.mark.parametrize("ring,betas", [
        (QQ, [Fraction(3, 2)]), (K3, [K3.sqrt()]), (K5, [GOLDEN])],
        ids=["Q", "Q(sqrt 3)", "Q(sqrt 5)"])
    def test_over_fields_near_triangular_orders(self, ring, betas):
        orders = sorted({0, 1, 2, 8, 33, 60} |
                        {t + d for n in range(1, 11) for d in (-1, 0)
                         for t in [n * (n + 1) // 2]})
        for seq in self.sequences(ring, betas):
            for order in orders:
                assert euler_sum(seq, order, ring).coeffs == \
                    self.termwise(seq, order, ring).coeffs, (seq, order)

    def test_missing_entries_read_as_zero(self):
        assert euler_sum([], 6).coeffs == (0,) * 7
        assert euler_sum([1], 6).coeffs == (1,) + (0,) * 6
        assert euler_sum([0, 0, 5], 6).coeffs == \
            self.termwise([0, 0, 5, 0], 6, ZZ).coeffs
        # Entries past euler_top(order) are never read.
        assert euler_sum([1, 1, 7, 9], 2).coeffs == euler_sum([1, 1], 2).coeffs


class TestProgressionFilter:
    """Summing only the indices in one residue class: the Euler sum of the
    powers of beta with the other entries masked to 0."""

    @staticmethod
    def masked(beta, ring, modulus, residue, order):
        return [p if n % modulus == residue else 0
                for n, p in enumerate(powers(beta, ring, euler_top(order) + 1))]

    def test_whole_series(self):
        full = euler_sum(self.masked(1, ZZ, 1, 0, 10), 10)
        assert full.coeffs == euler_distinct(1, 10).coeffs

    def test_classes_partition_the_series(self):
        even = euler_sum(self.masked(1, ZZ, 2, 0, 12), 12)
        odd = euler_sum(self.masked(1, ZZ, 2, 1, 12), 12)
        assert (even + odd).coeffs == euler_distinct(1, 12).coeffs

    def test_odd_part_in_quadratic_field(self):
        s = K3.sqrt()
        odd = euler_sum(self.masked(s, K3, 2, 1, 6), 6, K3)
        half = K3.coerce(Fraction(1, 2))
        direct = (euler_distinct(s, 6, K3) - euler_distinct(-s, 6, K3)).scale(half)
        assert odd.coeffs == direct.coeffs


class TestFinitePochhammer:
    def test_inverse_pair(self):
        n, order = 4, 12
        inverse = TruncatedSeries.one(ZZ, order).mul_inv_poch(n)
        assert (inverse * poch_finite(n, order)).coeffs \
            == TruncatedSeries.one(ZZ, order).coeffs

    def test_step(self):
        s = TruncatedSeries.one(ZZ, 10).mul_inv_poch(2, step=3)  # 1/((1-q^3)(1-q^6))
        t = product_inv_factors([(3, 100), (6, 100)], 10)
        assert s.coeffs == t.coeffs
