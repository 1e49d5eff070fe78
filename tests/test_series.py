from fractions import Fraction

import pytest

from cylpart import (Profile, QQ, QuadraticField, RingMismatch,
                     TruncatedSeries, ZZ, borodin_product, euler_distinct,
                     lambert_zddz, product_inv_factors, progression_filter)
from cylpart.series import (NonpositiveExponent, OrderMismatch, euler_terms,
                            inv_poch_finite, poch_infinite)


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
        K3, K5 = QuadraticField(3), QuadraticField(5)
        golden = (K5.one + K5.sqrt()) * Fraction(1, 2)
        for beta, ring in [(1, ZZ), (2, ZZ), (-1, ZZ),
                           (K3.sqrt(), K3), (golden, K5)]:
            total = TruncatedSeries.zero(ring, 30)
            for term in euler_terms(beta, 30, ring):
                total = total + term
            assert euler_distinct(beta, 30, ring).coeffs == total.coeffs, beta

    def test_lambert_termwise(self):
        assert lambert_zddz(1, 0, 8).coeffs == euler_distinct(1, 8).coeffs
        assert lambert_zddz(1, 1, 3).coeffs == (0, 1, 1, 3)
        assert lambert_zddz(1, 2, 5).coeffs[0] == 0


class TestProgressionFilter:
    def test_whole_series(self):
        full = progression_filter(euler_terms(1, 10), 1, 0, 10)
        assert full.coeffs == euler_distinct(1, 10).coeffs

    def test_classes_partition_the_series(self):
        even = progression_filter(euler_terms(1, 12), 2, 0, 12)
        odd = progression_filter(euler_terms(1, 12), 2, 1, 12)
        assert (even + odd).coeffs == euler_distinct(1, 12).coeffs

    def test_odd_part_in_quadratic_field(self):
        K = QuadraticField(3)
        s = K.sqrt()
        odd = progression_filter(euler_terms(s, 6, K), 2, 1, 6, K)
        half = K.coerce(Fraction(1, 2))
        direct = (euler_distinct(s, 6, K) - euler_distinct(-s, 6, K)).scale(half)
        assert odd.coeffs == direct.coeffs

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            progression_filter([], 2, 2, 5)


class TestFinitePochhammer:
    def test_inverse_pair(self):
        from cylpart.series import poch_finite
        n, order = 4, 12
        assert (inv_poch_finite(n, order) * poch_finite(n, order)).coeffs \
            == TruncatedSeries.one(ZZ, order).coeffs

    def test_step(self):
        s = inv_poch_finite(2, 10, step=3)  # 1/((1-q^3)(1-q^6))
        t = product_inv_factors([(3, 100), (6, 100)], 10)
        assert s.coeffs == t.coeffs
