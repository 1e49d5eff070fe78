import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpart import QPoly, RingMismatch, ZZ, q_binomial
from cylpart.qpoly import IndexOutOfRange, geometric_sum

from references import QQ, QuadElement, QuadraticField, RationalRing, ring_of

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)


class TestQPoly:
    def test_arithmetic(self):
        p = QPoly((1, 1))      # 1 + q
        m = QPoly((1, -1))     # 1 - q
        assert p * m == QPoly((1, 0, -1))
        assert p + m == QPoly((2,))
        assert (p - p) == QPoly()
        assert p ** 3 == QPoly((1, 3, 3, 1))

    def test_shift_subst_eval(self):
        p = QPoly((1, 2, 3))
        assert p.shift(2) == QPoly((0, 0, 1, 2, 3))
        assert p.subst_power(3) == QPoly((1, 0, 0, 2, 0, 0, 3))
        assert p(2) == 1 + 4 + 12

    def test_str(self):
        assert str(QPoly((1, 0, 2))) == "1 + 2*q^2"
        assert str(QPoly()) == "0"

    def test_geometric_sum(self):
        assert geometric_sum(3, 7) == QPoly((1, 0, 0, 1, 0, 0, 1, 0))


class TestQBinomial:
    def test_edge_and_small(self):
        assert q_binomial(5, 0) == QPoly((1,))
        assert q_binomial(2, 1) == QPoly((1, 1))
        assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))

    def test_value_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == math.comb(n, k)

    def test_symmetry(self):
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            q_binomial(3, 4)
        with pytest.raises(IndexOutOfRange):
            q_binomial(3, -1)

    def test_times_pochhammer_products(self):
        """[n, k] (q;q)_k (q;q)_{n-k} = (q;q)_n, with (q;q)_m built here."""
        poch = [QPoly.one()]
        for m in range(1, 13):
            poch.append(poch[-1] * (QPoly.one() - QPoly.monomial(m)))
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) * poch[k] * poch[n - k] == poch[n], (n, k)


class TestQuadraticField:
    def test_squarefree_required(self):
        with pytest.raises(ValueError):
            QuadraticField(4)
        with pytest.raises(ValueError):
            QuadraticField(12)

    def test_field_mixing_rejected(self):
        a = QuadraticField(3).sqrt()
        b = QuadraticField(5).sqrt()
        with pytest.raises(RingMismatch):
            _ = a + b

    def test_division(self):
        K = QuadraticField(5)
        x = K.coerce(Fraction(3, 2)) + K.sqrt()
        assert x / x == K.one
        with pytest.raises(ZeroDivisionError):
            _ = K.one / K.zero

    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=150, deadline=None)
    def test_conjugate_norm(self, a, b, c, d):
        K = QuadraticField(5)
        x = QuadElement(a, b, 5)
        y = QuadElement(c, d, 5)
        assert x * x.conjugate() == QuadElement(a * a - 5 * b * b, Fraction(0), 5)
        # ring laws on sampled pairs/triples
        assert x * y == y * x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_associativity_distributivity(self, a, b, c, d, e, f):
        x, y, z = (QuadElement(a, b, 3), QuadElement(c, d, 3), QuadElement(e, f, 3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)

    def test_coercion_and_json(self):
        K = QuadraticField(3)
        assert K.coerce(2) == QuadElement(Fraction(2), Fraction(0), 3)
        assert K.element_to_json(K.sqrt()) == ["0", "1", "1", "1"]
        assert ZZ.element_to_json(10**30) == str(10**30)
        assert QQ.element_to_json(Fraction(1, 3)) == ["1", "3"]

    def test_ring_equality_by_type_and_tag(self):
        from cylpart.rings import IntegerPolynomialRing, IntegerRing, ZZ_z
        assert ZZ == IntegerRing() and QQ == RationalRing()
        assert ZZ_z == IntegerPolynomialRing()
        assert QuadraticField(5) == QuadraticField(5) != QuadraticField(3)
        assert len({ZZ, IntegerRing(), QQ, ZZ_z, QuadraticField(5),
                    QuadraticField(5), QuadraticField(3)}) == 5
        assert ZZ != QQ and ZZ != "Z" and QQ != ZZ_z

    def test_integer_ring_rejects_fractions(self):
        with pytest.raises(RingMismatch):
            ZZ.coerce(Fraction(1, 2))
        assert ZZ.coerce(Fraction(4, 2)) == 2

    def test_ring_of_holds_every_value(self):
        s = QuadraticField(5).sqrt()
        assert ring_of() == ZZ and ring_of(1, 2) == ZZ
        assert ring_of(1, Fraction(1, 2), 3) == QQ
        assert ring_of(1, s, Fraction(1, 2)) == QuadraticField(5)
        with pytest.raises(RingMismatch):
            ring_of(s, QuadraticField(3).sqrt())
