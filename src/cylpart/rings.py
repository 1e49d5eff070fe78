"""Exact coefficient rings: the integers Z, and the integer polynomials in
z, Z[z], which carry the two-variable series: their q-coefficients are
polynomials in z.
"""

from __future__ import annotations

from .qpoly import QPoly


class RingMismatch(Exception):
    pass


class Ring:
    """Tagged coercion helper; elements themselves carry the arithmetic.

    Two rings are equal when they have the same type and tag.
    """

    tag: str

    def coerce(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def element_to_json(self, x):
        raise NotImplementedError

    def element_to_str(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return type(other) is type(self) and other.tag == self.tag

    def __hash__(self):
        return hash((type(self), self.tag))

    def __repr__(self) -> str:
        return self.tag


class IntegerRing(Ring):
    tag = "Z"

    def coerce(self, x):
        if isinstance(x, int):
            return x
        # An integral rational, such as the Fraction(4, 2) of an exact
        # division, is told by its denominator: no module imports fractions
        # at load.
        if getattr(x, "denominator", None) == 1:
            return x.numerator
        raise RingMismatch(f"{x!r} is not an integer")

    def element_to_json(self, x):
        return str(x)


class IntegerPolynomialRing(Ring):
    """Z[z]: integer polynomials in z, held as :class:`QPoly`."""

    tag = "Z[z]"

    def coerce(self, x):
        if isinstance(x, QPoly):
            return x
        if isinstance(x, int):
            return QPoly((x,))
        raise RingMismatch(f"{x!r} is not in Z[z]")

    def element_to_json(self, x):
        return [str(c) for c in x.coeffs]

    def element_to_str(self, x) -> str:
        return x.to_str("z") if x.degree <= 0 else f"({x.to_str('z')})"


ZZ = IntegerRing()
ZZ_z = IntegerPolynomialRing()

