"""Exact coefficient rings: integers, rationals, real quadratic fields and
the integer polynomials in z.

Only what the closed-form verifications need: Q(sqrt(3)) and Q(sqrt(5))
style arithmetic with elements ``a + b*sqrt(d)``, a and b rational, held
exactly.  No general algebraic-number tower.  Z[z] carries the two-variable
series, whose q-coefficients are polynomials in z.
"""

from __future__ import annotations

from fractions import Fraction

from .core import _Frozen
from .qpoly import QPoly


class RingMismatch(Exception):
    pass


def _is_squarefree(d: int) -> bool:
    if d in (0, 1):
        return False
    d = abs(d)
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class QuadElement(_Frozen):
    """``a + b*sqrt(d)`` with exact rational a, b and squarefree d."""

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def _lift(self, other) -> "QuadElement":
        if isinstance(other, QuadElement):
            if other.d != self.d:
                raise RingMismatch(f"sqrt({other.d}) element in Q(sqrt {self.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(Fraction(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElement(self.a * o.a + self.d * self.b * o.b,
                           self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - self.d * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return self * QuadElement(o.a / norm, -o.b / norm, self.d)

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElement):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"


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
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise RingMismatch(f"{x!r} is not an integer")

    def element_to_json(self, x):
        return str(x)


class RationalRing(Ring):
    tag = "Q"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingMismatch(f"{x!r} is not rational")

    def element_to_json(self, x):
        return [str(x.numerator), str(x.denominator)]


class QuadraticField(Ring):
    """Q(sqrt d) for a fixed squarefree integer d."""

    def __init__(self, d: int):
        if not _is_squarefree(d):
            raise ValueError(f"{d} is not squarefree")
        self.d = d
        self.tag = f"Q(sqrt {d})"

    def coerce(self, x):
        if isinstance(x, QuadElement):
            if x.d != self.d:
                raise RingMismatch(f"element of Q(sqrt {x.d}) in {self.tag}")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadElement(Fraction(x), Fraction(0), self.d)
        raise RingMismatch(f"{x!r} is not in {self.tag}")

    def sqrt(self) -> QuadElement:
        return QuadElement(Fraction(0), Fraction(1), self.d)

    def element_to_json(self, x):
        x = self.coerce(x)
        return [str(x.a.numerator), str(x.a.denominator),
                str(x.b.numerator), str(x.b.denominator)]


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
QQ = RationalRing()
ZZ_z = IntegerPolynomialRing()


def ring_of(*values) -> Ring:
    """The smallest ring in this module containing every one of ``values``;
    Z when there are none."""
    ring = ZZ
    for x in values:
        if isinstance(x, QuadElement):
            if not isinstance(ring, QuadraticField):
                ring = QuadraticField(x.d)
            elif ring.d != x.d:
                raise RingMismatch(f"elements of {ring.tag} and Q(sqrt {x.d})")
        elif isinstance(x, Fraction):
            ring = QQ if ring is ZZ else ring
        elif not isinstance(x, int):
            raise RingMismatch(f"no ring for {x!r}")
    return ring
