"""Closed-interval scalars with outward rounding.

Every endpoint operation runs in ordinary double precision and the result
is widened one ulp outward via math.nextafter, so no rounding-mode control
is required.  The extra slack is negligible against the l1 residuals this
package certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction

_INF = math.inf


def down(x: float) -> float:
    return math.nextafter(x, -_INF)


def up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] of doubles enclosing a real number."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x) -> "Interval":
        x = float(x)
        if math.isnan(x):
            raise ValueError("NaN endpoint")
        return cls(x, x)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Interval":
        # float() rounds to nearest; nudge the off endpoint outward.
        x = float(q)
        if x == q:
            return cls(x, x)
        if x < q:
            return cls(x, up(x))
        return cls(down(x), x)

    @classmethod
    def enclose(cls, value) -> "Interval":
        if isinstance(value, Interval):
            return value
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        if isinstance(value, int):
            return cls.from_fraction(Fraction(value))
        return cls.point(value)

    def __add__(self, other):
        o = Interval.enclose(other)
        return Interval(down(self.lo + o.lo), up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = Interval.enclose(other)
        return Interval(down(self.lo - o.hi), up(self.hi - o.lo))

    def __rsub__(self, other):
        return Interval.enclose(other) - self

    def __mul__(self, other):
        o = Interval.enclose(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(down(min(p)), up(max(p)))

    __rmul__ = __mul__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __abs__(self):
        if self.lo >= 0.0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0.0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    def contains(self, value) -> bool:
        # Comparing float endpoints against Fraction is exact in Python.
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"
