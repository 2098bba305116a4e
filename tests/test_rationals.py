import math
import random
from fractions import Fraction

import pytest

from linrank.rationals import format_rational, parse_rational, rat


def test_exact_fraction_addition():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)


def test_canonical_form_on_construction():
    v = rat(2, 4)
    assert v.numerator == 1 and v.denominator == 2


def test_division_identity():
    assert rat(3, 7) / rat(3, 7) == rat(1)


def test_division_by_zero_raises_arithmetic_error():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)
    assert issubclass(ZeroDivisionError, ArithmeticError)


def test_field_axioms_on_random_triples():
    rng = random.Random(42)

    def r():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    for _ in range(200):
        a, b, c = r(), r(), r()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_canonical_form_preserved_by_operations():
    rng = random.Random(7)
    for _ in range(100):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 25))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 25))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_rendering_round_trip():
    for text in ("5/6", "-7/3", "4", "0", "-12"):
        assert format_rational(parse_rational(text)) == text
    assert format_rational(rat(1)) == "1"  # denominator 1 renders bare


def test_decimal_literals_rejected():
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("1e3")
    with pytest.raises(ValueError):
        parse_rational("1/0")
