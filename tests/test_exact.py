import importlib
import math
import random
from fractions import Fraction

import pytest

import pavekit
from pavekit.counterexample import rational_to_str


def test_rational_textbook_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 3) * Fraction(3, 2) == 1
    assert -Fraction(3, 4) == Fraction(-3, 4)
    assert 1 / Fraction(4, 7) == Fraction(7, 4)


def test_rational_inversion_of_zero_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)


def test_rational_always_reduced():
    x = Fraction(18, 6561)
    assert (x.numerator, x.denominator) == (2, 729)
    assert x.denominator > 0
    assert math.gcd(abs(x.numerator), x.denominator) == 1


def test_rational_string_round_trip():
    assert rational_to_str(Fraction(2, 49)) == "2/49"
    assert rational_to_str(Fraction(1)) == "1/1"
    assert Fraction(rational_to_str(Fraction(18, 6561))) == Fraction(2, 729)
    assert Fraction(rational_to_str(Fraction(-3, 7))) == Fraction(-3, 7)


def test_field_axioms_on_random_triples():
    rng = random.Random(20240517)

    def rand_rat():
        return Fraction(rng.randint(-120, 120), rng.randint(1, 99))

    for _ in range(1000):
        a, b, c = rand_rat(), rand_rat(), rand_rat()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_public_api_resolves_and_exact_module_is_gone():
    for name in pavekit.__all__:
        getattr(pavekit, name)
    assert len(set(pavekit.__all__)) == len(pavekit.__all__)
    with pytest.raises(ImportError):
        importlib.import_module("pavekit.exact")
