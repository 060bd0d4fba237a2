from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.numbers import (
    decimal_str,
    half_pow,
    parse_rational,
    rational_str,
    sqrt_lower,
)
from formalballs.upper import Query, UpperReal


def test_rational_serialization():
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert decimal_str(Fraction(1, 4)) == "0.25"
    assert decimal_str(Fraction(-5, 2)) == "-2.5"
    assert decimal_str(Fraction(1, 3)) == "1/3"
    assert decimal_str(Fraction(2)) == "2"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(0, 45), st.integers(0, 45))
@example(1, 41, 0)  # 2^-41 needs 41 digits: past max_digits, printed as p/q
@example(3, 40, 0)
@example(-7, 0, 40)
@example(10 ** 5, 5, 0)  # a whole number after reduction
def test_decimal_str_reads_back_exactly(k, a, b):
    x = Fraction(k, 2 ** a * 5 ** b)
    text = decimal_str(x)
    assert Fraction(text) == x
    digits = next(n for n in range(100) if 10 ** n % x.denominator == 0)
    if digits > 40:
        assert text == rational_str(x)
    elif digits:
        whole, frac = text.split(".")
        assert len(frac) == digits and not frac.endswith("0")
    else:
        assert text == str(x.numerator)


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rational_rejects_bools(flag):
    assert parse_rational(int(flag)) == int(flag)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(flag)


def test_half_pow():
    assert half_pow(3) == Fraction(1, 8)
    assert half_pow(0) == 1
    assert half_pow(-2) == 4


def test_sqrt_bounds_bracket_the_root():
    for x in (Fraction(2), Fraction(25), Fraction(9, 4), Fraction(1, 3)):
        for bits in (4, 10, 20):
            lo = sqrt_lower(x, bits)
            assert lo * lo <= x < (lo + half_pow(bits)) ** 2
    assert sqrt_lower(Fraction(0), 10) == 0


def test_sqrt_exact_squares_tight():
    assert sqrt_lower(Fraction(25), 20) == 5
    assert sqrt_lower(Fraction(9, 4), 1) == Fraction(3, 2)


def test_upper_real_monotone_bounds():
    # raw bounds oscillate; exposed bounds must be non-increasing
    raw = [Fraction(5), Fraction(3), Fraction(4), Fraction(2), Fraction(6)]
    u = UpperReal(lambda e: raw[min(e, len(raw) - 1)])
    seen = [u.bound(e) for e in range(6)]
    assert seen == sorted(seen, reverse=True)
    assert u.bound(3) == 2


def test_less_than_semantics():
    u = UpperReal.of_rational(Fraction(1))
    assert u.less_than(Fraction(11, 10), 0) is Query.YES
    assert u.less_than(Fraction(1), 0) is Query.NOT_YET
    with pytest.raises(ValueError):
        u.less_than(Fraction(0), 0)


def test_query_labels():
    assert Query.YES.label == "Yes"
    assert Query.NOT_YET.label == "NotYet"
    assert Query.YES.is_yes and not Query.NOT_YET.is_yes
