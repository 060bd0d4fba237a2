from fractions import Fraction

import pytest

from formalballs.numbers import (
    INF,
    bmax,
    bmin,
    decimal_str,
    half_pow,
    is_inf,
    parse_bound,
    parse_rational,
    rational_str,
    sqrt_lower,
    sqrt_upper,
)
from formalballs.upper import Query, UpperReal


def test_infinity_ordering_and_arith():
    assert INF > Fraction(10**9)
    assert not INF < Fraction(10**9)
    assert INF + Fraction(5) is INF
    assert Fraction(5) + INF is INF
    assert INF * Fraction(2) is INF
    assert bmin(INF, Fraction(3)) == 3
    assert bmax(Fraction(3), INF) is INF
    assert is_inf(parse_bound("inf"))


def test_rational_serialization():
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(INF) == "inf"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert decimal_str(Fraction(1, 4)) == "0.25"
    assert decimal_str(Fraction(-5, 2)) == "-2.5"
    assert decimal_str(Fraction(1, 3)) == "1/3"
    assert decimal_str(Fraction(2)) == "2"


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rational_rejects_bools(flag):
    assert parse_rational(int(flag)) == int(flag)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(flag)
    with pytest.raises(ValueError, match="not a rational"):
        parse_bound(flag)


def test_half_pow():
    assert half_pow(3) == Fraction(1, 8)
    assert half_pow(0) == 1
    assert half_pow(-2) == 4


def test_sqrt_bounds_bracket_the_root():
    for x in (Fraction(2), Fraction(25), Fraction(9, 4), Fraction(1, 3)):
        for bits in (4, 10, 20):
            lo = sqrt_lower(x, bits)
            hi = sqrt_upper(x, bits)
            assert lo * lo <= x <= hi * hi
            assert hi - lo <= 2 * half_pow(bits) + half_pow(bits - 1)
    assert sqrt_upper(Fraction(0), 10) == 0
    assert sqrt_lower(Fraction(0), 10) == 0


def test_sqrt_exact_squares_tight():
    hi = sqrt_upper(Fraction(25), 20)
    lo = sqrt_lower(Fraction(25), 20)
    assert lo <= 5 <= hi
    assert hi - 5 <= half_pow(19)


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
    assert UpperReal.infinite().less_than(Fraction(10**6), 50) is Query.NOT_YET


def test_upper_real_arithmetic():
    a = UpperReal.of_rational(Fraction(1, 2))
    b = UpperReal.of_rational(Fraction(1, 3))
    assert a.add(b).bound(0) == Fraction(5, 6)
    assert a.max_with(b).bound(0) == Fraction(1, 2)
    assert a.scale(Fraction(4)).bound(0) == 2
    assert UpperReal.infinite().add(a).bound(3) is INF


def test_query_labels():
    assert Query.YES.label == "Yes"
    assert Query.NOT_YET.label == "NotYet"
    assert Query.YES.is_yes and not Query.NOT_YET.is_yes
