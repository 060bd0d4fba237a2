import random
from fractions import Fraction

import pytest

from formalballs.numbers import half_pow
from formalballs.reals import (
    BoundViolation,
    abs_r,
    add_c,
    add_r,
    complex_of_rational,
    conj_c,
    max_r,
    min_r,
    modulus_c,
    modulus_interval,
    mul_c,
    mul_r,
    neg_r,
    real_of_rational,
    scale_r,
    sub_r,
)


def test_approx_constant():
    third = real_of_rational(Fraction(1, 3))
    for n in (0, 10, 30):
        assert third.approx(n) == Fraction(1, 3)
    zero = real_of_rational(0)
    assert zero.approx(25) == 0


def test_add_to_one():
    third = real_of_rational(Fraction(1, 3))
    s = add_r(third, add_r(third, third))
    assert abs(s.approx(30) - 1) <= half_pow(30)


def test_mul_example():
    x = real_of_rational(Fraction(3, 2))
    p = mul_r(x, x, 2)
    assert abs(p.approx(20) - Fraction(9, 4)) <= half_pow(20)


def test_mul_bound_certification_fails():
    with pytest.raises(BoundViolation):
        mul_r(real_of_rational(5), real_of_rational(1), 2)


def test_neg_involution_and_lattice_ops():
    x = real_of_rational(Fraction(-7, 3))
    assert neg_r(neg_r(x)).approx(20) == x.approx(20)
    assert abs_r(x).approx(10) == Fraction(7, 3)
    y = real_of_rational(2)
    assert max_r(x, y).approx(5) == 2
    assert min_r(x, y).approx(5) == Fraction(-7, 3)
    assert scale_r(y, Fraction(3, 2)).approx(10) == 3


def test_sub_and_random_agreement_with_oracle():
    rng = random.Random(5)
    for _ in range(50):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        got = sub_r(real_of_rational(a), real_of_rational(b)).approx(30)
        assert abs(got - (a - b)) <= half_pow(30)


def test_ring_law_associativity_at_query_level():
    rng = random.Random(11)
    for _ in range(20):
        vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
        a, b, c = (real_of_rational(v) for v in vals)
        lhs = add_r(add_r(a, b), c)
        rhs = add_r(a, add_r(b, c))
        diff = abs_r(sub_r(lhs, rhs))
        assert diff.approx(33) <= half_pow(31)


def test_complex_mul_i_squared():
    i = complex_of_rational(0, 1)
    z = mul_c(i, i, 2)
    re, im = z.approx(20)
    assert abs(re - (-1)) <= half_pow(20)
    assert abs(im) <= half_pow(20)


def test_conj_involution():
    z = complex_of_rational(Fraction(3, 4), Fraction(-2, 5))
    w = conj_c(conj_c(z))
    assert w.approx(20) == z.approx(20)


def test_modulus_three_four_five():
    z = complex_of_rational(3, 4)
    m = modulus_c(z)
    assert m.less_than(Fraction(501, 100), 8).is_yes
    assert not m.less_than(Fraction(499, 100), 64).is_yes


def test_modulus_interval_brackets():
    z = complex_of_rational(1, 1)
    lo, hi = modulus_interval(z, 20)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= half_pow(16)


def test_norm_triangle_at_query_level():
    a = complex_of_rational(3, 4)
    b = complex_of_rational(-1, 2)
    s = add_c(a, b)
    bound = modulus_c(a).bound(20) + modulus_c(b).bound(20)
    assert modulus_c(s).less_than(bound + half_pow(10), 24).is_yes
