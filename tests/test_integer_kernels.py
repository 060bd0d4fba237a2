"""Integer kernels of the reals layer against the Fraction formulas they replace.

``modulus_interval``, ``sqrt_lower``, ``_certify_bound``, the per-stage
bound check of ``mul_r`` and the character-law comparison ``_within`` of
``gelfand`` compute on integer numerators and denominators (``_within``
takes them as (num, den) pairs, in lowest terms or not).  Each is
compared here with the ``Fraction`` formula it replaced, kept below as a
reference: equal results by repr (so equal values of the same type), or the
same error type and message.  ``certify_constant`` is held to the rule on
constant points, with its pairs scaled out of lowest terms.  The
certification that the row laws of ``gelfand`` do not run on a character
term or on the product law's right-hand side is asserted here instead.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.gelfand import _within
from formalballs.numbers import half_pow, sqrt_lower
from formalballs.reals import (
    LINE,
    BoundViolation,
    ComplexPoint,
    RealPoint,
    _certify_bound,
    _fits,
    certify_constant,
    modulus_interval,
    mul_r,
)

# -- the Fraction formulas the kernels replace ------------------------------


def ref_sqrt_upper(x, bits):
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator) + 1, scale)


def ref_sqrt_lower(x, bits):
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator), scale)


def ref_modulus_interval(a, n):
    m = n + 2
    x = abs(a.re.approx(m))
    y = abs(a.im.approx(m))
    err = half_pow(m)
    hi2 = (x + err) ** 2 + (y + err) ** 2
    lo2 = max(Fraction(0), x - err) ** 2 + max(Fraction(0), y - err) ** 2
    return ref_sqrt_lower(lo2, m + 2), ref_sqrt_upper(hi2, m + 2)


def ref_certify_bound(p, bound):
    for m in (4, 8, 16):
        if abs(p.approx(m)) + half_pow(m) <= bound:
            return
    raise BoundViolation(f"could not certify |value| <= {bound}")


def ref_mul_stage(p, q, bound, n):
    m = n + 1 + (2 * bound + 2).bit_length()
    a, b = p.approx(m), q.approx(m)
    if abs(a) > bound or abs(b) > bound:
        raise BoundViolation(f"factor stage {m} escaped the certified bound {bound}")
    return a * b


def ref_within(a, b, k, j):
    return all(abs(s - t) + half_pow(k + j) < half_pow(k) for s, t in zip(a, b))


def outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except (BoundViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)


def twin(stage) -> RealPoint:
    """An unflagged point whose stage n is ``stage(n)``."""
    return RealPoint(CompletionPoint(LINE, stage))


# -- strategies --------------------------------------------------------------

dyadics = st.builds(
    lambda k, e: Fraction(k, 2 ** e), st.integers(-10 ** 6, 10 ** 6), st.integers(0, 400)
)
non_dyadics = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
values = st.one_of(
    st.integers(-50, 50), st.just(0), st.just(Fraction(0)), dyadics, non_dyadics
)


# -- modulus_interval ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(values, values, st.integers(0, 300))
@example(0, 0, 0)
@example(Fraction(-3, 2 ** 40), Fraction(5, 2 ** 9), 30)  # unequal power-of-two denominators
@example(Fraction(1, 3), Fraction(2, 3), 7)  # equal odd denominators
@example(Fraction(-1, 2 ** 12), 0, 9)  # |x| <= err: the lower end clamps at 0
def test_modulus_interval_matches_the_fraction_formula(x, y, n):
    for a in (
        ComplexPoint(twin(lambda m: x), twin(lambda m: y)),
        ComplexPoint(RealPoint(point_of_carrier(LINE, x)), RealPoint(point_of_carrier(LINE, y))),
    ):
        assert outcome(modulus_interval, a, n) == outcome(ref_modulus_interval, a, n)


@settings(max_examples=100, deadline=None)
@given(values, values, st.integers(0, 120))
def test_modulus_interval_reads_stages_that_vary_with_n(x, y, n):
    # stages that are not one constant: each stage m is shifted by 1/(3 * 2^m)
    a = ComplexPoint(
        twin(lambda m: x + Fraction(1, 3 * 2 ** m)), twin(lambda m: y - half_pow(m + 1))
    )
    assert outcome(modulus_interval, a, n) == outcome(ref_modulus_interval, a, n)


# -- sqrt_lower ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(values, st.integers(-10 ** 30, 10 ** 30), st.integers(0, 2 ** 200)),
    st.integers(0, 1200),
)
@example(0, 0)
@example(Fraction(0), 700)
@example(-1, 5)
@example(Fraction(-1, 3), 5)
@example(Fraction(2, 3 ** 50), 1024)
def test_sqrt_bounds_match_the_fraction_formula(x, bits):
    assert outcome(sqrt_lower, x, bits) == outcome(ref_sqrt_lower, x, bits)


def test_sqrt_of_a_negative_raises_the_same_error():
    for x in (-1, Fraction(-1, 2 ** 80), Fraction(-7, 3)):
        with pytest.raises(ValueError, match="^sqrt of negative rational$"):
            sqrt_lower(x, 10)


# -- certification -------------------------------------------------------------


@st.composite
def near_the_edge(draw):
    """A bound and an offset rule putting stage m within 2^-(m+2) of its edge.

    Stage m is ±(bound - 2^-m + j / (2^(m+2) * r)) for j in -1..1 and an odd
    r: |stage m| + 2^-m <= bound holds exactly when j <= 0 (and the sign
    does not matter).  Some stages are ints instead.
    """
    bound = draw(st.integers(1, 20))
    j = draw(st.integers(-1, 1))
    r = draw(st.sampled_from([1, 3, 5, 7]))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["edge", "int", "mixed"]))

    def stage(m):
        if kind == "int" or (kind == "mixed" and m == 16):
            return sign * (bound - 1 + j)
        return sign * (bound - half_pow(m) + Fraction(j, 2 ** (m + 2) * r))

    return bound, stage


@settings(max_examples=300, deadline=None)
@given(near_the_edge())
def test_certify_bound_matches_the_fraction_rule(case):
    bound, stage = case
    p = twin(stage)
    assert outcome(_certify_bound, p, bound) == outcome(ref_certify_bound, p, bound)


@settings(max_examples=300, deadline=None)
@given(near_the_edge(), st.integers(1, 6))
def test_certify_constant_matches_the_fraction_rule(case, scale):
    bound, stage = case
    c = stage(16)
    p = RealPoint(point_of_carrier(LINE, c))
    want = outcome(ref_certify_bound, p, bound)
    assert outcome(_certify_bound, p, bound) == want
    pair = (c.numerator * scale, c.denominator * scale)
    assert outcome(certify_constant, *pair, bound) == want


@st.composite
def factor_near_the_bound(draw, bound):
    """A factor that certifies at stages 4, 8, 16 and sits at ±bound elsewhere.

    Its other stages m are ±(bound + j / (2^(m+2) * r)) for j in -1..1 and an
    odd r, or the int ±(bound + j): the product stage raises exactly when
    some factor has j = 1.
    """
    j = draw(st.integers(-1, 1))
    r = draw(st.sampled_from([1, 3, 5, 7]))
    sign = draw(st.sampled_from([1, -1]))
    as_int = draw(st.booleans())

    def stage(m):
        if m in (4, 8, 16):
            return 0
        if as_int:
            return sign * (bound + j)
        return sign * (bound + Fraction(j, 2 ** (m + 2) * r))

    return twin(stage)


@st.composite
def factor_pairs(draw):
    bound = draw(st.integers(1, 20))
    return bound, draw(factor_near_the_bound(bound)), draw(factor_near_the_bound(bound))


@settings(max_examples=300, deadline=None)
@given(factor_pairs(), st.integers(0, 40))
def test_mul_stage_check_matches_the_fraction_rule(case, n):
    bound, p, q = case
    got = outcome(lambda: mul_r(p, q, bound).approx(n))
    assert got == outcome(ref_mul_stage, p, q, bound, n)


def test_int_stages_stay_ints():
    p, q = twin(lambda n: 3), twin(lambda n: -2)
    zero = twin(lambda n: 0)
    _certify_bound(p, 4)
    assert type(mul_r(p, q, 4).approx(10)) is int
    assert type(mul_r(zero, zero, 1).approx(10)) is int
    assert mul_r(zero, q, 3).approx(10) == 0
    with pytest.raises(BoundViolation, match="^could not certify \\|value\\| <= 3$"):
        mul_r(p, q, 3)


# -- the character-law comparison ----------------------------------------------


@st.composite
def within_cases(draw):
    """Stages a, b and k, j, with some coordinate gaps at the rule's edge.

    The rule is |s - t| + 2^-(k+j) < 2^-k, so its edge is the gap
    2^-k - 2^-(k+j).  An edge gap is moved by i 2^-(k+j+2) / r for i in
    -1..1 and an odd r: the rule holds exactly when i < 0.  A stage that
    is a whole number is sometimes an int, as constant stages may be.
    """
    k = draw(st.integers(-4, 40))
    j = draw(st.sampled_from([1, 2]))
    a, b = [], []
    for _ in range(2):
        t = draw(values)
        if draw(st.booleans()):
            s = draw(values)
        else:
            i = draw(st.integers(-1, 1))
            r = draw(st.sampled_from([1, 3, 5, 7]))
            sign = draw(st.sampled_from([1, -1]))
            gap = half_pow(k) - half_pow(k + j) + half_pow(k + j + 2) * Fraction(i, r)
            s = t + sign * gap
        if s.denominator == 1 and draw(st.booleans()):
            s = int(s)
        a.append(s)
        b.append(t)
    return tuple(a), tuple(b), k, j


@settings(max_examples=400, deadline=None)
@given(within_cases())
@example(((Fraction(3, 4), 0), (0, 0), 0, 2))  # on the edge: fails
@example(((Fraction(1, 2), 0), (0, 0), 0, 2))  # inside
@example(((12, 0), (0, 0), -4, 1))  # k + j < 0: 12 + 8 < 16 fails
@example(((7, 0), (0, 0), -4, 1))
def test_within_matches_the_fraction_formula(case):
    a, b, k, j = case

    def pairs(value, scale=1):
        return tuple((scale * s.numerator, scale * s.denominator) for s in value)

    want = ref_within(a, b, k, j)
    assert _within(pairs(a), pairs(b), k, j) == want
    # the row path's pairs are not in lowest terms; the answer must not move
    assert _within(pairs(a, 6), pairs(b, 35), k, j) == want


# -- the certification the row laws skip ---------------------------------------

near_integers = st.builds(
    lambda n, e, sign: n + sign * Fraction(1, 2 ** e),
    st.integers(-60, 60), st.integers(1, 40), st.sampled_from([1, -1]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(values, near_integers), min_size=4, max_size=4))
@example([Fraction(-5, 2 ** 40) + 1, 0, 0, 0])
@example([Fraction(2 ** 40 - 1, 2 ** 40), 50, Fraction(-1, 3), 0])
def test_the_default_bound_certifies_every_coordinate(coords):
    """``_fits`` holds for each coordinate under ``coord_bound`` of its term.

    This is the check the row laws skip: the point path certified each
    character term and each product law's right-hand side under this bound,
    which is max(1, floor|c|) + 2 with |c| < floor|c| + 1, so it never fails.
    """
    # coord_bound of the term: stage 4 of a constant is its value
    bound = int(max(Fraction(1), *map(abs, coords))) + 2
    for c in coords:
        assert _fits(c.numerator, c.denominator, bound)
