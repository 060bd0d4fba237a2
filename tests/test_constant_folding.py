"""Folded constants against the stage functions they replace.

Real and complex arithmetic on points flagged constant returns the constant
point of the exact result.  Each operator is compared here with the same
operator on unflagged twins, ``RealPoint(CompletionPoint(LINE, lambda n: q))``,
which take the stage-function path: the stages must be equal, with equal
reprs, and ``mul_r``/``mul_c`` must raise on exactly the same values and
bounds.  Constant upper reals are compared with an unflagged twin as well.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.maps import apply_map, compose_maps, line_map, pair_maps, proj_map
from formalballs.reals import (
    LINE,
    BoundViolation,
    ComplexPoint,
    RealPoint,
    abs_r,
    add_c,
    add_r,
    max_r,
    min_r,
    mul_c,
    mul_r,
    neg_r,
    real_of_rational,
    scale_r,
    sub_r,
)
from formalballs.upper import Query, UpperReal


def unflagged_twin(q) -> RealPoint:
    return RealPoint(CompletionPoint(LINE, lambda _n: q))


def complex_twin(re, im) -> ComplexPoint:
    return ComplexPoint(unflagged_twin(re), unflagged_twin(im))


def constant(q) -> RealPoint:
    """A constant real that keeps q as given, an int included."""
    return RealPoint(point_of_carrier(LINE, q))


def complex_constant(re, im) -> ComplexPoint:
    return ComplexPoint(constant(re), constant(im))


def stages_of(p, ns):
    return [repr(p.approx(n)) for n in ns]


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=64) | st.integers(-40, 40)
stage_lists = st.lists(st.integers(0, 60), min_size=1, max_size=4)
UNARY = {"neg": neg_r, "abs": abs_r}
BINARY = {"add": add_r, "sub": sub_r, "max": max_r, "min": min_r}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(UNARY)), rationals, stage_lists)
def test_unary_folds_match_the_stage_function(name, a, ns):
    op = UNARY[name]
    folded, twin = op(constant(a)), op(unflagged_twin(a))
    assert folded.underlying.is_constant and not twin.underlying.is_constant
    assert stages_of(folded, ns) == stages_of(twin, ns)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(BINARY)), rationals, rationals, stage_lists)
def test_binary_folds_match_the_stage_function(name, a, b, ns):
    op = BINARY[name]
    folded = op(constant(a), constant(b))
    twin = op(unflagged_twin(a), unflagged_twin(b))
    mixed = op(constant(a), unflagged_twin(b))
    assert folded.underlying.is_constant
    assert not twin.underlying.is_constant and not mixed.underlying.is_constant
    assert stages_of(folded, ns) == stages_of(twin, ns) == stages_of(mixed, ns)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, stage_lists)
def test_scale_folds_match_the_stage_function(a, c, ns):
    folded, twin = scale_r(constant(a), c), scale_r(unflagged_twin(a), c)
    assert folded.underlying.is_constant
    assert stages_of(folded, ns) == stages_of(twin, ns)


@st.composite
def factors_and_bound(draw):
    """A bound and two factors, some within 2^-18 of the bound's edge.

    A constant c certifies iff |c| + 2^-16 <= bound, so the values
    bound - k / 2^18 for k = 0..8 sit on both sides of the rule.
    """
    bound = draw(st.integers(-1, 20))
    edge = st.builds(
        lambda k, sign: sign * (bound - Fraction(k, 2 ** 18)),
        st.integers(0, 8), st.sampled_from([1, -1]),
    )
    value = st.one_of(rationals, edge)
    return draw(value), draw(value), bound


def outcome(build, ns):
    """The stages of the built point, or the error it raised."""
    try:
        p = build()
        return "ok", stages_of(p, ns)
    except (BoundViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(factors_and_bound(), stage_lists)
@example((Fraction(3) - Fraction(1, 2 ** 16), Fraction(1), 3), [0])  # passes at m = 16
@example((Fraction(3) - Fraction(1, 2 ** 17), Fraction(1), 3), [0])  # fails at every m
@example((Fraction(5), Fraction(9), 2), [0])  # the first factor fails first
def test_mul_r_folds_and_raises_as_the_stage_function(case, ns):
    a, b, bound = case
    folded = outcome(lambda: mul_r(constant(a), constant(b), bound), ns)
    twin = outcome(lambda: mul_r(unflagged_twin(a), unflagged_twin(b), bound), ns)
    mixed = outcome(lambda: mul_r(unflagged_twin(a), constant(b), bound), ns)
    assert folded == twin == mixed
    if folded[0] == "ok":
        assert mul_r(constant(a), constant(b), bound).underlying.is_constant


@settings(max_examples=80, deadline=None)
@given(factors_and_bound(), factors_and_bound(), stage_lists)
def test_mul_c_folds_and_raises_as_the_stage_function(z, w, ns):
    (zr, zi, bound), (wr, wi, _) = z, w

    def run(make):
        return outcome(lambda: mul_c(make(zr, zi), make(wr, wi), bound), ns)

    folded = run(complex_constant)
    assert folded == run(complex_twin)
    if folded[0] == "ok":
        product = mul_c(complex_constant(zr, zi), complex_constant(wr, wi), bound)
        total = add_c(product, complex_constant(zr, wi))
        for p in (product.re, product.im, total.re, total.im):
            assert p.underlying.is_constant


def test_images_of_constants_are_flagged_when_built_and_fold():
    x = point_of_carrier(LINE, Fraction(1, 3))
    half = line_map(Fraction(1, 2), Fraction(1))
    pair = apply_map(pair_maps(half, line_map(-1, 0)), x)
    images = [
        apply_map(half, x),
        apply_map(compose_maps(line_map(1, 0), half), x),
        apply_map(proj_map(LINE, LINE, 1), pair),
    ]
    assert pair.is_constant and pair._stages == {}
    one = real_of_rational(1)
    for image in images:
        assert image.is_constant and image._stages == {}  # flagged before any stage
        folded = add_r(RealPoint(image), one)
        assert folded.underlying.is_constant
        assert image._stages == {}  # folding reads the slot, not a stage
        assert folded.approx(9) == Fraction(13, 6)
    twin_image = apply_map(half, unflagged_twin(Fraction(1, 3)).underlying)
    unflagged = add_r(RealPoint(twin_image), one)
    assert not unflagged.underlying.is_constant
    assert unflagged.approx(9) == Fraction(13, 6)


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=0, max_value=40, max_denominator=64),
       st.fractions(min_value=0, max_value=40, max_denominator=64).filter(bool),
       st.integers(0, 40))
def test_constant_upper_reals_answer_without_raw_bounds(q, threshold, effort):
    constant, twin = UpperReal.of_rational(q), UpperReal(lambda _e: q)

    def unreachable(_e):
        raise AssertionError("a constant upper real evaluated a raw bound")

    constant._fn = unreachable  # as a tracer would, after construction
    assert constant.less_than(threshold, effort) is twin.less_than(threshold, effort)
    assert constant.bound(effort) == twin.bound(effort)
    assert (constant.less_than(threshold, effort) is Query.YES) == (q < threshold)
    with pytest.raises(ValueError):
        constant.bound(-1)
    with pytest.raises(ValueError):
        constant.less_than(Fraction(0), effort)
