"""Characters on constant elements, folded as one integer dot product.

``Character.apply`` is ``dot_c`` over the character's values and the
element's coordinates.  When every coordinate is constant the sum is
computed in integers; otherwise it is the loop of ``mul_c``/``add_c`` the
fold replaces.  Both are compared here with the same computation on
unflagged twins, ``RealPoint(CompletionPoint(LINE, lambda n: q))``, which
always take the loop: equal stages by repr, or the same error type and
message.  Inputs that mix constant and unflagged coordinates must take the
loop exactly as written before the fold: the same stages of the same
inputs, read in the same order.  The idempotent sum of the character check
(``dot_c`` of the values against the unit) and the skipped zero terms of
the default-bound fold are held to the same standard; the sum is also
compared with the plain ``add_c`` chain from 0.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import gelfand, reals
from formalballs.cli import main
from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.gelfand import AlgebraElement, Character, verify_character
from formalballs.reals import (
    LINE,
    BoundViolation,
    ComplexPoint,
    RealPoint,
    add_c,
    complex_of_rational,
    coord_bound,
    dot_c,
    mul_c,
    real_of_rational,
)


def constant(q) -> RealPoint:
    return RealPoint(point_of_carrier(LINE, q))


def twin(q, log=None, tag=None) -> RealPoint:
    """An unflagged point with every stage q; logs (tag, n) per stage read."""

    def stage(n):
        if log is not None:
            log.append((tag, n))
        return q

    return RealPoint(CompletionPoint(LINE, stage))


def loop_apply(chi: Character, a: AlgebraElement) -> ComplexPoint:
    """``Character.apply`` as written before the fold."""
    acc = complex_of_rational(0)
    for chi_e, coord in zip(chi.values, a.values):
        acc = add_c(acc, mul_c(chi_e, coord, coord_bound(chi_e, coord)))
    return acc


def outcome(build, ns):
    """The reprs of the built point's stages, or the error it raised."""
    try:
        z = build()
        return "ok", [repr(z.approx(n)) for n in ns]
    except (BoundViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)


# non-dyadic denominators included; ints too, as point_of_carrier keeps them
rationals = (st.fractions(min_value=-12, max_value=12, max_denominator=30)
             | st.integers(-12, 12))
stage_lists = st.lists(st.integers(0, 40), min_size=1, max_size=3)


@st.composite
def dot_cases(draw):
    """Character values and element coordinates of one length, 1..4."""
    n = draw(st.integers(1, 4))
    pairs = st.lists(st.tuples(rationals, rationals), min_size=n, max_size=n)
    return draw(pairs), draw(pairs)


def character_of(pairs, make):
    return Character(tuple(ComplexPoint(make(re), make(im)) for re, im in pairs))


def element_of(pairs, make):
    return AlgebraElement(tuple(ComplexPoint(make(re), make(im)) for re, im in pairs))


@settings(max_examples=200, deadline=None)
@given(dot_cases(), stage_lists)
@example(([(Fraction(1, 3), Fraction(-2, 7))], [(Fraction(5, 6), 9)]), [0, 9])
def test_apply_folds_as_the_loop_on_unflagged_twins(case, ns):
    chi_pairs, a_pairs = case
    chi, a = character_of(chi_pairs, constant), element_of(a_pairs, constant)
    folded = outcome(lambda: chi.apply(a), ns)
    twins = outcome(
        lambda: character_of(chi_pairs, twin).apply(element_of(a_pairs, twin)), ns)
    assert folded == twins
    assert folded == outcome(lambda: loop_apply(chi, a), ns)
    if folded[0] == "ok":
        chi, a = character_of(chi_pairs, constant), element_of(a_pairs, constant)
        z = chi.apply(a)
        assert z.re.underlying._value is not None and z.im.underlying._value is not None
        # folding reads the value slots, never a stage of an input
        for p in chi.values + a.values:
            assert p.re.underlying._stages == {} and p.im.underlying._stages == {}


@settings(max_examples=150, deadline=None)
@given(dot_cases(), st.data(), stage_lists)
def test_mixed_inputs_take_the_loop_and_read_the_same_stages(case, data, ns):
    chi_pairs, a_pairs = case
    flags = data.draw(st.lists(st.booleans(), min_size=4 * len(a_pairs),
                               max_size=4 * len(a_pairs)))

    def build(log):
        coords = iter(zip(flags, range(len(flags))))

        def make(q):
            is_twin, tag = next(coords)
            return twin(q, log, tag) if is_twin else constant(q)

        return character_of(chi_pairs, make), element_of(a_pairs, make)

    new_log, old_log = [], []
    new = outcome(lambda: Character.apply(*build(new_log)), ns)
    old = outcome(lambda: loop_apply(*build(old_log)), ns)
    assert new == old
    assert new_log == old_log


@settings(max_examples=40, deadline=None)
@given(dot_cases(), st.integers(-1, 13))
def test_verify_character_answers_as_on_unflagged_twins(case, bound):
    chi_pairs, a_pairs = case
    b_pairs = [(im, re) for re, im in a_pairs]

    def report(make):
        chi = character_of(chi_pairs, make)
        samples = [(element_of(a_pairs, make), element_of(b_pairs, make))]
        try:
            # alg_mul's bound; 13 covers every coordinate of ``rationals``
            return verify_character(chi, samples, bound=bound, k=8)
        except (BoundViolation, ValueError) as exc:
            return type(exc).__name__, str(exc)

    assert report(constant) == report(twin)


def test_spectrum_characters_pass_on_constants_and_twins():
    n = 3
    for i in range(n):
        pairs = [(1 if j == i else 0, 0) for j in range(n)]
        samples = [(element_of([(Fraction(1, 3), 1)] * n, constant),
                    element_of([(j, Fraction(-2, 5)) for j in range(n)], constant))]
        for make in (constant, twin):
            rep = verify_character(character_of(pairs, make), samples, bound=8, k=16)
            assert rep["result"] == "Pass", rep


def test_mul_c_rejects_a_none_bound_on_every_path():
    # four constant coordinates used to fold under dot_c's default bound
    for make in (constant, twin):
        a = ComplexPoint(make(Fraction(1, 2)), make(1))
        with pytest.raises(TypeError, match="^mul_c needs an int bound, got None$"):
            mul_c(a, a, None)


# -- the idempotent sum, the zero-term skip and the unchecked constants -----


def loop_sum(zs) -> ComplexPoint:
    """The sum of the points as the ``add_c`` chain from 0."""
    acc = complex_of_rational(0)
    for z in zs:
        acc = add_c(acc, z)
    return acc


def points_of(pairs, make):
    return [ComplexPoint(make(re), make(im)) for re, im in pairs]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=5), stage_lists)
@example([], [0])
@example([(1, 0), (0, 0), (Fraction(1, 3), Fraction(-1, 6))], [0, 7])
def test_the_idempotent_sum_folds_to_the_add_c_chains_stages(pairs, ns):
    one = gelfand.unit(len(pairs)).values
    folded = outcome(lambda: dot_c(points_of(pairs, constant), one), ns)
    assert folded == outcome(lambda: loop_sum(points_of(pairs, twin)), ns)
    assert folded == outcome(lambda: loop_sum(points_of(pairs, constant)), ns)
    zs = points_of(pairs, constant)
    total = dot_c(zs, one)
    assert total.re.underlying._value is not None and total.im.underlying._value is not None
    for z in zs:
        assert z.re.underlying._stages == {} and z.im.underlying._stages == {}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5), st.data(),
       stage_lists)
def test_the_idempotent_sum_on_mixed_inputs_reads_the_loops_stages(pairs, data, ns):
    flags = data.draw(st.lists(st.booleans(), min_size=2 * len(pairs),
                               max_size=2 * len(pairs)))

    def build(log):
        coords = iter(zip(flags, range(len(flags))))

        def make(q):
            is_twin, tag = next(coords)
            return twin(q, log, tag) if is_twin else constant(q)

        return points_of(pairs, make)

    one = AlgebraElement(gelfand.unit(len(pairs)).values)
    new_log, old_log = [], []
    new = outcome(lambda: dot_c(build(new_log), one.values), ns)
    assert new == outcome(lambda: loop_sum(build([])), ns)
    assert new == outcome(lambda: loop_apply(Character(tuple(build(old_log))), one), ns)
    assert new_log == old_log


# mostly zeros, so that whole terms with x = 0 are common
sparse = st.sampled_from([0, 0, 0, Fraction(0), 1, Fraction(-2, 3)]) | rationals


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(sparse, sparse), min_size=n, max_size=n),
    st.lists(st.tuples(rationals, rationals), min_size=n, max_size=n))), stage_lists)
@example(([(0, 0), (1, 0)], [(12, -12), (Fraction(1, 3), 2)]), [0])
@example(([(0, Fraction(0)), (0, 0)], [(5, 5), (-7, 1)]), [0, 3])
def test_zero_terms_skipped_under_the_default_bound_equal_the_twin_loop(case, ns):
    chi_pairs, a_pairs = case
    chi, a = character_of(chi_pairs, constant), element_of(a_pairs, constant)
    folded = outcome(lambda: chi.apply(a), ns)
    assert folded == outcome(
        lambda: character_of(chi_pairs, twin).apply(element_of(a_pairs, twin)), ns)
    assert folded == outcome(lambda: loop_apply(chi, a), ns)


@pytest.mark.parametrize("make", [constant, twin])
def test_a_zero_term_is_still_certified_under_an_explicit_bound(make):
    # mul_c's one term: x = 0 adds nothing, but its y = 5 escapes the bound 2
    x, y = ComplexPoint(make(0), make(0)), ComplexPoint(make(5), make(0))
    with pytest.raises(BoundViolation, match=r"^could not certify \|value\| <= 2$"):
        mul_c(x, y, 2).approx(0)


def test_real_of_rational_still_rejects_a_bool():
    for q in (True, False):
        with pytest.raises(ValueError, match="not a rational"):
            real_of_rational(q)
        with pytest.raises(ValueError, match="not a rational"):
            complex_of_rational(1, q)


def test_every_unchecked_constant_is_a_line_element(monkeypatch, capsys):
    """Each value ``_constant`` receives passes the line's ``contains`` check.

    The traffic is every folding operator, the spec of C^5, and README-style
    ``real-eval`` requests; ``gelfand`` builds its 0 and 1 through
    ``real_of_rational``, which calls the patched name.
    """
    seen = []
    real_constant = reals._constant

    def checked(value):
        seen.append(value)
        assert LINE.contains(value), repr(value)
        return real_constant(value)

    monkeypatch.setattr(reals, "_constant", checked)
    x, y = real_of_rational(Fraction(-7, 3)), real_of_rational(2)
    for op in (reals.add_r, reals.sub_r, reals.max_r, reals.min_r):
        op(x, y), op(constant(3), constant(-4))  # ints fold to ints
    reals.neg_r(x), reals.abs_r(x), reals.scale_r(x, "3/4"), reals.scale_r(y, 0)
    reals.mul_r(x, y, 3)
    z, w = complex_of_rational(1, Fraction(1, 2)), complex_of_rational(-3, 2)
    mul_c(z, w, 4), dot_c([z, w], [w, z]), dot_c([z, w], gelfand.unit(2).values)
    mul_c(*[ComplexPoint(constant(3), constant(-1))] * 2, 4)
    for argv in (["spec", '{"n": 5}'], ["real-eval", "mul(sub(1/2, 3), abs(-5/4), 8)"],
                 ["real-eval", "max(neg(1/3), min(2, add(1, 1/7)))"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) > 100
    assert {type(v) for v in seen} == {int, Fraction}
