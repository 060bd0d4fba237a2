"""The character laws on integer rows against the point path they replaced.

``gelfand`` computes the character laws on rows: one Gaussian rational per
point as integer pairs ((re num, re den), (im num, im den)).  The point
path it replaced is kept below as a test-local reference (``ref_*``), as
written before the rows: a character is applied by the loop of
``mul_c``/``add_c`` with the factor bound ``coord_bound``, the sample
products are ``alg_mul``, and each law compares stage k + 3 of complex
points with the ``Fraction`` rule.  The rows must give the same values, the
same reports, or the same error type and message, on constant points and
on unflagged twins, ``RealPoint(CompletionPoint(LINE, lambda n: q))``,
which never fold.  A coordinate that is not constant is refused by name,
and no stage of it is read.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import reals
from formalballs.cli import main
from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.gelfand import (
    AlgebraElement,
    Character,
    alg_mul,
    duality_round_trip,
    spectrum_of_cn,
    verify_character,
    verify_spectrum,
)
from formalballs.numbers import half_pow
from formalballs.reals import (
    LINE,
    BoundViolation,
    ComplexPoint,
    RealPoint,
    add_c,
    complex_of_rational,
    dot_pairs,
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


def points_of(pairs, make):
    return tuple(ComplexPoint(make(re), make(im)) for re, im in pairs)


def element_of(pairs, make):
    return AlgebraElement(points_of(pairs, make))


def row_of(pairs):
    """The rationals (re, im) as a row of integer pairs."""
    return tuple(
        tuple((Fraction(q).numerator, Fraction(q).denominator) for q in z) for z in pairs
    )


def value(row_entry):
    return tuple(Fraction(num, den) for num, den in row_entry)


# -- the point path, as it was --------------------------------------------------


def coord_bound(*points) -> int:
    """A small certified integer bound on every coordinate of the points."""
    worst = Fraction(1)
    for z in points:
        re, im = z.approx(4)
        worst = max(worst, abs(re), abs(im))
    return int(worst) + 2


def ref_dot(xs, ys) -> ComplexPoint:
    """A character applied as the loop: ``mul_c`` under ``coord_bound`` per
    term, summed by ``add_c`` from 0."""
    if len(xs) != len(ys):
        raise ValueError(f"dot product of sequences of lengths {len(xs)} and {len(ys)}")
    acc = complex_of_rational(0)
    for x, y in zip(xs, ys):
        acc = add_c(acc, mul_c(x, y, coord_bound(x, y)))
    return acc


def ref_sum(zs) -> ComplexPoint:
    """The sum of the points as the ``add_c`` chain from 0."""
    acc = complex_of_rational(0)
    for z in zs:
        acc = add_c(acc, z)
    return acc


def ref_within(s, t, k, j):
    return all(abs(x - y) + half_pow(k + j) < half_pow(k) for x, y in zip(s, t))


def ref_check_character(label, chi, elements, k):
    """The character laws on complex points, each read at stage k + 3."""
    one, idempotents, products = elements
    read = lambda z: z.approx(k + 3)
    close = lambda z, target: ref_within(read(z), target, k, 2)
    equal = lambda x, y: ref_within(read(x), read(y), k, 1)
    failures = []
    if not close(ref_dot(chi, one), (1, 0)):
        failures.append({"law": "unit", "witness": "1"})
    one_count = 0
    zs = []
    for i, e in enumerate(idempotents):
        z = ref_dot(chi, e)
        is0, is1 = close(z, (0, 0)), close(z, (1, 0))
        if not (is0 or is1):
            failures.append({"law": "idempotent dichotomy", "witness": f"e{i}"})
        one_count += is1
        zs.append(z)
    if not close(ref_dot(zs, one), (1, 0)):
        failures.append({"law": "idempotent sum", "witness": "sum e_i"})
    if one_count != 1 and not failures:
        failures.append({"law": "projection count", "witness": str(one_count)})
    for a, b, a_plus_b, a_times_b in products:
        lhs = ref_dot(chi, a_plus_b)
        ca, cb = ref_dot(chi, a), ref_dot(chi, b)
        if not equal(lhs, add_c(ca, cb)):
            failures.append({"law": "additivity", "witness": "sampled pair"})
        lhs = ref_dot(chi, a_times_b)
        if not equal(lhs, mul_c(ca, cb, coord_bound(ca, cb))):
            failures.append({"law": "multiplicativity", "witness": "sampled pair"})
    return {"character": label, "result": "Pass" if not failures else "Fail",
            "failures": failures, "k": k}


def ref_verify_spectrum(chars, samples, bound, k):
    """``verify_spectrum`` as it was, for characters given as (label, points)."""
    built = {}
    reports = []
    for label, chi in chars:
        n = len(chi)
        if n not in built:
            products = []
            for a, b in samples:
                if len(a.values) != len(b.values):
                    raise ValueError(f"elements of lengths {len(a.values)} and "
                                     f"{len(b.values)} do not combine")
                a_plus_b = tuple(map(add_c, a.values, b.values))
                products.append((a.values, b.values, a_plus_b, alg_mul(a, b, bound).values))
            zero, one = complex_of_rational(0), complex_of_rational(1)
            idempotents = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
            built[n] = (one,) * n, idempotents, products
        reports.append(ref_check_character(label, chi, built[n], k))
    return reports


def outcome(fn):
    """The value fn returns, or the type and message of the error it raises."""
    try:
        return "ok", fn()
    except (BoundViolation, ValueError) as exc:
        return type(exc).__name__, str(exc)


def stages(build, ns):
    """The reprs of the built point's stages, or the error it raised: equal
    stages by repr, so an int stage never equals a ``Fraction`` one."""
    return outcome(lambda: [repr(build().approx(n)) for n in ns])


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


# -- a character applied -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(dot_cases(), stage_lists)
@example(([(Fraction(1, 3), Fraction(-2, 7))], [(Fraction(5, 6), 9)]), [0, 9])
def test_apply_folds_as_the_loop_on_unflagged_twins(case, ns):
    chi_pairs, a_pairs = case
    chi, a = Character(row_of(chi_pairs)), element_of(a_pairs, constant)
    got = stages(lambda: chi.apply(a), ns)
    assert got == stages(
        lambda: ref_dot(points_of(chi_pairs, twin), element_of(a_pairs, twin).values), ns)
    assert got == stages(lambda: ref_dot(points_of(chi_pairs, constant), a.values), ns)
    a = element_of(a_pairs, constant)  # coord_bound read stage 4 of the first
    z = chi.apply(a)
    assert z.re.underlying._value is not None and z.im.underlying._value is not None
    # the element is read as a row: no stage of it is read
    for p in a.values:
        assert p.re.underlying._stages == {} and p.im.underlying._stages == {}


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
    chi, a = Character(row_of(chi_pairs)), element_of(a_pairs, constant)
    assert stages(lambda: chi.apply(a), ns) == stages(
        lambda: ref_dot(points_of(chi_pairs, twin), element_of(a_pairs, twin).values), ns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=5), stage_lists)
@example([], [0])
@example([(1, 0), (0, 0), (Fraction(1, 3), Fraction(-1, 6))], [0, 7])
def test_the_idempotent_sum_folds_to_the_add_c_chains_stages(pairs, ns):
    total = dot_pairs(row_of(pairs), row_of([(1, 0)] * len(pairs)))
    want = stages(lambda: ref_sum(points_of(pairs, twin)), ns)
    assert want == stages(lambda: ref_sum(points_of(pairs, constant)), ns)
    assert want == ("ok", [repr(value(total))] * len(ns))


@settings(max_examples=100, deadline=None)
@given(dot_cases(), st.data())
def test_a_moving_coordinate_is_refused_by_name_before_any_stage_is_read(case, data):
    chi_pairs, a_pairs = case
    flags = data.draw(st.lists(st.booleans(), min_size=2 * len(a_pairs),
                               max_size=2 * len(a_pairs)))
    log = []
    coords = iter(zip(flags, range(len(flags))))

    def make(q):
        is_twin, tag = next(coords)
        return twin(q, log, tag) if is_twin else constant(q)

    a = element_of(a_pairs, make)
    moving = [i for i in range(len(a_pairs)) if flags[2 * i] or flags[2 * i + 1]]
    got = outcome(lambda: Character(row_of(chi_pairs)).apply(a))
    if moving:
        assert got == ("ValueError", f"element coordinate {moving[0]} is not constant")
    else:
        assert got[0] == "ok"
    assert log == []


def test_a_moving_coordinate_is_named_by_every_law():
    """``verify_character``, ``verify_spectrum`` and ``duality_round_trip``
    refuse an element coordinate that is not constant, and name it."""
    ok = element_of([(1, 0), (2, 1), (0, 0)], constant)
    moving = AlgebraElement(ok.values[:2] + (ComplexPoint(constant(0), twin(0)),))
    chi = spectrum_of_cn(3)[0]
    for samples, name in (([(moving, ok)], "sample 0 a"),
                          ([(ok, ok), (ok, moving)], "sample 1 b")):
        message = f"^{name} coordinate 2 is not constant$"
        with pytest.raises(ValueError, match=message):
            verify_character(chi, samples, bound=8, k=16)
        with pytest.raises(ValueError, match=message):
            verify_spectrum(spectrum_of_cn(3), samples, bound=8, k=16)
    # the element the round trip evaluates, made to move
    with pytest.MonkeyPatch.context() as m:
        m.setattr(AlgebraElement, "of_rationals",
                  staticmethod(lambda pairs: element_of(pairs, twin)))
        with pytest.raises(ValueError, match="^element coordinate 0 is not constant$"):
            duality_round_trip(3, 16)


# -- the laws against the point path --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(dot_cases(), st.integers(-1, 13))
def test_verify_character_answers_as_on_unflagged_twins(case, bound):
    chi_pairs, a_pairs = case
    b_pairs = [(im, re) for re, im in a_pairs]

    def samples(make):
        return [(element_of(a_pairs, make), element_of(b_pairs, make))]

    # alg_mul's bound; 13 covers every coordinate of ``rationals``
    got = outcome(lambda: verify_character(
        Character(row_of(chi_pairs)), samples(constant), bound=bound, k=8))
    for make in (twin, constant):
        chars = [("chi", points_of(chi_pairs, make))]
        assert got == outcome(lambda: ref_verify_spectrum(chars, samples(make), bound, 8)[0])


def test_spectrum_characters_pass_on_constants_and_twins():
    n = 3
    for i in range(n):
        pairs = [(1 if j == i else 0, 0) for j in range(n)]
        sample = ([(Fraction(1, 3), 1)] * n, [(j, Fraction(-2, 5)) for j in range(n)])
        rep = verify_character(Character(row_of(pairs)), [tuple(
            element_of(p, constant) for p in sample)], bound=8, k=16)
        assert rep["result"] == "Pass", rep
        for make in (constant, twin):
            samples = [tuple(element_of(p, make) for p in sample)]
            rep = ref_verify_spectrum([("chi", points_of(pairs, make))], samples, 8, 16)[0]
            assert rep["result"] == "Pass", rep


# character values: the basis 0 and 1, non-basis reals such as 1/2, and
# complex values
char_values = st.sampled_from([0, 1, Fraction(1, 2), Fraction(-1, 3)]) | rationals


@st.composite
def spectrum_cases(draw):
    """Characters of C^n that pass and that fail, sample pairs, bound and k.

    Sample coordinates reach 12, and some sit at the edge of the bound, so
    that certifications pass and fail; some samples have another length
    than n, and some pairs have unequal lengths.
    """
    n = draw(st.integers(1, 6))
    bound = draw(st.integers(1, 14))
    chars = [(chi.label, [(1 if j == i else 0, 0) for j in range(n)])
             for i, chi in enumerate(spectrum_of_cn(n)) if draw(st.booleans())]
    for label in ("two 1s", "drawn"):
        if draw(st.booleans()):
            if label == "two 1s" and n > 1:
                pairs = [(1, 0), (1, 0)] + [(0, 0)] * (n - 2)
            else:
                pairs = draw(st.lists(st.tuples(char_values, char_values | st.just(0)),
                                      min_size=n, max_size=n))
            chars.append((label, pairs))
    # |c| + 2^-16 <= bound holds for ``fits`` (at equality on its edge) and
    # fails for the edge of ``breaks``; one coordinate of a pair may break
    fits = (st.fractions(min_value=1 - bound, max_value=bound - 1, max_denominator=30)
            | st.sampled_from([bound - Fraction(1, 2 ** 16), Fraction(1, 2 ** 16) - bound]))
    breaks = st.sampled_from([bound - Fraction(1, 2 ** 17), -bound]) | rationals
    samples = []
    for _ in range(draw(st.integers(0, 2))):
        la = draw(st.sampled_from([n] * 5 + [n + 1]))
        lb = draw(st.sampled_from([la] * 5 + [la + 1, la - 1]))
        coords = [draw(st.lists(fits, min_size=2 * m, max_size=2 * m)) for m in (la, lb)]
        if draw(st.booleans()):
            side = coords[draw(st.integers(0, 1))]
            if side:
                side[draw(st.integers(0, len(side) - 1))] = draw(breaks)
        samples.append(tuple(list(zip(c[::2], c[1::2])) for c in coords))
    return chars, samples, bound, draw(st.sampled_from([0, 4, 16]))


@settings(max_examples=150, deadline=None)
@given(spectrum_cases())
@example(([("half", [(Fraction(1, 2), 0)] * 2)], [], 8, 0))
@example(([("eval@0", [(1, 0)])], [([(1, 0)], [(2 - Fraction(1, 2 ** 17), 0)])], 2, 16))
@example(([("eval@0", [(1, 0)])], [([(Fraction(1, 2 ** 16) - 2, 0)], [(1, 0)])], 2, 16))
@example(([("eval@0", [(1, 0), (0, 0)])], [([(1, 0), (2, 0)], [(3, 0)])], 8, 16))
def test_row_path_reports_equal_the_point_paths(case):
    chars, samples, bound, k = case
    elements = [tuple(element_of(p, constant) for p in pair) for pair in samples]
    got = outcome(lambda: verify_spectrum(
        [Character(row_of(pairs), label) for label, pairs in chars], elements, bound, k))
    want = outcome(lambda: ref_verify_spectrum(
        [(label, points_of(pairs, constant)) for label, pairs in chars], elements, bound, k))
    assert got == want


# -- mul_c and the unchecked constants ----------------------------------------------


def test_mul_c_rejects_a_none_bound_on_every_path():
    # four constant coordinates fold; the twins take the mul_r steps
    for make in (constant, twin):
        a = ComplexPoint(make(Fraction(1, 2)), make(1))
        with pytest.raises(TypeError, match="^mul_c needs an int bound, got None$"):
            mul_c(a, a, None)
    # the laws' sample products raise it as alg_mul does, after the length check
    a, b = AlgebraElement.of_rationals([(1, 2)]), AlgebraElement.of_rationals([(3, 4)])
    longer = AlgebraElement(b.values * 2)
    checks = (
        lambda samples: verify_character(spectrum_of_cn(1)[0], samples, None, 16),
        lambda samples: ref_verify_spectrum(
            [("eval@0", points_of([(1, 0)], constant))], samples, None, 16),
    )
    for check in checks:
        with pytest.raises(TypeError, match="^mul_c needs an int bound, got None$"):
            check([(a, b)])
        with pytest.raises(ValueError, match="^elements of lengths 1 and 2 do not combine$"):
            check([(a, longer)])


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

    The traffic is every folding operator, ``Character.apply`` through the
    duality round trips of C^1 to C^6, the spec of C^5, and README-style
    ``real-eval`` requests.
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
    mul_c(z, w, 4)
    mul_c(*[ComplexPoint(constant(3), constant(-1))] * 2, 4)
    for n in range(1, 7):
        assert duality_round_trip(n, 16)["result"] == "Pass"
    for argv in (["spec", '{"n": 5}'], ["real-eval", "mul(sub(1/2, 3), abs(-5/4), 8)"],
                 ["real-eval", "max(neg(1/3), min(2, add(1, 1/7)))"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) > 100
    assert {type(v) for v in seen} == {int, Fraction}
