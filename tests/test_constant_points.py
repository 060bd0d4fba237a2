"""Constant stage sequences against the full loops they skip.

A carrier element enters the completion as a constant point, and the image
of a constant point under a map whose carrier map returns constant points
is constant too.  ``member_query`` decides such a point from stage
``effort`` alone, and the MM4 interior scan reads one stage of a constant
image.  Both are compared here with the loop over every stage, kept below
as a reference, and with unflagged twins whose stages are the same element.
Likewise ``diameter_upper`` over exact distances is a constant upper real,
compared with the bound computed afresh at every effort, and
``point_distance`` of two constant points at an exact distance reads one
raw bound, compared with the minimum over every stage.
"""

import gc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import function_locale
from formalballs.balls import BallOpen, FormalBall, diameter_upper
from formalballs.carriers import (
    Interval,
    MetricCarrier,
    finite_space,
    product_space,
    rational_line,
)
from formalballs.completion import (
    CompletionPoint,
    limit_point,
    member_query,
    pair_point,
    point_distance,
    point_of_carrier,
)
from formalballs.function_locale import MMInstance, check_axiom, round_trip
from formalballs.maps import (
    MapRep,
    apply_map,
    compose_maps,
    line_map,
    pair_maps,
)
from formalballs.numbers import half_pow
from formalballs.upper import Query

LINE = rational_line()


def full_loop_member_query(p, u, effort):
    """member_query as it reads: every stage from effort down to 0."""
    for n in range(effort, -1, -1):
        x = p.approx(n)
        for b in u.balls:
            if p.carrier.dist(x, b.center, effort).hi + half_pow(n) < b.radius:
                return Query.YES
    return Query.NOT_YET


def unflagged_twin(carrier, x):
    """A point with every stage x that does not know it is constant."""
    if not carrier.contains(x):
        raise ValueError(f"{x!r} is not a carrier element")
    return CompletionPoint(carrier, lambda _n: x)


def _line_rep(a, b, depth):
    f = line_map(a, b)
    for _ in range(depth):
        f = compose_maps(line_map(a, b), f)
    return f


slopes = st.builds(Fraction, st.integers(-4, 4), st.integers(4, 8))
offsets = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
radii = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
line_opens = st.lists(st.tuples(offsets, radii), min_size=1, max_size=3).map(
    lambda balls: BallOpen(LINE, tuple(FormalBall(c, r) for c, r in balls))
)


@settings(max_examples=200, deadline=None)
@given(offsets, line_opens, st.integers(0, 40), slopes, offsets, st.integers(0, 2))
@example(Fraction(0), BallOpen(LINE, (FormalBall(Fraction(1), Fraction(17, 16)),)),
         5, Fraction(1), Fraction(0), 0)  # only stage 5 is inside the ball
def test_constant_points_answer_as_the_full_loop(x, u, effort, a, b, depth):
    f = _line_rep(a, b, depth)
    flagged = point_of_carrier(LINE, x)
    twin = unflagged_twin(LINE, x)
    want = full_loop_member_query(twin, u, effort)
    assert member_query(flagged, u, effort) == want
    assert member_query(twin, u, effort) == want

    image, twin_image = apply_map(f, flagged), apply_map(f, twin)
    want = full_loop_member_query(apply_map(f, twin), u, effort)
    assert member_query(image, u, effort) == want
    assert member_query(twin_image, u, effort) == want
    assert flagged.is_constant and image.is_constant
    assert not twin.is_constant and not twin_image.is_constant


def test_pairs_of_constant_points_are_constant():
    p, q = point_of_carrier(LINE, Fraction(1)), point_of_carrier(LINE, Fraction(2))
    pq = pair_point(p, q)
    mixed = pair_point(p, unflagged_twin(LINE, Fraction(2)))
    u = BallOpen.of(pq.carrier, FormalBall((Fraction(1), Fraction(2)), Fraction(1, 8)))
    for r in (pq, mixed):
        for effort in range(8):
            assert member_query(r, u, effort) == full_loop_member_query(r, u, effort)
    assert pq.is_constant and not mixed.is_constant

    f = pair_maps(line_map(Fraction(1, 2), 0), line_map(-1, 1))
    image = apply_map(f, point_of_carrier(LINE, Fraction(3)))
    assert image.is_constant


# stages 0, 0, 0, then 1/4 + 2^-n: a 2^-n-regular sequence with limit 1/4
def _late_turn(n):
    return Fraction(0) if n <= 2 else Fraction(1, 4) + half_pow(n)


def _limit_map():
    """x -> the limit of (1 - 2^-k) x over k: its images are never constant."""
    modulus = lambda eps: max(4, (8 / eps).__ceil__().bit_length() + 2)

    def carrier_map(x):
        seq = lambda k: point_of_carrier(LINE, (1 - half_pow(k)) * x)
        return limit_point(seq, modulus)

    return MapRep(
        source=LINE, target=LINE, carrier_map=carrier_map,
        modulus=lambda eps: eps / 3, label="limit",
    )


def test_non_constant_carrier_map_results_keep_the_full_loop():
    late = MapRep(
        source=LINE,
        target=LINE,
        carrier_map=lambda _x: CompletionPoint(LINE, _late_turn),
        modulus=lambda eps: eps,
        label="late",
    )
    # image stages 0, 0, 3/8, ...: at effort 2 only stage 1 is inside the ball
    u = BallOpen.of(LINE, FormalBall(0, Fraction(9, 16)))
    image = apply_map(late, point_of_carrier(LINE, Fraction(0)))
    assert member_query(image, u, 2) == Query.YES
    assert not image.is_constant
    twin_image = apply_map(late, unflagged_twin(LINE, Fraction(0)))
    assert [image.approx(n) for n in range(8)] == [twin_image.approx(n) for n in range(8)]

    lim = _limit_map()
    for x in (Fraction(1), Fraction(-3, 2)):
        for c, r in ((x, Fraction(1, 64)), (x / 2, Fraction(1, 3)), (0, Fraction(2))):
            v = BallOpen.of(LINE, FormalBall(c, r))
            for effort in (1, 3, 6, 9):
                image = apply_map(lim, point_of_carrier(LINE, x))
                want = full_loop_member_query(image, v, effort)
                assert member_query(image, v, effort) == want
                assert not image.is_constant


@settings(max_examples=60, deadline=None)
@given(slopes, offsets, st.integers(0, 2), offsets, radii, offsets, radii,
       st.integers(1, 40))
def test_mm4_reports_match_unflagged_images(a, b, depth, c, ru, shift, rv, effort):
    f = _line_rep(a, b, depth)
    fc = apply_map(f, point_of_carrier(LINE, c)).approx(8)
    inst = MMInstance("MM4", {
        "u": BallOpen.of(LINE, FormalBall(c, ru)),
        "v": BallOpen(LINE, (FormalBall(fc + shift, rv), FormalBall(fc, rv))),
    })
    flagged = check_axiom(inst, f, effort)
    with mock.patch.object(function_locale, "point_of_carrier", unflagged_twin):
        unflagged = check_axiom(inst, f, effort)
    assert flagged == unflagged


def test_constant_points_leave_no_cyclic_garbage():
    f = compose_maps(line_map(Fraction(1, 2), 1), line_map(-1, Fraction(1, 3)))
    u = BallOpen.of(LINE, FormalBall(Fraction(1, 2), 2))
    gc.collect()
    gc.disable()
    try:
        for k in range(50):
            image = apply_map(f, point_of_carrier(LINE, Fraction(k, 7)))
            member_query(image, u, 16)
        round_trip(f, u, [point_of_carrier(LINE, Fraction(1, 3))], 16)
    finally:
        gc.enable()
    assert gc.collect() == 0


def reference_diameter(u, effort):
    """diameter_upper's bound at each effort 0..effort, minimum kept."""
    raws = []
    for e in range(effort + 1):
        best = Fraction(0)
        for i, bi in enumerate(u.balls):
            best = max(best, 2 * bi.radius)
            for bj in u.balls[i + 1 :]:
                d = u.carrier.dist(bi.center, bj.center, e).hi
                best = max(best, d + bi.radius + bj.radius)
        raws.append(best)
    return min(raws)


def _narrowing_line():
    """The line with distance intervals of width 2^-e around the distance."""
    def dist(a, b, effort):
        d = abs(a - b)
        return Interval(max(Fraction(0), d - half_pow(effort)), d + half_pow(effort))

    return MetricCarrier(kind=("narrowing",), dist=dist,
                         contains=lambda x: isinstance(x, Fraction),
                         sample=lambda rng: Fraction(rng.randint(-8, 8), 4))


FOUR_POINTS = finite_space(4, [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
# name: (carrier, its elements, stage n of a moving point with limit x);
# a finite point cannot move by 2^-n, so its moving twin is unflagged
CARRIERS = {
    "line": (LINE, offsets, lambda x, n: x + half_pow(n + 1)),
    "finite": (FOUR_POINTS, st.integers(0, 3), lambda x, _n: x),
    "product": (product_space(LINE, FOUR_POINTS), st.tuples(offsets, st.integers(0, 3)),
                lambda x, n: (x[0] - half_pow(n + 1), x[1])),
    "narrowing": (_narrowing_line(), offsets, lambda x, n: x + half_pow(n + 1)),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)), st.integers(0, 24),
       st.builds(Fraction, st.integers(1, 64), st.integers(1, 8)))
def test_diameters_match_the_bound_at_every_effort(data, name, effort, q):
    carrier, centers, _ = CARRIERS[name]
    balls = data.draw(st.lists(st.tuples(centers, radii), min_size=1, max_size=4))
    u = BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls))
    want = reference_diameter(u, effort)
    assert diameter_upper(u).bound(effort) == want
    assert diameter_upper(u).less_than(q, effort).is_yes == (want < q)


def reference_distance(p, q, effort):
    """point_distance's bound by its rule: the minimum over n <= effort of
    dist_hi(x_n, y_n) at effort n plus 2^(1-n)."""
    return min(
        p.carrier.dist(p.approx(n), q.approx(n), n).hi + half_pow(n - 1)
        for n in range(effort + 1)
    )


def _point(name, x, moving):
    carrier, _, move = CARRIERS[name]
    if moving:
        return CompletionPoint(carrier, lambda n: move(x, n))
    return point_of_carrier(carrier, x)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)), st.booleans(), st.booleans(),
       st.lists(st.integers(0, 40), min_size=1, max_size=6), st.integers(-2, 2))
def test_distances_match_the_minimum_over_stages(data, name, p_moves, q_moves,
                                                 efforts, k):
    elements = CARRIERS[name][1]
    x, y = data.draw(elements), data.draw(elements)
    p, q = _point(name, x, p_moves), _point(name, y, q_moves)
    shared = point_distance(p, q)  # queried in the drawn order
    for e in efforts:
        want = reference_distance(p, q, e)
        assert point_distance(p, q).bound(e) == want
        assert shared.bound(e) == want
        threshold = want + k * half_pow(41)  # within 2^-40 of the bound
        if threshold > 0:
            assert point_distance(p, q).less_than(threshold, e).is_yes == (want < threshold)
            assert shared.less_than(threshold, e).is_yes == (want < threshold)


def _counted(d):
    """The efforts at which d evaluates a raw bound, wrapped as the tracer does."""
    calls = []
    fn = d._fn
    d._fn = lambda e: calls.append(e) or fn(e)
    return calls


@pytest.mark.parametrize("name, x, y", [
    ("line", Fraction(1, 3), Fraction(-2)),
    ("line", Fraction(5), Fraction(5)),
    ("finite", 0, 3),
    ("product", (Fraction(1, 2), 1), (Fraction(-1, 4), 2)),
])
def test_folded_distances_read_one_raw_bound_per_query(name, x, y):
    p, q = _point(name, x, False), _point(name, y, False)
    for e in range(41):
        want = reference_distance(p, q, e)
        for threshold in (want, want + half_pow(41)):
            d = point_distance(p, q)
            calls = _counted(d)
            assert d.less_than(threshold, e).is_yes == (want < threshold)
            assert calls == [e]
        d = point_distance(p, q)
        calls = _counted(d)
        assert d.bound(e) == want and calls == [e]


def test_distances_off_the_fold_take_every_stage():
    # not exact at effort 0, or one point moving: a NotYet reads all stages
    x, y = Fraction(1, 3), Fraction(-2)
    for p, q in (
        (_point("narrowing", x, False), _point("narrowing", y, False)),
        (_point("line", x, False), _point("line", y, True)),
        (_point("line", x, True), _point("line", y, False)),
    ):
        d = point_distance(p, q)
        calls = _counted(d)
        assert not d.less_than(reference_distance(p, q, 12), 12).is_yes
        assert sorted(calls) == list(range(13))
