"""Constant stage sequences against the full loops they skip.

A carrier element enters the completion as a constant point, and the image
of a constant point under a map whose carrier map returns constant points
is constant too.  ``member_query`` decides such a point from stage
``effort`` alone, and the MM4 interior scan reads one stage of a constant
image.  Both are compared here with the loop over every stage, kept below
as a reference, and with unflagged twins whose stages are the same element.
Likewise ``diameter`` is compared with its formula and ``diameter_upper``
with the same bound at every effort, ``dominated`` with a plain double
loop, and ``point_distance`` of two constant points reads one raw bound,
compared with the minimum over every stage.  ``slack`` and
``deepest_stage`` are compared with the all-balls margin formula and MM4's
ascending stage scan that they replace, and the ``deepest_stage`` margin
exceeds q exactly when ``member_query`` answers Yes on the open shrunk by q.
"""

import gc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import function_locale
from formalballs.balls import (
    BallOpen,
    FormalBall,
    diameter,
    diameter_upper,
    dominated,
    slack,
    way_inside,
)
from formalballs.carriers import finite_space, product_space, rational_line
from formalballs.completion import (
    CompletionPoint,
    deepest_stage,
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
            if p.carrier.dist(x, b.center) + half_pow(n) < b.radius:
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
    assert flagged._value is not None and image._value is not None
    assert twin._value is None and twin_image._value is None


def test_pairs_of_constant_points_are_constant():
    p, q = point_of_carrier(LINE, Fraction(1)), point_of_carrier(LINE, Fraction(2))
    pq = pair_point(p, q)
    mixed = pair_point(p, unflagged_twin(LINE, Fraction(2)))
    u = BallOpen.of(pq.carrier, FormalBall((Fraction(1), Fraction(2)), Fraction(1, 8)))
    for r in (pq, mixed):
        for effort in range(8):
            assert member_query(r, u, effort) == full_loop_member_query(r, u, effort)
    assert pq._value is not None and mixed._value is None

    f = pair_maps(line_map(Fraction(1, 2), 0), line_map(-1, 1))
    image = apply_map(f, point_of_carrier(LINE, Fraction(3)))
    assert image._value is not None


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
    assert image._value is None
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
                assert image._value is None


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


def reference_diameter(u):
    """diameter's value by its formula: the largest 2 r over the balls
    and d(ci, cj) + ri + rj over the ball pairs."""
    best = Fraction(0)
    for i, bi in enumerate(u.balls):
        best = max(best, 2 * bi.radius)
        for bj in u.balls[i + 1 :]:
            d = u.carrier.dist(bi.center, bj.center)
            best = max(best, d + bi.radius + bj.radius)
    return best


FOUR_POINTS = finite_space(4, [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
# name: (carrier, its elements, stage n of a moving point with limit x);
# a finite point cannot move by 2^-n, so its moving twin is unflagged
CARRIERS = {
    "line": (LINE, offsets, lambda x, n: x + half_pow(n + 1)),
    "finite": (FOUR_POINTS, st.integers(0, 3), lambda x, _n: x),
    "product": (product_space(LINE, FOUR_POINTS), st.tuples(offsets, st.integers(0, 3)),
                lambda x, n: (x[0] - half_pow(n + 1), x[1])),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)), st.integers(0, 24),
       st.builds(Fraction, st.integers(1, 64), st.integers(1, 8)))
def test_diameters_match_the_bound_at_every_effort(data, name, effort, q):
    carrier, centers, _ = CARRIERS[name]
    balls = data.draw(st.lists(st.tuples(centers, radii), min_size=1, max_size=4))
    u = BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls))
    want = reference_diameter(u)
    assert diameter(u) == want and type(diameter(u)) is Fraction
    assert diameter_upper(u).bound(effort) == want
    assert diameter_upper(u).less_than(q, effort).is_yes == (want < q)


def reference_dominated(u, v, margin):
    """Each ball of u inside one ball of v with the margin to spare."""
    for bu in u.balls:
        ok = False
        for bv in v.balls:
            if u.carrier.dist(bu.center, bv.center) + bu.radius + margin <= bv.radius:
                ok = True
                break
        if not ok:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)),
       st.builds(Fraction, st.integers(1, 16), st.integers(1, 8)))
def test_dominated_matches_the_double_loop(data, name, eps):
    carrier, centers, _ = CARRIERS[name]

    def ball_open(min_size):
        balls = data.draw(st.lists(st.tuples(centers, radii), min_size=min_size, max_size=4))
        return BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls))

    u, v = ball_open(1), ball_open(0)
    if data.draw(st.booleans()):  # v also holds u's balls fattened by eps: the boundary
        v = BallOpen(carrier, v.balls + tuple(
            FormalBall(b.center, b.radius + eps) for b in u.balls))
    for margin in (0, eps):
        assert dominated(u, v, margin) == reference_dominated(u, v, margin)
    # way_inside is the domination scan with margin eps, at any effort
    effort = data.draw(st.integers(0, 64))
    assert way_inside(u, eps, v, effort).is_yes == dominated(u, v, eps)


def reference_distance(p, q, effort):
    """point_distance's bound by its rule: the minimum over n <= effort of
    d(x_n, y_n) + 2^(1-n)."""
    return min(
        p.carrier.dist(p.approx(n), q.approx(n)) + half_pow(n - 1)
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
    # one point moving: a NotYet reads all stages
    x, y = Fraction(1, 3), Fraction(-2)
    for p, q in (
        (_point("line", x, False), _point("line", y, True)),
        (_point("line", x, True), _point("line", y, False)),
    ):
        d = point_distance(p, q)
        calls = _counted(d)
        assert not d.less_than(reference_distance(p, q, 12), 12).is_yes
        assert sorted(calls) == list(range(13))


def _drawn_point(data, name, moving):
    """A constant point, or a moving one; a moving line point's stage n
    sits anywhere in [x - 2^-n, x + 2^-n]."""
    x = data.draw(CARRIERS[name][1])
    if moving and name == "line":
        signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=4))
        return CompletionPoint(LINE, lambda n: x + signs[n % len(signs)] * half_pow(n))
    return _point(name, x, moving)


def _drawn_open(data, name):
    carrier, centers, _ = CARRIERS[name]
    balls = data.draw(st.lists(st.tuples(centers, radii), max_size=4))
    return BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls))


def reference_member_slack(p, u, effort):
    """The all-balls margin: the largest r - d(x_n, c) - 2^-n over the
    stages n <= effort (stage effort alone for a constant point) and every
    ball b(c, r) of u, positive or not; None for the empty open."""
    best = None
    for n in (effort,) if p._value is not None else range(effort, -1, -1):
        x = p.approx(n)
        for b in u.balls:
            s = b.radius - p.carrier.dist(x, b.center) - half_pow(n)
            if best is None or s > best:
                best = s
    return best


def reference_mm4_scan(p, u, top):
    """MM4's interior-stage search: stages 0..top ascending (top alone for a
    constant point), the first strictly larger positive margin wins."""
    best = None
    for n in (top,) if p._value is not None else range(top + 1):
        z = p.approx(n)
        for b in u.balls:
            s = b.radius - p.carrier.dist(z, b.center) - half_pow(n)
            if s > 0 and (best is None or s > best[0]):
                best = (s, n)
    return best


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)), st.booleans(), st.integers(0, 32))
def test_slack_and_deepest_stage_match_the_scans_they_replace(data, name, moving, effort):
    p = _drawn_point(data, name, moving)
    u = _drawn_open(data, name)
    x = p.approx(effort)
    every = [b.radius - u.carrier.dist(x, b.center) for b in u.balls]
    assert slack(u, x) == (max(every) if every and max(every) > 0 else None)

    hit = deepest_stage(p, u, effort)
    assert hit == reference_mm4_scan(p, u, effort)
    want = reference_member_slack(p, u, effort)
    assert (hit is not None) == (want is not None and want > 0)
    if hit is not None:
        assert hit[0] == want


@pytest.mark.parametrize("effort", [0, 1, 8, 24])
def test_deepest_stage_keeps_the_smallest_stage_on_a_tie(effort):
    # stage n is 1 - 2^-n: each stage ball b(1 - 2^-n, 2^-n) sits in b(0, 2)
    # with the same margin 2 - 1 = 1
    p = CompletionPoint(LINE, lambda n: 1 - half_pow(n))
    u = BallOpen.of(LINE, FormalBall(Fraction(0), Fraction(2)))
    assert deepest_stage(p, u, effort) == (1, 0) == reference_mm4_scan(p, u, effort)
    flagged = point_of_carrier(LINE, Fraction(1, 2))
    want = (Fraction(3, 2) - half_pow(effort), effort)
    assert deepest_stage(flagged, u, effort) == want == reference_mm4_scan(flagged, u, effort)


def test_deepest_stage_reads_no_stage_of_the_empty_open():
    def unread(n):
        raise AssertionError(f"stage {n} read")

    p = CompletionPoint(LINE, unread)
    assert deepest_stage(p, BallOpen(LINE, ()), 16) is None
    with pytest.raises(ValueError):
        deepest_stage(p, BallOpen.of(FOUR_POINTS, FormalBall(0, Fraction(1))), 16)


SHRINK_LEVELS = (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(CARRIERS)), st.booleans(), st.integers(0, 32),
       st.one_of(st.sampled_from(SHRINK_LEVELS),
                 st.builds(Fraction, st.integers(1, 64), st.integers(1, 16))))
def test_member_slack_answers_every_shrinking(data, name, moving, effort, q):
    p = _drawn_point(data, name, moving)
    v = _drawn_open(data, name)
    carrier = v.carrier
    hit = deepest_stage(p, v, effort)
    assert (hit is not None) == member_query(p, v, effort).is_yes
    margin = None if hit is None else hit[0]
    # the drawn q, and the boundary: the margin itself and its neighbours
    near = [] if margin is None else [margin, margin - half_pow(40), margin + half_pow(40)]
    for t in [q] + [t for t in near if t > 0]:
        shrunk = BallOpen(carrier, tuple(
            FormalBall(b.center, b.radius - t) for b in v.balls if b.radius > t))
        assert (margin is not None and margin > t) == member_query(p, shrunk, effort).is_yes
