"""Stage reuse against the plain computations it skips.

``UpperReal.less_than`` searches raw bounds downward and ``round_trip``
images and measures each grid center once; both must answer exactly as
the computation that builds every stage or asks every pair query.  (The
stage-depth memo of ``ModulusFn`` is tested in ``test_stage_depth.py``.)
The round trip's memo lives for one call, and its work is pinned by count
on the benchmark's round-trip instance.  Points that refer to their own
earlier stages must not deadlock.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import function_locale
from formalballs.balls import BallOpen, FormalBall
from formalballs.carriers import finite_space, gaussian_rationals, rational_line
from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.function_locale import holds, round_trip, tau_from_point
from formalballs.maps import MapRep, compose_maps, line_map, proj_map
from formalballs.numbers import half_pow
from formalballs.upper import UpperReal

LINE = rational_line()
FIVE = finite_space(5, [[abs(i - j) for j in range(5)] for i in range(5)])

small_rationals = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
raw_bounds = small_rationals


def raw_bounds_upto(raws, e):
    return [raws[k % len(raws)] for k in range(e + 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(raw_bounds, min_size=1, max_size=12),
    st.lists(st.tuples(small_rationals, st.integers(0, 15), st.booleans()), max_size=20),
)
def test_less_than_matches_minimum_of_raw_bounds(raws, queries):
    calls = []

    def raw(k):
        calls.append(k)
        return raws[k % len(raws)]

    u = UpperReal(raw)
    for q, e, build in queries:
        if build:
            assert u.bound(e) == min(raw_bounds_upto(raws, e))
        want = min(raw_bounds_upto(raws, e)) < q
        assert u.less_than(q, e).is_yes == want
        if want:
            assert u.less_than(q, e + 1).is_yes
    assert len(calls) == len(set(calls))  # each raw bound is computed once


def _line_rep(a, b, depth):
    f = line_map(a, b)
    for _ in range(depth):
        f = compose_maps(line_map(a, b), f)
    return f


# sources of x -> a x + b, by name: each builds a fresh map (a, b, depth)
SOURCES = {
    "line": _line_rep,
    # images that are not constant: stage n lies 2^-(n+2) above a x + b
    "moving": lambda a, b, _depth: MapRep(
        LINE, LINE,
        lambda x: CompletionPoint(LINE, lambda n: a * x + b + half_pow(n + 2)),
        lambda eps: eps,
    ),
    "finite": lambda a, b, _depth: MapRep(
        FIVE, LINE, lambda i: point_of_carrier(LINE, a * i + b), lambda eps: eps
    ),
    "product": lambda a, b, depth: compose_maps(
        _line_rep(a, b, depth), proj_map(LINE, FIVE, 1)
    ),
}


def _source_element(source, x):
    """The source element that stands for the drawn offset x."""
    if source == "finite":
        return int(x) % 5
    if source == "product":
        return (x, int(x) % 5)
    return x


def reference_tau(f, v, effort, grid=function_locale._grid_centers):
    """tau_from_point as its pair queries read: for every shrink level q,
    then every grid center c, holds(b(c, q/4), v shrunk by q, f, min(effort,
    24)), each imaging c afresh; a center already accepted at
    this level is skipped."""
    levels, span = function_locale._grid(effort)
    accepted = {}
    for q in levels:
        shrunk = [FormalBall(b.center, b.radius - q) for b in v.balls if b.radius > q]
        if not shrunk:
            continue
        v_inner = BallOpen(v.carrier, tuple(shrunk))
        for c in grid(f.source, v, q / 4, span):
            w = BallOpen.of(f.source, FormalBall(c, q / 4))
            if (c, q / 4) not in accepted and holds(
                w, v_inner, f, min(effort, 24)
            ).is_yes:
                accepted[(c, q / 4)] = w.balls[0]
    return BallOpen(f.source, tuple(accepted.values()))


slopes = st.builds(Fraction, st.integers(-4, 4), st.integers(4, 8))
offsets = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
radii = st.builds(Fraction, st.integers(1, 12), st.integers(2, 4))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SOURCES)), slopes, offsets, st.integers(0, 1),
    st.lists(st.tuples(offsets, radii), min_size=1, max_size=2),
    st.lists(offsets, max_size=4),
    st.sampled_from((1, 4, 16, 64)),
)
@example("line", Fraction(1, 2), Fraction(1, 3), 0, [(Fraction(1), Fraction(2))],
         [Fraction(0), Fraction(5, 2)], 256)  # four shrink levels
def test_round_trip_matches_plain_holds_oracle(source, a, b, depth, balls, probes,
                                               effort):
    build = SOURCES[source]
    v = BallOpen(LINE, tuple(FormalBall(c, r) for c, r in balls))
    source_carrier = build(a, b, depth).source
    points = [point_of_carrier(source_carrier, _source_element(source, x))
              for x in probes]

    assert tau_from_point(build(a, b, depth), v, effort) == reference_tau(
        build(a, b, depth), v, effort
    )
    reused = round_trip(build(a, b, depth), v, points, effort)
    with mock.patch.object(function_locale, "tau_from_point", reference_tau):
        plain = round_trip(build(a, b, depth), v, points, effort)
    assert reused == plain


def _fallback_grid_with_repeats(carrier, v, _step, _span):
    """The centers of v's balls, then the midpoint of every pair of them."""
    return [b.center for b in v.balls] + [
        carrier.midpoint(a.center, b.center) for a in v.balls for b in v.balls
    ]


def test_fallback_grid_matches_plain_holds_oracle():
    # the Gaussian rationals have no grid of their own: the grid is v's
    # centers and midpoints, where midpoint(c, c) repeats the int pair c as
    # a pair of Fractions, and the first of the two is the ball kept
    gauss = gaussian_rationals()
    f = MapRep(gauss, gauss,
               lambda z: point_of_carrier(gauss, (Fraction(z[0]) / 2, z[1] + 1)),
               lambda eps: eps)
    v = BallOpen.of(gauss, FormalBall((0, 1), Fraction(3)),
                    FormalBall((2, 0), Fraction(5, 2)))
    probes = [point_of_carrier(gauss, z) for z in ((0, 0), (1, -1), (4, 0))]
    for effort in (1, 16, 64):
        want = reference_tau(f, v, effort, _fallback_grid_with_repeats)
        assert tau_from_point(f, v, effort).to_json() == want.to_json()
        with mock.patch.object(function_locale, "tau_from_point",
                               lambda f, v, e: reference_tau(
                                   f, v, e, _fallback_grid_with_repeats)):
            plain = round_trip(f, v, probes, effort)
        assert round_trip(f, v, probes, effort) == plain


def test_round_trip_memo_lives_for_one_call():
    def build():
        return line_map(Fraction(1, 2), Fraction(1, 4))

    calls = [
        (BallOpen.of(LINE, FormalBall(Fraction(0), Fraction(2))),
         [Fraction(0), Fraction(3)]),
        (BallOpen.of(LINE, FormalBall(Fraction(3), Fraction(1)),
                     FormalBall(Fraction(-2), Fraction(1, 2))),
         [Fraction(5), Fraction(-4), Fraction(1)]),
    ]

    def report(f, v, xs):
        return round_trip(f, v, [point_of_carrier(LINE, x) for x in xs], 64)

    # the plain pair queries on a fresh map: no memo to share
    with mock.patch.object(function_locale, "tau_from_point", reference_tau):
        fresh = {id(v): report(build(), v, xs) for v, xs in calls}
    for order in (calls, calls[::-1]):
        f = build()
        for v, xs in order:
            assert report(f, v, xs) == fresh[id(v)]


def test_round_trip_work_is_one_image_per_center_and_probe():
    """The benchmark's round trip: x/2 + b, v = b(0, 2), effort 256, ten
    probes on the 1/16 grid whose images lie in b(0, 1).  Its grid has
    levels 1, 1/2 and 1/4 (b(0, 2) shrunk by 2 is empty) over 577 distinct
    centers, the 1/16 grid of [-18, 18]."""
    counts = {"map": 0, "dist": 0}

    def dist(x, y):
        counts["dist"] += 1
        return LINE.dist(x, y)

    line = dataclasses.replace(LINE, dist=dist)
    a, b = Fraction(1, 2), Fraction(0)

    def carrier_map(x):
        counts["map"] += 1
        return point_of_carrier(line, a * x + b)

    f = MapRep(line, line, carrier_map, lambda eps: eps)
    ys = [Fraction(2 * k, 11) - 1 for k in range(1, 11)]
    probes = [point_of_carrier(line, Fraction(round((y - b) / a * 16), 16)) for y in ys]
    rep = round_trip(f, BallOpen.of(line, FormalBall(Fraction(0), Fraction(2))),
                     probes, 256)
    assert rep["sound"] and rep["total_in_v"] == rep["covered"] == 10
    assert counts["map"] == 577 + 10
    # one slack per center against v's one ball, then 76 distances in the
    # probes' scans of tau and one per probe image; a pair query per level
    # and center would read 1011 distances where the slacks read 577
    assert counts["dist"] == 577 + 76 + 10


SELF_REFERENTIAL = """
from fractions import Fraction as F
from formalballs.completion import CompletionPoint
from formalballs.maps import LINE
from formalballs.upper import UpperReal

p = CompletionPoint(LINE, lambda n: F(0) if n == 0 else p.approx(n - 1))
u = UpperReal(lambda e: F(1) if e == 0 else u.bound(e - 1) / 2)
print(p.approx(3), u.less_than(F(1, 4), 3).label, u.bound(3))
"""


def test_self_referential_stages_do_not_deadlock():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", SELF_REFERENTIAL],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "Yes", "1/8"]
