"""Stage reuse against the plain computations it skips.

``UpperReal.less_than`` searches raw bounds downward and ``round_trip``
images each grid center once; both must answer exactly as the computation
that builds every stage.  (The stage-depth memo of ``ModulusFn`` is tested
in ``test_stage_depth.py``.)  Points that refer to their own earlier stages
must not deadlock.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs import function_locale
from formalballs.balls import BallOpen, FormalBall
from formalballs.carriers import rational_line
from formalballs.completion import point_of_carrier
from formalballs.function_locale import holds, round_trip
from formalballs.maps import compose_maps, line_map
from formalballs.numbers import INF
from formalballs.upper import UpperReal

LINE = rational_line()

small_rationals = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
raw_bounds = st.one_of(st.just(INF), small_rationals)


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


def _plain_holds(pp, f, effort, images=None):
    return holds(pp, f, effort)


slopes = st.builds(Fraction, st.integers(-4, 4), st.integers(4, 8))
offsets = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
radii = st.builds(Fraction, st.integers(1, 12), st.integers(2, 4))


@settings(max_examples=25, deadline=None)
@given(
    slopes, offsets, st.integers(0, 1),
    st.lists(st.tuples(offsets, radii), min_size=1, max_size=2),
    st.lists(offsets, max_size=4),
    st.sampled_from((1, 4, 16, 64)),
)
@example(Fraction(1, 2), Fraction(1, 3), 0, [(Fraction(1), Fraction(2))],
         [Fraction(0), Fraction(5, 2)], 256)  # four shrink levels
def test_round_trip_matches_plain_holds_oracle(a, b, depth, balls, probes, effort):
    v = BallOpen(LINE, tuple(FormalBall(c, r) for c, r in balls))

    def report():
        points = [point_of_carrier(LINE, x) for x in probes]
        return round_trip(_line_rep(a, b, depth), v, points, effort)

    reused = report()
    with mock.patch.object(function_locale, "holds", _plain_holds):
        plain = report()
    assert reused == plain


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
