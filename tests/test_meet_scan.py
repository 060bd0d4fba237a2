"""The meet scan and the finite distances against what they replace.

``meet_witness`` subtracts a ball's radius and distance only when the ball
contains the candidate center; the loop below subtracts for every ball and
tests the best slack's sign afterwards.  Both must give the same witness,
and ``regularize`` (which asks ``meet_witness`` about every generator pair)
the same generators or the same failing pair.  ``meet_witness`` returns
its ball without asking whether it is way inside both opens; the test of
that domination, dropped from the library by its lemma, is asserted here
on every witness.  A finite space's distance is its table entry.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from formalballs import balls
from formalballs.balls import BallOpen, FormalBall, dominated, meet_witness, way_inside
from formalballs.carriers import finite_space, product_space, rational_line
from formalballs.completion import CertificateError, FilterSeed, regularize

LINE = rational_line()


def reference_meet_witness(u, v, effort):
    """meet_witness with a slack computed for every ball, sign tested last."""
    carrier = u.carrier
    if carrier.points is not None:
        candidates = list(carrier.points)
    else:
        candidates = [b.center for b in u.balls] + [b.center for b in v.balls]
        if carrier.midpoint is not None:
            candidates += [carrier.midpoint(bu.center, bv.center)
                           for bu in u.balls for bv in v.balls]
    for c in candidates:
        slack = None
        for open_ in (u, v):
            best = None
            for b in open_.balls:
                s = b.radius - carrier.dist(c, b.center)
                if best is None or s > best:
                    best = s
            if best is None or best <= 0:
                slack = None
                break
            slack = best if slack is None else min(slack, best)
        if slack is not None and slack > 0:
            w = FormalBall(c, slack / 4)
            wo = BallOpen.of(carrier, w)
            if (way_inside(wo, slack / 4, u, effort).is_yes
                    and way_inside(wo, slack / 4, v, effort).is_yes):
                return w
    return None


def shortest_paths(weights, n):
    """The metric of shortest paths over a complete graph in half units."""
    d = [[Fraction(0)] * n for _ in range(n)]
    pairs = iter(weights)
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(next(pairs), 2)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@st.composite
def finite_spaces(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(1, 16), min_size=n * n, max_size=n * n))
    return finite_space(n, shortest_paths(weights, n))


line_points = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def carriers(draw):
    """A carrier and a strategy for its elements."""
    kind = draw(st.sampled_from(["line", "finite", "line*finite", "finite*finite",
                                 "line*line"]))
    if kind == "line":
        return LINE, line_points
    if kind == "line*line":
        return product_space(LINE, LINE), st.tuples(line_points, line_points)
    left = draw(finite_spaces(4 if "*" in kind else 7))
    indices = st.integers(0, len(left.points) - 1)
    if kind == "finite":
        return left, indices
    if kind == "line*finite":
        return product_space(LINE, left), st.tuples(line_points, indices)
    right = draw(finite_spaces(3))
    return (product_space(left, right),
            st.tuples(indices, st.integers(0, len(right.points) - 1)))


# radii in quarter units: many candidates sit exactly on a ball's boundary
radii = st.builds(Fraction, st.integers(1, 24), st.just(4))


def opens(data, carrier, elements):
    balls_ = data.draw(st.lists(st.tuples(elements, radii), max_size=3))
    return BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls_))


@settings(max_examples=300, deadline=None)
@given(st.data(), carriers(), st.integers(0, 12))
def test_meet_witness_matches_the_full_slack_loop(data, carrier_case, effort):
    carrier, elements = carrier_case
    u, v = opens(data, carrier, elements), opens(data, carrier, elements)
    assert meet_witness(u, v, effort) == reference_meet_witness(u, v, effort)


@settings(max_examples=200, deadline=None)
@given(st.data(), carriers())
def test_meet_witness_is_way_inside_both_opens_by_its_radius(data, carrier_case):
    carrier, elements = carrier_case
    u, v = opens(data, carrier, elements), opens(data, carrier, elements)
    w = meet_witness(u, v, 0)
    event("witness" if w is not None else "none")
    if w is not None:
        wo = BallOpen.of(carrier, w)
        assert dominated(wo, u, w.radius) and dominated(wo, v, w.radius)


def _regularized(seed, effort):
    try:
        return regularize(seed, effort).generators
    except CertificateError as exc:
        return ("no-meet", exc.witness)


@settings(max_examples=150, deadline=None)
@given(st.data(), carriers(), st.integers(1, 4), st.integers(0, 12))
def test_regularize_matches_the_full_slack_loop(data, carrier_case, size, effort):
    carrier, elements = carrier_case
    seed = FilterSeed(tuple(opens(data, carrier, elements) for _ in range(size)))
    got = _regularized(seed, effort)
    with mock.patch.object(balls, "meet_witness", reference_meet_witness):
        want = _regularized(seed, effort)
    assert got == want


def test_boundary_candidates_are_not_witnesses():
    # point 1 sits on the boundary of the ball around 0 and inside the
    # ball around 2 only; point 0 is outside v: no center has slack in both
    sp = finite_space(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    u = BallOpen.of(sp, FormalBall(0, Fraction(1)))
    v = BallOpen.of(sp, FormalBall(2, Fraction(3, 2)))
    assert meet_witness(u, v, 4) is None
    assert reference_meet_witness(u, v, 4) is None
    u2 = BallOpen.of(sp, FormalBall(0, Fraction(5, 4)))
    assert meet_witness(u2, v, 4) == FormalBall(1, Fraction(1, 16))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.lists(st.integers(1, 16), min_size=64, max_size=64))
def test_finite_distances_are_the_table(n, weights):
    d = shortest_paths(weights, n)
    sp = finite_space(n, [[str(q) for q in row] for row in d])
    for a in range(n):
        for b in range(n):
            assert sp.dist(a, b) == d[a][b]
