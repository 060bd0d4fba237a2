"""Integer kernels of the ball calculus against the Fraction formulas they replace.

``balls`` (``slack``, ``dominated``, ``diameter``, ``neighborhood``,
``meet_witness``), ``completion`` (``member_query``, ``deepest_stage``,
``regularize``) and ``UpperReal`` (``bound``, ``less_than``) decide their
rational inequalities on numerators and denominators.  Each is compared
here with the ``Fraction`` formula it replaced, kept below as a reference:
equal results by repr (so equal values of the same type), or the same error
type and message, and the same number of carrier distances or raw bounds
read.  The cases run over the line, a finite space, their product and a
carrier whose distances are ints; each boundary of a rule has an example.
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.balls import (
    BallOpen,
    FormalBall,
    diameter,
    dominated,
    meet_witness,
    neighborhood,
    slack,
)
from formalballs.carriers import MetricCarrier, finite_space, product_space, rational_line
from formalballs.completion import (
    CertificateError,
    CompletionPoint,
    FilterSeed,
    deepest_stage,
    member_query,
    point_of_carrier,
    regularize,
)
from formalballs.numbers import half_pow, parse_rational
from formalballs.upper import Query, UpperReal

F = Fraction

# -- the Fraction formulas the kernels replace ------------------------------


def ref_slack(u, x):
    dist = u.carrier.dist
    best = None
    for b in u.balls:
        d = dist(x, b.center)
        if d < b.radius:
            s = b.radius - d
            if best is None or s > best:
                best = s
    return best


def ref_dominated(u, v, margin):
    dist = u.carrier.dist
    for bu in u.balls:
        for bv in v.balls:
            if dist(bu.center, bv.center) + bu.radius + margin <= bv.radius:
                break
        else:
            return False
    return True


def ref_diameter(u):
    carrier = u.carrier
    balls = u.balls
    best = Fraction(0)
    for i, bi in enumerate(balls):
        best = max(best, 2 * bi.radius)
        for bj in balls[i + 1 :]:
            d = carrier.dist(bi.center, bj.center)
            best = max(best, d + bi.radius + bj.radius)
    return best


def ref_neighborhood(u, q):
    q = parse_rational(q)
    if q <= 0:
        raise ValueError("neighborhood step must be positive")
    return BallOpen(u.carrier, tuple(FormalBall(b.center, b.radius + q) for b in u.balls))


def ref_meet_witness(u, v, effort):
    """The witness as (center, radius), so a float radius shows as itself."""
    carrier = u.carrier
    if carrier.points is not None:
        candidates = list(carrier.points)
    else:
        candidates = [b.center for b in u.balls + v.balls]
        if carrier.midpoint is not None:
            candidates += [carrier.midpoint(bu.center, bv.center)
                           for bu in u.balls for bv in v.balls]
    for c in candidates:
        su = ref_slack(u, c)
        sv = None if su is None else ref_slack(v, c)
        if sv is not None:
            return c, min(su, sv) / 4
    return None


def ref_member_query(p, u, effort):
    if p.carrier.kind != u.carrier.kind:
        raise ValueError("point and open live over different carriers")
    if not u.balls:
        return Query.NOT_YET
    carrier = p.carrier
    for n in (effort,) if p._value is not None else range(effort, -1, -1):
        x = p.approx(n)
        r = half_pow(n)
        for b in u.balls:
            d = carrier.dist(x, b.center)
            if d + r < b.radius:
                return Query.YES
    return Query.NOT_YET


def ref_deepest_stage(p, u, effort):
    if p.carrier.kind != u.carrier.kind:
        raise ValueError("point and open live over different carriers")
    if not u.balls:
        return None
    best = None
    for n in (effort,) if p._value is not None else range(effort, -1, -1):
        s = ref_slack(u, p.approx(n))
        if s is not None:
            margin = s - half_pow(n)
            if margin > 0 and (best is None or margin >= best[0]):
                best = (margin, n)
    return best


def ref_regularize(f, effort=32):
    if f.regular:
        return f
    gens = [g for g in f.generators if g.balls]
    for i, u in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if ref_meet_witness(u, gens[j], effort) is None:
                raise CertificateError("no meet witness for generator pair", (i, j))
    min_radius = min((b.radius for g in gens for b in g.balls), default=Fraction(1))
    shrunk = []
    for k, g in enumerate(gens):
        eps = half_pow(k) * min_radius / 4
        shrunk.append(
            BallOpen(g.carrier, tuple(FormalBall(b.center, b.radius - eps) for b in g.balls))
        )
    return FilterSeed(tuple(shrunk), regular=True)


class RefUpperReal:
    """``UpperReal``'s running minima and downward search on Fractions."""

    def __init__(self, bound_fn, decreasing=False):
        self._fn = bound_fn
        self._raw = {}
        self._best = []
        self._decreasing = decreasing

    def _raw_bound(self, e):
        if e not in self._raw:
            self._raw[e] = self._fn(e)
        return self._raw[e]

    def bound(self, effort):
        if effort < 0:
            raise ValueError("effort must be >= 0")
        if self._decreasing:
            return self._raw_bound(effort)
        best = self._best
        while len(best) <= effort:
            e = len(best)
            raw = self._raw_bound(e)
            best.append(raw if e == 0 else min(best[-1], raw))
        return best[effort]

    def less_than(self, q, effort):
        if q <= 0:
            raise ValueError("threshold must be a positive rational")
        if not self._decreasing:
            for k in range(effort, len(self._best) - 1, -1):
                if self._raw_bound(k) < q:
                    return Query.YES
        return Query.YES if self.bound(effort) < q else Query.NOT_YET


# -- carriers, counted --------------------------------------------------------

LINE = rational_line()
# the shortest-path metric of a 5-cycle with edges 1/2, 3/4, 1, 1/3, 2
FIN = finite_space(5, [
    ["0", "1/2", "5/4", "9/4", "1/3"],
    ["1/2", "0", "3/4", "7/4", "5/6"],
    ["5/4", "3/4", "0", "1", "19/12"],
    ["9/4", "7/4", "1", "0", "2"],
    ["1/3", "5/6", "19/12", "2", "0"],
])
PROD = product_space(LINE, FIN)
# distances are ints here, so the Fraction formulas give ints for int radii
INTS = MetricCarrier(
    kind=("ints",),
    dist=lambda a, b: abs(a - b),
    contains=lambda x: type(x) is int,
    sample=lambda rng: rng.randint(-8, 8),
)
CARRIERS = {"line": LINE, "finite": FIN, "product": PROD, "ints": INTS}

line_points = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))
)
ELEMENTS = {
    "line": line_points,
    "finite": st.integers(0, 4),
    "product": st.tuples(line_points, st.integers(0, 4)),
    "ints": st.integers(-8, 8),
}
# ints and Fractions of small denominators: equal values of both types meet
radii = st.one_of(
    st.integers(1, 6), st.builds(Fraction, st.integers(1, 24), st.sampled_from([1, 2, 3, 4]))
)


def counted(key):
    """CARRIERS[key] with a ``dist`` that counts its calls in ``calls[0]``."""
    carrier = CARRIERS[key]
    calls = [0]
    inner = carrier.dist

    def dist(a, b):
        calls[0] += 1
        return inner(a, b)

    return replace(carrier, dist=dist), calls


def ball_open(carrier, balls):
    return BallOpen(carrier, tuple(FormalBall(c, r) for c, r in balls))


def outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except ValueError as exc:  # CertificateError included
        return type(exc).__name__, str(exc)


def same_work(key, build, kernel, reference):
    """kernel and reference on fresh arguments: equal outcomes, equal dist calls."""
    carrier, calls = counted(key)
    got = outcome(kernel, *build(carrier))
    got_calls, calls[0] = calls[0], 0
    want = outcome(reference, *build(carrier))
    assert got == want
    assert got_calls == calls[0]


@st.composite
def cases(draw, opens=1, points=0, keys=tuple(CARRIERS)):
    """(carrier key, ``opens`` lists of (center, radius), ``points`` elements)."""
    key = draw(st.sampled_from(keys))
    elements = ELEMENTS[key]
    balls = [draw(st.lists(st.tuples(elements, radii), max_size=4)) for _ in range(opens)]
    return key, balls, [draw(elements) for _ in range(points)]


# -- balls ------------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(cases(points=1))
@example(("line", [[(0, 1)]], [1]))  # d = r: no slack
@example(("line", [[(0, 1), (1, 1)]], [F(1, 2)]))  # tied slacks 1/2
@example(("ints", [[(0, 3), (0, F(3))]], [1]))  # tied slacks: the int comes first
@example(("ints", [[(0, F(3)), (2, 3)]], [1]))  # tied slacks: the Fraction comes first
def test_slack_matches_the_fraction_formula(case):
    key, (balls,), (x,) = case
    same_work(key, lambda c: (ball_open(c, balls), x), slack, ref_slack)


@settings(max_examples=250, deadline=None)
@given(cases(opens=2), st.one_of(st.just(0), radii))
@example(("line", [[(0, F(1, 2))], [(1, 2)]], []), F(1, 2))  # d + q + margin = r: holds
@example(("line", [[(0, F(1, 2))], [(1, 2)]], []), F(3, 5))  # just past r
@example(("finite", [[(0, 1), (2, 1)], [(1, 2), (3, 5)]], []), 0)  # containment
def test_dominated_matches_the_fraction_formula(case, margin):
    key, (us, vs), _ = case
    same_work(key, lambda c: (ball_open(c, us), ball_open(c, vs), margin),
              dominated, ref_dominated)


@settings(max_examples=250, deadline=None)
@given(cases())
@example(("line", [[(0, 1), (0, 1)]], []))  # tied 2 r1, d + r1 + r2 and 2 r2: int 2 first
@example(("line", [[(0, F(1)), (0, 1)]], []))  # the same tie, a Fraction first
@example(("line", [[(0, F(1, 2)), (1, F(1, 2))]], []))  # 1 < d + r1 + r2 = 2
@example(("ints", [[(0, 2), (1, F(1, 2))]], []))  # 2 r1 = 4 > 1 + 2 + 1/2
@example(("line", [[]], []))  # the empty open: Fraction(0)
def test_diameter_matches_the_fraction_formula(case):
    key, (balls,), _ = case
    same_work(key, lambda c: (ball_open(c, balls),), diameter, ref_diameter)


@settings(max_examples=300, deadline=None)
@given(cases(), st.one_of(radii, st.sampled_from([0, F(-1, 2), "1/3", "2"])))
@example(("line", [[(0, F(1, 2)), (1, 3)]], []), F(1, 2))
@example(("line", [[(0, 1)]], []), 0)  # a zero step raises
def test_neighborhood_matches_the_fraction_formula(case, q):
    key, (balls,), _ = case
    same_work(key, lambda c: (ball_open(c, balls), q), neighborhood, ref_neighborhood)


@settings(max_examples=300, deadline=None)
@given(cases(opens=2, keys=("line", "finite", "product")), st.integers(0, 4))
@example(("line", [[(0, 1)], [(0, 1)]], []), 0)  # equal slacks: su wins
@example(("line", [[(0, 1)], [(1, F(3, 2))]], []), 0)  # d = r at the first candidates
def test_meet_witness_matches_the_fraction_formula(case, effort):
    key, (us, vs), _ = case

    def kernel(u, v, effort):
        w = meet_witness(u, v, effort)
        return None if w is None else (w.center, w.radius)

    same_work(key, lambda c: (ball_open(c, us), ball_open(c, vs), effort),
              kernel, ref_meet_witness)


def test_meet_witness_radius_is_a_fraction_over_int_distances():
    """The Fraction formula divided an int slack by 4 to a float radius."""
    u = ball_open(INTS, [(0, 3)])
    v = ball_open(INTS, [(1, 4)])
    assert ref_meet_witness(u, v, 0) == (0, 0.75)
    assert meet_witness(u, v, 0) == FormalBall(0, F(3, 4))
    assert type(meet_witness(u, v, 0).radius) is Fraction


# -- completion ----------------------------------------------------------------


def point(carrier, stages, constant):
    """The constant point at stages[0], or the point whose stage n is
    stages[n % len(stages)]."""
    if constant:
        return point_of_carrier(carrier, stages[0])
    return CompletionPoint(carrier, lambda n: stages[n % len(stages)])


@st.composite
def point_cases(draw):
    key, (balls,), stages = draw(cases(points=draw(st.integers(1, 3))))
    return key, balls, stages, draw(st.booleans()), draw(st.integers(-1, 6))


@settings(max_examples=250, deadline=None)
@given(point_cases())
@example(("line", [(F(1, 2), F(3, 4))], [0], True, 2))  # d + 2^-n = R: NotYet
@example(("line", [(F(1, 2), F(3, 4))], [0], True, 3))  # d + 2^-n < R: Yes
@example(("line", [(F(1, 2), F(3, 4))], [0], False, 2))  # a moving point reads every stage
@example(("ints", [(0, 2)], [1, 3], False, 0))  # d + 1 = R at stage 0
@example(("finite", [], [0], False, 3))  # the empty open
@example(("line", [(0, 1)], [0], True, -1))  # a negative stage raises
def test_member_query_matches_the_fraction_formula(case):
    key, balls, stages, constant, effort = case
    same_work(key, lambda c: (point(c, stages, constant), ball_open(c, balls), effort),
              member_query, ref_member_query)


@settings(max_examples=250, deadline=None)
@given(point_cases())
@example(("line", [(0, 2)], [0, F(1, 2)], False, 1))  # margins 2 - 1 = 3/2 - 1/2 tie
@example(("line", [(0, 1)], [F(1, 2)], True, 1))  # margin 1/2 - 1/2 = 0: none
@example(("ints", [(0, 3), (1, 3)], [1, 2], False, 3))
def test_deepest_stage_matches_the_fraction_formula(case):
    key, balls, stages, constant, effort = case
    same_work(key, lambda c: (point(c, stages, constant), ball_open(c, balls), effort),
              deepest_stage, ref_deepest_stage)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(tuple(CARRIERS)).flatmap(lambda key: st.tuples(
    st.just(key), st.lists(st.lists(st.tuples(ELEMENTS[key], radii), max_size=2), max_size=4))))
@example(("line", [[(0, 1)], [], [(F(1, 2), F(3, 2))]]))  # an empty generator is dropped
@example(("line", [[(0, 1)], [(5, 1)]]))  # no meet witness
@example(("ints", [[(0, 2)], [(1, F(3, 2)), (0, 2)]]))
def test_regularize_matches_the_fraction_formula(case):
    key, gens = case
    same_work(key, lambda c: (FilterSeed(tuple(ball_open(c, g) for g in gens)), 8),
              regularize, ref_regularize)


# -- upper reals -----------------------------------------------------------------

raw_values = st.one_of(st.integers(0, 6), st.builds(Fraction, st.integers(0, 24), st.sampled_from([1, 2, 3, 4])))
queries = st.lists(
    st.one_of(
        st.tuples(st.just("bound"), st.integers(0, 7)),
        st.tuples(st.just("less_than"), st.one_of(raw_values, st.just(F(-1, 2))), st.integers(0, 7)),
    ),
    min_size=1, max_size=6,
)


def answers(upper, queries):
    out = []
    for name, *args in queries:
        out.append(outcome(getattr(upper, name), *args))
    return out


@settings(max_examples=250, deadline=None)
@given(st.lists(raw_values, min_size=1, max_size=6), queries, st.booleans())
@example([F(2), 2, F(3, 2)], [("bound", 1), ("bound", 2)], False)  # tied minima: the first stays
@example([2, F(2)], [("bound", 1)], False)
@example([F(3, 2), 1], [("less_than", 1, 1), ("less_than", F(3, 2), 0)], False)  # bound = q: NotYet
@example([F(3, 2), 1], [("less_than", F(5, 4), 1), ("less_than", 1, 3)], False)
@example([3, 2, 1], [("less_than", 2, 2), ("less_than", F(5, 2), 1)], True)
@example([1], [("less_than", 0, 0)], False)  # a zero threshold raises
def test_upper_real_matches_the_fraction_formula(raws, queries, decreasing):
    def bound_fn(counter):
        def fn(e):
            counter[0] += 1
            return raws[min(e, len(raws) - 1)]
        return fn

    got_evals, want_evals = [0], [0]
    got = answers(UpperReal(bound_fn(got_evals), decreasing=decreasing), queries)
    want = answers(RefUpperReal(bound_fn(want_evals), decreasing=decreasing), queries)
    assert got == want
    assert got_evals == want_evals
