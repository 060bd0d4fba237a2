"""Formal balls and finite unions of them: the basis opens of a completion.

The executable calculus, exact over rational carrier distances: the formal
diameter, single-ball domination (containment and the sound "way inside"
test), the q-neighborhood operator (radius fattening), positivity, the
slack of an element in an open, and meet witnesses.

Each decision is an inequality between rationals, decided in integers by
one rule: an inequality between rationals keeps its sense when both sides
are multiplied by positive denominators, so a/b < c/d iff a*d < c*b for
b, d > 0.  A radius is an int or a ``Fraction`` (``FormalBall`` checks it)
and every carrier's ``dist`` returns an exact ``Fraction`` or int, so the
numerator and the positive denominator of each operand are always there to
read: one kernel serves every carrier, and no carrier needs its own path.
A rational that a kernel returns is built once, from the winning
numerator/denominator pair, and has the value and the type that the
``Fraction`` formula gave: an int when every operand was an int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .carriers import MetricCarrier
from .numbers import parse_rational, rational_str
from .upper import Query, UpperReal


@dataclass(frozen=True, slots=True)
class FormalBall:
    """(center, radius) with radius > 0; denotes the open ball around center.

    The radius must be an int (not a bool) or a ``Fraction``; anything else,
    a float included, raises ``ValueError`` naming it.
    """

    center: object
    radius: Fraction

    def __post_init__(self):
        r = self.radius
        if type(r) is bool or not isinstance(r, (int, Fraction)):
            raise ValueError(f"a ball radius must be an int or a Fraction, got {r!r}")
        if r.numerator <= 0:
            raise ValueError("formal balls must have strictly positive radius")


@dataclass(frozen=True, slots=True)
class BallOpen:
    """Finite union of formal balls over one carrier; empty list = empty open.

    Every center must be an element of the carrier (``carrier.contains``),
    so no center is silently reinterpreted, e.g. -2 as a negative index.
    """

    carrier: MetricCarrier
    balls: tuple[FormalBall, ...]

    def __post_init__(self):
        contains = self.carrier.contains
        for b in self.balls:
            if not contains(b.center):
                raise ValueError(f"{b.center!r} is not a carrier element")

    @staticmethod
    def of(carrier: MetricCarrier, *balls: FormalBall) -> "BallOpen":
        return BallOpen(carrier, tuple(balls))

    def to_json(self):
        return {
            "carrier": repr(self.carrier.kind),
            "balls": [
                {"c": repr(b.center), "r": rational_str(b.radius)} for b in self.balls
            ],
        }


def _require_same_carrier(u: BallOpen, v: BallOpen):
    if u.carrier.kind != v.carrier.kind:
        raise ValueError("ball opens over different carriers")


def diameter(u: BallOpen) -> Fraction:
    """The formal diameter of the ball representation, an exact rational.

    The max over ball pairs of d(ci,cj) + ri + rj and over single balls of
    2 ri; the empty open has diameter 0.  It bounds the diameter of the
    denoted open from above.  A term replaces the best so far only when it
    is larger, so the first of equal terms wins, as with ``max``.
    """
    balls = u.balls
    if not balls:
        return Fraction(0)
    dist = u.carrier.dist
    radii = [(b.radius, b.radius.numerator, b.radius.denominator) for b in balls]
    # the best term as num/den (2 ri > 0 beats 0/1) and the operands it adds
    num, den, win = 0, 1, ()
    for i, (ri, ni, di) in enumerate(radii):
        if 2 * ni * den > num * di:
            num, den, win = 2 * ni, di, (ri,)
        ci = balls[i].center
        for j in range(i + 1, len(balls)):
            rj, nj, dj = radii[j]
            d = dist(ci, balls[j].center)
            dd = d.denominator
            # d + ri + rj over the denominator dd * di * dj
            tn = d.numerator * di * dj + (ni * dj + nj * di) * dd
            td = dd * di * dj
            if tn * den > num * td:
                num, den, win = tn, td, (d, ri, rj)
    # the Fraction formula gives an int when every operand is one (den is 1)
    return num if all(type(x) is int for x in win) else Fraction(num, den)


def diameter_upper(u: BallOpen) -> UpperReal:
    """``diameter(u)`` as a constant upper real."""
    return UpperReal.of_rational(diameter(u))


def dominated(u: BallOpen, v: BallOpen, margin: Fraction) -> bool:
    """Single-ball domination: every ball b(x,q) of u has a ball b(y,r) of v
    with d(x,y) + q + margin <= r.  With margin 0 this is containment.

    q + margin is kept as the integer pair sn/sd, and the rule is decided
    times the positive rd * dd * sd."""
    dist = u.carrier.dist
    mn, md = margin.numerator, margin.denominator
    targets = [(b.center, b.radius.numerator, b.radius.denominator) for b in v.balls]
    for bu in u.balls:
        x, q = bu.center, bu.radius
        qd = q.denominator
        sn, sd = q.numerator * md + mn * qd, qd * md
        for y, rn, rd in targets:
            d = dist(x, y)
            dd = d.denominator
            if (d.numerator * sd + sn * dd) * rd <= rn * dd * sd:
                break
        else:
            return False
    return True


def way_inside(u: BallOpen, eps: Fraction, v: BallOpen, effort: int) -> Query:
    """Decide that the eps-fattening of u is contained in v by domination.

    Yes answers are sound; a union genuinely covering u may answer NotYet.
    Carrier distances are exact, so the answer does not depend on effort.
    """
    eps = parse_rational(eps)
    if eps.numerator <= 0:
        raise ValueError("way_inside margin must be positive")
    _require_same_carrier(u, v)
    if not u.balls:
        return Query.YES
    return Query.YES if dominated(u, v, eps) else Query.NOT_YET


def neighborhood(u: BallOpen, q: Fraction) -> BallOpen:
    """The q-neighborhood on the ball representation: each radius grows by q.

    Each new radius r + q is one ``Fraction`` built from integers."""
    q = parse_rational(q)
    qn, qd = q.numerator, q.denominator
    if qn <= 0:
        raise ValueError("neighborhood step must be positive")
    balls = []
    for b in u.balls:
        r = b.radius
        rd = r.denominator
        balls.append(FormalBall(b.center, Fraction(r.numerator * qd + qn * rd, rd * qd)))
    return BallOpen(u.carrier, tuple(balls))


def is_positive(u: BallOpen) -> bool:
    """A finite union of balls is positive iff it is non-empty (centers witness)."""
    return bool(u.balls)


def slack(u: BallOpen, x) -> Optional[Fraction]:
    """The largest r - d(x, c) over the balls b(c, r) of u containing x
    (d < r), an exact positive rational; None when no ball contains x.

    Each r - d is the pair (rn dd - dn rd) / (rd dd).  It is best when it
    exceeds the best so far, which starts at 0/1, so containment and the
    comparison are one test, and the first of equal slacks wins."""
    dist = u.carrier.dist
    num, den, win = 0, 1, None
    for b in u.balls:
        r = b.radius
        d = dist(x, b.center)
        rd, dd = r.denominator, d.denominator
        sn, sd = r.numerator * dd - d.numerator * rd, rd * dd
        if sn * den > num * sd:
            num, den, win = sn, sd, (r, d)
    if win is None:
        return None
    # r - d is an int when both are ints (den is 1), as the Fraction formula gives
    return num if type(win[0]) is int is type(win[1]) else Fraction(num, den)


def meet_witness(u: BallOpen, v: BallOpen, effort: int) -> Optional[FormalBall]:
    """Search for a ball lying way inside both u and v.

    A candidate center c qualifies when it has a slack in both opens; the
    witness is b(c, eps), eps = s/4 for the smaller slack s, way inside both
    opens by eps.  Lemma: the ball b(y, r) that gives c its slack su in u
    has d(c, y) + eps + eps <= r - su + su/2 < r; likewise in v.

    Returns None if no witness was found; that is not a refutation of
    overlap.  Carrier distances are exact, so the answer does not depend
    on effort.
    """
    _require_same_carrier(u, v)
    carrier = u.carrier
    if carrier.points is not None:
        candidates = list(carrier.points)
    else:
        candidates = [b.center for b in u.balls + v.balls]
        if carrier.midpoint is not None:
            candidates += [carrier.midpoint(bu.center, bv.center)
                           for bu in u.balls for bv in v.balls]
    for c in candidates:
        su = slack(u, c)
        sv = None if su is None else slack(v, c)
        if sv is not None:
            # the smaller slack, su on a tie, as min gives it
            s = sv if sv.numerator * su.denominator < su.numerator * sv.denominator else su
            return FormalBall(c, Fraction(s.numerator, 4 * s.denominator))
    return None
