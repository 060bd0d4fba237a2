"""Formal balls and finite unions of them: the basis opens of a completion.

The executable calculus, exact over rational carrier distances: the formal
diameter, single-ball domination (containment and the sound "way inside"
test), the q-neighborhood operator (radius fattening), positivity, the
slack of an element in an open, and meet witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .carriers import MetricCarrier
from .numbers import parse_rational, rational_str
from .upper import Query, UpperReal


@dataclass(frozen=True)
class FormalBall:
    """(center, radius) with radius > 0; denotes the open ball around center."""

    center: object
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("formal balls must have strictly positive radius")


@dataclass(frozen=True)
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
    denoted open from above.
    """
    carrier = u.carrier
    balls = u.balls
    best = Fraction(0)
    for i, bi in enumerate(balls):
        best = max(best, 2 * bi.radius)
        for bj in balls[i + 1 :]:
            d = carrier.dist(bi.center, bj.center)
            best = max(best, d + bi.radius + bj.radius)
    return best


def diameter_upper(u: BallOpen) -> UpperReal:
    """``diameter(u)`` as a constant upper real."""
    return UpperReal.of_rational(diameter(u))


def dominated(u: BallOpen, v: BallOpen, margin: Fraction) -> bool:
    """Single-ball domination: every ball b(x,q) of u has a ball b(y,r) of v
    with d(x,y) + q + margin <= r.  With margin 0 this is containment."""
    dist = u.carrier.dist
    for bu in u.balls:
        for bv in v.balls:
            if dist(bu.center, bv.center) + bu.radius + margin <= bv.radius:
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
    if eps <= 0:
        raise ValueError("way_inside margin must be positive")
    _require_same_carrier(u, v)
    if not u.balls:
        return Query.YES
    return Query.YES if dominated(u, v, eps) else Query.NOT_YET


def neighborhood(u: BallOpen, q: Fraction) -> BallOpen:
    """The q-neighborhood on the ball representation: each radius grows by q."""
    q = parse_rational(q)
    if q <= 0:
        raise ValueError("neighborhood step must be positive")
    return BallOpen(
        u.carrier, tuple(FormalBall(b.center, b.radius + q) for b in u.balls)
    )


def is_positive(u: BallOpen) -> bool:
    """A finite union of balls is positive iff it is non-empty (centers witness)."""
    return bool(u.balls)


def slack(u: BallOpen, x) -> Optional[Fraction]:
    """The largest r - d(x, c) over the balls b(c, r) of u containing x
    (d < r), an exact positive rational; None when no ball contains x."""
    dist = u.carrier.dist
    best = None
    for b in u.balls:
        d = dist(x, b.center)
        if d < b.radius:
            s = b.radius - d
            if best is None or s > best:
                best = s
    return best


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
            return FormalBall(c, min(su, sv) / 4)
    return None
