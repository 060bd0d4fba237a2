"""Formal balls and finite unions of them: the basis opens of a completion.

The executable calculus: diameter upper bounds, the sound "way inside"
semi-decision, the q-neighborhood operator (radius fattening), positivity,
and meet witnesses.
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


def diameter_upper(u: BallOpen) -> UpperReal:
    """Sound upper real for the diameter of the denoted open.

    Bound at effort e: max over ball pairs of dist_hi(ci,cj)(e) + ri + rj
    and over single balls of 2 ri.  The empty open has diameter 0.

    When every center distance is exact at effort 0 (lo == hi, as on the
    primitive carriers), the bound is the same at every effort: distance
    intervals are nested, so no later interval can differ.  The result is
    then the constant upper real of that bound.
    """
    if not u.balls:
        return UpperReal.of_rational(Fraction(0))
    carrier = u.carrier
    balls = u.balls

    def bound(effort):
        best = Fraction(0)
        exact = True
        for i, bi in enumerate(balls):
            best = max(best, 2 * bi.radius)
            for bj in balls[i + 1 :]:
                d = carrier.dist(bi.center, bj.center, effort)
                exact = exact and d.lo == d.hi
                best = max(best, d.hi + bi.radius + bj.radius)
        return best, exact

    first, exact = bound(0)
    if exact:
        return UpperReal.of_rational(first)
    return UpperReal(lambda effort: bound(effort)[0])


def way_inside(u: BallOpen, eps: Fraction, v: BallOpen, effort: int) -> Query:
    """Semi-decide that the eps-fattening of u is contained in v.

    Single-ball domination rule: every ball b(x,q) of u must have a ball
    b(y,r) of v with dist_hi(x,y) + q + eps <= r at the given effort.
    Yes answers are sound; a union genuinely covering u may answer NotYet.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError("way_inside margin must be positive")
    if not u.balls:
        return Query.YES
    _require_same_carrier(u, v)
    carrier = u.carrier
    for bu in u.balls:
        dominated = False
        for bv in v.balls:
            d = carrier.dist(bu.center, bv.center, effort).hi
            if d + bu.radius + eps <= bv.radius:
                dominated = True
                break
        if not dominated:
            return Query.NOT_YET
    return Query.YES


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


def meet_witness(u: BallOpen, v: BallOpen, effort: int) -> Optional[FormalBall]:
    """Search for a ball lying way inside both u and v.

    A candidate center's slack in an open is the largest radius - dist_hi
    over its balls; the witness needs a positive slack in both.  That
    maximum is positive iff some ball contains the candidate (dist_hi <
    radius), and then it is the maximum over the containing balls alone,
    so only those are subtracted.

    Returns None if no witness was found at this effort; that is not a
    refutation of overlap.
    """
    _require_same_carrier(u, v)
    carrier = u.carrier
    candidates = []
    if carrier.points is not None:
        candidates.extend(carrier.points)
    else:
        for b in u.balls:
            candidates.append(b.center)
        for b in v.balls:
            candidates.append(b.center)
        if carrier.midpoint is not None:
            for bu in u.balls:
                for bv in v.balls:
                    candidates.append(carrier.midpoint(bu.center, bv.center))
    for c in candidates:
        slack = None
        for open_ in (u, v):
            best = None
            for b in open_.balls:
                d = carrier.dist(c, b.center, effort).hi
                if d < b.radius:
                    s = b.radius - d
                    if best is None or s > best:
                        best = s
            if best is None:
                slack = None
                break
            slack = best if slack is None else min(slack, best)
        if slack is not None:
            w = FormalBall(c, slack / 4)
            wo = BallOpen.of(carrier, w)
            # witness must sit way inside both opens with a positive margin
            if (
                way_inside(wo, slack / 4, u, effort).is_yes
                and way_inside(wo, slack / 4, v, effort).is_yes
            ):
                return w
    return None
