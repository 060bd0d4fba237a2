"""Points of the completion of a pre-metric carrier.

A completion point is a stage-indexed shrinking sequence of carrier
elements: stage n lies within 2^-n of the limit.  Filter seeds represent
Cauchy filters by finite generator lists and support regularization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .balls import BallOpen, FormalBall, meet_witness, slack, way_inside
from .carriers import MetricCarrier, product_space
from .numbers import half_pow
from .upper import Query, UpperReal


class CertificateError(ValueError):
    """A claimed convergence/filter certificate failed; carries the witness."""

    def __init__(self, message, witness):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


class CompletionPoint:
    """A point given by a 2^-n-regular approximation sequence.

    ``value`` is the carrier element that every stage equals, for a point
    known to be constant when it is built, and None otherwise; None is
    never a carrier element.  ``point_of_carrier`` sets it, and so do
    ``apply_map`` and ``pair_point`` on constant inputs.
    """

    __slots__ = ("carrier", "_fn", "_stages", "_value")

    def __init__(
        self, carrier: MetricCarrier, approx_fn: Callable[[int], object], value=None
    ):
        self.carrier = carrier
        self._fn = approx_fn
        self._stages: dict[int, object] = {}
        self._value = value

    def approx(self, n: int):
        if n < 0:
            raise ValueError("stage must be >= 0")
        stages = self._stages
        if n not in stages:
            stages[n] = self._fn(n)
        return stages[n]

    def to_json(self, depth: int):
        return {
            "stages": [repr(self.approx(n)) for n in range(depth + 1)],
            "depth": depth,
            "truncated": True,
        }


def point_of_carrier(carrier: MetricCarrier, x) -> CompletionPoint:
    """The image of a carrier element: a constant approximation sequence."""
    if not carrier.contains(x):
        raise ValueError(f"{x!r} is not a carrier element")
    return CompletionPoint(carrier, lambda _n: x, x)


def member_query(p: CompletionPoint, u: BallOpen, effort: int) -> Query:
    """Semi-decide membership of p in the ball open u.

    Yes iff some stage ball b(x_n, 2^-n), n <= effort, sits strictly inside
    a ball of u.  Boundary points answer NotYet forever.

    A point built constant (``_value`` set) is decided by stage ``effort``
    alone: its distance to each center is the same at every n, and the
    radius 2^-n is smallest at n = effort, so no earlier stage can succeed
    where that one fails.  ``deepest_stage`` gives the stage and margin
    behind a Yes; this loop stops at the first stage ball inside u.

    The test d + 2^-n < R is decided times the positive dd * rd * 2^n, as
    ``balls`` decides its rules, so no 2^-n is built.
    """
    if p.carrier.kind != u.carrier.kind:
        raise ValueError("point and open live over different carriers")
    if not u.balls:
        return Query.NOT_YET
    dist = p.carrier.dist
    for n in (effort,) if p._value is not None else range(effort, -1, -1):
        x = p.approx(n)
        for b in u.balls:
            r = b.radius
            d = dist(x, b.center)
            rd, dd = r.denominator, d.denominator
            # strict slack leaves room for a positive way-inside margin
            if ((d.numerator * rd) << n) + dd * rd < (r.numerator * dd) << n:
                return Query.YES
    return Query.NOT_YET


def deepest_stage(p: CompletionPoint, u: BallOpen, effort: int):
    """(margin, n) for the stage n <= effort whose ball sits deepest in u.

    Stage n's margin is ``slack(u, x_n) - 2^-n``; the largest positive one
    wins, the smallest n on a tie; None if no stage ball is inside u.
    ``member_query(p, u_q, effort)`` is Yes iff the margin exceeds q, for
    u_q shrinking each radius by q and dropping the balls with r <= q.  A
    point built constant counts stage ``effort`` alone, as in member_query.

    With s = sn/sd the margin is ((sn << n) - sd) / (sd << n); margins are
    compared as integer products, and the winner is built once.
    """
    if p.carrier.kind != u.carrier.kind:
        raise ValueError("point and open live over different carriers")
    if not u.balls:
        return None
    best = None
    num, den = 0, 1
    for n in (effort,) if p._value is not None else range(effort, -1, -1):
        s = slack(u, p.approx(n))
        if s is not None:
            sd = s.denominator
            mn, md = (s.numerator << n) - sd, sd << n
            # descending n: on a tie the smaller stage replaces the larger
            if mn > 0 and (best is None or mn * den >= num * md):
                num, den, best = mn, md, n
    return None if best is None else (Fraction(num, den), best)


def point_distance(p: CompletionPoint, q: CompletionPoint) -> UpperReal:
    """Sound upper real for the completion distance between two points.

    The raw bound at n is d(x_n, y_n) + 2^(1-n).  For two constant points
    (``_value`` set) it is d + 2^(1-n) with the same d at every n.  That
    falls strictly with n, so the upper real is ``decreasing`` and a query
    reads one raw bound.
    """
    if p.carrier.kind != q.carrier.kind:
        raise ValueError("points over different carriers")
    carrier = p.carrier
    if p._value is not None and q._value is not None:
        d = carrier.dist(p._value, q._value)
        return UpperReal(lambda n: d + half_pow(n - 1), decreasing=True)

    def bound(n):
        return carrier.dist(p.approx(n), q.approx(n)) + half_pow(n - 1)

    return UpperReal(bound)


def pair_point(p: CompletionPoint, q: CompletionPoint) -> CompletionPoint:
    """Componentwise point of the max-metric product of the two carriers."""
    prod = product_space(p.carrier, q.carrier)
    if p._value is not None and q._value is not None:
        return point_of_carrier(prod, (p._value, q._value))
    return CompletionPoint(prod, lambda n: (p.approx(n), q.approx(n)))


def limit_point(
    seq: Callable[[int], CompletionPoint],
    modulus: Callable[[Fraction], int],
) -> CompletionPoint:
    """Limit of a Cauchy sequence of points with a convergence modulus.

    modulus(eps) is a stage index k0 with pointDistance(seq k, seq l) < eps
    for all k, l >= k0.  The certificate is spot-checked at eps 1 and 1/2,
    on the pairs (k0, k0 + 1) and (k0, k0 + 2), reading distances at effort
    64; a violation raises CertificateError with the failing (eps, k, l).
    """
    first = seq(0)
    carrier = first.carrier

    for i in range(2):
        eps = half_pow(i)
        k0 = modulus(eps)
        pairs = [(k0, k0 + 1), (k0, k0 + 2)]
        for k, l in pairs:
            d = point_distance(seq(k), seq(l))
            if not d.less_than(eps, 64).is_yes:
                raise CertificateError(
                    "Cauchy certificate failed", (eps, k, l)
                )

    def approx(n):
        k = modulus(half_pow(n + 1))
        return seq(k).approx(n + 1)

    return CompletionPoint(carrier, approx)


# -- filter seeds ----------------------------------------------------------


@dataclass(frozen=True)
class FilterSeed:
    """Finite generators of a Cauchy filter (upward closure is implicit)."""

    generators: tuple[BallOpen, ...]
    regular: bool = False


def seed_member_query(f: FilterSeed, v: BallOpen) -> Query:
    """Semi-decide v's membership in the generated filter.

    Carrier distances are exact, so no effort is needed (``way_inside``
    ignores the 0 it is given).
    """
    for u in f.generators:
        if not u.balls:
            continue
        eps = min(b.radius for b in u.balls) / 4
        if way_inside(u, eps, v, 0).is_yes:
            return Query.YES
    return Query.NOT_YET


def regularize(f: FilterSeed, effort: int = 32) -> FilterSeed:
    """Shrink generators so each new one sits way inside an old one.

    Checks the meet-compatibility of the generators first (reporting the
    failing pair), and is idempotent: a regular seed is returned unchanged.
    Carrier distances are exact, so the result does not depend on effort.
    """
    if f.regular:
        return f
    gens = [g for g in f.generators if g.balls]
    for i, u in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if meet_witness(u, gens[j], effort) is None:
                raise CertificateError("no meet witness for generator pair", (i, j))
    # the smallest radius m = mn/md, compared as integer products
    mn, md = None, 1
    for g in gens:
        for b in g.balls:
            r = b.radius
            if mn is None or r.numerator * md < mn * r.denominator:
                mn, md = r.numerator, r.denominator
    shrunk = []
    for k, g in enumerate(gens):
        # eps = 2^-k * m / 4 = mn / (md << (k + 2)); each radius r - eps is
        # one Fraction built from integers
        ed = md << (k + 2)
        balls = []
        for b in g.balls:
            r = b.radius
            rd = r.denominator
            balls.append(FormalBall(b.center, Fraction(r.numerator * ed - mn * rd, rd * ed)))
        # the centers are g's, already checked
        shrunk.append(BallOpen._trusted(g.carrier, tuple(balls)))
    return FilterSeed(tuple(shrunk), regular=True)


def seed_of_point(p: CompletionPoint, depth: int) -> FilterSeed:
    """Stage-ball generators of a completion point, slightly fattened.

    The extra 2 * 2^-depth keeps pairwise overlaps strictly positive so
    meet witnesses are findable at the stage centers.
    """
    pad = 2 * half_pow(depth)
    gens = tuple(
        BallOpen.of(p.carrier, FormalBall(p.approx(n), half_pow(n) + pad))
        for n in range(depth + 1)
    )
    return FilterSeed(gens)
