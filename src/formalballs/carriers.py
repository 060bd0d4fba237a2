"""Carriers of pre-metric sets: decidable point sets with interval distances.

Provided constructors: the rational line, finite spaces from a distance
table, binary products (max metric), and the Gaussian rationals (the
product of two lines under its own kind).  Distances are returned as
nested rational intervals indexed by effort; for the primitive carriers
the interval is exact already at effort 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Optional

from .numbers import parse_int, parse_rational


class MetricAxiomError(ValueError):
    """A distance table violates a metric axiom; carries the offending points."""

    def __init__(self, message: str, witness):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class Interval:
    """Rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class MetricCarrier:
    """A pre-metric point set with a decidable carrier and interval distance.

    ``kind`` is a structural descriptor used for carrier compatibility
    checks (two carriers agree iff their descriptors agree).
    """

    kind: tuple
    dist: Callable[[Any, Any, int], Interval] = field(compare=False)
    contains: Callable[[Any], bool] = field(compare=False)
    sample: Callable[[random.Random], Any] = field(compare=False)
    points: Optional[tuple] = field(default=None, compare=False)
    midpoint: Optional[Callable[[Any, Any], Any]] = field(default=None, compare=False)
    components: Optional[tuple] = field(default=None, compare=False)

    def __repr__(self):
        return f"MetricCarrier(kind={self.kind!r})"


def _exact(d: Fraction) -> Interval:
    return Interval(d, d)


def rational_line() -> MetricCarrier:
    """The rational line with the archimedean distance |a - b|."""

    def dist(a, b, _effort):
        return _exact(abs(Fraction(a) - Fraction(b)))

    def sample(rng: random.Random):
        return Fraction(rng.randint(-32, 32), rng.choice([1, 2, 3, 4, 8]))

    def midpoint(a, b):
        return (Fraction(a) + Fraction(b)) / 2

    return MetricCarrier(
        kind=("line",),
        dist=dist,
        contains=lambda x: type(x) is not bool and isinstance(x, (int, Fraction)),
        sample=sample,
        midpoint=midpoint,
    )


def finite_space(n: int, table) -> MetricCarrier:
    """Finite carrier {0..n-1} with exact distances from a symmetric table.

    Rejects tables violating symmetry, zero diagonal, non-negativity or the
    triangle inequality, naming the offending points.  The n^2 exact
    intervals are built once here, so ``dist`` is a table lookup; an
    ``Interval`` is frozen, so sharing one between calls is safe.
    """
    if n < 1:
        raise ValueError("finite space needs at least one point")
    d = [[parse_rational(table[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if d[i][i] != 0:
            raise MetricAxiomError("nonzero diagonal", (i,))
        for j in range(n):
            if d[i][j] < 0:
                raise MetricAxiomError("negative distance", (i, j))
            if d[i][j] != d[j][i]:
                raise MetricAxiomError("asymmetric distance", (i, j))
    # the triangle check on integers: every entry scaled by the lcm of the
    # denominators; the first witness in (i, j, k) order is the same
    scale = lcm(*(q.denominator for row in d for q in row))
    m = [[q.numerator * (scale // q.denominator) for q in row] for row in d]
    for i, mi in enumerate(m):
        for j, mij in enumerate(mi):
            mj = m[j]
            for k in range(n):
                if mi[k] > mij + mj[k]:
                    raise MetricAxiomError("triangle inequality violated", (i, j, k))

    frozen = tuple(tuple(row) for row in d)
    rows = tuple(tuple(_exact(q) for q in row) for row in frozen)

    def dist(a, b, _effort):
        return rows[a][b]

    return MetricCarrier(
        kind=("finite", frozen),
        dist=dist,
        contains=lambda x: type(x) is not bool and isinstance(x, int) and 0 <= x < n,
        sample=lambda rng: rng.randrange(n),
        points=tuple(range(n)),
    )


def finite_space_from_json(payload) -> MetricCarrier:
    """Ingest {"n": int, "d": [[..]]} with entries as "p/q" strings or numbers."""
    return finite_space(parse_int(payload["n"]), payload["d"])


def product_space(left: MetricCarrier, right: MetricCarrier) -> MetricCarrier:
    """Binary product under the max metric; elements are pairs."""

    def dist(a, b, effort):
        dl = left.dist(a[0], b[0], effort)
        dr = right.dist(a[1], b[1], effort)
        return Interval(max(dl.lo, dr.lo), max(dl.hi, dr.hi))

    def sample(rng: random.Random):
        return (left.sample(rng), right.sample(rng))

    points = None
    if left.points is not None and right.points is not None:
        points = tuple((a, b) for a in left.points for b in right.points)

    midpoint = None
    if left.midpoint is not None and right.midpoint is not None:
        lm, rm = left.midpoint, right.midpoint
        midpoint = lambda a, b: (lm(a[0], b[0]), rm(a[1], b[1]))

    return MetricCarrier(
        kind=("product", left.kind, right.kind),
        dist=dist,
        contains=lambda x: isinstance(x, tuple)
        and len(x) == 2
        and left.contains(x[0])
        and right.contains(x[1]),
        sample=sample,
        points=points,
        midpoint=midpoint,
        components=(left, right),
    )


def gaussian_rationals() -> MetricCarrier:
    """Q[i] as pairs (re, im) of rationals under the max metric.

    The product of two rational lines under its own kind, so it shares the
    product's checked ``contains``, ``dist`` and ``midpoint``.  It has no
    ``components``: it is one carrier, not a product to project from.
    """
    line = rational_line()
    return replace(product_space(line, line), kind=("gaussian",), components=None)
