"""Carriers of pre-metric sets: decidable point sets with exact rational distances.

Provided constructors: the rational line, finite spaces from a distance
table, binary products (max metric), and the Gaussian rationals (the
product of two lines under its own kind).  A distance is an exact
``Fraction``; approximation lives one layer up, in completion-point stages
and upper reals.
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
class MetricCarrier:
    """A pre-metric point set with a decidable carrier and exact rational distance.

    ``kind`` is a structural descriptor used for carrier compatibility
    checks (two carriers agree iff their descriptors agree).
    """

    kind: tuple
    dist: Callable[[Any, Any], Fraction] = field(compare=False)
    contains: Callable[[Any], bool] = field(compare=False)
    sample: Callable[[random.Random], Any] = field(compare=False)
    points: Optional[tuple] = field(default=None, compare=False)
    midpoint: Optional[Callable[[Any, Any], Any]] = field(default=None, compare=False)
    components: Optional[tuple] = field(default=None, compare=False)

    def __repr__(self):
        return f"MetricCarrier(kind={self.kind!r})"


def rational_line() -> MetricCarrier:
    """The rational line with the archimedean distance |a - b|.

    ``dist`` subtracts two ``Fraction`` arguments as they are and converts
    anything else (an int, or a float stage of a user's point) exactly
    first, so every argument type gives the same exact value.
    """

    def dist(a, b):
        if type(a) is Fraction and type(b) is Fraction:
            return abs(a - b)
        return abs(Fraction(a) - Fraction(b))

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
    triangle inequality, naming the offending points.  ``dist`` is a
    lookup in the checked table.
    """
    if n < 1:
        raise ValueError("finite space needs at least one point")
    d = [[parse_rational(table[i][j]) for j in range(n)] for i in range(n)]
    # every check on integers: each entry scaled by the lcm of the
    # denominators, a positive factor, so zero, sign, equality and each
    # triangle keep their sense, and the first witness is the same
    scale = lcm(*(q.denominator for row in d for q in row))
    m = [[q.numerator * (scale // q.denominator) for q in row] for row in d]
    for i, mi in enumerate(m):
        if mi[i]:
            raise MetricAxiomError("nonzero diagonal", (i,))
        for j, mij in enumerate(mi):
            if mij < 0:
                raise MetricAxiomError("negative distance", (i, j))
            if mij != m[j][i]:
                raise MetricAxiomError("asymmetric distance", (i, j))
    for i, mi in enumerate(m):
        for j, mij in enumerate(mi):
            mj = m[j]
            for k in range(n):
                if mi[k] > mij + mj[k]:
                    raise MetricAxiomError("triangle inequality violated", (i, j, k))

    frozen = tuple(tuple(row) for row in d)

    def dist(a, b):
        return frozen[a][b]

    return MetricCarrier(
        kind=("finite", frozen),
        dist=dist,
        contains=lambda x: type(x) is not bool and isinstance(x, int) and 0 <= x < n,
        sample=lambda rng: rng.randrange(n),
        points=tuple(range(n)),
    )


def finite_space_from_json(payload) -> MetricCarrier:
    """Ingest {"n": int, "d": [[..]]} with entries as "p/q" strings or numbers.

    ``d`` must be an n-by-n JSON array.  A missing ``n``, or a ``d`` or a
    row ``d[i]`` of another shape, raises ``ValueError`` naming the field.
    """
    if "n" not in payload:
        raise ValueError("carrier.n is missing")
    n, table = parse_int(payload["n"]), payload.get("d")
    if n < 1:
        raise ValueError("finite space needs at least one point")
    if not isinstance(table, list) or len(table) != n:
        raise ValueError(f"carrier.d must be a JSON array of {n} rows")
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"carrier.d[{i}] must be a JSON array of {n} entries")
    return finite_space(n, table)


def product_space(left: MetricCarrier, right: MetricCarrier) -> MetricCarrier:
    """Binary product under the max metric; elements are pairs."""

    def dist(a, b):
        return max(left.dist(a[0], b[0]), right.dist(a[1], b[1]))

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
