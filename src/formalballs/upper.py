"""Upper reals: values known only through effort-indexed rational upper bounds.

An ``UpperReal`` denotes the infimum of its bound sequence.  Queries are
semi-decisions: ``less_than`` can answer Yes (definitive) or NotYet, and Yes
answers are monotone in effort.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable

from .numbers import parse_rational


class Query(enum.Enum):
    YES = "yes"
    NOT_YET = "not-yet"

    @property
    def is_yes(self) -> bool:
        return self is Query.YES

    @property
    def label(self) -> str:
        return "Yes" if self is Query.YES else "NotYet"


class UpperReal:
    """A point of the one-sided line of upper bounds.

    ``bound_fn`` maps effort (a natural number) to a rational upper
    bound.  Monotonicity is enforced internally: the effective bound at
    effort e is the minimum of the raw bounds at efforts 0..e, so Yes
    answers can never be retracted at higher effort.

    Each raw bound is computed at most once and kept in a per-instance
    dict; ``_best`` holds the running minima built so far.  ``less_than``
    searches the raw bounds from its effort down to the built prefix,
    stopping at the first one below the threshold, so a Yes costs as few
    stages as the answer allows; otherwise it compares ``bound(effort)``.

    ``decreasing=True`` promises that the raw bounds never rise with
    effort, so the running minimum at effort e is the raw bound at e, and
    ``bound`` reads that one raw bound and ``less_than`` skips its search.
    ``completion.point_distance`` sets it for two constant points at
    distance d, where the raw bound d + 2^(1-n) falls strictly, and
    ``of_rational`` sets it together with ``value``: the bound at every
    effort, which ``bound`` returns without evaluating a raw bound.

    Raw bounds, running minima and thresholds are rationals, compared as
    integer products: a/b < c/d iff a*d < c*b for positive b, d.
    """

    __slots__ = ("_fn", "_raw", "_best", "_value", "_decreasing")

    def __init__(
        self, bound_fn: Callable[[int], Fraction], value=None, decreasing=False
    ):
        self._fn = bound_fn
        self._raw: dict[int, Fraction] = {}
        self._best: list[Fraction] = []
        self._value = value
        self._decreasing = decreasing

    def _raw_bound(self, e: int) -> Fraction:
        raw = self._raw
        if e not in raw:
            raw[e] = self._fn(e)
        return raw[e]

    def bound(self, effort: int) -> Fraction:
        if effort < 0:
            raise ValueError("effort must be >= 0")
        if self._value is not None:
            return self._value
        if self._decreasing:
            return self._raw_bound(effort)
        best = self._best
        while len(best) <= effort:
            e = len(best)
            raw = self._raw_bound(e)
            if e:
                # min(prev, raw): raw replaces prev only when strictly below
                prev = best[-1]
                if raw.numerator * prev.denominator >= prev.numerator * raw.denominator:
                    raw = prev
            best.append(raw)
        return best[effort]

    def less_than(self, q: Fraction, effort: int) -> Query:
        """Semi-decide "value < q" for positive rational q.

        Yes iff some raw bound at effort k <= effort is below q, which is
        the same predicate as ``bound(effort) < q``.  ``q`` is read by
        ``parse_rational``, so a float or a bool raises ``ValueError``.
        """
        q = parse_rational(q)
        qn, qd = q.numerator, q.denominator
        if qn <= 0:
            raise ValueError("threshold must be a positive rational")
        if not self._decreasing:
            for k in range(effort, len(self._best) - 1, -1):
                raw = self._raw_bound(k)
                if raw.numerator * qd < qn * raw.denominator:
                    return Query.YES
        b = self.bound(effort)
        return Query.YES if b.numerator * qd < qn * b.denominator else Query.NOT_YET

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_rational(q: Fraction) -> "UpperReal":
        """The constant upper real q, for q >= 0 read by ``parse_rational``."""
        q = parse_rational(q)
        if q.numerator < 0:
            raise ValueError("upper real of a negative rational")
        return UpperReal(lambda _e: q, q, decreasing=True)

    def __repr__(self):
        return f"UpperReal(bound0={self.bound(0)!r})"
