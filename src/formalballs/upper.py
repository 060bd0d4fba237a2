"""Upper reals: values known only through effort-indexed rational upper bounds.

An ``UpperReal`` denotes the infimum of its bound sequence.  Queries are
semi-decisions: ``less_than`` can answer Yes (definitive) or NotYet, and Yes
answers are monotone in effort.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable


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
    answers from ``_best`` when the entry exists and otherwise searches the
    raw bounds from its effort downward, stopping at the first one below
    the threshold, so a Yes costs as few stages as the answer allows.

    ``value`` is the bound at every effort when the caller knows one
    (``of_rational``), and None otherwise.  Every running minimum is then
    that value, so ``bound`` and ``less_than`` answer from ``_value``
    without evaluating a raw bound.

    ``decreasing=True`` promises that the raw bounds never rise with
    effort, so the running minimum at effort e is the raw bound at e, and
    ``bound`` and ``less_than`` read that one raw bound.  Only
    ``completion.point_distance`` sets it, for two constant points at an
    exact distance d, where the raw bound d + 2^(1-n) falls strictly.
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
            best.append(raw if e == 0 else min(best[-1], raw))
        return best[effort]

    def less_than(self, q: Fraction, effort: int) -> Query:
        """Semi-decide "value < q" for positive rational q.

        Yes iff some raw bound at effort k <= effort is below q, which is
        the same predicate as ``bound(effort) < q``.
        """
        if q <= 0:
            raise ValueError("threshold must be a positive rational")
        if effort < 0:
            raise ValueError("effort must be >= 0")
        if self._value is not None:
            return Query.YES if self._value < q else Query.NOT_YET
        if self._decreasing:
            return Query.YES if self._raw_bound(effort) < q else Query.NOT_YET
        built = len(self._best)
        if effort < built:
            return Query.YES if self._best[effort] < q else Query.NOT_YET
        for k in range(effort, built - 1, -1):
            if self._raw_bound(k) < q:
                return Query.YES
        if built and self._best[built - 1] < q:
            return Query.YES
        self.bound(effort)  # every raw bound up to effort is known: keep the minima
        return Query.NOT_YET

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_rational(q: Fraction) -> "UpperReal":
        if q < 0:
            raise ValueError("upper real of a negative rational")
        return UpperReal(lambda _e: q, q)

    def __repr__(self):
        return f"UpperReal(bound0={self.bound(0)!r})"
