"""Exact real and complex points as completions of the rational carriers.

A real point wraps a completion point over the rational line; stage n is
an exact rational within 2^-n of the value.  Arithmetic is implemented as
stage arithmetic with explicit accuracy bookkeeping; multiplication needs
a caller-supplied integer bound on both factors, certified at build time
and re-checked at every evaluation of a product that is not folded.

Constants are folded: when every operand's underlying point is constant,
an operator returns the constant point of its exact result instead of a
stage function.  This is exact, not an approximation: on constant
operands c1, c2 each operator's stage function yields op(c1, c2) at every
stage, whatever extra depth it reads its operands at, so the folded point
has the same stages.  A point is constant when it is built as one: its
``_value`` slot then holds the element (see ``CompletionPoint``).  Folding
reads that slot as a plain attribute, not through a property, because
every operator of every expression reads it; it never evaluates a stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .carriers import rational_line
from .completion import CompletionPoint, point_of_carrier
from .numbers import half_pow, parse_rational, sqrt_lower, sqrt_upper
from .upper import UpperReal

LINE = rational_line()


class BoundViolation(ArithmeticError):
    """A factor escaped its certified bound during evaluation."""


@dataclass(frozen=True)
class RealPoint:
    """An exact real: completion point over the rational line."""

    underlying: CompletionPoint

    def approx(self, n: int) -> Fraction:
        """Rational within 2^-n of the value."""
        return self.underlying.approx(n)


@dataclass(frozen=True)
class ComplexPoint:
    """An exact complex number as a pair of exact reals (max metric)."""

    re: RealPoint
    im: RealPoint

    def approx(self, n: int):
        return (self.re.approx(n), self.im.approx(n))


def _real(fn: Callable[[int], Fraction]) -> RealPoint:
    return RealPoint(CompletionPoint(LINE, fn))


def real_of_rational(q) -> RealPoint:
    q = parse_rational(q)
    return RealPoint(point_of_carrier(LINE, q))


def complex_of_rational(re, im=0) -> ComplexPoint:
    return ComplexPoint(real_of_rational(re), real_of_rational(im))


def _folded(value) -> RealPoint:
    """The constant point of an exact result of constant operands."""
    return RealPoint(point_of_carrier(LINE, value))


def add_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _folded(p.underlying._value + q.underlying._value)
    # operand stages n+2: the two 2^-(n+2) errors sum below 2^-n
    return _real(lambda n: p.approx(n + 2) + q.approx(n + 2))


def neg_r(p: RealPoint) -> RealPoint:
    if p.underlying._value is not None:
        return _folded(-p.underlying._value)
    return _real(lambda n: -p.approx(n))


def sub_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _folded(p.underlying._value - q.underlying._value)
    return _real(lambda n: p.approx(n + 2) - q.approx(n + 2))


def abs_r(p: RealPoint) -> RealPoint:
    if p.underlying._value is not None:
        return _folded(abs(p.underlying._value))
    return _real(lambda n: abs(p.approx(n)))


def max_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _folded(max(p.underlying._value, q.underlying._value))
    return _real(lambda n: max(p.approx(n), q.approx(n)))


def min_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _folded(min(p.underlying._value, q.underlying._value))
    return _real(lambda n: min(p.approx(n), q.approx(n)))


def _certify_bound(p: RealPoint, bound: int) -> None:
    """Raise unless |stage m| + 2^-m <= bound at one of m = 4, 8, 16.

    For a constant c every stage is c and 2^-m is smallest at m = 16, so
    the rule is |c| + 2^-16 <= bound, checked here in integers.
    """
    c = p.underlying._value
    if c is not None:
        den = c.denominator
        if (abs(c.numerator) << 16) + den <= (bound * den) << 16:
            return
    else:
        for m in (4, 8, 16):
            if abs(p.approx(m)) + half_pow(m) <= bound:
                return
    raise BoundViolation(f"could not certify |value| <= {bound}")


def mul_r(p: RealPoint, q: RealPoint, bound: int) -> RealPoint:
    """Product of two reals, each certified to satisfy |factor| <= bound.

    Stage n reads both factors k extra bits deep, k the bit length of
    2*bound + 2, so the product error stays below 2^-(n+1).

    The bound check and both certifications run first, so every error is
    raised as for any other factors.  Then two constant factors fold to the
    constant point of their product: each stage would be c1 * c2, and the
    per-stage ``BoundViolation`` check cannot fire, because a certified
    constant has |c| + 2^-16 <= bound.
    """
    if bound < 1:
        raise ValueError("multiplication bound must be a positive integer")
    _certify_bound(p, bound)
    _certify_bound(q, bound)
    if p.underlying._value is not None and q.underlying._value is not None:
        return _folded(p.underlying._value * q.underlying._value)
    k = (2 * bound + 2).bit_length()

    def stage(n):
        m = n + 1 + k
        a = p.approx(m)
        b = q.approx(m)
        if abs(a) > bound or abs(b) > bound:
            raise BoundViolation(
                f"factor stage {m} escaped the certified bound {bound}"
            )
        return a * b

    return _real(stage)


def scale_r(p: RealPoint, c) -> RealPoint:
    """Multiplication by a rational constant (no bound needed)."""
    c = parse_rational(c)
    if c == 0:
        return real_of_rational(0)
    if p.underlying._value is not None:
        return _folded(c * p.underlying._value)
    k = max(1, abs(c).__ceil__()).bit_length()
    return _real(lambda n: c * p.approx(n + k))


# -- complex arithmetic ----------------------------------------------------


def add_c(a: ComplexPoint, b: ComplexPoint) -> ComplexPoint:
    return ComplexPoint(add_r(a.re, b.re), add_r(a.im, b.im))


def neg_c(a: ComplexPoint) -> ComplexPoint:
    return ComplexPoint(neg_r(a.re), neg_r(a.im))


def conj_c(a: ComplexPoint) -> ComplexPoint:
    return ComplexPoint(a.re, neg_r(a.im))


def mul_c(a: ComplexPoint, b: ComplexPoint, bound: int) -> ComplexPoint:
    """(re im) product with all four coordinate factors bounded by ``bound``."""
    re = sub_r(mul_r(a.re, b.re, bound), mul_r(a.im, b.im, bound))
    im = add_r(mul_r(a.re, b.im, bound), mul_r(a.im, b.re, bound))
    return ComplexPoint(re, im)


def modulus_interval(a: ComplexPoint, n: int):
    """Two-sided rational enclosure of |a| with width about 2^-n."""
    m = n + 2
    x = abs(a.re.approx(m))
    y = abs(a.im.approx(m))
    err = half_pow(m)
    hi2 = (x + err) ** 2 + (y + err) ** 2
    lo_x = max(Fraction(0), x - err)
    lo_y = max(Fraction(0), y - err)
    lo2 = lo_x ** 2 + lo_y ** 2
    return sqrt_lower(lo2, m + 2), sqrt_upper(hi2, m + 2)


def modulus_c(a: ComplexPoint) -> UpperReal:
    """Sound upper real for |a| = sqrt(re^2 + im^2)."""
    return UpperReal(lambda n: modulus_interval(a, n)[1])
