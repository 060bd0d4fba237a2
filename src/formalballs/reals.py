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

A folded result is built by ``_constant``, which skips the carrier's
``contains`` check.  It needs none: a line point's ``_value`` is set only
by ``point_of_carrier``, which checks it, or by ``_constant`` itself, so
by induction every operand value is an int (not a bool) or a ``Fraction``.
Sums, differences, products, negations, absolute values, maxima and minima
of those, and ``Fraction(n, d)`` of two ints, are again ints or
``Fraction``s, and the line contains every one of them.  ``real_of_rational``
builds through it too, after ``parse_rational``, which returns only
``Fraction``s.  ``point_of_carrier`` stays the constructor for a value of
unknown type.

A complex dot product of constant points (``dot_c``) is folded as a whole,
in integers: the products are summed as unnormalised numerator/denominator
pairs, and the sum is normalised into a ``Fraction`` once.  The folded loop
of ``mul_c``/``add_c`` would reach the same exact rational one normalised
step at a time, and equal rationals are equal ``Fraction``s, so the answer
and every error are unchanged.  That loop bounds each term by
b = max(1, floor|c|) + 2 over its four coordinates c, so each has
|c| < floor|c| + 1 <= b - 1 and |c| + 2^-16 <= b: no certification of a
constant term can fail, and the fold runs none.  So a term whose two x
coordinates are 0 is skipped before its y coordinates are read: each of
its four products is 0.  A product of two constant complex points
(``mul_c``) certifies its four coordinates as ``mul_r`` would, then folds
as a dot product of one term.

Every stage is a ``Fraction`` (or an int), but the hot readouts compute on
its numerator and denominator: the bound checks of ``_certify_bound`` and
``mul_r`` compare integers scaled by the positive denominator, and
``modulus_interval`` forms floor(|z|^2 4^bits) of its rational enclosure
from one common denominator and builds each endpoint ``Fraction`` once.
These are exact rewrites, not roundings: a comparison scaled by a positive
integer keeps its sense, and floor(N/D) depends only on the rational N/D,
not on which pair represents it, so every endpoint equals the one the
``Fraction`` formula gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable

from .carriers import rational_line
from .completion import CompletionPoint
from .numbers import parse_rational
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


def _constant(value) -> RealPoint:
    """The constant point of a line element: ``value`` is an int (not a
    bool) or a ``Fraction``, so the ``contains`` check is skipped."""
    return RealPoint(CompletionPoint(LINE, lambda _n: value, value))


def real_of_rational(q) -> RealPoint:
    return _constant(parse_rational(q))


def complex_of_rational(re, im=0) -> ComplexPoint:
    return ComplexPoint(real_of_rational(re), real_of_rational(im))


def add_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _constant(p.underlying._value + q.underlying._value)
    # operand stages n+2: the two 2^-(n+2) errors sum below 2^-n
    return _real(lambda n: p.approx(n + 2) + q.approx(n + 2))


def neg_r(p: RealPoint) -> RealPoint:
    if p.underlying._value is not None:
        return _constant(-p.underlying._value)
    return _real(lambda n: -p.approx(n))


def sub_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _constant(p.underlying._value - q.underlying._value)
    return _real(lambda n: p.approx(n + 2) - q.approx(n + 2))


def abs_r(p: RealPoint) -> RealPoint:
    if p.underlying._value is not None:
        return _constant(abs(p.underlying._value))
    return _real(lambda n: abs(p.approx(n)))


def max_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _constant(max(p.underlying._value, q.underlying._value))
    return _real(lambda n: max(p.approx(n), q.approx(n)))


def min_r(p: RealPoint, q: RealPoint) -> RealPoint:
    if p.underlying._value is not None and q.underlying._value is not None:
        return _constant(min(p.underlying._value, q.underlying._value))
    return _real(lambda n: min(p.approx(n), q.approx(n)))


def _fits(num: int, den: int, bound: int, m: int = 16) -> bool:
    """|num/den| + 2^-m <= bound, for den > 0, checked in integers.

    Both sides are scaled by den * 2^m; the rule needs an int ``bound``.
    """
    return (abs(num) << m) + den <= (bound * den) << m


def _certify_bound(p: RealPoint, bound: int) -> None:
    """Raise unless |stage m| + 2^-m <= bound at one of m = 4, 8, 16.

    Each stage s = num/den is checked in integers as
    (|num| << m) + den <= (bound * den) << m (``_fits``), which is the
    rational rule scaled by den * 2^m.  For a constant c every stage is c
    and 2^-m is smallest at m = 16, so the rule is |c| + 2^-16 <= bound.
    A ``bound`` below 1 raises ``ValueError`` before any stage is read.
    """
    if bound < 1:
        raise ValueError("multiplication bound must be a positive integer")
    c = p.underlying._value
    if c is not None:
        if _fits(c.numerator, c.denominator, bound):
            return
    else:
        for m in (4, 8, 16):
            s = p.approx(m)
            if _fits(s.numerator, s.denominator, bound, m):
                return
    raise BoundViolation(f"could not certify |value| <= {bound}")


def mul_r(p: RealPoint, q: RealPoint, bound: int) -> RealPoint:
    """Product of two reals, each certified to satisfy |factor| <= bound.

    Stage n reads both factors k extra bits deep, k the bit length of
    2*bound + 2, so the product error stays below 2^-(n+1).  Each factor
    stage a is checked against the bound as |a.numerator| > bound *
    a.denominator, the rule |a| > bound times the positive denominator.

    Both certifications (``_certify_bound``, which also rejects a bound
    below 1) run first, so every error is raised as for any other factors.
    Then two constant factors fold to the constant point of their product:
    each stage would be c1 * c2, and the per-stage ``BoundViolation`` check
    cannot fire, because a certified constant has |c| + 2^-16 <= bound.
    """
    _certify_bound(p, bound)
    _certify_bound(q, bound)
    if p.underlying._value is not None and q.underlying._value is not None:
        return _constant(p.underlying._value * q.underlying._value)
    k = (2 * bound + 2).bit_length()

    def stage(n):
        m = n + 1 + k
        a = p.approx(m)
        b = q.approx(m)
        if (abs(a.numerator) > bound * a.denominator
                or abs(b.numerator) > bound * b.denominator):
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
        return _constant(c * p.underlying._value)
    k = max(1, abs(c).__ceil__()).bit_length()
    return _real(lambda n: c * p.approx(n + k))


# -- complex arithmetic ----------------------------------------------------


def add_c(a: ComplexPoint, b: ComplexPoint) -> ComplexPoint:
    return ComplexPoint(add_r(a.re, b.re), add_r(a.im, b.im))


def conj_c(a: ComplexPoint) -> ComplexPoint:
    return ComplexPoint(a.re, neg_r(a.im))


def mul_c(a: ComplexPoint, b: ComplexPoint, bound: int) -> ComplexPoint:
    """(re im) product with all four coordinate factors bounded by ``bound``.

    On four constant coordinates each is certified by ``_certify_bound`` in
    the order of the ``mul_r`` steps (a.re, b.re, a.im, b.im), so every
    error is theirs; then the product is a one-term ``_dot_values``, the
    value of the folded ``mul_r``/``sub_r``/``add_r`` steps.  Int
    coordinates give ints, as those steps do.  A ``None`` bound raises
    ``TypeError`` on every path; the default bound is ``dot_c``'s alone.
    """
    if bound is None:
        raise TypeError("mul_c needs an int bound, got None")
    xr, xi = a.re.underlying._value, a.im.underlying._value
    yr, yi = b.re.underlying._value, b.im.underlying._value
    if xr is not None and xi is not None and yr is not None and yi is not None:
        for p in (a.re, b.re, a.im, b.im):
            _certify_bound(p, bound)
        re, im = _dot_values(((xr, xi, yr, yi),))
        if not any(isinstance(c, Fraction) for c in (xr, xi, yr, yi)):
            re, im = re.numerator, im.numerator
        return ComplexPoint(_constant(re), _constant(im))
    re = sub_r(mul_r(a.re, b.re, bound), mul_r(a.im, b.im, bound))
    im = add_r(mul_r(a.re, b.im, bound), mul_r(a.im, b.re, bound))
    return ComplexPoint(re, im)


def coord_bound(*points: ComplexPoint) -> int:
    """A small certified integer bound on every coordinate of the points."""
    worst = Fraction(1)
    for z in points:
        re, im = z.approx(4)
        worst = max(worst, abs(re), abs(im))
    return int(worst) + 2


def _add_pair(n1: int, d1: int, n2: int, d2: int):
    """n1/d1 + n2/d2 as an unnormalised numerator/denominator pair."""
    if d1 == d2:
        return n1 + n2, d1
    return n1 * d2 + n2 * d1, d1 * d2


def _dot_values(terms):
    """Exact (re, im) of the sum of x * y over constant terms (xr, xi, yr, yi).

    Nothing is certified here: ``mul_c`` certifies its one term first, and
    no term of ``dot_c`` can fail (see the module docstring).  A term with
    x = 0 adds nothing and is skipped.  The products are summed as
    unnormalised integer pairs and normalised once, at the end.
    """
    rn = imn = 0
    rd = imd = 1
    for xr, xi, yr, yi in terms:
        an, bn = xr.numerator, xi.numerator
        if not an and not bn:
            continue
        ad, bd = xr.denominator, xi.denominator
        cn, cd, dn, dd = yr.numerator, yr.denominator, yi.numerator, yi.denominator
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i; zero products add nothing
        if an and cn:
            rn, rd = _add_pair(rn, rd, an * cn, ad * cd)
        if bn and dn:
            rn, rd = _add_pair(rn, rd, -bn * dn, bd * dd)
        if an and dn:
            imn, imd = _add_pair(imn, imd, an * dn, ad * dd)
        if bn and cn:
            imn, imd = _add_pair(imn, imd, bn * cn, bd * cd)
    return Fraction(rn, rd), Fraction(imn, imd)


def dot_c(xs, ys) -> ComplexPoint:
    """Sum of x_i * y_i over the pairs of two sequences of complex points.

    Each product is a ``mul_c`` with factor bound ``coord_bound(x_i, y_i)``,
    added onto a running ``add_c`` sum from 0.  When every coordinate of
    every term is constant, the sum is folded in integers instead (see the
    module docstring) and returned as one constant point; the fold
    certifies nothing, because no certification of a constant term can fail
    under that bound.  Sequences of unequal lengths raise ``ValueError``
    before any stage is read.
    """
    if len(xs) != len(ys):
        raise ValueError(f"dot product of sequences of lengths {len(xs)} and {len(ys)}")
    terms = []
    for x, y in zip(xs, ys):
        xr, xi = x.re.underlying._value, x.im.underlying._value
        yr, yi = y.re.underlying._value, y.im.underlying._value
        if xr is None or xi is None or yr is None or yi is None:
            break
        terms.append((xr, xi, yr, yi))
    else:
        re, im = _dot_values(terms)
        return ComplexPoint(_constant(re), _constant(im))
    acc = complex_of_rational(0)
    for x, y in zip(xs, ys):
        acc = add_c(acc, mul_c(x, y, coord_bound(x, y)))
    return acc


def modulus_interval(a: ComplexPoint, n: int):
    """Two-sided rational enclosure of |a| with width about 2^-n.

    With m = n + 2, stages x, y at m and err = 2^-m, let
    hi2 = (|x| + err)^2 + (|y| + err)^2 and lo2 the same with each
    |x| - err clamped at 0.  With s = 2^(m+2), the enclosure is
    isqrt(floor(lo2 s^2)) / s and (isqrt(floor(hi2 s^2)) + 1) / s: below
    and above the square roots, each within 1/s.  It is computed in
    integers: over the common denominator L of x = u/b and y = v/d,
    |x| + err = hx / (L 2^m) with hx = (|u| 2^m + b) L/b, so
    floor(hi2 s^2) = ((hx^2 + hy^2) << 4) // L^2, a shift when L is a
    power of two.  The floor of a rational does not depend on the pair
    that represents it, so the endpoints equal the ``Fraction`` formula's.
    """
    m = n + 2
    x = a.re.approx(m)
    y = a.im.approx(m)
    xn, b = abs(x.numerator) << m, x.denominator
    yn, d = abs(y.numerator) << m, y.denominator
    den = b if b == d else lcm(b, d)
    fx, fy = den // b, den // d
    hx, hy = (xn + b) * fx, (yn + d) * fy
    lx, ly = max(0, xn - b) * fx, max(0, yn - d) * fy
    hi = (hx * hx + hy * hy) << 4
    lo = (lx * lx + ly * ly) << 4
    if den & (den - 1):
        den2 = den * den
        hi //= den2
        lo //= den2
    else:  # den = 2^j: dividing by den^2 is a shift by 2j
        shift = 2 * (den.bit_length() - 1)
        hi >>= shift
        lo >>= shift
    scale = 1 << (m + 2)
    return Fraction(isqrt(lo), scale), Fraction(isqrt(hi) + 1, scale)


def modulus_c(a: ComplexPoint) -> UpperReal:
    """Sound upper real for |a| = sqrt(re^2 + im^2)."""
    return UpperReal(lambda n: modulus_interval(a, n)[1])
