"""Exact rational scalars: parsing, printing, dyadic helpers, a sqrt bound.

Every quantity in this library is a ``fractions.Fraction`` (or an int).
No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def half_pow(n: int) -> Fraction:
    """2^-n as an exact rational."""
    if n < 0:
        return Fraction(2 ** (-n))
    return Fraction(1, 2 ** n)


def stage_below(eps: Fraction) -> int:
    """Smallest n >= 0 with 2^-n < eps, read off the bit lengths of eps.

    With eps = p/q, 2^-n < eps iff p * 2^n > q.  The bit lengths put the
    answer at n0 or n0 + 1 for n0 = max(0, len(q) - len(p)).
    """
    p, q = eps.numerator, eps.denominator
    if p <= 0:
        raise ValueError(f"stage_below needs a positive rational, got {eps}")
    n0 = max(0, q.bit_length() - p.bit_length())
    return n0 if p << n0 > q else n0 + 1


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or a bare integer string / int, not a bool) into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        text = s.strip()
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise ValueError(f"not a rational: {s!r}")


def parse_int(s) -> int:
    """Parse a JSON integer (not a bool) or a decimal integer string."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if isinstance(s, str):
        text = s.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit():
            return int(text)
    raise ValueError(f"not an integer: {s!r}")


def rational_str(x: Fraction) -> str:
    """Serialize as "p/q"."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction) -> str:
    """Decimal rendering when the denominator is 2^a 5^b, else "p/q".

    A value that needs more than 40 fractional digits is printed as "p/q".
    """
    den = x.denominator
    d = den
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return rational_str(x)
    digits = max(twos, fives)
    if digits > 40:
        return rational_str(x)
    scaled = x * 10 ** digits
    assert scaled.denominator == 1
    n = scaled.numerator
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return f"{sign}{n}"
    whole, frac = divmod(n, 10 ** digits)
    frac_s = str(frac).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{frac_s}"


def sqrt_lower(x: Fraction, bits: int) -> Fraction:
    """Rational r with 0 <= r <= sqrt(x) and sqrt(x) - r <= 2^-bits.

    r = isqrt(floor(x * 4^bits)) / 2^bits, computed as
    ``isqrt((num << 2*bits) // den)`` on x = num/den (an int is num/1).
    """
    num = x.numerator
    if num < 0:
        raise ValueError("sqrt of negative rational")
    if not num:
        return Fraction(0)
    return Fraction(isqrt((num << 2 * bits) // x.denominator), 1 << bits)
