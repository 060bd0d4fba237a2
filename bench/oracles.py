"""Independent answer checks for the benchmark, in plain ``Fraction`` and integer arithmetic.

Nothing here imports ``formalballs``: every oracle recomputes the expected
answer (or a sound enclosure of it) from the generated input alone, so a
change in the library cannot move the yardstick it is measured against.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

# -- rationals and the library's text forms --------------------------------


def qstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_REPR = re.compile(r"Fraction\((-?\d+), (\d+)\)$")


def parse_repr(text: str):
    """Inverse of ``repr`` for the centers the library serialises (Fraction or int)."""
    m = _REPR.match(text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2)))
    return Fraction(int(text))


def parse_readout(text: str):
    """Split ``"<value> ± 2^-<bits>"`` into (Fraction value, bits)."""
    value, err = text.split(" ± 2^-")
    return Fraction(value), int(err)


def within(value: Fraction, exact: Fraction, bits: int) -> bool:
    return abs(value - exact) <= Fraction(1, 1 << bits)


# -- finite metric spaces: brute-force denotation ---------------------------


def min_plus_closure(n: int, rng) -> list:
    """Random metric on n points in half units: random weights, then shortest paths."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(2, 32)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return [[Fraction(x, 2) for x in row] for row in d]


def denote(table, balls) -> frozenset:
    """Points of a finite space strictly inside some ball (center, radius)."""
    n = len(table)
    return frozenset(
        x for x in range(n) if any(table[x][c] < r for c, r in balls)
    )


def diameter(table, pts) -> Fraction:
    pts = sorted(pts)
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            best = max(best, table[a][b])
    return best


def fatten(table, pts, q: Fraction) -> frozenset:
    n = len(table)
    return frozenset(y for y in range(n) if any(table[x][y] < q for x in pts))


def diameter_formula(dist, balls) -> Fraction:
    """The documented ball-level diameter bound with exact distances."""
    best = Fraction(0)
    for i, (ci, ri) in enumerate(balls):
        best = max(best, 2 * ri)
        for cj, rj in balls[i + 1 :]:
            best = max(best, dist(ci, cj) + ri + rj)
    return best


def dominated(dist, u, eps: Fraction, v) -> bool:
    """Single-ball domination: every ball of u fits in one ball of v with margin eps."""
    return all(
        any(dist(cu, cv) + ru + eps <= rv for cv, rv in v) for cu, ru in u
    )


# -- integer interval arithmetic for exact reals ----------------------------
#
# An enclosure (lo, hi) of integers at scale K stands for the real interval
# [lo * 2^-K, hi * 2^-K].  Every operation rounds outward, so the true value
# of an expression always lies in its enclosure.


def iv_rational(q: Fraction, k: int):
    num = q.numerator << k
    return (num // q.denominator, -((-num) // q.denominator))


def iv_sqrt(q: Fraction, k: int):
    s = isqrt((q.numerator << (2 * k)) // q.denominator)
    return (s, s + 1)


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def iv_neg(a):
    return (-a[1], -a[0])


def iv_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return (-a[1], -a[0])
    return (0, max(-a[0], a[1]))


def iv_max(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def iv_min(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]))


def iv_mul(a, b, k: int):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p) >> k, -((-max(p)) >> k))


def iv_sq(a, k: int):
    return iv_mul(iv_abs(a), iv_abs(a), k)


def iv_magnitude(a, k: int) -> Fraction:
    """An upper bound on |x| over the enclosure."""
    return Fraction(max(abs(a[0]), abs(a[1])), 1 << k)


def iv_readout_ok(a, k: int, value: Fraction, bits: int) -> bool:
    """Every point of the enclosure lies within 2^-bits of ``value``."""
    err = Fraction(1, 1 << bits)
    return value - err <= Fraction(a[0], 1 << k) and Fraction(a[1], 1 << k) <= value + err


def iv_modulus_ok(sq, k: int, lo: Fraction, hi: Fraction, bits: int) -> bool:
    """[lo, hi] is a sound enclosure of sqrt(x), x in the enclosure ``sq`` of a square.

    Near zero the square root widens the oracle's own enclosure past the
    answer's width, so there it only requires the two to overlap; once the
    oracle's enclosure is narrower than 2^-(bits+4) it must lie inside [lo, hi].
    """
    scale = Fraction(1, 1 << k)
    m_lo = isqrt(sq[0] << k) * scale
    m_hi = (isqrt(sq[1] << k) + 1) * scale
    if not (0 <= lo <= hi and hi - lo <= Fraction(2, 1 << bits)):
        return False
    if m_hi - m_lo <= Fraction(1, 1 << (bits + 4)):
        return lo <= m_lo and m_hi <= hi
    return lo <= m_hi and m_lo <= hi


_IV_BINARY = {"add": iv_add, "sub": iv_sub, "max": iv_max, "min": iv_min}


def iv_node(node, vals, k: int):
    """Enclosure of one expression-DAG node given the enclosures of earlier nodes.

    Nodes: ("sqrt", q), ("q", q), ("neg", i), ("abs", i), ("scale", i, c),
    ("mul", i, j, bound) and ("add" | "sub" | "max" | "min", i, j).
    """
    op = node[0]
    if op == "sqrt":
        return iv_sqrt(node[1], k)
    if op == "q":
        return iv_rational(node[1], k)
    a = vals[node[1]]
    if op == "neg":
        return iv_neg(a)
    if op == "abs":
        return iv_abs(a)
    if op == "scale":
        return iv_mul(a, iv_rational(node[2], k), k)
    if op == "mul":
        return iv_mul(a, vals[node[2]], k)
    return _IV_BINARY[op](a, vals[node[2]])


def enclose(nodes, k: int) -> list:
    vals = []
    for node in nodes:
        vals.append(iv_node(node, vals, k))
    return vals
