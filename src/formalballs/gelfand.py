"""Finite-discrete function algebras: admissibility, sup norm, spectrum.

For a finite discrete point set X everything classical becomes decidable:
basic opens of the real function locale are given by finitely many lower
and upper constraints, admissibility is a finite check, and the function
algebra is the product C* algebra C^n with the coordinate projections as
its characters.

The character laws compute on rows: one exact Gaussian rational per point,
as integer pairs ((re num, re den), (im num, im den)) with positive
denominators, not necessarily in lowest terms (``reals.pairs_of``).  A
``Character``'s values are a row, and the unit, the basis idempotents and
each sample's a + b and a b are built as rows.  An ``AlgebraElement``
handed to a law is read once into a row, so each of its coordinates must
be a constant point.  A character is applied by one ``dot_pairs``, the sum
and product laws use exact pair sums and products, and each comparison is
``_within`` on the pairs.  A sample product is certified against the
caller's bound as ``mul_c`` certifies constant factors, so every error is
``alg_mul``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .numbers import half_pow, parse_rational, rational_str
from .reals import (
    ComplexPoint,
    add_pairs,
    certify_constant,
    complex_of_rational,
    conj_c,
    dot_pairs,
    modulus_c,
    modulus_interval,
    mul_c,
    pairs_of,
)
from .upper import UpperReal


@dataclass(frozen=True)
class FiniteDiscreteSpace:
    """Points 0..n-1 with the discrete topology."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("space needs at least one point")

    @property
    def points(self):
        return range(self.n)


@dataclass(frozen=True)
class BasicOpenXR:
    """A basic open of the real function locale on a finite discrete space.

    lowers: pairs (subset, u) constraining f < u on the subset.
    uppers: pairs (subset, v) constraining f > v on the subset.
    """

    lowers: tuple
    uppers: tuple

    @staticmethod
    def of(lowers, uppers) -> "BasicOpenXR":
        norm = lambda cs: tuple(
            (frozenset(s), parse_rational(q)) for s, q in cs
        )
        return BasicOpenXR(norm(lowers), norm(uppers))


def _check_ranges(b: BasicOpenXR, space: FiniteDiscreteSpace):
    for s, _q in b.lowers + b.uppers:
        for x in s:
            if not (isinstance(x, int) and 0 <= x < space.n):
                raise ValueError(f"point {x!r} outside the {space.n}-point space")


def is_admissible(b: BasicOpenXR, space: FiniteDiscreteSpace) -> bool:
    """No pair of constraints f < u, f > v with u <= v overlaps in X."""
    _check_ranges(b, space)
    for s_u, u in b.lowers:
        for s_v, v in b.uppers:
            if u <= v and s_u & s_v:
                return False
    return True


def has_point(
    b: BasicOpenXR, space: FiniteDiscreteSpace
) -> Optional[Callable[[int], Fraction]]:
    """A rational function satisfying every constraint strictly, or None.

    Pointwise: x needs max of its lower thresholds < min of its upper
    caps; the witness value is their midpoint, with one-sided constraints
    resolved by stepping one unit past the threshold and unconstrained
    points sent to 0.
    """
    _check_ranges(b, space)
    values = {}
    for x in space.points:
        caps = [u for s, u in b.lowers if x in s]
        floors = [v for s, v in b.uppers if x in s]
        if caps and floors:
            u = min(caps)
            v = max(floors)
            if v >= u:
                return None
            values[x] = (u + v) / 2
        elif caps:
            values[x] = min(caps) - 1
        elif floors:
            values[x] = max(floors) + 1
        else:
            values[x] = Fraction(0)
    return values.__getitem__


def admissibility_theorem_check(
    space: FiniteDiscreteSpace, instances
) -> dict:
    """Admissibility must coincide with point existence on every instance.

    Also checks the two sound directions separately: a found point always
    satisfies its constraints, and point existence implies admissibility.
    """
    checked = 0
    for b in instances:
        adm = is_admissible(b, space)
        f = has_point(b, space)
        if adm != (f is not None):
            return _failure(checked, b, admissible=adm, has_point=f is not None)
        if f is not None:
            broken = [f"f({x}) < {u}" for s, u in b.lowers for x in s if not f(x) < u]
            broken += [f"f({x}) > {v}" for s, v in b.uppers for x in s if not f(x) > v]
            if broken:
                return _failure(checked, b, reason=f"witness violates {broken[0]}")
        checked += 1
    return {"result": "Pass", "checked": checked}


def _failure(checked: int, b: BasicOpenXR, **detail) -> dict:
    """The Fail report for instance b, after ``checked`` passing instances."""
    witness = {
        "lowers": [[sorted(s), rational_str(q)] for s, q in b.lowers],
        "uppers": [[sorted(s), rational_str(q)] for s, q in b.uppers],
    }
    return {"result": "Fail", "checked": checked, "witness": witness, **detail}


# -- the finite function C* algebra ---------------------------------------


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the n-point function algebra: one complex value per point."""

    values: tuple

    @staticmethod
    def of_rationals(pairs) -> "AlgebraElement":
        return AlgebraElement(
            tuple(complex_of_rational(re, im) for re, im in pairs)
        )


def _coordinates(xs, ys):
    """The coordinate pairs of two elements' values; ``ValueError`` on
    unequal lengths."""
    if len(xs) != len(ys):
        raise ValueError(
            f"elements of lengths {len(xs)} and {len(ys)} do not combine"
        )
    return zip(xs, ys)


def alg_mul(a: AlgebraElement, b: AlgebraElement, bound: int) -> AlgebraElement:
    return AlgebraElement(
        tuple(mul_c(x, y, bound) for x, y in _coordinates(a.values, b.values))
    )


def alg_star(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(tuple(conj_c(x) for x in a.values))


def sup_norm(a: AlgebraElement) -> UpperReal:
    """Upper real for the sup of the coordinate moduli."""
    bounds = [modulus_c(x) for x in a.values]

    def bound(effort):
        return max(b.bound(effort) for b in bounds)

    return UpperReal(bound)


def sup_norm_interval(a: AlgebraElement, n: int):
    """Two-sided enclosure of the sup norm at about 2^-n width."""
    los, his = zip(*(modulus_interval(x, n) for x in a.values))
    return max(los), max(his)


def cstar_identity_check(a: AlgebraElement, bound: int, k: int) -> dict:
    """|norm(a* a) - norm(a)^2| below 2^-k via interval evaluation."""
    star_a = alg_mul(alg_star(a), a, bound)
    depth = k + 4
    lo1, hi1 = sup_norm_interval(star_a, depth)
    lo2, hi2 = sup_norm_interval(a, depth)
    lo_sq, hi_sq = lo2 * lo2, hi2 * hi2
    gap = max(hi1 - lo_sq, hi_sq - lo1)
    ok = gap < half_pow(k)
    return {
        "result": "Pass" if ok else "Fail",
        "k": k,
        "norm_aa": [rational_str(lo1), rational_str(hi1)],
        "norm_sq": [rational_str(lo_sq), rational_str(hi_sq)],
    }


# -- spectrum of the n-dimensional algebra ---------------------------------

# 0 and 1 as row entries
_ZERO = ((0, 1), (0, 1))
_ONE = ((1, 1), (0, 1))


def _row(points, name: str) -> tuple:
    """The complex points as a row, each read by ``pairs_of``; no stage is
    read.  ``ValueError`` names the first point that is not constant."""
    row = tuple(map(pairs_of, points))
    if None in row:
        raise ValueError(f"{name} coordinate {row.index(None)} is not constant")
    return row


def _basis(n: int) -> list:
    """The n basis idempotents of C^n as rows."""
    return [(_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - 1 - i) for i in range(n)]


@dataclass(frozen=True)
class Character:
    """A candidate character given by its values on the idempotent basis.

    ``values`` is a row: one Gaussian rational per point, as integer pairs
    ((re num, re den), (im num, im den)) with positive denominators.
    """

    values: tuple
    label: str = "chi"

    @property
    def n(self):
        return len(self.values)

    def apply(self, a: AlgebraElement) -> ComplexPoint:
        """The sum of chi(e_i) * a_i as a constant point: one ``dot_pairs``
        over the values and a read once as a row.  A coordinate of a that is
        not constant, or an element of another length, raises ``ValueError``.
        """
        (rn, rd), (imn, imd) = dot_pairs(self.values, _row(a.values, "element"))
        return complex_of_rational(Fraction(rn, rd), Fraction(imn, imd))


def spectrum_of_cn(n: int):
    """The n coordinate projections, one per point of the underlying space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [Character(e, label=f"eval@{i}") for i, e in enumerate(_basis(n))]


def _within(a, b, k: int, j: int) -> bool:
    """|s - t| + 2^-(k+j) < 2^-k for each coordinate pair of the values a, b.

    A value is a sequence of rationals given as integer pairs (num, den),
    den > 0, not necessarily in lowest terms.  With s = p/q and t = r/d,
    the rule is decided in integers as |p d - r q| 2^(k+j) + q d < q d 2^j:
    the rule times the positive q d 2^(k+j), so its sense does not depend on
    which pair represents s or t.  For k + j < 0 the rule is scaled by q d
    instead, so the shifts stay non-negative: |p d - r q| + q d 2^-(k+j) <
    q d 2^-k.
    """
    e = k + j
    for (p, q), (r, d) in zip(a, b):
        x = abs(p * d - r * q)
        qd = q * d
        if e >= 0:
            if (x << e) + qd >= qd << j:
                return False
        elif x + (qd << -e) >= qd << -k:
            return False
    return True


def _close_to(z, target, k: int) -> bool:
    """z within 2^-k of an exact target.  The slack 2^-(k+2) is what a read
    of z at stage k + 3 allows for its error; every stage of an exact value
    is the value, so the rule is the one that read decides."""
    return _within(z, target, k, 2)


def _is_query_equal(x, y, k: int) -> bool:
    """x within 2^-k of y; the wider slack allows for two stage errors."""
    return _within(x, y, k, 1)


def _check_character(label: str, chi, elements, k: int) -> dict:
    """The character laws of the row chi on the element rows.

    ``elements`` is the unit, the basis idempotents and the (a, b, a + b,
    a b) of each sample pair.  The product law's right-hand side is the
    uncertified pair product: a certification of constant factors under a
    bound above every coordinate cannot fail.
    """
    one, basis, products = elements
    failures = []

    if not _close_to(dot_pairs(chi, one), _ONE, k):
        failures.append({"law": "unit", "witness": "1"})

    one_count = 0
    zs = []
    for i, e in enumerate(basis):
        z = dot_pairs(chi, e)
        is0 = _close_to(z, _ZERO, k)
        is1 = _close_to(z, _ONE, k)
        if not (is0 or is1):
            failures.append({"law": "idempotent dichotomy", "witness": f"e{i}"})
        if is1:
            one_count += 1
        zs.append(z)
    if not _close_to(dot_pairs(zs, one), _ONE, k):
        failures.append({"law": "idempotent sum", "witness": "sum e_i"})
    if one_count != 1 and not failures:
        failures.append({"law": "projection count", "witness": str(one_count)})

    for a, b, a_plus_b, a_times_b in products:
        lhs = dot_pairs(chi, a_plus_b)
        ca, cb = dot_pairs(chi, a), dot_pairs(chi, b)
        if not _is_query_equal(lhs, add_pairs(ca, cb), k):
            failures.append({"law": "additivity", "witness": "sampled pair"})
        lhs = dot_pairs(chi, a_times_b)
        if not _is_query_equal(lhs, dot_pairs((ca,), (cb,)), k):
            failures.append({"law": "multiplicativity", "witness": "sampled pair"})

    return {
        "character": label,
        "result": "Pass" if not failures else "Fail",
        "failures": failures,
        "k": k,
    }


def _sample(a, b, bound: int):
    """(a, b, a + b, a b) for one sample pair of rows.

    Each coordinate pair of a b is certified as ``mul_c`` certifies four
    constant factors: |c| + 2^-16 <= bound for a.re, b.re, a.im, b.im in
    turn (``certify_constant``), so every error is ``alg_mul``'s, in the
    same order; a ``None`` bound raises ``mul_c``'s ``TypeError`` at the
    first coordinate pair.
    """
    pairs = list(_coordinates(a, b))
    if pairs and bound is None:
        raise TypeError("mul_c needs an int bound, got None")
    for x, y in pairs:
        for num, den in (x[0], y[0], x[1], y[1]):
            certify_constant(num, den, bound)
    return (
        a,
        b,
        tuple(add_pairs(x, y) for x, y in pairs),
        tuple(dot_pairs((x,), (y,)) for x, y in pairs),
    )


def _verify_rows(chars, samples, bound: int, k: int) -> list:
    """``verify_spectrum`` on sample pairs given as rows.

    The elements a character is applied to (the unit, the basis
    idempotents, and each sample pair with its sum and product) do not
    depend on the character, so they are built once for each n among the
    characters, the sample products once in all.
    """
    if not chars:
        return []
    products = [_sample(a, b, bound) for a, b in samples]
    built = {}
    reports = []
    for chi in chars:
        n = chi.n
        if n not in built:
            built[n] = (_ONE,) * n, _basis(n), products
        reports.append(_check_character(chi.label, chi.values, built[n], k))
    return reports


def verify_spectrum(chars, samples, bound: int, k: int) -> list:
    """One ``verify_character`` report per character, in order.

    Each sample element is read once as a row; ``ValueError`` names a
    coordinate that is not constant.
    """
    rows = [
        (_row(a.values, f"sample {s} a"), _row(b.values, f"sample {s} b"))
        for s, (a, b) in enumerate(samples)
    ]
    return _verify_rows(chars, rows, bound, k)


def verify_character(chi: Character, samples, bound: int, k: int) -> dict:
    """Check unitality, linearity, multiplicativity, idempotent dichotomy.

    The dichotomy step is the executable core of the spectrum count: each
    basis idempotent must evaluate to 0 or 1, the values must sum to 1,
    so exactly one idempotent is sent to 1 and the character is a
    coordinate projection.
    """
    return verify_spectrum([chi], samples, bound, k)[0]


def duality_round_trip(n: int, k: int) -> dict:
    """Spectrum points biject with the space and evaluation preserves norm.

    Characters are separated by idempotents; applying every character to
    the sample element with coordinates (j + 1)/2 + (-1)^j i recovers its
    coordinates, so the evaluation map back into the n-dimensional algebra
    is the identity and norm-preserving.
    """
    chars = spectrum_of_cn(n)
    report = {"n": n, "k": k, "characters": len(chars)}
    failures = []

    if len(chars) != n:
        failures.append({"law": "cardinality", "witness": len(chars)})
    basis = _basis(n)
    for i, chi in enumerate(chars):
        for j, e in enumerate(basis):
            if not _close_to(dot_pairs(chi.values, e), _ONE if j == i else _ZERO, k):
                failures.append(
                    {"law": "separation by idempotents", "witness": f"chi{i},e{j}"}
                )

    a = AlgebraElement.of_rationals(
        [(Fraction(j + 1, 2), Fraction((-1) ** j)) for j in range(n)]
    )
    recovered = AlgebraElement(tuple(chi.apply(a) for chi in chars))
    lo1, hi1 = sup_norm_interval(a, k + 4)
    lo2, hi2 = sup_norm_interval(recovered, k + 4)
    if max(hi1 - lo2, hi2 - lo1) >= half_pow(k):
        witness = [rational_str(hi1), rational_str(hi2)]
        failures.append({"law": "norm preservation", "witness": witness})
    back, want = _row(recovered.values, "recovered"), _row(a.values, "element")
    for i in range(n):
        if not _is_query_equal(back[i], want[i], k):
            failures.append({"law": "evaluation round trip", "witness": f"coord {i}"})

    report["result"] = "Pass" if not failures else "Fail"
    report["failures"] = failures
    return report
