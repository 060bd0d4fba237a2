"""Finite-discrete function algebras: admissibility, sup norm, spectrum.

For a finite discrete point set X everything classical becomes decidable:
basic opens of the real function locale are given by finitely many lower
and upper constraints, admissibility is a finite check, and the function
algebra is the product C* algebra C^n with the coordinate projections as
its characters.

The character laws have two paths, written once in ``_check_character``
over a small value backend (``_Values``).  The point path applies a
character with ``dot_c`` and compares stage k + 3 of complex points; it
serves any element.  The row path serves the elements ``spec``, the law
suite and the benchmark build, whose coordinates are all constant: each
element and each character is read once as integer pairs
(``reals.pairs_of``), a character is applied by one ``dot_pairs``, and the
sum and product laws use exact pair sums and products.  It is exact, not an
approximation: every stage of a constant point is its value, so stage k + 3
*is* the pair's value, ``dot_c`` and ``mul_c`` under ``coord_bound`` fold to
that same rational (they normalise ``dot_pairs`` into ``Fraction``s) and
run no certification that could fail, and ``_within`` decides the same
inequality on any pair that represents a rational.  So every law runs on
every element, and every comparison and every report is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .numbers import half_pow, parse_rational, rational_str
from .reals import (
    ComplexPoint,
    add_c,
    add_pairs,
    complex_of_rational,
    conj_c,
    coord_bound,
    dot_c,
    dot_pairs,
    modulus_c,
    modulus_interval,
    mul_c,
    pairs_of,
    real_of_rational,
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


def _coordinates(a: AlgebraElement, b: AlgebraElement):
    """The coordinate pairs of a and b; ``ValueError`` on unequal lengths."""
    if len(a.values) != len(b.values):
        raise ValueError(
            f"elements of lengths {len(a.values)} and {len(b.values)} do not combine"
        )
    return zip(a.values, b.values)


def alg_add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(tuple(add_c(x, y) for x, y in _coordinates(a, b)))


def alg_mul(a: AlgebraElement, b: AlgebraElement, bound: int) -> AlgebraElement:
    return AlgebraElement(tuple(mul_c(x, y, bound) for x, y in _coordinates(a, b)))


def alg_star(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(tuple(conj_c(x) for x in a.values))


def _zero_one():
    """The constant complex points 0 and 1, with ``Fraction`` coordinates.

    Built by ``real_of_rational``, with no ``contains`` check.  Every
    coordinate that holds 0 or 1 shares one call's point: each stage of a
    constant point is its value, so no reader can tell them apart.
    """
    zero = real_of_rational(0)
    return ComplexPoint(zero, zero), ComplexPoint(real_of_rational(1), zero)


def unit(n: int) -> AlgebraElement:
    return AlgebraElement((_zero_one()[1],) * n)


def idempotent(n: int, i: int) -> AlgebraElement:
    zero, one = _zero_one()
    return AlgebraElement(tuple(one if j == i else zero for j in range(n)))


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


@dataclass(frozen=True)
class Character:
    """A candidate character given by its values on the idempotent basis."""

    values: tuple
    label: str = "chi"

    @property
    def n(self):
        return len(self.values)

    def apply(self, a: AlgebraElement) -> ComplexPoint:
        """The sum of chi(e_i) * a_i, one ``dot_c`` over the two value tuples.

        On constant values, the kind ``duality_round_trip`` builds, ``dot_c``
        folds the sum in integers: the loop of ``mul_c``/``add_c`` it replaces
        would fold every step to the same exact rational, so the point is
        equal and no stage is read.  Each term's default bound exceeds its
        coordinates by more than 1, so the fold runs no certification that
        could fail, and it skips each term where chi(e_i) is 0.  An element
        of another length raises ``ValueError``.
        """
        return dot_c(self.values, a.values)


def spectrum_of_cn(n: int):
    """The n coordinate projections, one per point of the underlying space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [Character(idempotent(n, i).values, label=f"eval@{i}") for i in range(n)]


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


class _Values(NamedTuple):
    """How the character laws compute on their values: ``dot`` applies a
    character, ``add`` and ``mul`` combine two values, and ``read(z, n)`` is
    stage n of a value as integer pairs."""

    dot: Callable
    add: Callable
    mul: Callable
    read: Callable


def _stage_pairs(z: ComplexPoint, n: int):
    """Stage n of a complex point as integer pairs."""
    re, im = z.approx(n)
    return (re.numerator, re.denominator), (im.numerator, im.denominator)


def _bounded_mul(x: ComplexPoint, y: ComplexPoint) -> ComplexPoint:
    return mul_c(x, y, coord_bound(x, y))


# values as complex points, for any element
_POINTS = _Values(dot_c, add_c, _bounded_mul, _stage_pairs)
# values as exact integer pairs, for constant elements: every stage is the value
_ROWS = _Values(
    dot_pairs, add_pairs, lambda x, y: dot_pairs((x,), (y,)), lambda z, _n: z
)
_ZERO = ((0, 1), (0, 1))
_ONE = ((1, 1), (0, 1))


def _close_to(values: _Values, z, target, k: int) -> bool:
    """z within 2^-k of an exact real target; the slack covers one stage error."""
    return _within(values.read(z, k + 3), target, k, 2)


def _is_query_equal(values: _Values, x, y, k: int) -> bool:
    """x within 2^-k of y; the wider slack covers both stage errors."""
    return _within(values.read(x, k + 3), values.read(y, k + 3), k, 1)


def _check_character(label: str, chi, elements, k: int, values: _Values) -> dict:
    """The character laws of chi on the elements, computed by ``values``.

    ``chi`` and each element are sequences of values, one per point, as
    ``values`` reads them; ``elements`` is the unit, the basis idempotents
    and the (a, b, a + b, a b) of each sample pair.
    """
    dot, add, mul, _ = values
    one, idempotents, products = elements
    failures = []

    if not _close_to(values, dot(chi, one), _ONE, k):
        failures.append({"law": "unit", "witness": "1"})

    one_count = 0
    zs = []
    for i, e in enumerate(idempotents):
        z = dot(chi, e)
        is0 = _close_to(values, z, _ZERO, k)
        is1 = _close_to(values, z, _ONE, k)
        if not (is0 or is1):
            failures.append({"law": "idempotent dichotomy", "witness": f"e{i}"})
        if is1:
            one_count += 1
        zs.append(z)
    if not _close_to(values, dot(zs, one), _ONE, k):
        failures.append({"law": "idempotent sum", "witness": "sum e_i"})
    if one_count != 1 and not failures:
        failures.append({"law": "projection count", "witness": str(one_count)})

    for a, b, a_plus_b, a_times_b in products:
        lhs = dot(chi, a_plus_b)
        ca, cb = dot(chi, a), dot(chi, b)
        if not _is_query_equal(values, lhs, add(ca, cb), k):
            failures.append({"law": "additivity", "witness": "sampled pair"})
        lhs = dot(chi, a_times_b)
        if not _is_query_equal(values, lhs, mul(ca, cb), k):
            failures.append({"law": "multiplicativity", "witness": "sampled pair"})

    return {
        "character": label,
        "result": "Pass" if not failures else "Fail",
        "failures": failures,
        "k": k,
    }


def _elements(n: int, samples, bound: int):
    """The unit, the basis idempotents and each sample's (a, b, a + b, a b)
    for C^n, as tuples of complex points."""
    products = [
        (a.values, b.values, alg_add(a, b).values, alg_mul(a, b, bound).values)
        for a, b in samples
    ]
    return unit(n).values, [idempotent(n, i).values for i in range(n)], products


def _row(points):
    """The ``pairs_of`` of each point, or None if one is not constant."""
    row = tuple(map(pairs_of, points))
    return None if None in row else row


def _rows(elements):
    """The elements read as rows, or None if any coordinate is not constant."""
    one, idempotents, products = elements
    one = _row(one)
    idempotents = [_row(e) for e in idempotents]
    products = [tuple(map(_row, p)) for p in products]
    if one is None or None in idempotents or any(None in p for p in products):
        return None
    return one, idempotents, products


def verify_spectrum(chars, samples, bound: int, k: int) -> list:
    """One ``verify_character`` report per character, in order.

    The elements a character is applied to (the unit, the basis
    idempotents, and each sample pair with its sum and product) do not
    depend on the character, so they are built once for each n among the
    characters, not once per character, and read once as integer rows.
    A character whose values and elements are all constant takes the row
    path (see the module docstring): each application is one integer dot
    product, the sum and product laws are exact pair sums and products, and
    the comparisons are ``_within`` on the pairs.  Any other character
    takes the point path, whose reports the row path equals.
    """
    built = {}
    reports = []
    for chi in chars:
        n = chi.n
        if n not in built:
            points = _elements(n, samples, bound)
            built[n] = points, _rows(points)
        points, rows = built[n]
        row = _row(chi.values) if rows is not None else None
        if row is None:
            reports.append(_check_character(chi.label, chi.values, points, k, _POINTS))
        else:
            reports.append(_check_character(chi.label, row, rows, k, _ROWS))
    return reports


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
    idempotents = [idempotent(n, j) for j in range(n)]
    for i, chi in enumerate(chars):
        for j, e in enumerate(idempotents):
            z = chi.apply(e)
            if not _close_to(_POINTS, z, _ONE if j == i else _ZERO, k):
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
    for i in range(n):
        if not _is_query_equal(_POINTS, recovered.values[i], a.values[i], k):
            failures.append({"law": "evaluation round trip", "witness": f"coord {i}"})

    report["result"] = "Pass" if not failures else "Fail"
    report["failures"] = failures
    return report
