"""Finite-discrete function algebras: admissibility, sup norm, spectrum.

For a finite discrete point set X everything classical becomes decidable:
basic opens of the real function locale are given by finitely many lower
and upper constraints, admissibility is a finite check, and the function
algebra is the product C* algebra C^n with the coordinate projections as
its characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .numbers import half_pow, parse_rational, rational_str
from .reals import (
    ComplexPoint,
    add_c,
    complex_of_rational,
    conj_c,
    coord_bound,
    dot_c,
    modulus_c,
    modulus_interval,
    mul_c,
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

        On constant values, the only kind ``spec`` builds, ``dot_c`` folds
        the sum in integers: the loop of ``mul_c``/``add_c`` it replaces
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
    """|s - t| + 2^-(k+j) < 2^-k for each coordinate pair of the stages a, b.

    With s = p/q and t = r/d, this is decided in integers as
    |p d - r q| 2^(k+j) + q d < q d 2^j: the rule times the positive
    q d 2^(k+j).  For k + j < 0 the rule is scaled by q d instead, so the
    shifts stay non-negative: |p d - r q| + q d 2^-(k+j) < q d 2^-k.
    """
    e = k + j
    for s, t in zip(a, b):
        q, d = s.denominator, t.denominator
        x = abs(s.numerator * d - t.numerator * q)
        qd = q * d
        if e >= 0:
            if (x << e) + qd >= qd << j:
                return False
        elif x + (qd << -e) >= qd << -k:
            return False
    return True


def _close_to(z: ComplexPoint, target: Fraction, k: int) -> bool:
    """z within 2^-k of an exact real target; the slack covers one stage error."""
    return _within(z.approx(k + 3), (target, 0), k, 2)


def _is_query_equal(x: ComplexPoint, y: ComplexPoint, k: int) -> bool:
    """x within 2^-k of y; the wider slack covers both stage errors."""
    return _within(x.approx(k + 3), y.approx(k + 3), k, 1)


def _check_character(chi: Character, elements, k: int) -> dict:
    one, idempotents, products = elements
    failures = []

    if not _close_to(chi.apply(one), Fraction(1), k):
        failures.append({"law": "unit", "witness": "1"})

    one_count = 0
    values = []
    for i, e in enumerate(idempotents):
        z = chi.apply(e)
        is0 = _close_to(z, Fraction(0), k)
        is1 = _close_to(z, Fraction(1), k)
        if not (is0 or is1):
            failures.append({"law": "idempotent dichotomy", "witness": f"e{i}"})
        if is1:
            one_count += 1
        values.append(z)
    if not _close_to(dot_c(values, one.values), Fraction(1), k):
        failures.append({"law": "idempotent sum", "witness": "sum e_i"})
    if one_count != 1 and not failures:
        failures.append({"law": "projection count", "witness": str(one_count)})

    for a, b, a_plus_b, a_times_b in products:
        lhs = chi.apply(a_plus_b)
        ca, cb = chi.apply(a), chi.apply(b)
        rhs = add_c(ca, cb)
        if not _is_query_equal(lhs, rhs, k):
            failures.append({"law": "additivity", "witness": "sampled pair"})
        lhs = chi.apply(a_times_b)
        rhs = mul_c(ca, cb, coord_bound(ca, cb))
        if not _is_query_equal(lhs, rhs, k):
            failures.append({"law": "multiplicativity", "witness": "sampled pair"})

    return {
        "character": chi.label,
        "result": "Pass" if not failures else "Fail",
        "failures": failures,
        "k": k,
    }


def verify_spectrum(chars, samples, bound: int, k: int) -> list:
    """One ``verify_character`` report per character, in order.

    The elements a character is applied to (the unit, the basis
    idempotents, and each sample pair with its sum and product) do not
    depend on the character, so they are built once for each n among the
    characters, not once per character.
    """
    built = {}
    reports = []
    for chi in chars:
        n = chi.n
        if n not in built:
            products = [(a, b, alg_add(a, b), alg_mul(a, b, bound)) for a, b in samples]
            built[n] = unit(n), [idempotent(n, i) for i in range(n)], products
        reports.append(_check_character(chi, built[n], k))
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
            want = Fraction(1 if j == i else 0)
            if not _close_to(z, want, k):
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
        if not _is_query_equal(recovered.values[i], a.values[i], k):
            failures.append({"law": "evaluation round trip", "witness": f"coord {i}"})

    report["result"] = "Pass" if not failures else "Fail"
    report["failures"] = failures
    return report
