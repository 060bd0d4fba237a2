from fractions import Fraction

import pytest

from formalballs.gelfand import (
    AlgebraElement,
    BasicOpenXR,
    Character,
    FiniteDiscreteSpace,
    admissibility_theorem_check,
    cstar_identity_check,
    duality_round_trip,
    has_point,
    in_unit_ball,
    is_admissible,
    spectrum_of_cn,
    submultiplicativity_check,
    sup_norm,
    verify_character,
    verify_spectrum,
)
from formalballs import gelfand
from formalballs.lawsuite import enumerate_basic_opens
from formalballs.reals import complex_of_rational


X2 = FiniteDiscreteSpace(2)


def test_admissibility_examples():
    b = BasicOpenXR.of([({0}, 0)], [({0}, 1)])
    assert not is_admissible(b, X2)
    b = BasicOpenXR.of([({0}, 0)], [({1}, 1)])
    assert is_admissible(b, X2)
    # the condition quantifies only over pairs with lower <= upper
    b = BasicOpenXR.of([({0}, 5)], [({0}, 1)])
    assert is_admissible(b, X2)


def test_has_point_examples():
    b = BasicOpenXR.of([({0}, 0)], [({1}, 1)])
    f = has_point(b, X2)
    assert f is not None
    assert f(0) == -1 and f(1) == 2
    assert has_point(BasicOpenXR.of([({0}, 0)], [({0}, 1)]), X2) is None
    f = has_point(BasicOpenXR.of([], []), X2)
    assert f(0) == 0 and f(1) == 0


def test_has_point_midpoint_rule():
    b = BasicOpenXR.of([({0}, 2)], [({0}, 0)])
    f = has_point(b, X2)
    assert f(0) == 1


def test_out_of_range_rejected():
    with pytest.raises(IndexError):
        is_admissible(BasicOpenXR.of([({5}, 0)], []), X2)


def test_admissibility_theorem_small_exhaustive():
    for n in (1, 2):
        rep = admissibility_theorem_check(
            FiniteDiscreteSpace(n), enumerate_basic_opens(n, grid=(-1, 0, 1))
        )
        assert rep["result"] == "Pass"


def test_sup_norm_examples():
    a = AlgebraElement.of_rationals([(3, 4), (0, 0)])
    assert sup_norm(a).less_than(Fraction(501, 100), 8).is_yes
    zero = AlgebraElement.of_rationals([(0, 0), (0, 0)])
    for q in (Fraction(1, 100), Fraction(1)):
        assert in_unit_ball(zero, q, 8).is_yes
    ones = AlgebraElement.of_rationals([(1, 0), (1, 0)])
    assert not in_unit_ball(ones, Fraction(1), 64).is_yes


def test_cstar_identity_examples():
    a = AlgebraElement.of_rationals([(2, 0), (0, 1)])
    rep = cstar_identity_check(a, bound=8, k=20)
    assert rep["result"] == "Pass"
    zero = AlgebraElement.of_rationals([(0, 0)])
    assert cstar_identity_check(zero, bound=8, k=20)["result"] == "Pass"
    b = AlgebraElement.of_rationals([(1, 1), (0, 0)])
    assert cstar_identity_check(b, bound=8, k=20)["result"] == "Pass"


def test_submultiplicativity():
    a = AlgebraElement.of_rationals([(2, 1), (1, 0)])
    b = AlgebraElement.of_rationals([(1, -1), (3, 0)])
    assert submultiplicativity_check(a, b, bound=8, effort=24)


def test_spectrum_counts():
    for n in range(1, 7):
        assert len(spectrum_of_cn(n)) == n


def test_characters_verify():
    chars = spectrum_of_cn(3)
    samples = [
        (
            AlgebraElement.of_rationals([(1, 0), (2, 1), (-1, 0)]),
            AlgebraElement.of_rationals([(0, 1), (1, 1), (2, -1)]),
        )
    ]
    for chi in chars:
        rep = verify_character(chi, samples, bound=8, k=16)
        assert rep["result"] == "Pass", rep


def test_bad_character_fails_multiplicativity():
    # sum of two coordinates: sends both basis idempotents to 1
    chi = Character(
        (complex_of_rational(1), complex_of_rational(1)), label="sum"
    )
    rep = verify_character(chi, [], bound=8, k=16)
    assert rep["result"] == "Fail"
    laws = {f["law"] for f in rep["failures"]}
    assert "idempotent sum" in laws or "projection count" in laws


def test_verify_spectrum_reports_as_one_character_calls():
    samples = [
        (
            AlgebraElement.of_rationals([(1, 0), (2, 1), (Fraction(-1, 3), 0)]),
            AlgebraElement.of_rationals([(0, 1), (1, 1), (2, -1)]),
        )
    ]
    bad = Character(tuple(complex_of_rational(1) for _ in range(3)), label="sum")
    chars = spectrum_of_cn(3) + [bad] + spectrum_of_cn(2)
    want = [verify_character(chi, samples, bound=8, k=16) for chi in chars]
    assert verify_spectrum(chars, samples, bound=8, k=16) == want
    assert [r["result"] for r in want] == ["Pass"] * 3 + ["Fail"] + ["Pass"] * 2
    assert verify_spectrum([], samples, bound=8, k=16) == []


def test_verify_spectrum_builds_the_elements_once_per_n(monkeypatch):
    chars = spectrum_of_cn(4)
    built = []
    real_idempotent, real_unit = gelfand.idempotent, gelfand.unit

    def idempotent(n, i):
        built.append(("e", n, i))
        return real_idempotent(n, i)

    def unit(n):
        built.append(("1", n))
        return real_unit(n)

    monkeypatch.setattr(gelfand, "idempotent", idempotent)
    monkeypatch.setattr(gelfand, "unit", unit)
    verify_spectrum(chars, [], bound=8, k=16)
    assert sorted(built) == [("1", 4)] + [("e", 4, i) for i in range(4)]


def test_duality_round_trip():
    for n in (1, 2, 3, 4):
        rep = duality_round_trip(n, k=16)
        assert rep["result"] == "Pass", rep
