from fractions import Fraction

import pytest

from formalballs.gelfand import (
    AlgebraElement,
    BasicOpenXR,
    Character,
    FiniteDiscreteSpace,
    admissibility_theorem_check,
    alg_mul,
    cstar_identity_check,
    duality_round_trip,
    has_point,
    is_admissible,
    spectrum_of_cn,
    sup_norm,
    verify_character,
    verify_spectrum,
)
from formalballs import gelfand
from formalballs.completion import CompletionPoint
from formalballs.lawsuite import enumerate_basic_opens
from formalballs.reals import (
    LINE,
    ComplexPoint,
    RealPoint,
    add_pairs,
    complex_of_rational,
    dot_pairs,
    real_of_rational,
)


X2 = FiniteDiscreteSpace(2)

# Gaussian rationals as the integer pairs ((re num, re den), (im num, im den))
# of a character's row
ZERO, HALF, ONE = ((0, 1), (0, 1)), ((1, 2), (0, 1)), ((1, 1), (0, 1))


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
    with pytest.raises(ValueError):
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
        assert sup_norm(zero).less_than(q, 8).is_yes
    ones = AlgebraElement.of_rationals([(1, 0), (1, 0)])
    assert not sup_norm(ones).less_than(Fraction(1), 64).is_yes


def test_cstar_identity_examples():
    a = AlgebraElement.of_rationals([(2, 0), (0, 1)])
    rep = cstar_identity_check(a, bound=8, k=20)
    assert rep["result"] == "Pass"
    zero = AlgebraElement.of_rationals([(0, 0)])
    assert cstar_identity_check(zero, bound=8, k=20)["result"] == "Pass"
    b = AlgebraElement.of_rationals([(1, 1), (0, 0)])
    assert cstar_identity_check(b, bound=8, k=20)["result"] == "Pass"


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
    chi = Character((ONE, ONE), label="sum")
    rep = verify_character(chi, [], bound=8, k=16)
    assert rep["result"] == "Fail"
    laws = {f["law"] for f in rep["failures"]}
    assert "idempotent sum" in laws or "projection count" in laws


def test_verify_spectrum_reports_as_one_character_calls():
    samples3 = [
        (
            AlgebraElement.of_rationals([(1, 0), (2, 1), (Fraction(-1, 3), 0)]),
            AlgebraElement.of_rationals([(0, 1), (1, 1), (2, -1)]),
        )
    ]
    samples2 = [
        (
            AlgebraElement.of_rationals([(Fraction(1, 2), 0), (3, -1)]),
            AlgebraElement.of_rationals([(0, 2), (1, Fraction(2, 3))]),
        )
    ]
    bad = Character((ONE,) * 3, label="sum")
    cases = [
        (spectrum_of_cn(3) + [bad], samples3, ["Pass"] * 3 + ["Fail"]),
        (spectrum_of_cn(2), samples2, ["Pass"] * 2),
        # characters on spaces of different sizes share one call without samples
        (spectrum_of_cn(3) + [bad] + spectrum_of_cn(2), [], ["Pass"] * 3 + ["Fail"] + ["Pass"] * 2),
    ]
    for chars, samples, results in cases:
        want = [verify_character(chi, samples, bound=8, k=16) for chi in chars]
        assert verify_spectrum(chars, samples, bound=8, k=16) == want
        assert [r["result"] for r in want] == results
    assert verify_spectrum([], samples3, bound=8, k=16) == []


def test_unequal_lengths_raise_before_any_stage_is_read():
    reads = []

    def logged(q):
        def stage(n):
            reads.append(n)
            return Fraction(q)

        return ComplexPoint(RealPoint(CompletionPoint(LINE, stage)), real_of_rational(0))

    for make in (complex_of_rational, logged):
        a = AlgebraElement((make(1), make(2)))
        b = AlgebraElement((make(3),))
        with pytest.raises(ValueError, match="lengths 2 and 1"):
            alg_mul(a, b, 8)
    assert reads == []
    with pytest.raises(ValueError, match="lengths 1 and 2"):
        dot_pairs((ONE,), (ONE, HALF))
    with pytest.raises(ValueError, match="lengths 1 and 2"):
        spectrum_of_cn(1)[0].apply(AlgebraElement.of_rationals([(2, 0), (3, 0)]))
    a, b = (AlgebraElement.of_rationals([(j, 1), (1, 0)]) for j in (1, 2))
    with pytest.raises(ValueError, match="lengths 3 and 2"):
        verify_character(spectrum_of_cn(3)[2], [(a, b)], bound=8, k=16)
    short = AlgebraElement.of_rationals([(1, 0)])
    with pytest.raises(ValueError, match="^elements of lengths 2 and 1 do not combine$"):
        verify_character(spectrum_of_cn(2)[0], [(a, short)], bound=8, k=16)


# -- each law of the character check can fail ------------------------------


def _failed_laws(report):
    return [f["law"] for f in report["failures"]]


def test_zero_character_fails_unit_and_idempotent_sum():
    zero = Character((ZERO,) * 2, label="zero")
    laws = _failed_laws(verify_character(zero, [], bound=8, k=16))
    assert "unit" in laws and "idempotent sum" in laws


def test_half_character_fails_dichotomy_and_projection_count():
    half = Character((HALF,) * 2, label="half")
    # at k = 16, 1/2 is neither 0 nor 1
    assert "idempotent dichotomy" in _failed_laws(verify_character(half, [], bound=8, k=16))
    # at k = 0, 1/2 passes as both, so both idempotents count as sent to 1
    assert _failed_laws(verify_character(half, [], bound=8, k=0)) == ["projection count"]


def test_wrong_sum_fails_additivity(monkeypatch):
    real_sample = gelfand._sample

    def wrong_sum(a, b, bound):
        a, b, a_plus_b, a_times_b = real_sample(a, b, bound)
        return a, b, tuple(map(add_pairs, a_plus_b, b)), a_times_b

    monkeypatch.setattr(gelfand, "_sample", wrong_sum)
    samples = [
        (
            AlgebraElement.of_rationals([(1, 0), (2, 1)]),
            AlgebraElement.of_rationals([(0, 1), (1, 1)]),
        )
    ]
    report = verify_character(spectrum_of_cn(2)[1], samples, bound=8, k=16)
    assert _failed_laws(report) == ["additivity"]


def test_rotated_spectrum_fails_separation_and_round_trip(monkeypatch):
    real_spectrum = gelfand.spectrum_of_cn
    monkeypatch.setattr(gelfand, "spectrum_of_cn", lambda n: real_spectrum(n)[1:] + real_spectrum(n)[:1])
    laws = _failed_laws(duality_round_trip(3, 16))
    assert "separation by idempotents" in laws and "evaluation round trip" in laws
    assert "norm preservation" not in laws


def test_verify_spectrum_builds_the_elements_once_per_n(monkeypatch):
    chars = spectrum_of_cn(4) + spectrum_of_cn(2) + spectrum_of_cn(4)[:1]
    samples = [(AlgebraElement.of_rationals([(1, 0)] * 4),) * 2]
    built = []
    real_basis, real_sample = gelfand._basis, gelfand._sample

    def basis(n):
        built.append(("e", n))
        return real_basis(n)

    def sample(a, b, bound):
        built.append(("ab", len(a)))
        return real_sample(a, b, bound)

    monkeypatch.setattr(gelfand, "_basis", basis)
    monkeypatch.setattr(gelfand, "_sample", sample)
    verify_spectrum(chars, [], bound=8, k=16)
    assert built == [("e", 4), ("e", 2)]
    built.clear()
    verify_spectrum(chars[:4], samples, bound=8, k=16)
    assert built == [("ab", 4), ("e", 4)]


@pytest.mark.parametrize("n, points", [(5, 0), (32, 0)])
def test_spec_point_constructions_are_pinned(monkeypatch, capsys, n, points):
    """The completion points one ``spec`` request builds, a count of its work.

    Before the elements were built from unchecked shared constants and the
    idempotent sum was folded, the counts were 330 (n = 5) and 9024 (n = 32).
    Before the character laws ran on integer rows, they were 192 and 2946.
    Before the elements, the characters and the sample were built as rows,
    they were 2 + 12 n: 62 (n = 5) and 386 (n = 32).  Now ``spec`` builds
    no point at all.  A change that moves them names the new counts and the
    reason.
    """
    from formalballs.cli import main

    built = []
    real_init = CompletionPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CompletionPoint, "__init__", counting)
    assert main(["spec", '{"n": %d}' % n]) == 0
    capsys.readouterr()
    assert len(built) == points


def test_duality_round_trip():
    for n in (1, 2, 3, 4):
        rep = duality_round_trip(n, k=16)
        assert rep["result"] == "Pass", rep
