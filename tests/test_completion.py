from fractions import Fraction

import pytest

from formalballs.balls import BallOpen, FormalBall
from formalballs.carriers import finite_space, rational_line
from formalballs.completion import (
    CertificateError,
    CompletionPoint,
    FilterSeed,
    limit_point,
    member_query,
    pair_point,
    point_distance,
    point_of_carrier,
    regularize,
    seed_member_query,
    seed_of_point,
)
from formalballs.maps import apply_map, proj_map
from formalballs.numbers import half_pow

LINE = rational_line()


def bo(*pairs):
    return BallOpen(LINE, tuple(FormalBall(Fraction(c), Fraction(r)) for c, r in pairs))


def lpoint(q):
    return point_of_carrier(LINE, Fraction(q))


def test_member_query_basics():
    assert member_query(lpoint(0), bo((0, 1)), 4).is_yes
    assert not member_query(lpoint(0), bo((3, 1)), 64).is_yes
    assert member_query(lpoint("1/2"), bo((0, 1)), 8).is_yes
    # boundary point: no margin ever appears
    assert not member_query(lpoint(1), bo((0, 1)), 64).is_yes
    assert not member_query(lpoint(0), BallOpen(LINE, ()), 64).is_yes


def test_member_query_monotone_in_effort():
    p = CompletionPoint(LINE, lambda n: Fraction(1, 2) + half_pow(n + 1))
    u = bo(("1/2", "1/8"))
    answers = [member_query(p, u, e).is_yes for e in range(12)]
    assert answers == sorted(answers)
    assert answers[-1]


def test_point_distance_bounds():
    d = point_distance(lpoint(0), lpoint(1))
    assert d.less_than(Fraction(3, 2), 3).is_yes
    assert not d.less_than(Fraction(9, 10), 64).is_yes
    same = point_distance(lpoint(5), lpoint(5))
    assert same.less_than(Fraction(1, 1000), 16).is_yes


def test_pair_and_proj():
    r = pair_point(lpoint(0), lpoint(1))
    s = pair_point(lpoint(1), lpoint(1))
    assert point_distance(r, s).less_than(Fraction(11, 10), 8).is_yes
    assert apply_map(proj_map(LINE, LINE, 1), r).approx(5) == 0
    assert apply_map(proj_map(LINE, LINE, 2), r).approx(5) == 1
    with pytest.raises(ValueError):
        apply_map(proj_map(LINE, LINE, 1), lpoint(0))
    assert point_distance(r, r).less_than(Fraction(1, 100), 10).is_yes


def test_limit_point_geometric():
    seq = lambda k: lpoint(1 - half_pow(k))
    modulus = lambda eps: max(1, (2 / eps).__ceil__().bit_length())
    lim = limit_point(seq, modulus)
    d = point_distance(lim, lpoint(1))
    for k in (4, 10, 16):
        assert d.less_than(half_pow(k), k + 8).is_yes


def test_limit_point_constant():
    lim = limit_point(lambda _k: lpoint(7), lambda _eps: 0)
    assert point_distance(lim, lpoint(7)).less_than(Fraction(1, 2**20), 30).is_yes


def test_limit_point_bad_certificate():
    # the sequence jumps by 1 forever; the claimed modulus is wrong
    seq = lambda k: lpoint(k % 2)
    with pytest.raises(CertificateError):
        limit_point(seq, lambda _eps: 0)


def test_regularize_shrinks_and_is_idempotent():
    f = FilterSeed((bo((0, 1)),))
    r = regularize(f)
    assert r.regular
    assert r.generators[0].balls[0].radius == Fraction(3, 4)
    assert regularize(r) is r


def test_regularize_rejects_disjoint_generators():
    f = FilterSeed((bo((0, 1)), bo((10, 1))))
    with pytest.raises(CertificateError) as exc:
        regularize(f)
    assert exc.value.witness == (0, 1)


def test_seed_of_point_member_equivalence():
    p = lpoint("1/2")
    f = seed_of_point(p, depth=3)
    r = regularize(f)
    for target in (bo((0, 2)), bo((Fraction(1, 2), 1)), bo((5, 1))):
        want = member_query(p, target, 64).is_yes
        got = seed_member_query(r, target, 64).is_yes
        # seed answers are sound for the point's filter
        if got:
            assert want


def test_completion_over_finite_space():
    sp = finite_space(2, [[0, 1], [1, 0]])
    p = point_of_carrier(sp, 1)
    q = point_of_carrier(sp, 1)
    assert point_distance(p, q).less_than(Fraction(1, 1000), 12).is_yes
    u = BallOpen.of(sp, FormalBall(1, Fraction(1, 2)))
    assert member_query(p, u, 8).is_yes


def test_point_serialization_truncated():
    payload = lpoint(3).to_json(2)
    assert payload["truncated"] is True
    assert len(payload["stages"]) == 3
