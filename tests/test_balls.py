import sys
from fractions import Fraction
from pathlib import Path

import pytest

from formalballs.balls import (
    BallOpen,
    FormalBall,
    diameter_upper,
    is_positive,
    meet_witness,
    neighborhood,
    way_inside,
)
from formalballs.carriers import finite_space, product_space, rational_line

LINE = rational_line()
ROOT = Path(__file__).resolve().parents[1]


def bo(*pairs):
    return BallOpen(LINE, tuple(FormalBall(Fraction(c), Fraction(r)) for c, r in pairs))


def test_positive_radius_enforced():
    with pytest.raises(ValueError):
        FormalBall(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        FormalBall(Fraction(0), Fraction(-1, 2))


@pytest.mark.parametrize("radius", [0.5, 1.0, True, False, "1/2", None])
def test_a_radius_that_is_no_int_or_fraction_is_named(radius):
    """A float radius used to be kept, and its slack came out as a float."""
    with pytest.raises(ValueError, match="must be an int or a Fraction, got " + repr(radius)):
        FormalBall(Fraction(0), radius)


def test_int_radii_are_kept_as_ints():
    b = FormalBall(Fraction(0), 2)
    assert type(b.radius) is int
    with pytest.raises(ValueError, match="strictly positive"):
        FormalBall(Fraction(0), 0)


def test_diameter_single_ball():
    u = bo((0, Fraction(1, 2)))
    d = diameter_upper(u)
    assert d.less_than(Fraction(101, 100), 4).is_yes
    assert not d.less_than(Fraction(1), 64).is_yes


def test_diameter_two_balls():
    u = bo((0, Fraction(1, 4)), (10, Fraction(1, 4)))
    assert diameter_upper(u).less_than(Fraction(11), 4).is_yes
    assert not diameter_upper(u).less_than(Fraction(21, 2), 64).is_yes


def test_diameter_empty_is_zero():
    assert diameter_upper(BallOpen(LINE, ())).bound(5) == 0


def test_way_inside_examples():
    assert way_inside(bo((0, 1)), Fraction(1, 2), bo((0, 2)), 4).is_yes
    assert not way_inside(bo((0, 1)), Fraction(1, 2), bo((3, 2)), 64).is_yes
    assert way_inside(
        bo((1, Fraction(1, 4))), Fraction(1, 4), bo((0, 2)), 4
    ).is_yes
    # empty open sits inside everything
    assert way_inside(BallOpen(LINE, ()), Fraction(1), bo((0, 1)), 0).is_yes
    with pytest.raises(ValueError):
        way_inside(bo((0, 1)), Fraction(0), bo((0, 2)), 4)


def test_neighborhood_radius_addition():
    u = bo((0, Fraction(1, 2)))
    v = neighborhood(u, Fraction(1, 2))
    assert v.balls == (FormalBall(Fraction(0), Fraction(1)),)
    assert neighborhood(BallOpen(LINE, ()), Fraction(1)).balls == ()
    w1 = neighborhood(neighborhood(u, Fraction(1, 4)), Fraction(1, 4))
    w2 = neighborhood(u, Fraction(1, 2))
    assert w1 == w2


def test_positivity():
    assert is_positive(bo((0, 1)))
    assert is_positive(bo((0, 1), (5, 2)))
    assert not is_positive(BallOpen(LINE, ()))


def test_meet_witness_overlap():
    w = meet_witness(bo((0, 2)), bo((1, 2)), 8)
    assert w is not None
    assert way_inside(
        BallOpen.of(LINE, w), w.radius, bo((0, 2)), 8
    ).is_yes
    assert way_inside(
        BallOpen.of(LINE, w), w.radius, bo((1, 2)), 8
    ).is_yes


def test_meet_witness_disjoint_and_self():
    assert meet_witness(bo((0, 1)), bo((10, 1)), 16) is None
    w = meet_witness(bo((0, 1)), bo((0, 1)), 8)
    assert w is not None and w.center == 0


def test_meet_witness_on_finite_space():
    sp = finite_space(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    u = BallOpen.of(sp, FormalBall(0, Fraction(3, 2)))
    v = BallOpen.of(sp, FormalBall(2, Fraction(3, 2)))
    w = meet_witness(u, v, 4)
    assert w is not None and w.center == 1


def test_ball_open_json():
    u = bo((0, Fraction(1, 2)))
    payload = u.to_json()
    assert payload["balls"] == [{"c": "Fraction(0, 1)", "r": "1/2"}]


def test_mixed_carriers_rejected():
    sp = finite_space(2, [[0, 1], [1, 0]])
    u = BallOpen.of(sp, FormalBall(0, Fraction(1)))
    with pytest.raises(ValueError):
        way_inside(u, Fraction(1, 2), bo((0, 1)), 4)


@pytest.mark.parametrize(
    "carrier, center",
    [
        (finite_space(2, [[0, 1], [1, 0]]), -2),  # not read as index 0
        (finite_space(2, [[0, 1], [1, 0]]), 2),
        (product_space(LINE, LINE), Fraction(1)),  # not a pair
        (LINE, "1/2"),
    ],
)
def test_ball_open_rejects_non_carrier_centers(carrier, center):
    with pytest.raises(ValueError, match="not a carrier element"):
        BallOpen.of(carrier, FormalBall(center, Fraction(1)))


def test_every_trusted_open_center_is_a_carrier_element(monkeypatch, capsys):
    """Each center that ``BallOpen._trusted`` receives passes ``contains``.

    The traffic is the law suite at seed 0 and the first period of the
    benchmark's ``finite`` workload at seed 1, each operation run and
    checked as the benchmark does; ``neighborhood`` and ``regularize`` build
    their opens through the unchecked constructor.
    """
    from formalballs.cli import main

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as is
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    seen = []
    real_trusted = BallOpen._trusted

    def checked(carrier, balls):
        for b in balls:
            seen.append(b.center)
            assert carrier.contains(b.center), repr(b.center)
        return real_trusted(carrier, balls)

    monkeypatch.setattr(BallOpen, "_trusted", staticmethod(checked))
    assert main(["law-suite", "--seed", "0"]) == 0
    capsys.readouterr()
    from_suite = len(seen)
    wl = workloads.WORKLOADS["finite"]
    ctx = wl.setup(1)
    for spec in wl.period(1, 0):
        assert wl.check(spec, wl.run(ctx, spec))
    assert from_suite > 0 and len(seen) > from_suite
