import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from formalballs import function_locale
from formalballs.balls import BallOpen, FormalBall, way_inside
from formalballs.carriers import (
    finite_space,
    gaussian_rationals,
    product_space,
    rational_line,
)
from formalballs.completion import CompletionPoint, member_query, point_of_carrier
from formalballs.function_locale import (
    MMInstance,
    check_axiom,
    holds,
    round_trip,
    tau_from_point,
    validate_instance,
)
from formalballs.maps import (
    UNIFORM,
    MapRep,
    apply_map,
    identity_map,
    line_map,
    lipschitz_line_map,
    proj_map,
)
from formalballs.numbers import half_pow

LINE = rational_line()
ROOT = Path(__file__).resolve().parents[1]


def bo(*pairs):
    return BallOpen(LINE, tuple(FormalBall(Fraction(c), Fraction(r)) for c, r in pairs))


def test_holds_examples():
    ident = identity_map(LINE)
    assert holds(bo((0, 1)), bo((0, 2)), ident, 8).is_yes
    shifted = line_map(1, 10)
    assert not holds(bo((0, 1)), bo((0, 2)), shifted, 64).is_yes
    assert not holds(bo((0, 1)), BallOpen(LINE, ()), ident, 64).is_yes


EMPTY_FINITE = BallOpen(finite_space(2, [[0, 1], [1, 0]]), ())


@pytest.mark.parametrize("ask", [
    lambda: way_inside(EMPTY_FINITE, 1, bo((0, 1)), 8),
    lambda: holds(EMPTY_FINITE, bo((0, 1)), line_map(1, 0), 8),
    lambda: holds(bo((0, 1)), EMPTY_FINITE, line_map(1, 0), 8),
], ids=["way_inside", "holds source", "holds target"])
def test_an_empty_open_over_another_carrier_is_rejected(ask):
    with pytest.raises(ValueError, match="carrier"):
        ask()


def test_holds_monotone_in_enlargement():
    half = line_map(Fraction(1, 2), 0)
    small = (bo((1, Fraction(1, 2))), bo((Fraction(1, 2), Fraction(1, 4))))
    big = (bo((1, 1)), bo((Fraction(1, 2), 1)))
    assert holds(*small, half, 16).is_yes
    assert holds(*big, half, 16).is_yes


def test_validate_rejects_malformed():
    ID = line_map(1, 0)
    with pytest.raises(ValueError):
        validate_instance(MMInstance("MM7", {}), ID)
    with pytest.raises(ValueError):
        validate_instance(MMInstance("MM2", {"u": bo((0, 1)), "v": bo((0, 1))}), ID)
    with pytest.raises(ValueError):
        validate_instance(
            MMInstance("MM2", {"u": bo((0, 1)), "v": bo((0, 1)), "q": Fraction(-1)}), ID
        )
    with pytest.raises(ValueError):
        validate_instance(
            MMInstance(
                "MM1",
                {
                    "u_small": bo((5, 3)),
                    "u": bo((0, 1)),
                    "v_small": bo((0, 1)),
                    "v": bo((0, 2)),
                },
            ),
            ID,
        )


def test_carriers_are_checked_before_the_side_conditions():
    # MM1's containment u_small <= u would read the line distance on pairs
    plane = product_space(LINE, LINE)
    inst = MMInstance("MM1", {
        "u_small": bo((0, 1)), "v_small": bo((0, 1)), "v": bo((0, 2)),
        "u": BallOpen.of(plane, FormalBall((Fraction(0), Fraction(0)), Fraction(2))),
    })
    with pytest.raises(ValueError, match="MM1: part 'u' has the wrong carrier"):
        check_axiom(inst, line_map(1, 0), 16)


def test_mm1_identity_pass():
    inst = MMInstance(
        "MM1",
        {
            "u_small": bo((0, Fraction(1, 2))),
            "v_small": bo((0, 1)),
            "u": bo((0, 1)),
            "v": bo((0, 2)),
        },
    )
    rep = check_axiom(inst, identity_map(LINE), 16)
    assert rep["result"] == "Pass"


def test_mm3_half_map_pass():
    half = line_map(Fraction(1, 2), 0)
    inst = MMInstance("MM3", {"u": bo((0, 1)), "q": Fraction(1, 4)})
    rep = check_axiom(inst, half, 16)
    assert rep["result"] == "Pass"
    assert rep["witness"]["balls"]


def test_mm6_half_map_pass():
    half = line_map(Fraction(1, 2), 0)
    inst = MMInstance(
        "MM6",
        {
            "u": bo((0, Fraction(1, 2))),
            "v": bo((0, Fraction(1, 2))),
            "vp": bo((0, Fraction(1, 2))),
        },
    )
    rep = check_axiom(inst, half, 16)
    assert rep["result"] == "Pass"


def formal_diameter(balls):
    """The formal diameter on plain Fractions: max of 2r and |ci - cj| + ri + rj."""
    best = Fraction(0)
    for i, (ci, ri) in enumerate(balls):
        best = max(best, 2 * ri)
        for cj, rj in balls[i + 1 :]:
            best = max(best, abs(ci - cj) + ri + rj)
    return best


MM6_U = ((Fraction(-1, 2), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 8)))


def test_mm6_fail_witness_reverifies():
    # x -> 2x is not a metric map: it maps u's two centers 1 apart to -1 and 1
    double = lipschitz_line_map(lambda x: 2 * x, 2, UNIFORM, "scale 2")
    parts = {"u": MM6_U, "v": ((Fraction(-1), Fraction(1, 8)),),
             "vp": ((Fraction(1), Fraction(1, 8)),)}
    inst = MMInstance("MM6", {k: bo(*p) for k, p in parts.items()})
    rep = check_axiom(inst, double, 16)
    assert rep["result"] == "Fail"
    wit = rep["witness"]
    rhs = sum((formal_diameter(p) for p in parts.values()), Fraction(0))
    assert rhs == Fraction(7, 4) and Fraction(wit["rhs_upper"]) == rhs
    # the reported pair is two centers of v and vp at the reported distance
    d = Fraction(wit["distance_lower"])
    assert d == 2 > rhs
    centers = [c for c, _r in parts["v"] + parts["vp"]]
    pairs = [[repr(a), repr(b)] for a in centers for b in centers if abs(a - b) == d]
    assert wit["pair"] in pairs


def test_mm6_isometry_pass_bound():
    parts = {"u": bo(*MM6_U), "v": bo((Fraction(-1, 2), Fraction(1, 4))),
             "vp": bo((Fraction(1, 2), Fraction(1, 4)))}
    rep = check_axiom(MMInstance("MM6", parts), line_map(1, 0), 16)
    assert rep["result"] == "Pass"
    assert rep["bound"] == {"lhs": "3/2", "rhs": "9/4"}


def test_mm2_mm4_pass_on_identity():
    ident = identity_map(LINE)
    rep = check_axiom(
        MMInstance("MM2", {"u": bo((0, 1)), "v": bo((0, 2)), "q": Fraction(1, 2)}),
        ident,
        16,
    )
    assert rep["result"] == "Pass"
    rep = check_axiom(
        MMInstance("MM4", {"u": bo((0, 1)), "v": bo((0, 2))}), ident, 16
    )
    assert rep["result"] == "Pass"


def test_mm5_pass_on_identity():
    inst = MMInstance(
        "MM5",
        {
            "w1": bo((0, Fraction(1, 4))),
            "w2": bo((0, Fraction(1, 4))),
            "tau": bo((0, Fraction(1, 8))),
            "q1": Fraction(1),
            "q2": Fraction(1),
            "v1": bo((0, 3)),
            "v2": bo((Fraction(1, 2), 3)),
            "v1p": bo((0, 2)),
            "v2p": bo((Fraction(1, 2), 2)),
        },
    )
    rep = check_axiom(inst, identity_map(LINE), 16)
    assert rep["result"] == "Pass"


def test_mm4_without_an_interior_stage_is_inconclusive():
    # the image 0 lies 2^-30 inside b(1, 1 + 2^-30): stage 32 shows it,
    # but the interior search stops at stage 24, where 2^-24 > 2^-30
    v = bo((1, 1 + half_pow(30)))
    rep = check_axiom(MMInstance("MM4", {"u": bo((0, 1)), "v": v}), line_map(1, 0), 32)
    assert rep["result"] == "Inconclusive"
    assert rep["reason"] == "no interior stage found"


def test_mm5_doubles_the_stage_until_it_fits():
    # the image 0 has slack 1/50 in both v_i: stage 8 is too coarse
    # (2^-8 >= 1/400), stage 16 fits, and the witness is b(0, 1/100)
    inst = MMInstance("MM5", {
        "w1": bo((0, Fraction(1, 400))), "w2": bo((0, Fraction(1, 400))),
        "tau": bo((0, Fraction(1, 1000))),
        "q1": Fraction(1, 100), "q2": Fraction(1, 100),
        "v1": bo((0, Fraction(1, 50))), "v2": bo((0, Fraction(1, 50))),
        "v1p": bo((0, Fraction(1, 100))), "v2p": bo((0, Fraction(1, 100))),
    })
    reads = []

    def recording_apply_map(f, p):
        image, seen = apply_map(f, p), []
        reads.append(seen)
        return CompletionPoint(image.carrier, lambda n: seen.append(n) or image.approx(n))

    with mock.patch.object(function_locale, "apply_map", recording_apply_map):
        rep = check_axiom(inst, identity_map(LINE), 8)
    assert rep == check_axiom(inst, identity_map(LINE), 8)
    assert rep["result"] == "Pass"
    assert rep["witness"] == bo((0, Fraction(1, 100))).to_json()
    # two premise images, then tau's center: stage 8, one doubling, stage 16
    assert reads[2] == [8, 16]


def test_the_premise_table_follows_the_part_schema():
    assert function_locale.MM_PREMISES.keys() == function_locale.MM_PARTS.keys()
    assert function_locale.MM_PREMISES["MM3"] == ()
    for axiom, premises in function_locale.MM_PREMISES.items():
        parts = function_locale.MM_PARTS[axiom]
        for u, v in premises:
            assert u in parts and v in parts, (axiom, u, v)
            assert v in function_locale.TARGET_PARTS, (axiom, v)
            assert u not in function_locale.TARGET_PARTS, (axiom, u)
            assert u not in function_locale.RATIONAL_PARTS, (axiom, u)


@pytest.mark.parametrize("axiom, parts", [
    ("MM5", {
        "w1": bo((0, Fraction(1, 4)), (Fraction(1, 8), Fraction(1, 8))),
        "w2": bo((0, Fraction(1, 4))), "tau": bo((0, Fraction(1, 8))),
        "q1": Fraction(1), "q2": Fraction(1),
        "v1": bo((5, 3)), "v2": bo((0, 3)), "v1p": bo((5, 2)), "v2p": bo((0, 2)),
    }),
    ("MM6", {"u": bo(*MM6_U), "v": bo((5, Fraction(1, 4))), "vp": bo((0, 1))}),
])
def test_a_failing_first_premise_asks_nothing_more(axiom, parts):
    # the second premise holds, and MM5's conclusion would image tau's center
    imaged = []

    def spy(f, p):
        imaged.append(p.approx(0))
        return apply_map(f, p)

    with mock.patch.object(function_locale, "apply_map", spy):
        rep = check_axiom(MMInstance(axiom, parts), identity_map(LINE), 16)
    assert rep == {"axiom": axiom, "result": "Inconclusive", "effort": 16,
                   "reason": "premise not established"}
    first = parts["w1" if axiom == "MM5" else "u"]
    assert imaged == [b.center for b in first.balls]


def test_premise_not_established_is_inconclusive():
    shifted = line_map(1, 10)
    rep = check_axiom(
        MMInstance("MM4", {"u": bo((0, 1)), "v": bo((0, 1))}), shifted, 16
    )
    assert rep["result"] == "Inconclusive"


def test_tau_from_point_identity():
    ident = identity_map(LINE)
    tau = tau_from_point(ident, bo((0, 2)), 64)
    assert member_query(point_of_carrier(LINE, Fraction(0)), tau, 32).is_yes
    assert any(b.center == 0 for b in tau.balls)


def test_tau_from_point_empty_oracle():
    # every grid center (span 6 at effort 64) maps into [94, 106], off b(0, 2)
    tau = tau_from_point(line_map(1, 100), bo((0, 2)), 64)
    assert tau.balls == ()


def test_tau_from_point_translation_needs_span():
    shifted = line_map(1, 10)
    near = tau_from_point(shifted, bo((0, 2)), 64)
    assert not member_query(point_of_carrier(LINE, Fraction(-10)), near, 32).is_yes
    far = tau_from_point(shifted, bo((0, 2)), 256)
    assert member_query(point_of_carrier(LINE, Fraction(-10)), far, 32).is_yes


def test_tau_monotone_in_effort():
    ident = identity_map(LINE)
    small = tau_from_point(ident, bo((0, 2)), 32)
    big = tau_from_point(ident, bo((0, 2)), 256)
    assert set(small.balls) <= set(big.balls)


def test_round_trip_examples():
    half = line_map(Fraction(1, 2), 0)
    v = bo((0, 2))
    probes = [point_of_carrier(LINE, Fraction(3, 2))]
    rep = round_trip(half, v, probes, 256)
    assert rep["sound"] and rep["covered"] == 1

    shifted = line_map(1, 10)
    rep = round_trip(shifted, bo((0, 1)), [point_of_carrier(LINE, Fraction(0))], 64)
    assert rep["sound"] and rep["total_in_v"] == 0


def test_round_trip_reports_a_violation():
    # not a function of the value: the Fraction grid centers map to 0, in
    # v = b(0, 2), and the int probe 1 maps to 100, outside it
    by_type = MapRep(
        source=LINE,
        target=LINE,
        carrier_map=lambda x: point_of_carrier(
            LINE, 0 if type(x) is Fraction else 100
        ),
        modulus=lambda eps: eps,
    )
    probe = point_of_carrier(LINE, 1)
    rep = round_trip(by_type, bo((0, 2)), [probe], 16)
    assert rep["sound"] is False
    assert rep["violations"] == [probe.to_json(4)]
    assert rep["total_in_v"] == 0


def test_round_trip_of_a_product_source():
    probe = point_of_carrier(product_space(LINE, LINE), (0, 0))
    rep = round_trip(proj_map(LINE, LINE, 1), bo((0, 8)), [probe], 16)
    assert rep["sound"] is True
    assert rep["covered"] == rep["total_in_v"] == 1


def test_round_trip_needs_a_grid_for_the_source():
    re_part = MapRep(
        source=gaussian_rationals(),
        target=LINE,
        carrier_map=lambda z: point_of_carrier(LINE, z[0]),
        modulus=lambda eps: eps,
    )
    with pytest.raises(ValueError, match="gaussian"):
        round_trip(re_part, bo((0, 8)), [], 16)


def test_benchmark_mm_checks_work_is_pinned(monkeypatch):
    """The 180 MM checks of the benchmark's ``locale`` seed-1 period, run
    and checked as the benchmark does, on a line carrier that counts its
    distances and membership tests.  A constant image is the carrier map's
    own point, not rebuilt (rebuilding read 1928 membership tests), and
    MM1 to MM4 do not ask again for a conclusion that holds by construction
    (asking read 648 distances and 1556 membership tests)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as is
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    wl = workloads.WORKLOADS["locale"]
    ctx = wl.setup(1)
    line, counts = ctx["line"], Counter()

    def dist(x, y):
        counts["dist"] += 1
        return line.dist(x, y)

    def contains(x):
        counts["contains"] += 1
        return line.contains(x)

    ctx["line"] = dataclasses.replace(line, dist=dist, contains=contains)
    results = Counter()
    for spec in wl.period(1, 0):
        if spec[0] == "mm":
            answer = wl.run(ctx, spec)
            assert wl.check(spec, answer)
            results[answer["result"]] += 1
    assert results == {"Inconclusive": 91, "Pass": 89}
    assert counts == {"dist": 532, "contains": 1368}
