"""MM1 to MM5 against checkers that ask their conclusion again.

The library's MM1 to MM4 construct their conclusion witness and do not
query it, and MM5 does not re-check that its witness lies in v1 and v2:
the lemma in each checker's docstring says the answer is always yes.  The
``reference_*`` checkers below build the same witnesses and do ask, with
``holds``, ``way_inside`` and ``dominated``.  Both must give the same
report on every instance: for constant images (line maps, and the
uniformly continuous x -> 3x + b and x -> 8x + b), for moving images whose
stage n is a x + b +- 2^-(n+1), and for images whose stages are not
2^-n-regular at all.

The exits that remain (MM3's budget, MM5's conclusion search, MM6's loose
bounds) are each reached by a fixed instance at the end; MM5's is reached
twice, once for a tau with no stage inside v1 and v2 and once for a pair
query that the map's stages answer NotYet.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from formalballs.balls import (
    BallOpen,
    FormalBall,
    diameter,
    dominated,
    slack,
    way_inside,
)
from formalballs.carriers import finite_space, rational_line
from formalballs.completion import CompletionPoint, deepest_stage, point_of_carrier
from formalballs.function_locale import (
    INCONCLUSIVE,
    PASS,
    MMInstance,
    PairProp,
    _holds_witness,
    _result,
    check_axiom,
    holds,
    validate_instance,
)
from formalballs.maps import UNIFORM, MapRep, apply_map, line_map, lipschitz_line_map
from formalballs.numbers import half_pow, parse_rational, stage_below

LINE = rational_line()


def bo(*pairs):
    return BallOpen(LINE, tuple(FormalBall(Fraction(c), Fraction(r)) for c, r in pairs))


# -- the checkers as they were, each asking its conclusion -----------------


def reference_mm1(d, f, effort):
    if _holds_witness(d["u_small"], d["v_small"], f, effort) is None:
        return _result("MM1", INCONCLUSIVE, effort, reason="premise not established")
    # u_small lies inside u, so u and its union with u_small are one open
    u = BallOpen(d["u"].carrier, d["u"].balls + d["u_small"].balls)
    if _holds_witness(u, d["v"], f, effort) is not None:
        return _result("MM1", PASS, effort)
    return _result("MM1", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def reference_mm2(d, f, effort):
    q = parse_rational(d["q"])
    wit = _holds_witness(d["u"], d["v"], f, effort)
    if wit is None:
        return _result("MM2", INCONCLUSIVE, effort, reason="premise not established")
    b, _image = wit
    small = BallOpen.of(
        d["u"].carrier, FormalBall(b.center, min(b.radius, q / 4))
    )
    if (
        diameter(small) < q
        and holds(PairProp(small, d["v"]), f, effort).is_yes
    ):
        return _result("MM2", PASS, effort, witness=small.to_json())
    return _result("MM2", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def reference_mm3(d, f, effort):
    q = parse_rational(d["q"])
    m = stage_below(q / 16)
    if m > max(effort, 64):
        return _result("MM3", INCONCLUSIVE, effort, reason="effort budget exhausted")
    x = d["u"].balls[0].center
    image = apply_map(f, point_of_carrier(f.source, x))
    center = image.approx(m)
    v = BallOpen.of(f.target, FormalBall(center, q / 4))
    if (
        diameter(v) < q
        and holds(PairProp(d["u"], v), f, max(effort, m + 2)).is_yes
    ):
        return _result("MM3", PASS, effort, witness=v.to_json())
    return _result("MM3", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def reference_mm4(d, f, effort):
    wit = _holds_witness(d["u"], d["v"], f, effort)
    if wit is None:
        return _result("MM4", INCONCLUSIVE, effort, reason="premise not established")
    _b, image = wit
    deepest = deepest_stage(image, d["v"], min(effort, 24))
    if deepest is None:
        return _result("MM4", INCONCLUSIVE, effort, reason="no interior stage found")
    margin, n = deepest
    z = image.approx(n)
    inner = BallOpen.of(d["v"].carrier, FormalBall(z, half_pow(n) + margin / 2))
    k = stage_below(margin / 4)
    if (
        way_inside(inner, margin / 4, d["v"], effort).is_yes
        and holds(PairProp(d["u"], inner), f, max(effort, k + 2)).is_yes
    ):
        return _result("MM4", PASS, effort, witness=inner.to_json())
    return _result("MM4", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def reference_mm5(d, f, effort):
    for i in ("1", "2"):
        if not holds(PairProp(d["w" + i], d["v" + i + "p"]), f, effort).is_yes:
            return _result(
                "MM5", INCONCLUSIVE, effort, reason="premise not established"
            )
    for b in d["tau"].balls:
        image = apply_map(f, point_of_carrier(f.source, b.center))
        for m in (8, 16, 32, 64):
            c = image.approx(m)
            slacks = [slack(vi, c) for vi in (d["v1"], d["v2"])]
            if None not in slacks and half_pow(m) < min(slacks) / 8:
                break
        else:
            continue
        rho = min(slacks) / 2
        v = BallOpen.of(d["v1"].carrier, FormalBall(c, rho))
        n = stage_below(rho / 4)
        if (
            dominated(v, d["v1"], 0)
            and dominated(v, d["v2"], 0)
            and holds(PairProp(d["tau"], v), f, max(effort, n + 2)).is_yes
        ):
            return _result("MM5", PASS, effort, witness=v.to_json())
    return _result("MM5", INCONCLUSIVE, effort, reason="conclusion search exhausted")


REFERENCE = {"MM1": reference_mm1, "MM2": reference_mm2, "MM3": reference_mm3,
             "MM4": reference_mm4, "MM5": reference_mm5}


def reference_check(inst, f, effort):
    validate_instance(inst)
    return REFERENCE[inst.axiom](inst.data, f, effort)


# -- maps and instances ----------------------------------------------------

offsets = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 4, 8]))
radii = st.builds(Fraction, st.integers(1, 24), st.sampled_from([4, 8, 16]))
nudges = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([4, 8]))
fractions_of_one = st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1])

# stages that no 2^-n-regular sequence has: a jump that never settles, a
# jump of alternating sign, a drift toward the limit slower than 2^-n
IRREGULAR = {
    "cycle": lambda s, n: s * (n % 3),
    "alternate": lambda s, n: s if n % 2 else -s,
    "slow": lambda s, n: s / (n + 1),
}


@st.composite
def maps(draw):
    """(kind, map, nominal image function) with a, b drawn."""
    kind = draw(st.sampled_from(["constant", "moving", "irregular"]))
    a = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), 3, 8]))
    b = draw(offsets)

    def nominal(x):
        return a * x + b

    if kind == "constant":
        if abs(a) <= 1:
            return kind, line_map(a, b), nominal
        return kind, lipschitz_line_map(nominal, a, UNIFORM, f"scale {a}"), nominal
    if kind == "moving":
        sign = draw(st.sampled_from([1, -1]))

        def stage(x, n):
            return a * x + b + sign * half_pow(n + 1)
    else:
        shape = IRREGULAR[draw(st.sampled_from(sorted(IRREGULAR)))]
        s = draw(st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 4, 64])))

        def stage(x, n):
            return a * x + b + shape(s, n)

    return kind, MapRep(
        source=LINE,
        target=LINE,
        carrier_map=lambda x: CompletionPoint(LINE, lambda n: stage(x, n)),
        modulus=lambda eps: eps / max(abs(a), 1),
        cls=UNIFORM,
        label=kind,
    ), nominal


def source_open(data):
    """One to three balls around drawn centers."""
    balls = data.draw(st.lists(st.tuples(offsets, radii), min_size=1, max_size=3))
    return bo(*balls)


def target_open(data, nominal, u):
    """One to three balls, each around the nominal image of a center of u
    plus a drawn offset, so that most premises hold and some do not."""
    n = data.draw(st.integers(1, 3))
    balls = []
    for _ in range(n):
        c = data.draw(st.sampled_from(u.balls)).center
        near = data.draw(nudges)
        balls.append((nominal(c) + near, data.draw(radii)))
    return bo(*balls)


def inside(data, w):
    """A ball of w shrunk by a drawn factor and moved within it."""
    b = data.draw(st.sampled_from(w.balls))
    r = b.radius * data.draw(fractions_of_one)
    t = data.draw(st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]))
    return b.center + t * (b.radius - r), r


def around(data, w, margin):
    """Each ball of w grown by margin and a drawn g >= 0, moved by at most
    g, so that w is dominated with that margin."""
    balls = []
    for b in w.balls:
        g = data.draw(radii) / 4 * data.draw(st.sampled_from([0, 1]))
        t = data.draw(st.sampled_from([-1, 0, Fraction(1, 2)]))
        balls.append((b.center + t * g, b.radius + margin + g))
    return bo(*balls)


def instance(data, axiom, nominal):
    if axiom == "MM5":
        tau = data.draw(st.tuples(offsets, radii))
        parts = {"tau": bo(tau)}
        for i in ("1", "2"):
            shift, extra = data.draw(offsets) / 8, data.draw(radii) / 4
            r = tau[1] + abs(shift) + extra
            parts["w" + i] = bo((tau[0] + shift, r))
            q = 2 * r + data.draw(radii) / 4
            parts["q" + i] = q
            vp = target_open(data, nominal, parts["w" + i])
            parts["v" + i + "p"] = vp
            parts["v" + i] = around(data, vp, q)
        return MMInstance("MM5", parts)
    u = source_open(data)
    parts = {"u": u}
    if axiom == "MM1":
        parts["u_small"] = bo(inside(data, u))
        parts["v_small"] = target_open(data, nominal, parts["u_small"])
        parts["v"] = around(data, parts["v_small"], 0)
    if axiom in ("MM2", "MM4"):
        parts["v"] = target_open(data, nominal, u)
    if axiom in ("MM2", "MM3"):
        parts["q"] = data.draw(radii)
    return MMInstance(axiom, parts)


@settings(max_examples=300, deadline=None)
@given(st.data(), maps(), st.sampled_from(sorted(REFERENCE)), st.integers(1, 40))
def test_checkers_answer_as_those_that_ask_their_conclusion(data, case, axiom, effort):
    kind, f, nominal = case
    inst = instance(data, axiom, nominal)
    got = check_axiom(inst, f, effort)
    event(f"{axiom} {kind} {got['result']}")
    assert got == reference_check(inst, f, effort)


# -- the exits that remain, each reached -----------------------------------


def test_mm3_stage_past_the_budget_is_inconclusive():
    # q/16 = 2^-74 needs stage 75, past max(16, 64)
    inst = MMInstance("MM3", {"u": bo((0, 1)), "q": half_pow(70)})
    rep = check_axiom(inst, line_map(1, 0), 16)
    assert rep == {"axiom": "MM3", "result": "Inconclusive", "effort": 16,
                   "reason": "effort budget exhausted"}


def test_mm5_without_a_stage_in_both_v_is_inconclusive():
    # the premises map w's center 0 to 0, inside both v_ip; tau's center
    # 1/8 maps to 25/2, outside both v_i = b(0, 3) at every stage
    hundred = lipschitz_line_map(lambda x: 100 * x, 100, UNIFORM, "scale 100")
    inst = MMInstance("MM5", {
        "w1": bo((0, Fraction(1, 4))), "w2": bo((0, Fraction(1, 4))),
        "tau": bo((Fraction(1, 8), Fraction(1, 16))), "q1": 1, "q2": 1,
        "v1": bo((0, 3)), "v2": bo((0, 3)), "v1p": bo((0, 1)), "v2p": bo((0, 1)),
    })
    rep = check_axiom(inst, hundred, 16)
    assert rep["result"] == "Inconclusive"
    assert rep["reason"] == "conclusion search exhausted"


def test_mm5_asks_its_conclusion_of_an_image_that_settles_late():
    # the image of x is x + 2 up to stage 7 and x from stage 8 on; stage 8
    # of tau's center gives the witness b(1/8, 13/16), but the pair query
    # reads stages 5 down to 0, where the image is 17/8, 2 away from 1/8
    late = MapRep(
        source=LINE,
        target=LINE,
        carrier_map=lambda x: CompletionPoint(LINE, lambda n: x if n > 8 else x + 2),
        modulus=lambda eps: eps,
    )
    inst = MMInstance("MM5", {
        "w1": bo((0, Fraction(1, 4))), "w2": bo((0, Fraction(1, 4))),
        "tau": bo((Fraction(1, 8), Fraction(1, 16))), "q1": 1, "q2": 1,
        "v1": bo((1, Fraction(5, 2))), "v2": bo((1, Fraction(5, 2))),
        "v1p": bo((2, Fraction(1, 2))), "v2p": bo((2, Fraction(1, 2))),
    })
    rep = check_axiom(inst, late, 4)
    assert rep == reference_check(inst, late, 4)
    assert rep["result"] == "Inconclusive"
    assert rep["reason"] == "conclusion search exhausted"


def test_mm6_with_no_pair_far_enough_is_inconclusive():
    # lhs = delta(v join vp) = 5 exceeds rhs = 11/20 + 2 + 2, but the two
    # centers 0 and 3 are only 3 apart, so no pair refutes it
    ten = lipschitz_line_map(lambda x: 10 * x, 10, UNIFORM, "scale 10")
    inst = MMInstance("MM6", {
        "u": bo((0, Fraction(1, 8)), (Fraction(3, 10), Fraction(1, 8))),
        "v": bo((0, 1)), "vp": bo((3, 1)),
    })
    rep = check_axiom(inst, ten, 16)
    assert rep["result"] == "Inconclusive"
    assert rep["reason"] == "bounds too loose to decide"


@pytest.mark.parametrize("axiom, key", [("MM1", "u"), ("MM1", "v"), ("MM3", "u")])
def test_a_part_over_another_carrier_is_rejected(axiom, key):
    # the conclusion is not queried, so the carrier is checked up front; a
    # finite space's point 0 passes MM1's containments on the line
    pair = finite_space(2, [[0, 1], [1, 0]])
    parts = {"u_small": bo((0, 1)), "v_small": bo((0, 1)),
             "u": bo((0, 2)), "v": bo((0, 2)), "q": Fraction(1)}
    parts[key] = BallOpen.of(pair, FormalBall(0, Fraction(4)))
    need = ("u_small", "v_small", "u", "v") if axiom == "MM1" else ("u", "q")
    inst = MMInstance(axiom, {k: parts[k] for k in need})
    with pytest.raises(ValueError, match="wrong carrier"):
        check_axiom(inst, line_map(1, 0), 16)
