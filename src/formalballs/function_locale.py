"""The presented locale of maps: basic propositions and axiom checks.

A basic proposition (u, v) pairs a source ball open u with a target ball
open v; a map satisfies it as soon as some source center provably maps
into v.  The six presentation axioms are checked on concrete instances.
Each axiom's premises are basic propositions, listed in ``MM_PREMISES``
and asked by ``check_axiom`` before the axiom's checker runs.  A Pass
witness is built from an exact margin, and not queried again where a
lemma in the checker's docstring shows it meets the conclusion.  Pass and
Fail are definitive; Inconclusive means a premise, an effort budget or a
stage search failed, never that the axiom is refuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balls import BallOpen, FormalBall, diameter, dominated, slack, way_inside
from .carriers import MetricCarrier
from .completion import deepest_stage, member_query, point_of_carrier
from .maps import MapRep, apply_map
from .numbers import half_pow, parse_rational, rational_str, stage_below
from .upper import Query

PASS = "Pass"
INCONCLUSIVE = "Inconclusive"
FAIL = "Fail"

# the part names of each presentation axiom's instances; RATIONAL_PARTS are
# positive rationals, every other part a non-empty ball open, over the map's
# target for TARGET_PARTS and over its source otherwise
MM_PARTS = {
    "MM1": ("u_small", "v_small", "u", "v"),
    "MM2": ("u", "v", "q"),
    "MM3": ("u", "q"),
    "MM4": ("u", "v"),
    "MM5": ("w1", "w2", "tau", "q1", "q2", "v1", "v2", "v1p", "v2p"),
    "MM6": ("u", "v", "vp"),
}
RATIONAL_PARTS = ("q", "q1", "q2")
TARGET_PARTS = ("v_small", "v", "v1", "v2", "v1p", "v2p", "vp")
# the premises of each axiom as (source part, target part) propositions, in
# the order ``check_axiom`` asks them
MM_PREMISES = {
    "MM1": (("u_small", "v_small"),),
    "MM2": (("u", "v"),),
    "MM3": (),
    "MM4": (("u", "v"),),
    "MM5": (("w1", "v1p"), ("w2", "v2p")),
    "MM6": (("u", "v"), ("u", "vp")),
}


def holds(u: BallOpen, v: BallOpen, f: MapRep, effort: int) -> Query:
    """Semi-decide the basic proposition (u, v) against the map.

    Yes iff the image of some center of u is provably a member of v at
    this effort; sound for positivity of the pulled-back overlap.
    """
    if _holds_witness(u, v, f, effort) is None:
        return Query.NOT_YET
    return Query.YES


def _holds_witness(u: BallOpen, v: BallOpen, f: MapRep, effort: int):
    """The first ball of u whose center's image is in v, and that image; or None."""
    if u.carrier.kind != f.source.kind or v.carrier.kind != f.target.kind:
        raise ValueError("proposition opens do not match the map's carriers")
    if not u.balls or not v.balls:
        return None
    for b in u.balls:
        image = apply_map(f, point_of_carrier(f.source, b.center))
        if member_query(image, v, effort).is_yes:
            return b, image
    return None


@dataclass(frozen=True)
class MMInstance:
    """One concrete instance of a presentation axiom.

    ``data`` maps each of the axiom's part names in ``MM_PARTS`` to a
    rational (the ``RATIONAL_PARTS``) or a ball open (the rest).
    """

    axiom: str
    data: dict


def validate_instance(inst: MMInstance, f: MapRep) -> dict:
    """Reject malformed instances: missing parts, parts over another carrier
    than the map's, or failed side conditions, checked in that order.
    Return the instance's parts, each rational part as the ``Fraction``
    parsed here, so that no checker parses it again.

    The side conditions of MM1 and MM5 are exact decisions on the ball
    representation, in the distances of the carriers just checked;
    ``way_inside`` ignores the effort 16 it is given.  MM1's Pass rests on
    both of its containments (see ``_check_mm1``); a failed premise, budget
    or stage search is Inconclusive there, not an error.
    """
    need = MM_PARTS.get(inst.axiom) if isinstance(inst.axiom, str) else None
    if need is None:
        raise ValueError(f"unknown axiom tag {inst.axiom!r}")
    for key in need:
        if key not in inst.data:
            raise ValueError(f"{inst.axiom} instance missing part {key!r}")
    d = dict(inst.data)
    for key in need:
        if key in RATIONAL_PARTS:
            d[key] = parse_rational(d[key])
            if d[key] <= 0:
                raise ValueError(f"{inst.axiom}: {key} must be positive")
        elif d[key].carrier.kind != (f.target if key in TARGET_PARTS else f.source).kind:
            raise ValueError(f"{inst.axiom}: part {key!r} has the wrong carrier")
        elif not d[key].balls:
            raise ValueError(f"{inst.axiom}: part {key!r} must be non-empty")

    if inst.axiom == "MM1":
        if not dominated(d["u_small"], d["u"], 0):
            raise ValueError("MM1: u_small not contained in u")
        if not dominated(d["v_small"], d["v"], 0):
            raise ValueError("MM1: v_small not contained in v")
    elif inst.axiom == "MM5":
        for i in ("1", "2"):
            q = d["q" + i]
            if diameter(d["w" + i]) >= q:
                raise ValueError(f"MM5: delta(w{i}) < q{i} not established")
            if not way_inside(d["v" + i + "p"], q, d["v" + i], 16).is_yes:
                raise ValueError(f"MM5: v{i}p not way inside v{i} with margin q{i}")
        if not (dominated(d["tau"], d["w1"], 0) and dominated(d["tau"], d["w2"], 0)):
            raise ValueError("MM5: tau not contained in both w1 and w2")
    return d


def check_axiom(inst: MMInstance, f: MapRep, effort: int) -> dict:
    """Check one axiom instance against the map within the effort budget.

    The premises in ``MM_PREMISES`` are asked in order; the first that does
    not hold ends the check Inconclusive ("premise not established").
    Otherwise the axiom's checker gets their ``_holds_witness`` witnesses
    (ball of the source part, image of its center), in that order, and gives
    the result and the report's further fields.  Pass: a conclusion witness
    constructed.  Fail: certified counterexample (only MM6 can produce one,
    and never does for a genuine metric map).  Inconclusive: a premise, an
    effort budget or a stage search failed.  A part over the wrong carrier
    raises.
    """
    d = validate_instance(inst, f)
    witnesses = []
    for u, v in MM_PREMISES[inst.axiom]:
        wit = _holds_witness(d[u], d[v], f, effort)
        if wit is None:
            result, extra = INCONCLUSIVE, {"reason": "premise not established"}
            break
        witnesses.append(wit)
    else:
        result, extra = _CHECKERS[inst.axiom](d, f, effort, witnesses)
    return {"axiom": inst.axiom, "result": result, "effort": effort, **extra}


def _check_mm1(d, f, effort, witnesses):
    """Pass.  Lemma: u_small lies in u, so the premise's center does; its
    stage ball b(x_n, 2^-n) is inside some b(c, r) of v_small, v_small lies
    in v, and by the triangle inequality the same stage ball is inside the
    b(c', r') of v with d(c, c') + r <= r'."""
    return PASS, {}


def _check_mm2(d, f, effort, witnesses):
    """Witness b(x, min(r, q/4)) for the premise's ball b(x, r).  Lemma: its
    diameter is at most q/2 < q, and (witness, v) holds, for it images the
    premise's own center and asks the same membership query."""
    q = d["q"]
    b, _image = witnesses[0]
    small = BallOpen.of(
        d["u"].carrier, FormalBall(b.center, min(b.radius, q / 4))
    )
    return PASS, {"witness": small.to_json()}


def _check_mm3(d, f, effort, witnesses):
    """Witness b(x_m, q/4), x the image of u's first center, m least with
    2^-m < q/16.  Lemma: its diameter is q/2 < q; (u, witness) holds at
    effort max(effort, m + 2), whose stage m (any stage of a constant x) is
    the center, inside with radius <= 2^-m < q/4."""
    q = d["q"]
    m = stage_below(q / 16)
    if m > max(effort, 64):
        return INCONCLUSIVE, {"reason": "effort budget exhausted"}
    x = d["u"].balls[0].center
    image = apply_map(f, point_of_carrier(f.source, x))
    v = BallOpen.of(f.target, FormalBall(image.approx(m), q / 4))
    return PASS, {"witness": v.to_json()}


def _check_mm4(d, f, effort, witnesses):
    """Witness b(z, 2^-n + margin/2), z the deepest stage n <= min(effort, 24)
    of the premise's image in v.  Lemma: for the b(c, r) of v behind margin,
    d(z, c) + 2^-n + 3 margin/4 = r - margin/4, so it is way inside v by
    margin/4; and (u, witness) holds, for stage n <= effort of the image is z."""
    _b, image = witnesses[0]
    deepest = deepest_stage(image, d["v"], min(effort, 24))
    if deepest is None:
        return INCONCLUSIVE, {"reason": "no interior stage found"}
    margin, n = deepest
    z = image.approx(n)
    inner = BallOpen.of(d["v"].carrier, FormalBall(z, half_pow(n) + margin / 2))
    return PASS, {"witness": inner.to_json()}


def _check_mm5(d, f, effort, witnesses):
    """Witness b(c, rho), c a stage m of the image of a center of tau and rho
    half its smaller slack in v1 and v2, so it lies in both.  (tau, witness)
    is still queried: it reads stages up to max(effort, n + 2), 2^-n < rho/4,
    and m may exceed that, so the answer rests on the map's stages."""
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
        if holds(d["tau"], v, f, max(effort, n + 2)).is_yes:
            return PASS, {"witness": v.to_json()}
    return INCONCLUSIVE, {"reason": "conclusion search exhausted"}


def _check_mm6(d, f, effort, witnesses):
    """Pass certifies delta(v join vp) <= delta(u) + delta(v) + delta(vp) for
    the formal diameter (``balls.diameter``), an upper bound on the denoted
    one.  Fail needs a pair of centers at exact distance above that sum,
    which refutes the inequality for the denoted diameters too."""
    carrier = d["v"].carrier
    join = BallOpen(carrier, d["v"].balls + d["vp"].balls)
    lhs = diameter(join)
    rhs = sum((diameter(d[k]) for k in ("u", "v", "vp")), Fraction(0))
    if lhs <= rhs:
        return PASS, {"bound": {"lhs": rational_str(lhs), "rhs": rational_str(rhs)}}
    # certified refutation needs a center pair provably farther than rhs
    centers = [b.center for b in join.balls]
    for i, a in enumerate(centers):
        for b in centers[i + 1 :]:
            d_ab = carrier.dist(a, b)
            if d_ab > rhs:
                return FAIL, {"witness": {
                    "pair": [repr(a), repr(b)],
                    "distance_lower": rational_str(d_ab),
                    "rhs_upper": rational_str(rhs),
                }}
    return INCONCLUSIVE, {"reason": "bounds too loose to decide"}


_CHECKERS = {"MM1": _check_mm1, "MM2": _check_mm2, "MM3": _check_mm3,
             "MM4": _check_mm4, "MM5": _check_mm5, "MM6": _check_mm6}


# -- reconstruction of the source-side trace of a point --------------------


def _grid_centers(carrier: MetricCarrier, v: BallOpen, step: Fraction, span: int):
    """The distinct grid centers, in order; a repeated one keeps its first place."""
    if carrier.points is not None:
        return list(dict.fromkeys(carrier.points))
    if carrier.kind == ("line",):
        k_max = int(Fraction(span) / step)
        num, den = step.numerator, step.denominator
        return [Fraction(k * num, den) for k in range(-k_max, k_max + 1)]
    if carrier.components is not None:
        left, right = (_grid_centers(c, v, step, span) for c in carrier.components)
        return [(a, b) for a in left for b in right]
    if carrier.kind != v.carrier.kind:
        raise ValueError(f"no reconstruction grid for source kind {carrier.kind!r}")
    # fallback: centers of the target balls and their pairwise midpoints
    centers = [b.center for b in v.balls]
    if carrier.midpoint is not None:
        centers.extend(
            carrier.midpoint(a.center, b.center)
            for a in v.balls
            for b in v.balls
        )
    return list(dict.fromkeys(centers))


def _grid(effort: int):
    """Shrink levels and center span of the reconstruction grid at this effort."""
    levels = [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    return levels[: min(4, max(1, effort.bit_length() // 2))], 2 + effort // 16


def tau_from_point(f: MapRep, v: BallOpen, effort: int) -> BallOpen:
    """Under-approximate the source open that f maps into v.

    Collects the grid balls W = b(c, q/4), of diameter q/2, for which f
    satisfies the pair (W, v shrunk by q) at effort min(effort, 24).  That
    pair query is Yes iff the ``deepest_stage`` margin of the image of c
    in v exceeds q, so each grid center is imaged and measured once, in
    level-then-grid order, and one ``deepest_stage`` answers it at every
    shrink level.  The memo of those answers lives for this call only.
    The grid (dyadic levels, span growing with effort) only ever adds
    balls as effort grows.
    """
    source = f.source
    levels, span = _grid(effort)
    query_effort = min(effort, 24)
    deepest: dict = {}
    accepted = []
    for q in levels:
        if all(b.radius <= q for b in v.balls):
            continue
        radius = q / 4
        for c in _grid_centers(source, v, radius, span):
            if c not in deepest:
                image = apply_map(f, point_of_carrier(source, c))
                deepest[c] = deepest_stage(image, v, query_effort)
            hit = deepest[c]
            if hit is not None and hit[0] > q:
                accepted.append(FormalBall(c, radius))
    return BallOpen(source, tuple(accepted))


def round_trip(
    f: MapRep, v: BallOpen, probes, effort: int
) -> dict:
    """Reconstruct the pullback of v and compare against direct images.

    Soundness: a probe in the reconstructed open must have its image in v
    (a violation is reported and must never occur for a metric map).
    Coverage: fraction of probes with image in v that the reconstruction
    already captures at this effort.  The reconstruction is
    ``tau_from_point``: one ``deepest_stage`` margin per grid center
    answers every pair query (b(c, q/4), v shrunk by q).
    """
    tau = tau_from_point(f, v, effort)
    query_effort = max(32, min(effort, 64))
    violations = []
    covered = 0
    total_in_v = 0
    for p in probes:
        in_tau = member_query(p, tau, query_effort).is_yes
        in_v = member_query(apply_map(f, p), v, query_effort).is_yes
        if in_v:
            total_in_v += 1
            if in_tau:
                covered += 1
        elif in_tau:
            violations.append(p.to_json(4))
    coverage = Fraction(covered, total_in_v) if total_in_v else Fraction(1)
    levels, span = _grid(effort)
    return {
        "map": f.label,
        "tau": tau.to_json(),
        "sound": not violations,
        "violations": violations,
        "covered": covered,
        "total_in_v": total_in_v,
        "coverage": rational_str(coverage),
        "grid": {"levels": [rational_str(q) for q in levels], "span": span},
    }
