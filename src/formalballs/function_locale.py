"""The presented locale of maps: pair propositions and axiom checks.

Basic propositions pair a source ball open with a target ball open; a map
satisfies one as soon as some source center provably maps into the target
open.  The six presentation axioms are checked on concrete instances by
bounded search over generated candidate balls.  Pass and Fail answers are
definitive; Inconclusive means a premise was not established or the
candidate grid was exhausted, never that the axiom is refuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .balls import BallOpen, FormalBall, diameter_upper, way_inside
from .carriers import MetricCarrier
from .completion import member_query, point_of_carrier
from .maps import MapRep, apply_map
from .numbers import half_pow, parse_rational, rational_str, stage_below
from .upper import Query

PASS = "Pass"
INCONCLUSIVE = "Inconclusive"
FAIL = "Fail"

# the part names of each presentation axiom's instances; RATIONAL_PARTS are
# positive rationals, every other part a non-empty ball open
MM_PARTS = {
    "MM1": ("u_small", "v_small", "u", "v"),
    "MM2": ("u", "v", "q"),
    "MM3": ("u", "q"),
    "MM4": ("u", "v"),
    "MM5": ("w1", "w2", "tau", "q1", "q2", "v1", "v2", "v1p", "v2p"),
    "MM6": ("u", "v", "vp"),
}
RATIONAL_PARTS = ("q", "q1", "q2")


@dataclass(frozen=True)
class PairProp:
    """A basic proposition: source open u paired with target open v."""

    u: BallOpen
    v: BallOpen


def holds(pp: PairProp, f: MapRep, effort: int, images=None) -> Query:
    """Semi-decide the proposition against the map.

    Yes iff the image of some center of u is provably a member of v at
    this effort; sound for positivity of the pulled-back overlap.
    ``images``, if given, is a dict from probe to its image point under f,
    read and filled in place so repeated probes are imaged once.
    """
    if _holds_witness(pp.u, pp.v, f, effort, images=images) is None:
        return Query.NOT_YET
    return Query.YES


def _holds_witness(
    u: BallOpen, v: BallOpen, f: MapRep, effort: int, extra_probes=(), images=None
):
    """A witnessing (ball of u, image point) for holds, or None.

    Probes the centers of u first, then each extra probe that provably
    lies inside a ball of u (which is the ball reported for it).
    """
    if not u.balls or not v.balls:
        return None
    if f.source.kind != u.carrier.kind:
        raise ValueError("proposition source does not match the map's source")
    probes = [(b, b.center) for b in u.balls]
    for x in extra_probes:
        for b in u.balls:
            if u.carrier.dist(x, b.center, effort).hi < b.radius:
                probes.append((b, x))
                break
    for b, x in probes:
        image = None if images is None else images.get(x)
        if image is None:
            image = apply_map(f, point_of_carrier(f.source, x))
            if images is not None:
                images[x] = image
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


def _contained(small: BallOpen, big: BallOpen, effort: int) -> bool:
    """Ball-level containment: each ball of small inside one ball of big."""
    for bs in small.balls:
        ok = False
        for bb in big.balls:
            d = small.carrier.dist(bs.center, bb.center, effort).hi
            if d + bs.radius <= bb.radius:
                ok = True
                break
        if not ok:
            return False
    return True


def validate_instance(inst: MMInstance) -> None:
    """Reject malformed instances (missing parts or failed side conditions).

    The side conditions of MM1 and MM5 are established at effort 16.
    """
    need = MM_PARTS.get(inst.axiom) if isinstance(inst.axiom, str) else None
    if need is None:
        raise ValueError(f"unknown axiom tag {inst.axiom!r}")
    for key in need:
        if key not in inst.data:
            raise ValueError(f"{inst.axiom} instance missing part {key!r}")
    d = inst.data
    effort = 16
    for key in need:
        if key in RATIONAL_PARTS:
            if parse_rational(d[key]) <= 0:
                raise ValueError(f"{inst.axiom}: {key} must be positive")
        elif not d[key].balls:
            raise ValueError(f"{inst.axiom}: part {key!r} must be non-empty")

    if inst.axiom == "MM1":
        if not _contained(d["u_small"], d["u"], effort):
            raise ValueError("MM1: u_small not contained in u")
        if not _contained(d["v_small"], d["v"], effort):
            raise ValueError("MM1: v_small not contained in v")
    elif inst.axiom == "MM5":
        for i in ("1", "2"):
            q = parse_rational(d["q" + i])
            if not diameter_upper(d["w" + i]).less_than(q, effort).is_yes:
                raise ValueError(f"MM5: delta(w{i}) < q{i} not established")
            if not way_inside(d["v" + i + "p"], q, d["v" + i], effort).is_yes:
                raise ValueError(f"MM5: v{i}p not way inside v{i} with margin q{i}")
        if not (
            _contained(d["tau"], d["w1"], effort)
            and _contained(d["tau"], d["w2"], effort)
        ):
            raise ValueError("MM5: tau not contained in both w1 and w2")


def _result(axiom, result, effort, **extra):
    out = {"axiom": axiom, "result": result, "effort": effort}
    out.update(extra)
    return out


def check_axiom(inst: MMInstance, f: MapRep, effort: int) -> dict:
    """Check one axiom instance against the map within the effort budget.

    Pass: premises established and a conclusion witness was found.
    Fail: certified counterexample (only MM6 can produce one, and never
    does for a genuine metric map).  Everything else is Inconclusive.
    """
    validate_instance(inst)
    d = inst.data
    checker = {
        "MM1": _check_mm1,
        "MM2": _check_mm2,
        "MM3": _check_mm3,
        "MM4": _check_mm4,
        "MM5": _check_mm5,
        "MM6": _check_mm6,
    }[inst.axiom]
    return checker(d, f, effort)


def _check_mm1(d, f, effort):
    if _holds_witness(d["u_small"], d["v_small"], f, effort) is None:
        return _result("MM1", INCONCLUSIVE, effort, reason="premise not established")
    # centers of the small parts are valid probes for the large ones
    probes = [b.center for b in d["u_small"].balls]
    if _holds_witness(d["u"], d["v"], f, effort, probes) is not None:
        return _result("MM1", PASS, effort)
    return _result("MM1", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def _check_mm2(d, f, effort):
    q = parse_rational(d["q"])
    wit = _holds_witness(d["u"], d["v"], f, effort)
    if wit is None:
        return _result("MM2", INCONCLUSIVE, effort, reason="premise not established")
    b, _image = wit
    small = BallOpen.of(
        d["u"].carrier, FormalBall(b.center, min(b.radius, q / 4))
    )
    if (
        diameter_upper(small).less_than(q, effort).is_yes
        and holds(PairProp(small, d["v"]), f, effort).is_yes
    ):
        return _result("MM2", PASS, effort, witness=small.to_json())
    return _result("MM2", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def _check_mm3(d, f, effort):
    q = parse_rational(d["q"])
    # stage depth needed for the image center to certify membership
    m = stage_below(q / 16)
    if m > max(effort, 64):
        return _result("MM3", INCONCLUSIVE, effort, reason="effort budget exhausted")
    x = d["u"].balls[0].center
    image = apply_map(f, point_of_carrier(f.source, x))
    center = image.approx(m)
    v = BallOpen.of(f.target, FormalBall(center, q / 4))
    if (
        diameter_upper(v).less_than(q, effort).is_yes
        and holds(PairProp(d["u"], v), f, max(effort, m + 2)).is_yes
    ):
        return _result("MM3", PASS, effort, witness=v.to_json())
    return _result("MM3", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def _check_mm4(d, f, effort):
    wit = _holds_witness(d["u"], d["v"], f, effort)
    if wit is None:
        return _result("MM4", INCONCLUSIVE, effort, reason="premise not established")
    _b, image = wit
    carrier = d["v"].carrier
    best = None  # (slack, stage, stage center)
    top = min(effort, 24)
    # a constant image's slack rises strictly with n, so its best is at top
    # (apply_map flags the image of a constant when it builds it)
    for n in (top,) if image.is_constant else range(top + 1):
        z = image.approx(n)
        for bv in d["v"].balls:
            slack = bv.radius - carrier.dist(z, bv.center, effort).hi - half_pow(n)
            if slack > 0 and (best is None or slack > best[0]):
                best = (slack, n, z)
    if best is None:
        return _result("MM4", INCONCLUSIVE, effort, reason="no interior stage found")
    slack, n, z = best
    inner = BallOpen.of(carrier, FormalBall(z, half_pow(n) + slack / 2))
    k = stage_below(slack / 4)
    if (
        way_inside(inner, slack / 4, d["v"], effort).is_yes
        and holds(PairProp(d["u"], inner), f, max(effort, k + 2)).is_yes
    ):
        return _result("MM4", PASS, effort, witness=inner.to_json())
    return _result("MM4", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def _check_mm5(d, f, effort):
    for i in ("1", "2"):
        if not holds(PairProp(d["w" + i], d["v" + i + "p"]), f, effort).is_yes:
            return _result(
                "MM5", INCONCLUSIVE, effort, reason="premise not established"
            )
    carrier = d["v1"].carrier
    for b in d["tau"].balls:
        image = apply_map(f, point_of_carrier(f.source, b.center))
        m = 8
        for _round in range(4):
            c = image.approx(m)
            slack = min(
                max(bv.radius - carrier.dist(c, bv.center, effort).hi for bv in vi.balls)
                for vi in (d["v1"], d["v2"])
            )
            if slack > 0 and half_pow(m) < slack / 8:
                break
            m *= 2
        else:
            continue
        rho = slack / 2
        v = BallOpen.of(carrier, FormalBall(c, rho))
        n = stage_below(rho / 4)
        if (
            _contained(v, d["v1"], effort)
            and _contained(v, d["v2"], effort)
            and holds(PairProp(d["tau"], v), f, max(effort, n + 2)).is_yes
        ):
            return _result("MM5", PASS, effort, witness=v.to_json())
    return _result("MM5", INCONCLUSIVE, effort, reason="conclusion search exhausted")


def _check_mm6(d, f, effort):
    for key in ("v", "vp"):
        if not holds(PairProp(d["u"], d[key]), f, effort).is_yes:
            return _result(
                "MM6", INCONCLUSIVE, effort, reason="premise not established"
            )
    carrier = d["v"].carrier
    join = BallOpen(carrier, d["v"].balls + d["vp"].balls)
    lhs_hi = diameter_upper(join).bound(effort)
    rhs_hi = sum(
        (diameter_upper(d[k]).bound(effort) for k in ("u", "v", "vp")),
        Fraction(0),
    )
    if lhs_hi <= rhs_hi:
        return _result(
            "MM6", PASS, effort,
            bound={"lhs": rational_str(lhs_hi), "rhs": rational_str(rhs_hi)},
        )
    # certified refutation needs a center pair provably farther than rhs
    centers = [b.center for b in join.balls]
    for i, a in enumerate(centers):
        for b in centers[i + 1 :]:
            lo = carrier.dist(a, b, effort).lo
            if lo > rhs_hi:
                return _result(
                    "MM6", FAIL, effort,
                    witness={
                        "pair": [repr(a), repr(b)],
                        "distance_lower": rational_str(lo),
                        "rhs_upper": rational_str(rhs_hi),
                    },
                )
    return _result("MM6", INCONCLUSIVE, effort, reason="bounds too loose to decide")


# -- reconstruction of the source-side trace of a point --------------------


def _grid_centers(carrier: MetricCarrier, v: BallOpen, step: Fraction, span: int):
    if carrier.points is not None:
        return list(carrier.points)
    if carrier.kind == ("line",):
        k_max = int(Fraction(span) / step)
        return [k * step for k in range(-k_max, k_max + 1)]
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
    return centers


def _grid(effort: int):
    """Shrink levels and center span of the reconstruction grid at this effort."""
    levels = [Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    return levels[: min(4, max(1, effort.bit_length() // 2))], 2 + effort // 16


def tau_from_point(
    oracle: Callable[[PairProp, int], Query],
    source: MetricCarrier,
    v: BallOpen,
    effort: int,
) -> BallOpen:
    """Under-approximate the source open tracing v through the point oracle.

    Collects grid balls W with small diameter for which the oracle affirms
    (W, V') for some q-shrinking V' of v.  The grid (dyadic levels, span
    growing with effort) only ever adds balls as effort grows.
    """
    levels, span = _grid(effort)
    query_effort = min(effort, 24)
    accepted: dict = {}
    for q in levels:
        shrunk = [
            FormalBall(b.center, b.radius - q) for b in v.balls if b.radius > q
        ]
        if not shrunk:
            continue
        v_inner = BallOpen(v.carrier, tuple(shrunk))
        for c in _grid_centers(source, v, q / 4, span):
            key = (c, q / 4)
            if key in accepted:
                continue
            w = BallOpen.of(source, FormalBall(c, q / 4))
            if oracle(PairProp(w, v_inner), query_effort).is_yes:
                accepted[key] = w.balls[0]
    return BallOpen(source, tuple(accepted.values()))


def round_trip(
    f: MapRep, v: BallOpen, probes, effort: int
) -> dict:
    """Reconstruct the pullback of v and compare against direct images.

    Soundness: a probe in the reconstructed open must have its image in v
    (a violation is reported and must never occur for a metric map).
    Coverage: fraction of probes with image in v that the reconstruction
    already captures at this effort.

    The ``holds`` oracle shares one dict from grid center to image point
    across the shrink levels, so each center is imaged once per call.  The
    dict lives only for this call: it is never kept on the map, where
    equal centers of different types (1 and Fraction(1)) would share one.
    """
    images: dict = {}
    tau = tau_from_point(
        lambda pp, e: holds(pp, f, e, images=images), f.source, v, effort
    )
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
