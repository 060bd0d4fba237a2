"""Seeded property catalog: every library law checked against oracles.

Each law function draws its instances from a seeded RNG, checks the
executable form of one algebraic law against an independent brute-force
oracle where one exists, and returns a small JSON-ready report.  The
whole catalog is deterministic for a fixed seed, so two runs serialize
byte-identically.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .balls import BallOpen, FormalBall, diameter_upper, neighborhood, way_inside
from .carriers import MetricCarrier, finite_space, rational_line
from .completion import (
    CompletionPoint,
    FilterSeed,
    point_distance,
    point_of_carrier,
    regularize,
    seed_member_query,
    seed_of_point,
)
from .function_locale import MMInstance, check_axiom, round_trip
from .gelfand import (
    AlgebraElement,
    BasicOpenXR,
    FiniteDiscreteSpace,
    admissibility_theorem_check,
    cstar_identity_check,
    duality_round_trip,
    spectrum_of_cn,
    verify_character,
)
from .maps import MapRep, apply_map, extend_by_density, line_map
from .numbers import half_pow, rational_str
from .reals import (
    abs_r,
    add_r,
    max_r,
    min_r,
    mul_r,
    neg_r,
    real_of_rational,
    sub_r,
)

LINE = rational_line()


def _report(law, failures, checked, **extra):
    out = {
        "law": law,
        "result": "Pass" if not failures else "Fail",
        "checked": checked,
        "failures": failures[:5],
    }
    out.update(extra)
    return out


# -- random finite metric spaces and their brute-force oracles -------------


def random_finite_space(rng: random.Random, max_n: int = 8):
    n = rng.randint(2, max_n)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(2, 32), 2)
    # min-plus closure enforces the triangle inequality
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return finite_space(n, d)


def random_open(rng: random.Random, carrier: MetricCarrier):
    balls = tuple(
        FormalBall(rng.choice(carrier.points), Fraction(rng.randint(1, 32), 4))
        for _ in range(rng.randint(1, 3))
    )
    return BallOpen(carrier, balls)


def denote(u: BallOpen) -> frozenset:
    """Brute-force denotation of a ball open over a finite carrier."""
    return frozenset(
        x
        for x in u.carrier.points
        if any(u.carrier.dist(x, b.center, 0).hi < b.radius for b in u.balls)
    )


def oracle_diam(carrier: MetricCarrier, pts) -> Fraction:
    pts = list(pts)
    best = Fraction(0)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            best = max(best, carrier.dist(a, b, 0).hi)
    return best


def oracle_fatten(carrier: MetricCarrier, pts, q: Fraction) -> frozenset:
    return frozenset(
        y
        for y in carrier.points
        if any(carrier.dist(x, y, 0).hi < q for x in pts)
    )


def law_ball_calculus(seed: int, spaces: int = 200) -> dict:
    rng = random.Random(seed)
    effort = 8
    failures = []
    checked = 0
    for _ in range(spaces):
        sp = random_finite_space(rng)
        u = random_open(rng, sp)
        v = random_open(rng, sp)
        q = Fraction(rng.randint(1, 16), 4)
        du, dv = denote(u), denote(v)

        # neighborhood adjunction: a Yes transfers to the fattened open
        if way_inside(u, q, v, effort).is_yes:
            if not oracle_fatten(sp, du, q) <= dv:
                failures.append({"item": 1, "space": repr(sp.kind)})
            if not way_inside(neighborhood(u, q / 2), q / 2, v, effort).is_yes:
                failures.append({"item": 1, "space": repr(sp.kind), "part": "shift"})

        # diameter is monotone under ball-list inclusion and sound
        keep = rng.randint(1, len(u.balls))
        sub = BallOpen(sp, u.balls[:keep])
        if oracle_diam(sp, denote(sub)) > oracle_diam(sp, du):
            failures.append({"item": 2, "space": repr(sp.kind)})
        if oracle_diam(sp, du) > diameter_upper(u).bound(effort):
            failures.append({"item": 2, "space": repr(sp.kind), "part": "sound"})

        # union diameter is the pairwise maximum
        pieces = [BallOpen.of(sp, b) for b in u.balls]
        pairwise = max(
            oracle_diam(sp, denote(BallOpen(sp, (a.balls[0], b.balls[0]))))
            for a in pieces
            for b in pieces
        )
        if oracle_diam(sp, du) != pairwise:
            failures.append({"item": 5, "space": repr(sp.kind)})

        # overlapping opens: diameter of the join is subadditive
        if du & dv:
            join = BallOpen(sp, u.balls + v.balls)
            if oracle_diam(sp, denote(join)) > oracle_diam(sp, du) + oracle_diam(
                sp, dv
            ):
                failures.append({"item": 6, "space": repr(sp.kind)})

        # chained overlaps: diameter bounded by the sum along the chain
        xs = [rng.choice(sp.points) for _ in range(4)]
        chain = [
            FormalBall(xs[i], sp.dist(xs[i], xs[i + 1], 0).hi + Fraction(1, 2))
            for i in range(3)
        ] + [FormalBall(xs[3], Fraction(1, 2))]
        chain_opens = [BallOpen.of(sp, b) for b in chain]
        total = sum(
            (oracle_diam(sp, denote(o)) for o in chain_opens), Fraction(0)
        )
        if oracle_diam(sp, denote(BallOpen(sp, tuple(chain)))) > total:
            failures.append({"item": 7, "space": repr(sp.kind)})

        # the represented q-neighborhood contains the true fattening
        if not oracle_fatten(sp, du, q) <= denote(neighborhood(u, q)):
            failures.append({"item": 10, "space": repr(sp.kind)})

        # iterated fattening equals one combined step
        q2 = Fraction(rng.randint(1, 16), 4)
        if denote(neighborhood(neighborhood(u, q), q2)) != denote(
            neighborhood(u, q + q2)
        ):
            failures.append({"item": 11, "space": repr(sp.kind)})

        # fattening grows the diameter bound by at most 2q
        if diameter_upper(neighborhood(u, q)).bound(effort) > 2 * q + diameter_upper(
            u
        ).bound(effort):
            failures.append({"item": 12, "space": repr(sp.kind)})
        if oracle_diam(sp, denote(neighborhood(u, q))) > diameter_upper(
            neighborhood(u, q)
        ).bound(effort):
            failures.append({"item": 12, "space": repr(sp.kind), "part": "sound"})

        checked += 1
    return _report("ball-calculus", failures, checked)


# -- completion metric -----------------------------------------------------


def _moving_point(a: Fraction) -> CompletionPoint:
    # stage n sits 2^-(n+1) to the right of its limit a
    return CompletionPoint(LINE, lambda n: a + half_pow(n + 1))


def law_completion_metric(seed: int, triples: int = 500) -> dict:
    rng = random.Random(seed)
    failures = []
    premise_effort = 8
    for idx in range(triples):
        if idx % 2 == 0:
            def pick():
                a = Fraction(rng.randint(-32, 32), 4)
                return (
                    _moving_point(a) if rng.random() < 0.3 else
                    point_of_carrier(LINE, a)
                )
            pts = [pick() for _ in range(3)]
        else:
            sp = random_finite_space(rng, max_n=6)
            pts = [point_of_carrier(sp, rng.choice(sp.points)) for _ in range(3)]
        p, q, r = pts

        for e in range(premise_effort + 1):
            dpq = point_distance(p, q).bound(e)
            dqp = point_distance(q, p).bound(e)
            if dpq != dqp:
                failures.append({"part": "symmetry", "index": idx})
                break

        a = point_distance(p, q).bound(premise_effort) + half_pow(premise_effort)
        b = point_distance(q, r).bound(premise_effort) + half_pow(premise_effort)
        if not point_distance(p, r).less_than(a + b, 4 * premise_effort).is_yes:
            failures.append({"part": "triangle", "index": idx})
    return _report("completion-metric", failures, triples)


# -- regularization --------------------------------------------------------


def law_regularization(seed: int, count: int = 100) -> dict:
    rng = random.Random(seed)
    effort = 64
    failures = []
    for idx in range(count):
        if idx % 2 == 0:
            a = Fraction(rng.randint(-16, 16), 2)
            f = seed_of_point(point_of_carrier(LINE, a), depth=3)
        else:
            base = Fraction(rng.randint(-16, 16), 2)
            gens = tuple(
                BallOpen.of(
                    LINE,
                    FormalBall(
                        base + Fraction(rng.randint(-2, 2), 4),
                        Fraction(rng.randint(4, 12), 4),
                    ),
                )
                for _ in range(rng.randint(1, 3))
            )
            f = FilterSeed(gens)
        r = regularize(f, effort)
        if regularize(r, effort) is not r:
            failures.append({"part": "idempotence", "index": idx})
        for orig, shrunk in zip(
            [g for g in f.generators if g.balls], r.generators
        ):
            # each regularized generator sits way inside its original
            eps = min(
                orig.balls[k].radius - shrunk.balls[k].radius
                for k in range(len(orig.balls))
            )
            if eps <= 0 or not way_inside(shrunk, eps / 2, orig, effort).is_yes:
                failures.append({"part": "containment", "index": idx})
                break
        target = BallOpen.of(
            LINE,
            FormalBall(Fraction(rng.randint(-16, 16), 2), Fraction(rng.randint(1, 8))),
        )
        if seed_member_query(r, target, effort) != seed_member_query(
            regularize(r, effort), target, effort
        ):
            failures.append({"part": "member-equivalence", "index": idx})
    return _report("regularization", failures, count)


# -- exact reals against the rational oracle -------------------------------


def random_real_expr(rng: random.Random, depth: int):
    """Build (RealPoint, exact Fraction, description) together."""
    if depth == 0 or rng.random() < 0.25:
        q = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
        return real_of_rational(q), q, rational_str(q)
    op = rng.choice(["add", "sub", "neg", "abs", "max", "min", "mul"])
    lp, lv, ls = random_real_expr(rng, depth - 1)
    if op == "neg":
        return neg_r(lp), -lv, f"neg({ls})"
    if op == "abs":
        return abs_r(lp), abs(lv), f"abs({ls})"
    rp, rv, rs = random_real_expr(rng, depth - 1)
    if op == "add":
        return add_r(lp, rp), lv + rv, f"add({ls},{rs})"
    if op == "sub":
        return sub_r(lp, rp), lv - rv, f"sub({ls},{rs})"
    if op == "max":
        return max_r(lp, rp), max(lv, rv), f"max({ls},{rs})"
    if op == "min":
        return min_r(lp, rp), min(lv, rv), f"min({ls},{rs})"
    if abs(lv) < 16 and abs(rv) < 16:
        return mul_r(lp, rp, 16), lv * rv, f"mul({ls},{rs},16)"
    return add_r(lp, rp), lv + rv, f"add({ls},{rs})"


def law_exact_reals(seed: int, count: int = 1000) -> dict:
    """Each expression read at 30 bits lies within 2^-30 of its exact value."""
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        p, exact, text = random_real_expr(rng, rng.randint(1, 6))
        got = p.approx(30)
        if abs(got - exact) > half_pow(30):
            failures.append({"expr": text, "index": idx})
    return _report("exact-reals", failures, count)


# -- extension by density: uniqueness of the extension ---------------------


def law_extension_uniqueness(seed: int, count: int = 50, probes: int = 20) -> dict:
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        a = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        b = Fraction(rng.randint(-8, 8), 2)
        slope = max(abs(a), Fraction(1))
        dense = lambda x, a=a, b=b: a * x + b
        exts = [
            extend_by_density(
                LINE, LINE, dense, lambda eps, s=s: eps / s, rng=random.Random(0)
            )
            for s in (slope, 2 * slope)
        ]
        for _ in range(probes):
            base = Fraction(rng.randint(-16, 16), 4)
            p = (
                _moving_point(base) if rng.random() < 0.3 else
                point_of_carrier(LINE, base)
            )
            d = point_distance(apply_map(exts[0], p), apply_map(exts[1], p))
            if not d.less_than(half_pow(20), 48).is_yes:
                failures.append({"index": idx, "probe": rational_str(base)})
                break
    return _report("extension-uniqueness", failures, count)


# -- function locale: axiom checks never Fail, round trips sound -----------


def standard_metric_maps():
    coeffs = [
        (1, 0), (Fraction(1, 2), 0), (-1, 0), (Fraction(1, 3), 1),
        (Fraction(3, 4), Fraction(-1, 2)), (-Fraction(1, 2), 2),
        (Fraction(1, 4), Fraction(1, 4)), (Fraction(2, 3), -1),
        (1, 10), (0, Fraction(1, 2)),
    ]
    return [line_map(a, b) for a, b in coeffs]


def _dyadic(rng: random.Random) -> Fraction:
    """A quarter-integer in [-4, 4]."""
    return Fraction(rng.randint(-16, 16), 4)


def random_mm_instance(rng: random.Random) -> MMInstance:
    axiom = rng.choice(["MM1", "MM2", "MM3", "MM4", "MM5", "MM6"])

    def rand_open():
        return BallOpen(
            LINE,
            tuple(
                FormalBall(_dyadic(rng), Fraction(rng.randint(1, 16), 4))
                for _ in range(rng.randint(1, 2))
            ),
        )

    if axiom == "MM1":
        u = rand_open()
        v = rand_open()
        bu, bv = rng.choice(u.balls), rng.choice(v.balls)
        return MMInstance(
            "MM1",
            {
                "u_small": BallOpen.of(LINE, FormalBall(bu.center, bu.radius / 2)),
                "v_small": BallOpen.of(LINE, FormalBall(bv.center, bv.radius / 2)),
                "u": u,
                "v": v,
            },
        )
    if axiom == "MM2":
        return MMInstance(
            "MM2",
            {"u": rand_open(), "v": rand_open(), "q": Fraction(rng.randint(1, 8), 4)},
        )
    if axiom == "MM3":
        return MMInstance(
            "MM3", {"u": rand_open(), "q": Fraction(rng.randint(1, 8), 4)}
        )
    if axiom == "MM4":
        return MMInstance("MM4", {"u": rand_open(), "v": rand_open()})
    if axiom == "MM5":
        q1 = Fraction(rng.randint(2, 8), 4)
        q2 = Fraction(rng.randint(2, 8), 4)
        c1 = _dyadic(rng)
        c2 = c1 + Fraction(rng.randint(-1, 1), 16)
        w1 = BallOpen.of(LINE, FormalBall(c1, q1 / 4))
        w2 = BallOpen.of(LINE, FormalBall(c2, q2 / 4))
        t = min(
            q1 / 4 - abs(c1 - c2), q2 / 4 - abs(c1 - c2), Fraction(1, 16)
        )
        tau = BallOpen.of(LINE, FormalBall(c2, max(t, Fraction(1, 64))))
        def v_pair(q):
            y = _dyadic(rng)
            big = Fraction(rng.randint(1, 8), 2) + q
            return (
                BallOpen.of(LINE, FormalBall(y, big)),
                BallOpen.of(LINE, FormalBall(y, big - q)),
            )
        v1, v1p = v_pair(q1)
        v2, v2p = v_pair(q2)
        return MMInstance(
            "MM5",
            {
                "w1": w1, "w2": w2, "tau": tau, "q1": q1, "q2": q2,
                "v1": v1, "v2": v2, "v1p": v1p, "v2p": v2p,
            },
        )
    return MMInstance("MM6", {"u": rand_open(), "v": rand_open(), "vp": rand_open()})


def law_function_locale(
    seed: int, instances: int = 50, effort: int = 32, rt_effort: int = 64
) -> dict:
    """Axiom checks and round trips on each of ``standard_metric_maps``."""
    rng = random.Random(seed)
    maps = standard_metric_maps()
    failures = []
    checked = 0
    for f in maps:
        for _ in range(instances):
            inst = random_mm_instance(rng)
            res = check_axiom(inst, f, effort)
            checked += 1
            if res["result"] == "Fail":
                failures.append({"map": f.label, "axiom": inst.axiom, "report": res})
    rt_reports = []
    for f in maps:
        v = BallOpen.of(LINE, FormalBall(Fraction(0), Fraction(2)))
        probes = [point_of_carrier(LINE, x) for x in coverage_probes(f)]
        rep = round_trip(f, v, probes, rt_effort)
        rt_reports.append(
            {"map": f.label, "sound": rep["sound"], "coverage": rep["coverage"]}
        )
        if not rep["sound"]:
            failures.append({"map": f.label, "round_trip": rep["violations"]})
    return _report(
        "function-locale", failures, checked, round_trips=rt_reports
    )


def coverage_probes(f: MapRep):
    """Ten dyadic probes whose images sit in b(0,2) with a healthy margin."""
    # recover the affine coefficients from two carrier images
    y0 = f.carrier_map(Fraction(0)).approx(0)
    y1 = f.carrier_map(Fraction(1)).approx(0)
    a = y1 - y0
    if a == 0:
        return [Fraction(k, 4) for k in range(-5, 5)]
    lo = (-1 - y0) / a
    hi = (1 - y0) / a
    lo, hi = min(lo, hi), max(lo, hi)
    step = (hi - lo) / 11
    out = []
    for k in range(1, 11):
        x = lo + k * step
        # snap to the dyadic grid so membership margins stay healthy
        out.append(Fraction(round(x * 16), 16))
    return out


# -- finite duality --------------------------------------------------------


def random_basic_open(rng: random.Random, n: int) -> BasicOpenXR:
    """At most two lower and two upper constraints on random subsets."""

    def constraints():
        out = []
        for _ in range(rng.randint(0, 2)):
            s = frozenset(x for x in range(n) if rng.random() < 0.5)
            out.append((s, Fraction(rng.randint(-4, 4), 2)))
        return out

    return BasicOpenXR.of(constraints(), constraints())


def enumerate_basic_opens(n: int, grid=(-2, -1, 0, 1, 2)):
    """Every instance with at most two lower and two upper constraints."""
    from itertools import combinations

    subsets = []
    for mask in range(1, 2 ** n):
        subsets.append(frozenset(i for i in range(n) if mask >> i & 1))
    pairs = [(s, Fraction(g)) for s in subsets for g in grid]
    sides = [()]
    for k in (1, 2):
        sides.extend(combinations(pairs, k))
    for lowers in sides:
        for uppers in sides:
            yield BasicOpenXR.of(lowers, uppers)


def law_gelfand(
    seed: int,
    random_n3: int = 1000,
    cstar_samples: int = 20,
    max_spec_n: int = 4,
) -> dict:
    """Admissibility of every small instance for n = 1, 2 and of random ones
    for n = 3, spectra up to max_spec_n points, and the C* identity."""
    rng = random.Random(seed)
    failures = []
    checked = 0

    for n in (1, 2):
        rep = admissibility_theorem_check(
            FiniteDiscreteSpace(n), enumerate_basic_opens(n)
        )
        checked += rep["checked"]
        if rep["result"] != "Pass":
            failures.append({"part": f"admissibility n={n}", "report": rep})

    sp3 = FiniteDiscreteSpace(3)
    rep = admissibility_theorem_check(
        sp3, (random_basic_open(rng, 3) for _ in range(random_n3))
    )
    checked += rep["checked"]
    if rep["result"] != "Pass":
        failures.append({"part": "admissibility n=3 random", "report": rep})

    for n in range(1, max_spec_n + 1):
        chars = spectrum_of_cn(n)
        if len(chars) != n:
            failures.append({"part": f"spectrum count n={n}"})
        samples = [
            (
                AlgebraElement.of_rationals(
                    [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                     for _ in range(n)]
                ),
                AlgebraElement.of_rationals(
                    [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                     for _ in range(n)]
                ),
            )
        ]
        for chi in chars:
            rep = verify_character(chi, samples, bound=8, k=16)
            checked += 1
            if rep["result"] != "Pass":
                failures.append({"part": f"character n={n}", "report": rep})
        rep = duality_round_trip(n, k=16)
        checked += 1
        if rep["result"] != "Pass":
            failures.append({"part": f"duality n={n}", "report": rep})

    for idx in range(cstar_samples):
        n = rng.randint(1, 3)
        a = AlgebraElement.of_rationals(
            [
                (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
                for _ in range(n)
            ]
        )
        rep = cstar_identity_check(a, bound=8, k=20)
        checked += 1
        if rep["result"] != "Pass":
            failures.append({"part": "cstar", "index": idx, "report": rep})
    return _report("gelfand-finite", failures, checked)


# -- the suite -------------------------------------------------------------


def run_law_suite(seed: int = 0, effort: int = 64) -> dict:
    """The moderate-size catalog run by the CLI; deterministic per seed."""
    laws = [
        law_ball_calculus(seed, spaces=60),
        law_completion_metric(seed + 1, triples=120),
        law_regularization(seed + 2, count=40),
        law_exact_reals(seed + 3, count=250),
        law_extension_uniqueness(seed + 4, count=15, probes=8),
        law_function_locale(seed + 5, instances=12, effort=min(effort, 32)),
        law_gelfand(seed + 6, random_n3=300, cstar_samples=8, max_spec_n=3),
    ]
    return {
        "seed": seed,
        "effort": effort,
        "result": "Pass" if all(l["result"] == "Pass" for l in laws) else "Fail",
        "laws": laws,
    }


def suite_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
