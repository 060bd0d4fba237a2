"""The four benchmark workloads: seeded inputs, timed operations and their oracles.

A workload is a stream of *periods*.  A period holds a fixed number of
operations of each kind in a seeded order, and period ``i`` of seed ``s`` is
drawn from its own generator.  A run's operations are the first ``periods``
periods, so every run with one seed executes the same list.  Inputs are
plain data (Fractions, tuples, strings); ``run`` turns them into library
objects through the public API inside the timed region, and ``check`` judges
the answer with the oracles in ``oracles.py`` only.

Operations share only the immutable objects ``setup`` builds (carriers and
fixed opens), so an answer depends on its own input alone; the determinism
check in ``run.py`` relies on that.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction as F

from formalballs.balls import (
    BallOpen,
    FormalBall,
    diameter_upper,
    meet_witness,
    neighborhood,
    way_inside,
)
from formalballs.carriers import finite_space, rational_line
from formalballs.cli import build_parser, main as cli_main
from formalballs.completion import (
    CertificateError,
    CompletionPoint,
    FilterSeed,
    point_distance,
    point_of_carrier,
    regularize,
)
from formalballs.function_locale import MMInstance, check_axiom, round_trip
from formalballs.gelfand import (
    AlgebraElement,
    BasicOpenXR,
    FiniteDiscreteSpace,
    has_point,
    is_admissible,
    spectrum_of_cn,
    sup_norm_interval,
    verify_character,
)
from formalballs.maps import (
    ISOMETRIC,
    METRIC,
    UNIFORM,
    MapRep,
    apply_map,
    compose_maps,
    extend_by_density,
)
from formalballs.numbers import sqrt_lower
from formalballs.reals import (
    ComplexPoint,
    RealPoint,
    abs_r,
    add_r,
    max_r,
    min_r,
    modulus_interval,
    mul_c,
    mul_r,
    neg_r,
    real_of_rational,
    scale_r,
    sub_r,
)

import oracles as O


def _schedule(rng, mix):
    """One period: each kind repeated its count of times, in seeded order."""
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def _dyadic(rng, span=4, den=4) -> F:
    return F(rng.randint(-span * den, span * den), den)


class Workload:
    name = ""
    mix: tuple = ()
    periods = 1  # periods in the fixed list of operations a run repeats

    def rng(self, seed: int, tag) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{tag}")

    def setup(self, seed: int):
        raise NotImplementedError

    def period(self, seed: int, index: int) -> list:
        rng = self.rng(seed, index)
        return [getattr(self, "gen_" + kind)(rng) for kind in _schedule(rng, self.mix)]

    def run(self, ctx, spec):
        return getattr(self, "run_" + spec[0])(ctx, spec)

    def check(self, spec, answer) -> bool:
        return getattr(self, "check_" + spec[0])(spec, answer)

    def known_defect(self, spec) -> bool:
        """True for inputs the benchmark includes because the program mishandles them."""
        return False


# -- locale: the map space ---------------------------------------------------
#
# Maps are affine on the line: ("line", a, b) is x -> a x + b with |a| <= 1,
# ("scale", q) is x -> q x with |q| > 1 (uniform, not 1-Lipschitz), and
# ("compose", (a1, b1), (a2, b2)) is the line map (a1, b1) after (a2, b2).


def _affine(mspec):
    if mspec[0] == "line":
        return mspec[1], mspec[2]
    if mspec[0] == "scale":
        return mspec[1], F(0)
    (a1, b1), (a2, b2) = mspec[1], mspec[2]
    return a1 * a2, a1 * b2 + b1


def _line_map(line, a, b):
    return MapRep(
        source=line,
        target=line,
        carrier_map=lambda x: point_of_carrier(line, a * x + b),
        modulus=lambda eps: eps,
        cls=ISOMETRIC if abs(a) == 1 else METRIC,
        label=f"affine({O.qstr(a)},{O.qstr(b)})",
    )


def _build_map(line, mspec):
    if mspec[0] == "line":
        return _line_map(line, mspec[1], mspec[2])
    if mspec[0] == "scale":
        q = mspec[1]
        s = abs(q)
        return MapRep(
            source=line,
            target=line,
            carrier_map=lambda x: point_of_carrier(line, q * x),
            modulus=lambda eps: eps / s,
            cls=UNIFORM,
            label=f"scale({O.qstr(q)})",
        )
    return compose_maps(_line_map(line, *mspec[1]), _line_map(line, *mspec[2]))


_SLOPES = [F(1), F(-1), F(1, 2), F(-1, 2), F(3, 4), F(-3, 4), F(1, 3), F(2, 3)]


def _gen_line_map(rng):
    return ("line", rng.choice(_SLOPES), F(rng.randint(-4, 4), 4))


def _gen_mm_map(rng, kind):
    if kind == "line":
        return _gen_line_map(rng)
    if kind == "compose":
        return ("compose", _gen_line_map(rng)[1:], _gen_line_map(rng)[1:])
    return ("scale", rng.choice([F(2), F(-3), F(4), F(5, 2)]))


_AXIOMS = ["MM1", "MM2", "MM3", "MM4", "MM5", "MM6"]


def _gen_mm_parts(rng, axiom):
    """The parts of an instance of one presentation axiom; opens are tuples of (center, radius)."""

    def rand_open(k=None):
        return tuple(
            (_dyadic(rng), F(rng.randint(1, 16), 4))
            for _ in range(k or rng.randint(1, 2))
        )

    if axiom == "MM1":
        u, v = rand_open(), rand_open()
        (cu, ru), (cv, rv) = rng.choice(u), rng.choice(v)
        return {"u_small": ((cu, ru / 2),), "v_small": ((cv, rv / 2),), "u": u, "v": v}
    if axiom == "MM2":
        return {"u": rand_open(), "v": rand_open(), "q": F(rng.randint(1, 8), 4)}
    if axiom == "MM3":
        return {"u": rand_open(), "q": F(rng.randint(1, 8), 4)}
    if axiom == "MM4":
        return {"u": rand_open(), "v": rand_open()}
    if axiom == "MM5":
        q1, q2 = F(rng.randint(2, 8), 4), F(rng.randint(2, 8), 4)
        c1 = _dyadic(rng)
        c2 = c1 + F(rng.randint(-1, 1), 16)
        t = min(q1 / 4 - abs(c1 - c2), q2 / 4 - abs(c1 - c2), F(1, 16))
        parts = {
            "w1": ((c1, q1 / 4),),
            "w2": ((c2, q2 / 4),),
            "tau": ((c2, t),),
            "q1": q1,
            "q2": q2,
        }
        for i, q in (("1", q1), ("2", q2)):
            y = _dyadic(rng)
            big = F(rng.randint(1, 8), 2) + q
            parts["v" + i] = ((y, big),)
            parts["v" + i + "p"] = ((y, big - q),)
        return parts
    return {"u": rand_open(), "v": rand_open(), "vp": rand_open()}


def _ball_json(ball_json):
    return O.parse_repr(ball_json["c"]), F(ball_json["r"])


def check_mm_report(axiom, parts, fn, report) -> bool:
    """No Fail, and every Pass witness certified against the exact map ``fn``."""
    if report.get("axiom") != axiom or report.get("result") not in ("Pass", "Inconclusive"):
        return False
    if report["result"] != "Pass":
        return True

    def inside(y, balls):
        return any(abs(y - c) < r for c, r in balls)

    if axiom in ("MM2", "MM3", "MM4", "MM5"):
        (c, r), = [_ball_json(b) for b in report["witness"]["balls"]]
    if axiom == "MM2":
        return 2 * r < parts["q"] and c in [x for x, _ in parts["u"]] and inside(fn(c), parts["v"])
    if axiom == "MM3":
        return 2 * r < parts["q"] and any(inside(fn(x), [(c, r)]) for x, _ in parts["u"])
    if axiom == "MM4":
        return any(abs(c - cv) + r < rv for cv, rv in parts["v"]) and any(
            inside(fn(x), [(c, r)]) for x, _ in parts["u"]
        )
    if axiom == "MM5":
        contained = all(
            any(abs(c - cv) + r <= rv for cv, rv in parts[k]) for k in ("v1", "v2")
        )
        return contained and any(inside(fn(x), [(c, r)]) for x, _ in parts["tau"])
    if axiom == "MM6":
        dist = lambda a, b: abs(a - b)
        lhs = O.diameter_formula(dist, parts["v"] + parts["vp"])
        rhs = sum(O.diameter_formula(dist, parts[k]) for k in ("u", "v", "vp"))
        return report["bound"] == {"lhs": O.qstr(lhs), "rhs": O.qstr(rhs)} and lhs <= rhs
    return True


class Locale(Workload):
    name = "locale"
    # every period checks each axiom on the same number of maps of each kind;
    # MM3 is about ten times cheaper than the rest, so a seeded share of it
    # would move the median latency
    MM_STRATA = tuple(
        (axiom, kind)
        for axiom in _AXIOMS
        for kind, count in (("line", 18), ("compose", 6), ("scale", 6))
        for _ in range(count)
    )
    # one round trip and 20 probes in 201 operations: the tail percentile
    # (10 operations beyond it) falls in the middle of the probes
    mix = (("rt", 1), ("ext", 20), ("mm", len(MM_STRATA)))
    periods = 1
    MM_EFFORT = 32
    EXT_EFFORT = 48
    RT_EFFORT = 256
    # one slope for every seed, so each run does the same round-trip work
    RT_SLOPE = F(1, 2)

    def setup(self, seed):
        line = rational_line()
        return {"line": line, "rt_target": BallOpen.of(line, FormalBall(F(0), F(2)))}

    def period(self, seed, index):
        self._strata = iter(self.MM_STRATA)
        return super().period(seed, index)

    # MM1-MM6 instances on line, composed and scaling maps
    def gen_mm(self, rng):
        axiom, kind = next(self._strata)
        mspec = _gen_mm_map(rng, kind)
        return ("mm", mspec, axiom, _gen_mm_parts(rng, axiom))

    def run_mm(self, ctx, spec):
        _, mspec, axiom, parts = spec
        line = ctx["line"]
        data = {
            k: v if isinstance(v, F) else BallOpen(line, tuple(FormalBall(c, r) for c, r in v))
            for k, v in parts.items()
        }
        return check_axiom(MMInstance(axiom, data), _build_map(line, mspec), self.MM_EFFORT)

    def check_mm(self, spec, answer):
        _, mspec, axiom, parts = spec
        a, b = _affine(mspec)
        return check_mm_report(axiom, parts, lambda x: a * x + b, answer)

    # two dense extensions of one affine map must agree on every probe
    def gen_ext(self, rng):
        a = F(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        b = F(rng.randint(-8, 8), 2)
        probes = tuple((F(rng.randint(-16, 16), 4), rng.random() < 0.3) for _ in range(4))
        return ("ext", a, b, probes)

    def run_ext(self, ctx, spec):
        _, a, b, probes = spec
        line = ctx["line"]
        slope = max(abs(a), F(1))
        exts = [
            extend_by_density(
                line, line, lambda x: a * x + b, lambda eps, s=s: eps / s,
                rng=random.Random(0),
            )
            for s in (slope, 2 * slope)
        ]
        out = []
        for base, moving in probes:
            if moving:
                p = CompletionPoint(line, lambda n, base=base: base + F(1, 2 << n))
            else:
                p = point_of_carrier(line, base)
            i0, i1 = apply_map(exts[0], p), apply_map(exts[1], p)
            agree = point_distance(i0, i1).less_than(F(1, 1 << 20), self.EXT_EFFORT)
            out.append([agree.label, O.qstr(i0.approx(24))])
        return out

    def check_ext(self, spec, answer):
        _, a, b, probes = spec
        return len(answer) == len(probes) and all(
            label == "Yes" and O.within(F(value), a * base + b, 24)
            for (label, value), (base, _) in zip(answer, probes)
        )

    # round trip of b(0, 2) through a metric line map at effort 256
    def gen_rt(self, rng):
        a, b = self.RT_SLOPE, F(rng.randint(-4, 4), 4)
        # probes on the 1/16 grid whose images lie in b(0, 1)
        ys = [F(2 * k, 11) - 1 for k in range(1, 11)]
        probes = tuple(F(round((y - b) / a * 16), 16) for y in ys)
        return ("rt", a, b, probes)

    def run_rt(self, ctx, spec):
        _, a, b, probes = spec
        line = ctx["line"]
        rep = round_trip(
            _line_map(line, a, b),
            ctx["rt_target"],
            [point_of_carrier(line, x) for x in probes],
            self.RT_EFFORT,
        )
        return {
            "sound": rep["sound"],
            "coverage": rep["coverage"],
            "total_in_v": rep["total_in_v"],
            "tau": [[b["c"], b["r"]] for b in rep["tau"]["balls"]],
        }

    def check_rt(self, spec, answer):
        _, a, b, probes = spec
        tau = [(O.parse_repr(c), F(r)) for c, r in answer["tau"]]
        in_v = sum(1 for x in probes if abs(a * x + b) < 2)
        # the reconstructed open must map into b(0, 2): |a c + b| + |a| r < 2
        return (
            answer["sound"]
            and F(answer["coverage"]) >= F(4, 5)
            and answer["total_in_v"] == in_v
            and all(abs(a * c + b) + abs(a) * r < 2 for c, r in tau)
        )


# -- finite: ball calculus, completion distances, finite duality -------------


class Finite(Workload):
    name = "finite"
    # one character check (about 10 ms) per 151 operations keeps the tail
    # percentile on the ball calculus and the large spaces
    mix = (("calc", 40), ("meet", 40), ("dist", 40), ("adm", 30), ("char", 1))
    periods = 25
    EFFORT = 8
    DIST_EFFORT = 32
    # sizes of the fixed spaces; only their distances come from the seed, so
    # setup (an n^3 triangle check a space) does the same work for every seed
    SIZES = (3, 6, 9, 12, 15, 18, 21, 24)

    def tables(self, seed):
        rng = self.rng(seed, "spaces")
        return [O.min_plus_closure(n, rng) for n in self.SIZES]

    def setup(self, seed):
        tables = self.tables(seed)
        return {
            "spaces": [finite_space(len(t), t) for t in tables],
            "line": rational_line(),
        }

    def period(self, seed, index):
        # the generators need the distance tables, which setup also builds
        if getattr(self, "_tables_seed", None) != seed:
            self._tables = self.tables(seed)
            self._tables_seed = seed
        return super().period(seed, index)

    def _open(self, rng, n, lo=1, hi=4):
        return tuple(
            (rng.randrange(n), F(rng.randint(1, 32), 4)) for _ in range(rng.randint(lo, hi))
        )

    def _pick_space(self, rng):
        k = rng.randrange(len(self._tables))
        return k, self._tables[k]

    # way-inside, diameter, q-neighborhood on one space
    def gen_calc(self, rng):
        k, t = self._pick_space(rng)
        n = len(t)
        return ("calc", k, self._open(rng, n), self._open(rng, n),
                F(rng.randint(1, 16), 4), F(rng.randint(1, 64), 4))

    def run_calc(self, ctx, spec):
        _, k, u, v, eps, q = spec
        sp = ctx["spaces"][k]
        U = BallOpen(sp, tuple(FormalBall(c, r) for c, r in u))
        V = BallOpen(sp, tuple(FormalBall(c, r) for c, r in v))
        diam = diameter_upper(U)
        nb = neighborhood(U, eps)
        return {
            "wi": way_inside(U, eps, V, self.EFFORT).label,
            "wi_half": way_inside(neighborhood(U, eps / 2), eps / 2, V, self.EFFORT).label,
            "diam_bound": O.qstr(diam.bound(self.EFFORT)),
            "diam_lt": diam.less_than(q, self.EFFORT).label,
            "nbhd": [[b.center, O.qstr(b.radius)] for b in nb.balls],
        }

    def check_calc(self, spec, ans):
        _, k, u, v, eps, q = spec
        t = self._tables[k]
        dist = lambda a, b: t[a][b]
        du, dv = O.denote(t, u), O.denote(t, v)
        wi = O.dominated(dist, u, eps, v)
        wi_half = O.dominated(dist, [(c, r + eps / 2) for c, r in u], eps / 2, v)
        bound = O.diameter_formula(dist, u)
        nb = [(c, F(r)) for c, r in ans["nbhd"]]
        return (
            ans["wi"] == ("Yes" if wi else "NotYet")
            and (not wi or O.fatten(t, du, eps) <= dv)
            and ans["wi_half"] == ("Yes" if wi_half else "NotYet")
            and F(ans["diam_bound"]) == bound
            and bound >= O.diameter(t, du)
            and ans["diam_lt"] == ("Yes" if bound < q else "NotYet")
            and nb == [(c, r + eps) for c, r in u]
            and O.fatten(t, du, eps) <= O.denote(t, nb)
        )

    # meet witnesses and regularization of filter seeds
    def gen_meet(self, rng):
        k, t = self._pick_space(rng)
        n = len(t)
        gens = tuple(self._open(rng, n, 1, 2) for _ in range(rng.randint(2, 3)))
        return ("meet", k, self._open(rng, n, 1, 3), self._open(rng, n, 1, 3), gens)

    def run_meet(self, ctx, spec):
        _, k, u, v, gens = spec
        sp = ctx["spaces"][k]
        mk = lambda balls: BallOpen(sp, tuple(FormalBall(c, r) for c, r in balls))
        w = meet_witness(mk(u), mk(v), self.EFFORT)
        try:
            reg = regularize(FilterSeed(tuple(mk(g) for g in gens)), self.EFFORT)
            seed_out = [[O.qstr(b.radius) for b in g.balls] for g in reg.generators]
        except CertificateError as exc:
            seed_out = ["no-meet", list(exc.witness)]
        return {
            "witness": None if w is None else [w.center, O.qstr(w.radius)],
            "seed": seed_out,
        }

    def check_meet(self, spec, ans):
        _, k, u, v, gens = spec
        t = self._tables[k]
        common = O.denote(t, u) & O.denote(t, v)
        w = ans["witness"]
        if w is None:
            ok = not common
        else:
            c, r = w[0], F(w[1])
            # way inside both opens with margin r
            ok = r > 0 and all(
                any(t[c][cb] + 2 * r <= rb for cb, rb in open_) for open_ in (u, v)
            )
        dens = [O.denote(t, g) for g in gens]
        bad = [
            [i, j] for i in range(len(gens)) for j in range(i + 1, len(gens))
            if not dens[i] & dens[j]
        ]
        if bad:
            return ok and ans["seed"] == ["no-meet", bad[0]]
        min_r = min(r for g in gens for _, r in g)
        want = [
            [O.qstr(r - min_r / (4 << i)) for _, r in g] for i, g in enumerate(gens)
        ]
        return ok and ans["seed"] == want

    # completion distance semi-decisions, mostly between constant points
    def gen_dist(self, rng):
        off = rng.choice([F(-1, 4), F(1, 4), F(1, 2), F(1, 1 << 34)])
        if rng.random() < 0.5:
            k, t = self._pick_space(rng)
            i, j = rng.randrange(len(t)), rng.randrange(len(t))
            return ("dist", "finite", k, (i, False), (j, False), max(t[i][j] + off, F(1, 8)))
        a, b = _dyadic(rng, 8), _dyadic(rng, 8)
        pa, pb = (a, rng.random() < 0.2), (b, rng.random() < 0.2)
        return ("dist", "line", None, pa, pb, max(abs(a - b) + off, F(1, 8)))

    def run_dist(self, ctx, spec):
        _, kind, k, pa, pb, thr = spec
        sp = ctx["spaces"][k] if kind == "finite" else ctx["line"]

        def point(x, moving):
            if moving:
                return CompletionPoint(sp, lambda n: x + F(1, 2 << n))
            return point_of_carrier(sp, x)

        d = point_distance(point(*pa), point(*pb))
        return d.less_than(thr, self.DIST_EFFORT).label

    def check_dist(self, spec, ans):
        _, kind, k, (a, ma), (b, mb), thr = spec
        dist = (lambda x, y: self._tables[k][x][y]) if kind == "finite" else (
            lambda x, y: abs(x - y)
        )
        stage = lambda x, m, n: x + F(1, 2 << n) if m else x
        # effective bound at effort e: min over n <= e of d(stages) + 2^(1-n)
        best = min(
            dist(stage(a, ma, n), stage(b, mb, n)) + F(2, 1 << n)
            for n in range(self.DIST_EFFORT + 1)
        )
        yes = best < thr
        return ans == ("Yes" if yes else "NotYet") and (not yes or dist(a, b) < thr)

    # admissibility of basic opens of the real function locale, n <= 6
    def gen_adm(self, rng):
        return ("adm",) + _gen_basic_open(rng)

    def run_adm(self, ctx, spec):
        _, n, lowers, uppers = spec
        sp = FiniteDiscreteSpace(n)
        b = BasicOpenXR.of(lowers, uppers)
        f = has_point(b, sp)
        return {
            "admissible": is_admissible(b, sp),
            "point": None if f is None else [O.qstr(f(x)) for x in range(n)],
        }

    def check_adm(self, spec, ans):
        return check_admissible(*spec[1:], ans)

    # one character of C^n checked for unit, idempotents, linearity, products
    def gen_char(self, rng):
        n = rng.randint(1, 6)
        coords = lambda: tuple(
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(n)
        )
        return ("char", n, rng.randrange(n), coords(), coords())

    def run_char(self, ctx, spec):
        _, n, i, a, b = spec
        chi = spectrum_of_cn(n)[i]
        samples = [(AlgebraElement.of_rationals(a), AlgebraElement.of_rationals(b))]
        rep = verify_character(chi, samples, bound=8, k=16)
        return [rep["character"], rep["result"]]

    def check_char(self, spec, ans):
        return ans == [f"eval@{spec[2]}", "Pass"]


def _gen_basic_open(rng):
    """(n, lowers, uppers): up to three constraints a side on a space of n <= 6 points."""
    n = rng.randint(1, 6)

    def side():
        out = []
        for _ in range(rng.randint(0, 3)):
            s = tuple(x for x in range(n) if rng.random() < 0.5) or (rng.randrange(n),)
            out.append((s, F(rng.randint(-4, 4), 2)))
        return tuple(out)

    return n, side(), side()


def check_admissible(n, lowers, uppers, ans) -> bool:
    """Admissible iff each point has max floor < min cap; the point must satisfy all."""
    caps = [[u for s, u in lowers if x in s] for x in range(n)]
    floors = [[v for s, v in uppers if x in s] for x in range(n)]
    feasible = all(not c or not f or max(f) < min(c) for c, f in zip(caps, floors))
    if ans["admissible"] != feasible or (ans["point"] is None) == feasible:
        return False
    if ans["point"] is None:
        return True
    val = [F(y) for y in ans["point"]]
    return all(val[x] < u for s, u in lowers for x in s) and all(
        val[x] > v for s, v in uppers for x in s
    )


# -- reals: exact real and complex expression DAGs ----------------------------
#
# A DAG is a list of nodes whose children come earlier in the list (the
# format ``oracles.iv_node`` reads): ("sqrt", q) is an irrational leaf read
# through sqrt_lower, ("q", q) a rational leaf, the rest are the library's
# real operations.


_OPS = ("add", "sub", "neg", "abs", "max", "min", "mul", "scale")


class DagBuilder:
    """Grows one node list; a fixed share of children reuse an existing node."""

    SHARE = 0.3
    K = 40  # scale of the magnitude enclosures used to pick multiplication bounds

    def __init__(self, rng):
        self.rng = rng
        self.nodes = []
        self.vals = []

    def _add(self, node):
        self.vals.append(O.iv_node(node, self.vals, self.K))
        self.nodes.append(node)
        return len(self.nodes) - 1

    def mag(self, i):
        return O.iv_magnitude(self.vals[i], self.K)

    def build(self, depth):
        rng = self.rng
        if self.nodes and rng.random() < self.SHARE:
            return rng.randrange(len(self.nodes))
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.8:
                return self._add(("sqrt", F(rng.randint(2, 60), rng.randint(1, 4))))
            return self._add(("q", F(rng.randint(-9, 9), rng.randint(1, 5))))
        op = rng.choice(_OPS)
        a = self.build(depth - 1)
        if op in ("neg", "abs"):
            return self._add((op, a))
        if op == "scale":
            return self._add((op, a, F(rng.randint(-5, 5), rng.randint(1, 3))))
        b = self.build(depth - 1)
        if op == "mul":
            if max(self.mag(a), self.mag(b)) > 8:
                op = "add"
            else:
                return self._add((op, a, b, int(max(self.mag(a), self.mag(b))) + 2))
        return self._add((op, a, b))


def _realize(line, nodes):
    pts = []
    for node in nodes:
        op = node[0]
        if op == "sqrt":
            q = node[1]
            p = RealPoint(CompletionPoint(line, lambda n, q=q: sqrt_lower(q, n + 1)))
        elif op == "q":
            p = real_of_rational(node[1])
        elif op == "neg":
            p = neg_r(pts[node[1]])
        elif op == "abs":
            p = abs_r(pts[node[1]])
        elif op == "scale":
            p = scale_r(pts[node[1]], node[2])
        elif op == "mul":
            p = mul_r(pts[node[1]], pts[node[2]], node[3])
        else:
            fn = {"add": add_r, "sub": sub_r, "max": max_r, "min": min_r}[op]
            p = fn(pts[node[1]], pts[node[2]])
        pts.append(p)
    return pts


_BITS = (64, 128, 256, 512, 1024)


def _complex_sq(vals, re, im, k):
    return O.iv_add(O.iv_sq(vals[re], k), O.iv_sq(vals[im], k))


class Reals(Workload):
    name = "reals"
    mix = (("expr", 48), ("cmul", 8), ("sup", 4))
    periods = 200

    def setup(self, seed):
        return {"line": rational_line()}

    def gen_expr(self, rng):
        dag = DagBuilder(rng)
        root = dag.build(rng.randint(1, 6))
        return ("expr", tuple(dag.nodes), root, rng.choice(_BITS))

    def run_expr(self, ctx, spec):
        _, nodes, root, bits = spec
        return O.qstr(_realize(ctx["line"], nodes)[root].approx(bits))

    def check_expr(self, spec, ans):
        _, nodes, root, bits = spec
        k = bits + 96
        return O.iv_readout_ok(O.enclose(nodes, k)[root], k, F(ans), bits)

    def _complex(self, dag, rng):
        return (dag.build(rng.randint(1, 3)), dag.build(rng.randint(1, 3)))

    # product of two complex points, then its modulus enclosure
    def gen_cmul(self, rng):
        dag = DagBuilder(rng)
        z, w = self._complex(dag, rng), self._complex(dag, rng)
        bound = int(max(dag.mag(i) for i in z + w)) + 2
        return ("cmul", tuple(dag.nodes), z, w, bound, rng.choice(_BITS))

    def run_cmul(self, ctx, spec):
        _, nodes, z, w, bound, bits = spec
        pts = _realize(ctx["line"], nodes)
        zc = ComplexPoint(pts[z[0]], pts[z[1]])
        wc = ComplexPoint(pts[w[0]], pts[w[1]])
        lo, hi = modulus_interval(mul_c(zc, wc, bound), bits)
        return [O.qstr(lo), O.qstr(hi)]

    def check_cmul(self, spec, ans):
        _, nodes, z, w, bound, bits = spec
        k = bits + 96
        v = O.enclose(nodes, k)
        (zr, zi), (wr, wi) = [v[i] for i in z], [v[i] for i in w]
        re = O.iv_sub(O.iv_mul(zr, wr, k), O.iv_mul(zi, wi, k))
        im = O.iv_add(O.iv_mul(zr, wi, k), O.iv_mul(zi, wr, k))
        sq = O.iv_add(O.iv_sq(re, k), O.iv_sq(im, k))
        lo, hi = F(ans[0]), F(ans[1])
        return O.iv_modulus_ok(sq, k, lo, hi, bits)

    # sup norm of an element of C^n, n <= 4
    def gen_sup(self, rng):
        dag = DagBuilder(rng)
        zs = tuple(self._complex(dag, rng) for _ in range(rng.randint(1, 4)))
        return ("sup", tuple(dag.nodes), zs, rng.choice(_BITS))

    def run_sup(self, ctx, spec):
        _, nodes, zs, bits = spec
        pts = _realize(ctx["line"], nodes)
        elem = AlgebraElement(tuple(ComplexPoint(pts[r], pts[i]) for r, i in zs))
        lo, hi = sup_norm_interval(elem, bits)
        return [O.qstr(lo), O.qstr(hi)]

    def check_sup(self, spec, ans):
        _, nodes, zs, bits = spec
        k = bits + 96
        v = O.enclose(nodes, k)
        sqs = [_complex_sq(v, r, i, k) for r, i in zs]
        sq = (max(s[0] for s in sqs), max(s[1] for s in sqs))
        lo, hi = F(ans[0]), F(ans[1])
        return O.iv_modulus_ok(sq, k, lo, hi, bits)


# -- cli: requests through the command line front end ------------------------
#
# A closed loop with one client: main(argv) runs in process with stdout
# captured, and the next request starts when the previous one has returned.
# Each period of 100 requests holds the five inputs below, which the
# program mishandles (a traceback, or a finite-space center read through
# negative indexing); the contract says each must exit 2 with one JSON
# document, so each counts as a failed operation until the program is fixed.

_TWO_POINTS = {"type": "finite", "n": 2, "d": [["0", "1"], ["1", "0"]]}

CONTRACT_BREAKS = (
    ("real-eval", "mul(5,5,2)"),
    ("real-eval", "1/0"),
    ("map-apply", "scale(2)", "1/0"),
    ("ball-check", "[1]"),
    ("ball-check", json.dumps({
        "check": "member", "carrier": _TWO_POINTS,
        "u": [{"c": "-2", "r": "1"}], "point": "0",
    })),
)

# malformed requests the program already rejects with exit 2
REJECTED = (
    ("real-eval", "add(1/3"),
    ("real-eval", "frob(1)"),
    ("map-apply", "wiggle", "1"),
    ("map-apply", "id", "1,2"),
    ("ball-check", "{not json"),
)


def _qtext(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else O.qstr(q)


def _gen_real_text(rng, depth):
    """(expression text, exact value) from the real-expression grammar."""
    if depth == 0 or rng.random() < 0.25:
        q = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7]))
        return _qtext(q), q
    op = rng.choice(["add", "sub", "neg", "abs", "max", "min", "mul"])
    xs, xv = _gen_real_text(rng, depth - 1)
    if op == "neg":
        return f"neg({xs})", -xv
    if op == "abs":
        return f"abs({xs})", abs(xv)
    ys, yv = _gen_real_text(rng, depth - 1)
    if op == "mul" and max(abs(xv), abs(yv)) <= 16:
        bound = int(max(abs(xv), abs(yv))) + 2
        return f"mul({xs}, {ys}, {bound})", xv * yv
    fn = {"add": lambda: xv + yv, "sub": lambda: xv - yv, "max": lambda: max(xv, yv),
          "min": lambda: min(xv, yv), "mul": lambda: xv + yv}[op]
    return f"{'add' if op == 'mul' else op}({xs}, {ys})", fn()


def _gen_line_map_text(rng, depth, metric=False):
    """(map text, exact function on rationals) for a map from the line to the line."""
    kinds = ["id", "neg", "abs", "const", "add", "scale", "compose"]
    kind = rng.choice(kinds if depth > 0 else kinds[:-1])
    if kind == "id":
        return "id", lambda x: x
    if kind == "neg":
        return "neg", lambda x: -x
    if kind == "abs":
        return "abs", abs
    if kind == "compose":
        fs, f = _gen_line_map_text(rng, depth - 1, metric)
        gs, g = _gen_line_map_text(rng, depth - 1, metric)
        return f"compose({fs}, {gs})", lambda x: f(g(x))
    q = F(rng.randint(-4 if metric else -8, 4 if metric else 8), 4)
    if kind == "const":
        return f"const({_qtext(q)})", lambda x: q
    if kind == "add":
        return f"add({_qtext(q)})", lambda x: x + q
    return f"scale({_qtext(q)})", lambda x: q * x


def _ball_list(balls):
    return [{"c": _qtext(F(c)), "r": _qtext(r)} for c, r in balls]


class Cli(Workload):
    name = "cli"
    # every period checks each axiom on one map of each composition depth; an
    # axiom checked on a depth-2 map takes up to 20 times as long as MM3 on a
    # plain one, so a seeded share of either would move the figures
    MM_STRATA = tuple((axiom, depth) for axiom in _AXIOMS for depth in range(3))
    mix = (
        ("real", 26), ("map", 20), ("ball", 16), ("mm", len(MM_STRATA)), ("adm", 8),
        ("spec", 2), ("rejected", 5), ("broken", 5),
    )
    # 1000 operations, so op_tail_ms is p99 and falls in the middle of the 20
    # spec requests, the slowest kind
    periods = 10
    PRECISIONS = (30, 30, 64)

    def setup(self, seed):
        # warm the argument parser the way a first request would
        return {"parser": build_parser()}

    def period(self, seed, index):
        self._next_broken = 0
        self._next_rejected = 0
        self._strata = iter(self.MM_STRATA)
        return super().period(seed, index)

    def known_defect(self, spec):
        return spec[0] == "broken"

    def _precision(self, rng):
        p = rng.choice(self.PRECISIONS)
        return p, ([] if p == 30 else ["--precision", str(p)])

    @staticmethod
    def _argv(command, flags, *positionals):
        # "--" ends the options, so a negative number is read as a positional
        sep = ["--"] if any(x.startswith("-") for x in positionals) else []
        return [command] + flags + sep + list(positionals)

    def gen_real(self, rng):
        text, value = _gen_real_text(rng, rng.randint(1, 4))
        p, flags = self._precision(rng)
        return ("real", self._argv("real-eval", flags, text), value, p)

    def gen_map(self, rng):
        p, flags = self._precision(rng)
        r = rng.random()
        x = F(rng.randint(-16, 16), rng.choice([1, 2, 3, 4]))
        if r < 0.7:
            text, f = _gen_line_map_text(rng, rng.randint(0, 3))
            return ("map", self._argv("map-apply", flags, text, _qtext(x)), [f(x)], p)
        if r < 0.85:
            fs, f = _gen_line_map_text(rng, 1)
            gs, g = _gen_line_map_text(rng, 1)
            return ("map", self._argv("map-apply", flags, f"pair({fs}, {gs})", _qtext(x)),
                    [f(x), g(x)], p)
        y = F(rng.randint(-16, 16), rng.choice([1, 2, 4]))
        side = rng.choice([1, 2])
        return ("map", self._argv("map-apply", flags, f"proj{side}", f"{_qtext(x)},{_qtext(y)}"),
                [(x, y)[side - 1]], p)

    def gen_ball(self, rng):
        check = rng.choice(["way-inside", "diameter", "positive", "meet", "member"])
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            table = O.min_plus_closure(n, rng)
            carrier = {"type": "finite", "n": n, "d": [[_qtext(x) for x in row] for row in table]}
            rand_open = lambda lo=1: tuple(
                (F(rng.randrange(n)), F(rng.randint(1, 24), 4)) for _ in range(rng.randint(lo, 3))
            )
            point = F(rng.randrange(n))
        else:
            table = carrier = None
            rand_open = lambda lo=1: tuple(
                (_dyadic(rng), F(rng.randint(1, 16), 4)) for _ in range(rng.randint(lo, 3))
            )
            point = _dyadic(rng)
        payload = {"check": check, "u": _ball_list(rand_open(0 if check == "positive" else 1))}
        if carrier is not None:
            payload["carrier"] = carrier
        if check in ("way-inside", "meet"):
            payload["v"] = _ball_list(rand_open())
        if check == "way-inside":
            payload["eps"] = _qtext(F(rng.randint(1, 8), 8))
        if check == "diameter":
            payload["q"] = _qtext(F(rng.randint(1, 64), 4))
        if check == "member":
            payload["point"] = _qtext(point)
        return ("ball", ["ball-check", json.dumps(payload)], payload, table)

    def gen_mm(self, rng):
        axiom, depth = next(self._strata)
        text, f = _gen_line_map_text(rng, depth, metric=True)
        parts = _gen_mm_parts(rng, axiom)
        payload = {
            "axiom": axiom,
            "map": text,
            "parts": {k: _qtext(v) if isinstance(v, F) else _ball_list(v) for k, v in parts.items()},
        }
        return ("mm", ["mm-check", json.dumps(payload)], axiom, parts, f)

    def gen_adm(self, rng):
        n, lowers, uppers = _gen_basic_open(rng)
        side = lambda cs: [[list(s), _qtext(q)] for s, q in cs]
        payload = {"n": n, "lowers": side(lowers), "uppers": side(uppers)}
        return ("adm", ["admissible", json.dumps(payload)], n, lowers, uppers)

    def gen_spec(self, rng):
        # always n = 5 (about 65 ms), so every seed sends the same spec
        # requests and each is slower than any mm request
        return ("spec", ["spec", json.dumps({"n": 5})], 5)

    def gen_rejected(self, rng):
        argv = REJECTED[self._next_rejected % len(REJECTED)]
        self._next_rejected += 1
        return ("rejected", list(argv))

    def gen_broken(self, rng):
        argv = CONTRACT_BREAKS[self._next_broken % len(CONTRACT_BREAKS)]
        self._next_broken += 1
        return ("broken", list(argv))

    def run(self, ctx, spec):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_main(spec[1])
            except SystemExit as exc:
                code = exc.code
        return [code, buf.getvalue()]

    def check(self, spec, answer):
        code, out = answer
        if out.count("\n") != 1 or not out.endswith("\n"):
            return False
        doc = json.loads(out)
        if spec[0] in ("rejected", "broken"):
            return code == 2 and set(doc) == {"error"}
        return code == 0 and getattr(self, "check_" + spec[0])(spec, doc)

    def check_real(self, spec, doc):
        _, _, value, p = spec
        got, bits = O.parse_readout(doc["value"])
        return bits == p and O.within(got, value, p)

    def check_map(self, spec, doc):
        _, _, want, p = spec
        texts = doc["values"] if len(want) == 2 else [doc["value"]]
        got = [O.parse_readout(t) for t in texts]
        return len(got) == len(want) and all(
            bits == p and O.within(v, w, p) for (v, bits), w in zip(got, want)
        )

    def check_ball(self, spec, doc):
        _, _, payload, table = spec
        dist = (lambda a, b: table[int(a)][int(b)]) if table else (lambda a, b: abs(a - b))
        read = lambda key: [(F(b["c"]), F(b["r"])) for b in payload.get(key, [])]
        u, check = read("u"), payload["check"]
        yes = lambda flag: doc.get("answer") == ("Yes" if flag else "NotYet")
        if check == "way-inside":
            wi = O.dominated(dist, u, F(payload["eps"]), read("v"))
            sound = not table or not wi or O.fatten(
                table, O.denote(table, [(int(c), r) for c, r in u]), F(payload["eps"])
            ) <= O.denote(table, [(int(c), r) for c, r in read("v")])
            return yes(wi) and sound
        if check == "diameter":
            return yes(O.diameter_formula(dist, u) < F(payload["q"]))
        if check == "positive":
            return doc["answer"] is bool(u)
        if check == "member":
            x = F(payload["point"])
            return yes(any(dist(x, c) + F(1, 1 << 64) < r for c, r in u))
        v, w = read("v"), doc["witness"]
        if w is None:
            # on a finite carrier every point is a candidate, so None means disjoint
            return not table or not (
                O.denote(table, [(int(c), r) for c, r in u])
                & O.denote(table, [(int(c), r) for c, r in v])
            )
        c, r = O.parse_repr(w["c"]), F(w["r"])
        return r > 0 and all(
            any(dist(c, cb) + 2 * r <= rb for cb, rb in open_) for open_ in (u, v)
        )

    def check_mm(self, spec, doc):
        _, _, axiom, parts, f = spec
        return check_mm_report(axiom, parts, f, doc)

    def check_adm(self, spec, doc):
        _, _, n, lowers, uppers = spec
        point = doc["point"]
        ans = {
            "admissible": doc["admissible"],
            "point": None if point is None else [point[str(x)] for x in range(n)],
        }
        return check_admissible(n, lowers, uppers, ans)

    def check_spec(self, spec, doc):
        n = spec[2]
        return (
            doc["n"] == n
            and doc["characters"] == [f"eval@{i}" for i in range(n)]
            and len(doc["reports"]) == n
            and all(r["result"] == "Pass" for r in doc["reports"])
        )


WORKLOADS = {w.name: w for w in (Locale(), Finite(), Reals(), Cli())}
