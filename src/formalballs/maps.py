"""Maps between completions: carrier maps with modulus certificates.

A map is represented by its action on carrier elements (landing in the
target completion) together with a modulus of continuity.  Certificates
are spot-checked on samples, never proven; downstream Yes answers are
conditional on the certificate.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .carriers import MetricCarrier, product_space, rational_line
from .completion import (
    CertificateError,
    CompletionPoint,
    limit_point,
    pair_point,
    point_distance,
    point_of_carrier,
    apartness_query,
)
from .numbers import half_pow, parse_rational, stage_below

ISOMETRIC = "isometric"
METRIC = "metric"
UNIFORM = "uniform"

_CLASS_ORDER = {ISOMETRIC: 2, METRIC: 1, UNIFORM: 0}

LINE = rational_line()


class RegionError(ValueError):
    """A map was applied outside its declared bounded region."""


class ModulusFn:
    """Monotone non-decreasing wrapper around a raw modulus function.

    Clamps each answer against answers already given for larger eps, so
    the exposed function can never decrease as eps grows.  The cache is
    non-decreasing in eps after every call, so a miss reads its bound off
    the next larger key and clamps smaller keys only until one is already
    at or below the new answer.

    ``apply_map`` reads stage depths through ``_stage``, which memoises
    n -> ``_stage_for(self, n)``.  Each memoised depth is a function of the
    cached ``self(2^-(n+1))`` alone, and the memo is cleared whenever a call
    clamps an existing cache entry, so a depth is reused exactly as long as
    the cached value it came from stands.
    """

    __slots__ = ("_raw", "_cache", "_keys", "_depths")

    def __init__(self, raw: Callable[[Fraction], Fraction]):
        self._raw = raw
        self._cache: dict[Fraction, Fraction] = {}
        self._keys: list[Fraction] = []  # the cache keys, ascending
        self._depths: dict[int, int] = {}  # n -> stage depth, see _stage

    def __call__(self, eps: Fraction) -> Fraction:
        eps = parse_rational(eps)
        if eps <= 0:
            raise ValueError("modulus argument must be positive")
        cache = self._cache
        if eps in cache:
            return cache[eps]
        eta = parse_rational(self._raw(eps))
        if eta <= 0:
            raise ValueError("modulus must return a positive rational")
        keys = self._keys
        i = bisect_left(keys, eps)
        if i < len(keys):
            eta = min(eta, cache[keys[i]])
        for j in range(i - 1, -1, -1):
            if cache[keys[j]] <= eta:
                break
            cache[keys[j]] = eta
            self._depths.clear()
        keys.insert(i, eps)
        cache[eps] = eta
        return eta

    def _stage(self, n: int) -> int:
        depths = self._depths
        if n not in depths:
            depths[n] = _stage_for(self, n)
        return depths[n]


@dataclass
class MapRep:
    """A certified map from the completion of source to that of target."""

    source: MetricCarrier
    target: MetricCarrier
    carrier_map: Callable[[object], CompletionPoint]
    modulus: ModulusFn
    cls: str = METRIC
    region: Optional[Callable[[object], bool]] = None
    label: str = "map"

    def __post_init__(self):
        if self.cls not in _CLASS_ORDER:
            raise ValueError(f"unknown map class {self.cls!r}")
        if not isinstance(self.modulus, ModulusFn):
            self.modulus = ModulusFn(self.modulus)


def _stage_for(modulus: Callable[[Fraction], Fraction], n: int) -> int:
    """Smallest m >= n + 1 with 2^(1-m) < modulus(2^-(n+1))."""
    return max(stage_below(modulus(half_pow(n + 1))), n) + 1


def apply_map(f: MapRep, p: CompletionPoint) -> CompletionPoint:
    """Push a completion point through the map.

    Stage n of the image is stage n+1 of the image of a source stage deep
    enough that the modulus guarantees 2^-n accuracy.

    A constant p has the element x at every stage, whatever the depth, and
    the carrier map is a function of x, so its region is checked and its
    carrier map called once, here: a constant result gives the constant
    point of the target, and any other result q the stages q.approx(n+1).
    """
    if f.source.kind != p.carrier.kind:
        raise ValueError("point is not over the map's source carrier")
    if p._value is not None:
        q = _carrier_image(f, p._value)
        if q._value is not None:
            return point_of_carrier(f.target, q._value)
        return CompletionPoint(f.target, lambda n: q.approx(n + 1))

    def approx(n):
        return _carrier_image(f, p.approx(f.modulus._stage(n))).approx(n + 1)

    return CompletionPoint(f.target, approx)


def _carrier_image(f: MapRep, x) -> CompletionPoint:
    if f.region is not None and not f.region(x):
        raise RegionError(f"{x!r} outside the declared region of {f.label}")
    return f.carrier_map(x)


def identity_map(carrier: MetricCarrier) -> MapRep:
    return MapRep(
        source=carrier,
        target=carrier,
        carrier_map=lambda x: point_of_carrier(carrier, x),
        modulus=lambda eps: eps,
        cls=ISOMETRIC,
        label="id",
    )


def compose_maps(g: MapRep, f: MapRep) -> MapRep:
    """g after f; modulus composes, class degrades to the weaker one."""
    if f.target.kind != g.source.kind:
        raise ValueError("carrier mismatch in composition")
    cls = f.cls if _CLASS_ORDER[f.cls] <= _CLASS_ORDER[g.cls] else g.cls

    def carrier_map(x):
        return apply_map(g, f.carrier_map(x))

    return MapRep(
        source=f.source,
        target=g.target,
        carrier_map=carrier_map,
        modulus=lambda eps: f.modulus(g.modulus(eps)),
        cls=cls,
        region=f.region,
        label=f"{g.label}.{f.label}",
    )


def pair_maps(f: MapRep, g: MapRep) -> MapRep:
    """x -> (f x, g x) into the product of the two targets."""
    if f.source.kind != g.source.kind:
        raise ValueError("pair components need the same source carrier")
    return MapRep(
        source=f.source,
        target=product_space(f.target, g.target),
        carrier_map=lambda x: pair_point(f.carrier_map(x), g.carrier_map(x)),
        modulus=lambda eps: min(f.modulus(eps), g.modulus(eps)),
        cls=METRIC,
        label=f"pair({f.label},{g.label})",
    )


def proj_map(left: MetricCarrier, right: MetricCarrier, side: int) -> MapRep:
    """The projection of left x right onto factor 1 (left) or 2 (right)."""
    if side not in (1, 2):
        raise ValueError("projection side must be 1 or 2")
    target = left if side == 1 else right
    return MapRep(
        source=product_space(left, right),
        target=target,
        carrier_map=lambda x: point_of_carrier(target, x[side - 1]),
        modulus=lambda eps: eps,
        cls=METRIC,
        label=f"proj{side}",
    )


def lipschitz_line_map(fn, lipschitz, cls: str, label: str) -> MapRep:
    """x -> fn(x) on the rational line, certified by a Lipschitz constant.

    The modulus is eps / max(lipschitz, 1); the caller names the class.
    """
    scale = max(Fraction(lipschitz), Fraction(1))
    return MapRep(
        source=LINE,
        target=LINE,
        carrier_map=lambda x: point_of_carrier(LINE, fn(x)),
        modulus=lambda eps: eps / scale,
        cls=cls,
        label=label,
    )


def line_map(a, b, label=None) -> MapRep:
    """x -> a x + b with |a| <= 1: a metric map on the line."""
    a = Fraction(a)
    b = Fraction(b)
    if abs(a) > 1:
        raise ValueError("slope must be at most 1 for a metric line map")
    cls = ISOMETRIC if abs(a) == 1 else METRIC
    return lipschitz_line_map(
        lambda x: a * x + b, abs(a), cls, label or f"affine({a},{b})"
    )


def extend_by_density(
    source: MetricCarrier,
    target: MetricCarrier,
    dense_map: Callable[[object], object],
    modulus,
    cls: str = UNIFORM,
    sample_pairs=None,
    check_eps=(Fraction(1), Fraction(1, 2), Fraction(1, 4)),
    check_effort: int = 64,
    rng: Optional[random.Random] = None,
    label: str = "ext",
) -> MapRep:
    """Extension of a carrier-to-carrier map along the dense embedding.

    The modulus contract is spot-checked on sampled source pairs; a
    violation raises CertificateError with the witness pair.
    """
    rep = MapRep(
        source=source,
        target=target,
        carrier_map=lambda x: point_of_carrier(target, dense_map(x)),
        modulus=modulus,
        cls=cls,
        label=label,
    )
    if sample_pairs is None:
        rng = rng or random.Random(0)
        sample_pairs = [(source.sample(rng), source.sample(rng)) for _ in range(6)]
    for a, b in sample_pairs:
        d_hi = source.dist(a, b, check_effort).hi
        for eps in check_eps:
            eta = rep.modulus(eps)
            if d_hi < eta:
                d_img = point_distance(rep.carrier_map(a), rep.carrier_map(b))
                if not d_img.less_than(eps, check_effort).is_yes:
                    raise CertificateError("modulus contract violated", (a, b, eps))
    return rep


def classify_map(f: MapRep, samples, effort: int) -> dict:
    """Report, per sampled source pair, whether the claimed class held.

    Metric: image distance exceeds source distance only within tolerance
    (refutation by apartness of images).  Uniform: modulus contract on
    dyadic eps.  Isometric: additionally the reverse inequality.
    """
    tol = half_pow(max(4, effort // 4))
    rows = []
    all_ok = True
    for a, b in samples:
        fa = f.carrier_map(a)
        fb = f.carrier_map(b)
        d_src = f.source.dist(a, b, effort)
        d_img = point_distance(fa, fb)
        row = {"pair": [repr(a), repr(b)]}

        if f.cls in (METRIC, ISOMETRIC):
            ok = d_img.less_than(d_src.hi + tol, effort).is_yes
            row["metric"] = ok
        else:
            ok = True
            for k in range(1, 4):
                eps = half_pow(k)
                if d_src.hi < f.modulus(eps):
                    ok = ok and d_img.less_than(eps, effort).is_yes
            row["uniform"] = ok
        if f.cls == ISOMETRIC and ok:
            lower = apartness_query(fa, fb, effort)
            if d_src.lo > tol:
                rev = lower is not None and lower >= d_src.lo - tol
                row["isometric"] = rev
                ok = ok and rev
        rows.append(row)
        all_ok = all_ok and ok
    return {"map": f.label, "class": f.cls, "pass": all_ok, "pairs": rows}


def limit_of_maps(
    seq: Callable[[int], MapRep],
    modulus: Callable[[Fraction], int],
    sample_points=None,
    check_effort: int = 64,
    rng: Optional[random.Random] = None,
) -> MapRep:
    """Pointwise limit of a uniformly Cauchy sequence of maps.

    The uniform Cauchy certificate is spot-checked on sampled carrier
    points; failure raises CertificateError with the witness.
    """
    first = seq(0)
    if sample_points is None:
        rng = rng or random.Random(0)
        sample_points = [first.source.sample(rng) for _ in range(4)]
    for i in range(2):
        eps = half_pow(i)
        k0 = modulus(eps)
        for a in sample_points:
            d = point_distance(seq(k0).carrier_map(a), seq(k0 + 1).carrier_map(a))
            if not d.less_than(eps, check_effort).is_yes:
                raise CertificateError(
                    "uniform Cauchy certificate failed", (eps, k0, k0 + 1, a)
                )

    def carrier_map(x):
        return limit_point(lambda k: seq(k).carrier_map(x), modulus, check_depth=0)

    def lim_modulus(eps):
        k = modulus(eps / 3)
        return seq(k).modulus(eps / 3)

    cls = first.cls
    for k in (1, 2):
        cls = cls if _CLASS_ORDER[cls] <= _CLASS_ORDER[seq(k).cls] else seq(k).cls

    return MapRep(
        source=first.source,
        target=first.target,
        carrier_map=carrier_map,
        modulus=lim_modulus,
        cls=cls,
        label="limit",
    )
