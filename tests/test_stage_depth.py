"""Stage-depth helpers and moduli against the plain definitions.

``stage_below`` and ``maps._stage_for`` read stage depths off bit lengths,
and a ``ModulusFn`` call finds its dyadic floor 2^-k the same way.  Each is
compared here with the plain loop that defines it: the call with the min
of raw(2^-j) over j <= k.  The stage-depth memo ``apply_map`` reads through
``ModulusFn._stage`` is compared with ``_stage_for`` on the raw modulus.
No answer may depend on the queries that ran before it, for plain,
composed and paired maps, with monotone raw moduli and others.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.carriers import rational_line
from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.maps import (
    MapRep,
    ModulusFn,
    _stage_for,
    apply_map,
    compose_maps,
    pair_maps,
)
from formalballs.numbers import half_pow, stage_below


def linear_stage_below(eps):
    n = 0
    while half_pow(n) >= eps:
        n += 1
    return n


def linear_stage_for(eta, n):
    m = 0
    while half_pow(m - 1) >= eta:
        m += 1
    return max(m, n + 1)


def linear_dyadic_floor(eps):
    """The largest dyadic 2^-k <= eps, as k >= 0 (k = 0 when eps >= 1)."""
    k = 0
    while half_pow(k) > eps:
        k += 1
    return k


def reference_envelope(raw, eps):
    """The min of raw(2^-j) over j <= k, with 2^-k the dyadic floor of eps."""
    return min(raw(half_pow(j)) for j in range(linear_dyadic_floor(eps) + 1))


def near_power_ratio(a, b, d, up):
    """(2^a + d) / 2^b or its inverse: 2^-n == eps is the boundary case."""
    return Fraction(2**a + d, 2**b) if up else Fraction(2**b, 2**a + d)


BIG = 2**300

positive_rationals = st.one_of(
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(1, 2**12), st.integers(1, 2**12)),
    st.builds(near_power_ratio, st.integers(1, 320), st.integers(0, 320),
              st.sampled_from((-1, 0, 1)), st.booleans()),
)


@settings(max_examples=400, deadline=None)
@given(positive_rationals)
def test_stage_below_matches_linear_search(eps):
    assert stage_below(eps) == linear_stage_below(eps)


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1), Fraction(-3, 7)])
def test_stage_below_rejects_non_positive(eps):
    with pytest.raises(ValueError):
        stage_below(eps)


@settings(max_examples=400, deadline=None)
@given(positive_rationals, st.integers(0, 400))
def test_stage_for_matches_linear_search(eta, n):
    assert _stage_for(lambda _eps: eta, n) == linear_stage_for(eta, n)


def _step(e):
    return e if e < Fraction(1, 4) else e / 100


def _hashed(a, b, c, d):
    """A raw modulus with no order in eps: a hash onto the multiples of 1/d."""
    return lambda e: Fraction(1 + (a * e.numerator + b * e.denominator) % c, d)


_scrambled = _hashed(7, 13, 17, 64)


RAW_MODULI = {
    "identity": lambda e: e,
    "third": lambda e: e / 3,
    "square": lambda e: e * e,
    "step": _step,
    "scrambled": _scrambled,
}

query_eps = st.one_of(
    st.builds(half_pow, st.integers(-3, 12)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(RAW_MODULI)), st.lists(query_eps, max_size=30))
def test_modulus_fn_matches_linear_scan(name, queries):
    raw = RAW_MODULI[name]
    m = ModulusFn(raw)
    seen = []
    for eps in queries:
        want = reference_envelope(raw, eps)
        assert ModulusFn(raw)(eps) == want
        assert m(eps) == want
        seen.append(eps)
        for earlier in seen:
            assert m(earlier) == reference_envelope(raw, earlier)


def test_modulus_fn_is_history_free():
    """m(1/8) is min(raw(1), raw(1/2), raw(1/4), raw(1/8)) for the step
    modulus, before and after the larger query m(1/2)."""
    m = ModulusFn(_step)
    assert m(Fraction(1, 8)) == Fraction(1, 400)
    assert m(Fraction(1, 2)) == Fraction(1, 200)
    assert m(Fraction(1, 8)) == Fraction(1, 400)


LINE = rational_line()


def _depth_probe(modulus):
    """A map whose image stage n is the source stage depth apply_map chose."""
    return MapRep(LINE, LINE, lambda x: point_of_carrier(LINE, x), modulus)


query_ops = st.lists(
    st.one_of(
        st.tuples(st.just("depth"), st.integers(0, 14)),
        st.tuples(st.just("eps"), st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((_step, _scrambled)), query_ops)
def test_memoised_stage_depth_matches_pure_stage_for(raw, ops):
    memo = ModulusFn(raw)
    f = _depth_probe(memo)
    source = CompletionPoint(LINE, lambda m: Fraction(m))
    for kind, arg in ops:
        if kind == "eps":  # a public call reads the envelope, not the depths
            assert memo(arg) == reference_envelope(raw, arg)
        else:
            assert apply_map(f, source).approx(arg) == _stage_for(raw, arg)


def _scaled(s, cap):
    """A monotone raw modulus: min(eps / s, cap)."""
    return lambda e: min(e / s, cap)


raw_moduli = st.one_of(
    st.sampled_from(sorted(RAW_MODULI)).map(RAW_MODULI.get),
    st.builds(_scaled, st.integers(1, 8), st.builds(Fraction, st.integers(1, 8), st.integers(1, 8))),
    st.builds(_hashed, st.integers(1, 50), st.integers(1, 50), st.integers(2, 20),
              st.sampled_from((8, 64, 1024))),
)


def _shape(shape, r1, r2):
    """The maps of a shape on raw moduli r1 and r2, the built map first and
    then the maps it reads, each with the raw modulus it certifies."""
    if shape == "plain":
        return [(_depth_probe(r1), r1)]
    g, f = _depth_probe(r1), _depth_probe(r2)
    if shape == "composed":
        outer = (compose_maps(g, f), lambda e: r2(r1(e)))
    else:
        outer = (pair_maps(g, f), lambda e: min(r1(e), r2(e)))
    return [outer, (g, r1), (f, r2)]


order_ops = st.lists(
    st.tuples(
        st.integers(0, 2),  # which map of the shape, modulo their number
        st.one_of(
            st.tuples(st.just("eps"), query_eps),
            st.tuples(st.just("stage"), st.integers(0, 14)),
            st.tuples(st.just("apply"), st.integers(0, 14)),
        ),
    ),
    max_size=30,
)


def _answer(f, op, arg):
    if op == "eps":
        return f.modulus(arg)
    if op == "stage":
        return f.modulus._stage(arg)
    moving = CompletionPoint(LINE, lambda n: Fraction(1, 3) + half_pow(n + 2))
    return apply_map(f, moving).approx(arg)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("plain", "composed", "paired")), raw_moduli, raw_moduli, order_ops)
# the composite's m(1) reads f at 1 after its stage 2 read f at 1/8, and
# then f's own stage 2 reads f at 1/8 again
@example("composed", RAW_MODULI["identity"], _scrambled,
         [(0, ("stage", 2)), (0, ("eps", Fraction(1))), (2, ("stage", 2))])
def test_answers_do_not_depend_on_query_order(shape, r1, r2, ops):
    """Queries on a map and on the maps it reads, interleaved: each answer
    equals the same query on a fresh rebuild, and each public modulus
    never decreases as eps grows and stays <= raw(2^-k)."""
    maps = _shape(shape, r1, r2)
    public = []
    for which, (op, arg) in ops:
        i = which % len(maps)
        f, raw = maps[i]
        got = _answer(f, op, arg)
        assert got == _answer(_shape(shape, r1, r2)[i][0], op, arg)
        if op == "eps":
            assert got <= raw(half_pow(linear_dyadic_floor(arg)))
            public.append((i, arg, got))
    for i, eps, eta in public:
        assert all(eta <= eta2 for j, eps2, eta2 in public if j == i and eps <= eps2)
