"""Stage-depth helpers against the linear searches they replace.

``stage_below`` and ``maps._stage_for`` read stage depths off bit lengths,
and ``ModulusFn`` bisects its ascending key list.  Each is compared here
with the plain loop that defines it.  The stage-depth memo ``apply_map``
reads through ``ModulusFn._stage`` is compared with ``_stage_for`` itself.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalballs.carriers import rational_line
from formalballs.completion import CompletionPoint, point_of_carrier
from formalballs.maps import MapRep, ModulusFn, _stage_for, apply_map
from formalballs.numbers import half_pow, parse_rational, stage_below


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


class LinearModulusFn:
    """The clamping wrapper as a full scan of its cache on every miss."""

    def __init__(self, raw):
        self._raw = raw
        self._cache = {}

    def __call__(self, eps):
        eps = parse_rational(eps)
        if eps in self._cache:
            return self._cache[eps]
        eta = parse_rational(self._raw(eps))
        for e2, v2 in self._cache.items():
            if e2 >= eps:
                eta = min(eta, v2)
            else:
                self._cache[e2] = min(v2, eta)
        self._cache[eps] = eta
        return eta


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


def _scrambled(e):
    return Fraction(1 + (7 * e.numerator + 13 * e.denominator) % 17, 64)


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
    fast, slow = ModulusFn(raw), LinearModulusFn(raw)
    seen = []
    for eps in queries:
        assert fast(eps) == slow(eps)
        seen.append(eps)
        for earlier in seen:
            assert fast(earlier) == slow(earlier)
        assert fast._cache == slow._cache
        assert fast._keys == sorted(slow._cache)


def test_modulus_fn_keeps_history_dependence():
    """A later, larger query still clamps m(1/8) for the step modulus."""
    m = ModulusFn(_step)
    assert m(Fraction(1, 8)) == Fraction(1, 8)
    assert m(Fraction(1, 2)) == Fraction(1, 200)
    assert m(Fraction(1, 8)) == Fraction(1, 200)


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
    memo, twin = ModulusFn(raw), ModulusFn(raw)
    f = _depth_probe(memo)
    source = CompletionPoint(LINE, lambda m: Fraction(m))
    for kind, arg in ops:
        if kind == "eps":  # a direct query may clamp earlier cache entries
            assert memo(arg) == twin(arg)
        else:
            assert apply_map(f, source).approx(arg) == _stage_for(twin, arg)
    assert memo._cache == twin._cache
