"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check calls the library's own law catalog at the advertised
scale and tolerance; nothing here is mocked or scaled down.
"""

import hashlib
import time

from formalballs.lawsuite import (
    law_ball_calculus,
    law_completion_metric,
    law_exact_reals,
    law_extension_uniqueness,
    law_function_locale,
    law_gelfand,
    law_regularization,
    run_law_suite,
    suite_json,
)
from formalballs.numbers import parse_rational


# sha256 of suite_json(run_law_suite(seed=0)); a change here changes the
# bytes of `formalballs law-suite --seed 0`, which must be deliberate
SEED0_SUITE_SHA256 = (
    "e86074e1ef586d9e24df0b9059fa3e06236ef00abf60ebb9acaeffb861259614"
)


def _announce(name, ok, detail=""):
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_ball_calculus_laws():
    start = time.monotonic()
    rep = law_ball_calculus(seed=0, spaces=200)
    elapsed = time.monotonic() - start
    ok = rep["result"] == "Pass" and elapsed < 60
    _announce(
        "1 ball-calculus laws on 200 random spaces",
        ok,
        f"{rep['checked']} checks in {elapsed:.1f}s",
    )


def test_criterion_2_completion_metric():
    rep = law_completion_metric(seed=1, triples=500)
    _announce(
        "2 completion symmetry/triangle on 500 triples",
        rep["result"] == "Pass",
        f"{rep['checked']} checks",
    )


def test_criterion_3_regularization():
    rep = law_regularization(seed=2, count=100, effort=64)
    _announce(
        "3 regularization idempotent + contained on 100 seeds",
        rep["result"] == "Pass",
        f"{rep['checked']} checks",
    )


def test_criterion_4_exact_reals():
    start = time.monotonic()
    rep = law_exact_reals(seed=3, count=1000, bits=30)
    elapsed = time.monotonic() - start
    ok = rep["result"] == "Pass" and elapsed < 30
    _announce(
        "4 exact reals vs rational oracle on 1000 expressions",
        ok,
        f"{rep['checked']} checks in {elapsed:.1f}s",
    )


def test_criterion_5_extension_uniqueness():
    rep = law_extension_uniqueness(seed=4, count=50, probes=20)
    _announce(
        "5 dense-extension uniqueness on 50 map pairs",
        rep["result"] == "Pass",
        f"{rep['checked']} probe comparisons",
    )


def test_criterion_6_function_locale_soundness():
    rep = law_function_locale(seed=5, instances=500, effort=32, rt_effort=256)
    coverage_ok = all(
        r["sound"] and parse_rational(r["coverage"]) >= parse_rational("4/5")
        for r in rep["round_trips"]
    )
    ok = rep["result"] == "Pass" and coverage_ok
    worst = min(
        (parse_rational(r["coverage"]) for r in rep["round_trips"]), default=0
    )
    _announce(
        "6 axiom checks never Fail + sound round trips",
        ok,
        f"{rep['checked']} instances, worst coverage {worst}",
    )


def test_criterion_7_finite_duality():
    rep = law_gelfand(
        seed=6,
        random_n3=10_000,
        cstar_samples=100,
        max_spec_n=6,
        exhaustive_n=2,
    )
    _announce(
        "7 finite duality: admissibility, spectra, norm identity",
        rep["result"] == "Pass",
        f"{rep['checked']} checks",
    )


def test_criterion_8_determinism():
    a = suite_json(run_law_suite(seed=0))
    b = suite_json(run_law_suite(seed=0))
    digest = hashlib.sha256(a.encode()).hexdigest()
    ok = a == b and '"result":"Pass"' in a and digest == SEED0_SUITE_SHA256
    _announce(
        "8 law suite byte-identical across runs",
        ok,
        f"{len(a)} bytes, sha256 {digest[:16]}",
    )
