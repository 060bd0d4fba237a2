"""The benchmark's own answer check, run as a test.

``bench/run.py --check-determinism`` runs each workload's first period three
times in one process and compares work counts and answer digests.  The
seed-0 digests are pinned too, so a change of any answer fails here.  The
work that the traced seed-1 ``finite`` run counts through
``bench/tracing.Tracer`` is pinned as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = {
    "locale": "fd9adbe835837e50",
    "finite": "470f5350541b1b98",
    "reals": "605d30ce8c0c787b",
    "cli": "3f5f6a558f48758e",
}
# the traced seed-1 counts of ``bench/run.py --workload finite --seed 1 --trace 1``;
# numbers.calls is left out: it counts helper calls, not work of the calculus.
# completion.stage_evals was 6482 until the character laws ran on integer rows:
# the 582 stage reads of constant character results are gone
FINITE_WORK = {
    "carriers.dist_calls": 37532,
    "upper.raw_evals": 3752,
    "completion.stage_evals": 5900,
    "balls.calls": 27754,
}


def run_bench(*args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # bench/ stays as is
    )


def test_benchmark_answers_are_deterministic():
    done = run_bench("--check-determinism")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1])["deterministic"] is True
    for name, digest in DIGESTS.items():
        line = next(l for l in lines if l.startswith(name + ":"))
        assert line.endswith(f", digest {digest}, failed 0"), line


def test_finite_traced_work_is_pinned():
    done = run_bench("--workload", "finite", "--seed", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    work = {name: report["metrics"][name]["value"] for name in FINITE_WORK}
    assert work == FINITE_WORK
