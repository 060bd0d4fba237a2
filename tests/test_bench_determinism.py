"""The benchmark's own answer check, run as a test.

``bench/run.py --check-determinism`` runs each workload's first period three
times in one process and compares work counts and answer digests.  The
seed-0 digests are pinned too, so a change of any answer fails here.
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


def test_benchmark_answers_are_deterministic():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--check-determinism"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # bench/ stays as is
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1])["deterministic"] is True
    for name, digest in DIGESTS.items():
        line = next(l for l in lines if l.startswith(name + ":"))
        assert line.endswith(f", digest {digest}, failed 0"), line
