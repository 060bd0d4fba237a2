#!/usr/bin/env python3
"""Benchmark of the formalballs library: one seeded workload per run.

    python3 bench/run.py --workload {locale,finite,reals,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --check-determinism [--seed N]

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  A run of ``--trace 0`` times every
operation from outside the library and reports the end-to-end metrics.
The operations are a fixed list per seed, the workload's first ``periods``
periods (see ``workloads.py``); the run repeats that list in whole passes
until ``--seconds`` have gone by, at least ``MIN_PASSES`` times, and an
operation's latency is its median over the passes, so a slow spell of the
host during one pass does not set the figures.  A run of ``--trace 1``
executes the same list twice, untraced and then with the wrappers of
``tracing.py`` installed, and reports per-layer metrics.  Every answer is
checked against the oracles of ``oracles.py``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``failed`` counts operations that raised or whose answer failed its oracle.
``correct`` is false when any operation failed other than the inputs the
cli workload includes because the program is known to mishandle them.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "formalballs"
SETUP_REPEATS = 5  # fresh interpreters before and again after the timed loop
WARMUP_OPS = 5
MIN_PASSES = 3  # passes over the operation list of an end-to-end run, at least


def load_library():
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"run.py: no formalballs sources at {PACKAGE}; run from a source checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import formalballs

    if Path(formalballs.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"run.py: formalballs was imported from {formalballs.__file__}, not {PACKAGE}")
    import workloads

    return workloads


class Ledger:
    """Answers, failures and latencies of one pass over operations."""

    def __init__(self, wl, digest_ops):
        self.wl = wl
        self.digest_ops = digest_ops
        self.latencies = array.array("d")  # 8 bytes an operation, so RSS stays the program's
        self.failed = 0
        self.unexpected = 0
        self._hash = hashlib.sha256()

    def run(self, run, ctx, spec):
        t0 = perf_counter()
        try:
            answer = run(ctx, spec)
        except Exception as exc:  # a raising operation is a failed operation
            self.latencies.append(perf_counter() - t0)
            answer, ok = {"raised": type(exc).__name__}, False
        else:
            self.latencies.append(perf_counter() - t0)
            try:
                ok = self.wl.check(spec, answer)
            except Exception:  # an answer the oracle cannot read is a wrong answer
                ok = False
        if not ok:
            self.failed += 1
            if not self.wl.known_defect(spec):
                self.unexpected += 1
        if len(self.latencies) <= self.digest_ops:
            self._hash.update(json.dumps(answer, sort_keys=True, default=str).encode())
            self._hash.update(b"\n")

    @property
    def digest(self):
        return self._hash.hexdigest()[:16]


def warm_up(wl, ctx, seed):
    for spec in wl.period(seed, "warmup")[:WARMUP_OPS]:
        try:
            wl.run(ctx, spec)
        except Exception:
            pass


def time_setups(workload, seed):
    """Wall times of fresh interpreters importing the library and building ctx."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def tail(latencies):
    """Latency at the highest percentile with at least 10 operations beyond it, capped at p99."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 1000:
        index = math.ceil(0.99 * n) - 1
    else:
        index = max(0, n - 11)
    return xs[index], 100 * (index + 1) / n


def operations(wl, seed):
    return [spec for i in range(wl.periods) for spec in wl.period(seed, i)]


def end_to_end(wl, seed, seconds):
    setups = time_setups(wl.name, seed)
    specs = operations(wl, seed)
    n = len(specs)
    ctx = wl.setup(seed)
    warm_up(wl, ctx, seed)
    ledger = Ledger(wl, n)
    gc.collect()
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for spec in specs:
            ledger.run(wl.run, ctx, spec)
        passes += 1
    wall = perf_counter() - start
    setups += time_setups(wl.name, seed)
    by_pass = [ledger.latencies[k * n:(k + 1) * n] for k in range(passes)]
    lat = [statistics.median(times) for times in zip(*by_pass)]
    attempted = len(ledger.latencies)
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - ledger.failed / attempted, "1"),
    }
    notes = [
        f"ops {n} in {wl.periods} periods, run {passes} times; wall {wall:.3f} s",
        "ops_per_s of each pass: " + ", ".join(f"{n / sum(p):.6g}" for p in by_pass),
        f"op_tail_ms is p{pct:.2f} of {n} operations",
        f"fail_ratio {ledger.failed / attempted:.6f} 1 ({ledger.failed} of {attempted})",
        f"answers_digest {ledger.digest} (first pass)",
    ]
    return ledger, metrics, notes


def traced(wl, seed, workloads):
    from tracing import LAYERS, Tracer

    specs = operations(wl, seed)
    ctx = wl.setup(seed)
    warm_up(wl, ctx, seed)
    plain = Ledger(wl, len(specs))
    gc.collect()
    for spec in specs:
        plain.run(wl.run, ctx, spec)
    wall_untraced = sum(plain.latencies)

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    ctx = wl.setup(seed)
    tracer.reset()
    run = tracer.span("glue", wl.run)
    ledger = Ledger(wl, len(specs))
    gc.collect()
    for spec in specs:
        ledger.run(run, ctx, spec)
    wall_traced = sum(ledger.latencies)

    metrics = tracer.metrics(wall_traced, wall_untraced)
    ranked = sorted(LAYERS + ("glue",), key=lambda k: -tracer.self_s[k])
    layer_sum = sum(tracer.self_s[k] for k in LAYERS)
    notes = [
        f"ops {len(specs)}; untraced wall {wall_untraced:.3f} s, traced wall {wall_traced:.3f} s",
        "self time by layer: " + ", ".join(f"{k} {tracer.self_s[k]:.3f}" for k in ranked),
        f"layer self times sum to {layer_sum:.3f} s = traced wall minus "
        f"{wall_traced - layer_sum:.3f} s of benchmark glue",
        f"answers_digest {ledger.digest} (untraced pass {plain.digest})",
    ]
    if plain.digest != ledger.digest:
        notes.append("answers differ between the untraced and the traced pass")
        ledger.unexpected += 1
    ledger.unexpected += plain.unexpected
    return ledger, metrics, notes


def fingerprint(wl, seed, tracer):
    """Counts, ratios and answer digest of the first period of one workload, under tracing."""
    specs = wl.period(seed, 0)
    ctx = wl.setup(seed)
    tracer.reset()
    ledger = Ledger(wl, len(specs))
    for spec in specs:
        ledger.run(wl.run, ctx, spec)
    counts = {k: v for k, (v, unit) in tracer.metrics(0.0, 0.0).items()
              if unit != "s" and not k.startswith("trace.")}
    return {"digest": ledger.digest, "failed": ledger.failed, "counts": counts}


def check_determinism(seed, workloads):
    """Same seed, three passes in one process, the last in reverse workload order."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    names = list(workloads.WORKLOADS)
    seen = {name: [] for name in names}
    for order in (names, names, names[::-1]):
        for name in order:
            seen[name].append(fingerprint(workloads.WORKLOADS[name], seed, tracer))
    ok = True
    for name, prints in seen.items():
        same = all(p == prints[0] for p in prints)
        ok = ok and same
        print(f"{name}: {'identical' if same else 'DIFFERENT'} over 3 passes, "
              f"digest {prints[0]['digest']}, failed {prints[0]['failed']}")
        if not same:
            for p in prints:
                print("  ", json.dumps(p, sort_keys=True))
    print(json.dumps({"deterministic": ok, "seed": seed}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library and build the workload's fixed objects, then exit")
    ap.add_argument("--check-determinism", action="store_true",
                    help="compare counts and answer digests across passes and workload orders")
    args = ap.parse_args(argv)

    workloads = load_library()
    if args.check_determinism:
        return check_determinism(args.seed, workloads)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        return 0

    if args.trace:
        ledger, metrics, notes = traced(wl, args.seed, workloads)
    else:
        ledger, metrics, notes = end_to_end(wl, args.seed, args.seconds)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": ledger.unexpected == 0,
        "attempted": len(ledger.latencies),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
