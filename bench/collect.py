#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a BENCH_*.json file.

    python3 bench/collect.py --label <commit> --out bench/results/BENCH_<label>.json

For every workload of BENCHMARK.json: ten end-to-end runs of its
``run_seconds`` with seeds 1..10, giving the median, quartiles and spread
(quartile distance over median) of every end-to-end metric, then one traced
run with seed 1 for the per-layer metrics.  Last, the determinism check of
``run.py`` with seed 1.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    notes = [line.strip() for line in lines[:-1] if not line.startswith("workload")]
    return json.loads(lines[-1]), notes


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, notes = run(name, seed, seconds, 0)
            results.append(result)
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        traced, trace_notes = run(name, 1, seconds, 1)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], bound=m["bound"], **summarise(
                    [r["metrics"][m["name"]]["value"] for r in results]))
                for m in spec["end_to_end"]
            },
            "per_layer": traced["metrics"],
            "trace_notes": trace_notes,
        }
        e2e = report["workloads"][name]["end_to_end"]
        print(name, {k: round(v["spread"], 4) for k, v in e2e.items()}, flush=True)
    argv = [sys.executable, str(HERE / "run.py"), "--check-determinism", "--seed", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    report["determinism"] = {
        "exit_code": done.returncode,
        "lines": done.stdout.strip().splitlines(),
    }
    print(done.stdout, flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
