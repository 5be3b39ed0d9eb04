"""Measure and record the benchmark baseline.

Usage, from the root of a source checkout::

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

For every workload this makes ``--runs`` untraced runs of ``bench/run.py``,
each a fresh process with its own seed (1, 2, ...), and one traced run
with seed 1.  It writes the median, quartiles and spread (the distance
between the quartiles over the median) of every end-to-end metric and of
the raw wall times behind them, and the per-layer table of the traced
run.  Runs are sequential, so they do not compete for the processor.
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

ROOT = Path(__file__).resolve().parent.parent

# Cases that belong to two_sided but each alone exceeds a run today (one
# measurement each, on the machine recorded with the baseline).
LEFT_OUT = [
    {"case": "rep_hom End(gen 4) on the P3 chamber category",
     "cells": 7113, "seconds": 155},
    {"case": "rep_hom Hom(gen 4, gen 3) on the P3 chamber category",
     "cells": 3496, "seconds": 35},
    {"case": "Ext(S4, S0) on the P4 chamber category", "seconds": 20},
]


def _run(workload, seed, seconds, traced):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {line.split()[1]: float(line.split()[2])
                     for line in lines if line.startswith("  raw ")}
    return result


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default="bench/baseline.json")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    out = {"machine": _machine(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [_run(workload, seed, seconds, False)
                   for seed in range(1, args.runs + 1)]
        traced = _run(workload, 1, seconds, True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        out["workloads"][workload] = {
            "runs": args.runs,
            "checks_attempted": attempted,
            "check_fail_ratio": failed / attempted,
            "end_to_end": {
                m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                     for r in results])
                for m in spec["end_to_end"]},
            "raw_wall": {
                name: _summary([r["raw"][name] for r in results])
                for name in results[0]["raw"]},
            "per_layer_seed_1": {name: entry["value"] for name, entry
                                 in traced["metrics"].items()},
        }
    import spans
    out["layer_targets"] = spans.LAYER_TARGETS
    out["left_out"] = LEFT_OUT
    with open(ROOT / args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
