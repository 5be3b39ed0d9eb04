"""Benchmark for fltzlab: timed passes over check-driven workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload two_sided --seed 1 --seconds 36 --trace 0

Each workload (see ``workloads.py``) is a fixed list of checks built from
the seed.  Checks run back to back in a closed loop, one process with one
thread at a time.

``--trace 0`` starts two fresh worker processes, one after the other.
Each imports fltzlab and builds the inputs, runs a cold pass (fltzlab's
caches are empty, as for a CLI user), then warm passes: at least one,
and more while the next still fits in half of ``--seconds``.  It reports:

* ``verdict_s``: time of a warm pass, summed over checks from each
  check's median time over the warm passes;
* ``cold_verdict_s``: the same over the two cold passes;
* ``setup_s``: median, over the workers and a few more fresh
  interpreters, of the time from spawning the interpreter until
  ``import fltzlab`` and the seeded input generation are done;
* ``peak_rss_mb``: the largest peak resident memory of a worker.

Times are given at a fixed processor speed.  On a shared two-vCPU Xeon
virtual machine the same pass took from 5.2 to 10.5 seconds, in spells
of 10 seconds to several minutes, and raw wall times of ten runs spread
by up to a third between their quartiles.  Each process therefore runs a
fixed speed probe (exact elimination over Fractions in pure Python, the
arithmetic fltzlab does) between checks, and scales each pass by
``PROBE_NOMINAL_S`` over the probe's mean time during that pass; scaled
times of ten runs spread by at most a tenth.  A value reads as seconds on
a machine where the probe takes ``PROBE_NOMINAL_S``.  The table also
prints the raw wall times.

``--trace 1`` runs, in this process, a cold pass and then untraced and
traced warm passes in turn, and reports the per-layer metrics of
``spans.py`` (medians over the traced passes, raw wall seconds) and
``trace_overhead``.

Every line but the last is a human-readable table, including
``check_fail_ratio``; the last line is one JSON object.  A failed or
raising check is named on stderr and makes the exit code 1.
``--self-test`` plants a wrong expected value and a raising check in a
workload and shows that both are caught.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
SETUP_PROBES = 7  # fresh interpreters that only set up, besides the workers
SPEED_PROBES = 20  # speed probes each child runs right after set-up
WORKER_TIMEOUT = 80
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.002


def _import_library():
    """Import fltzlab from this checkout's ``src``; exit 1 if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fltzlab
        import workloads
    except ImportError as exc:
        sys.exit(f"bench: cannot import fltzlab from {src}: {exc}")
    if src not in Path(fltzlab.__file__).resolve().parents:
        sys.exit(f"bench: fltzlab was imported from {fltzlab.__file__}, "
                 f"not from {src}")
    return workloads


def _declared_metrics(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
                  for j in range(9)] for i in range(8)]


def speed_probe():
    """Seconds for a fixed Gauss-Jordan elimination over Fractions."""
    start = perf_counter()
    m = [list(row) for row in _PROBE_MATRIX]
    rank = 0
    for col in range(9):
        pivot = next((i for i in range(rank, 8) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(8):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return perf_counter() - start


def run_pass(checks, failures):
    """Run every check once; return each check's wall time and the mean
    time of the speed probes run between checks."""
    times, probes = [], [speed_probe()]
    last = perf_counter()
    for check in checks:
        start = perf_counter()
        try:
            got, expected = check.run()
        except Exception as exc:  # a raising check is a failed check
            failures.append((check.name, f"raised {type(exc).__name__}: {exc}"))
        else:
            if got != expected:
                failures.append(
                    (check.name, f"got {got!r}, expected {expected!r}"))
        times.append(perf_counter() - start)
        if perf_counter() - last >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last = perf_counter()
    probes.append(speed_probe())
    return times, statistics.mean(probes)


def _fits(start, last, seconds):
    """True if work as long as ``last`` would still end within the budget."""
    return perf_counter() - start + sum(last[0]) <= seconds


def typical_pass(passes):
    """Sum over checks of each check's median time, at nominal speed."""
    scaled = [[t * PROBE_NOMINAL_S / probe for t in times]
              for times, probe in passes]
    return sum(statistics.median(times) for times in zip(*scaled))


def _worker(checks, seconds):
    """One fresh process: a cold pass, then warm passes within ``seconds``."""
    failures = []
    start = perf_counter()
    cold = run_pass(checks, failures)
    warm = [run_pass(checks, failures)]
    while _fits(start, warm[-1], seconds):
        warm.append(run_pass(checks, failures))
    return {"cold": cold, "warm": warm, "failures": failures,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _spawn(mode, args, seconds=0.0):
    """Start this script in ``mode``; return its set-up time and its result.

    The child prints ``ready`` once fltzlab is imported and the inputs are
    built, then one JSON line with its speed probe and, as a worker, its
    passes.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"bench: {mode} process failed with exit code "
                 f"{proc.returncode}")
    result = json.loads(rest.splitlines()[-1])
    return setup, setup * PROBE_NOMINAL_S / result["probe"], result


def measure(args):
    """The end-to-end metrics from fresh worker processes and probes."""
    setup, raw_setup, workers = [], [], []
    for i in range(WORKERS + SETUP_PROBES):
        mode = "--worker" if i < WORKERS else "--probe"
        raw, scaled, result = _spawn(mode, args, args.seconds / WORKERS)
        raw_setup.append(raw)
        setup.append(scaled)
        if i < WORKERS:
            workers.append(result)
    warm = [p for w in workers for p in w["warm"]]
    cold = [w["cold"] for w in workers]
    return {
        "attempted": sum(len(w["cold"][0]) * (1 + len(w["warm"]))
                         for w in workers),
        "failures": [tuple(f) for w in workers for f in w["failures"]],
        "passes": len(warm),
        "metrics": {
            "verdict_s": (typical_pass(warm), "s"),
            "cold_verdict_s": (typical_pass(cold), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(w["rss_mb"] for w in workers), "MB"),
        },
        "raw": {
            "verdict_s": statistics.median(sum(t) for t, _ in warm),
            "cold_verdict_s": statistics.median(sum(t) for t, _ in cold),
            "setup_s": statistics.median(raw_setup),
            "probe_ms": 1000 * statistics.median(p for _, p in warm + cold),
        },
    }


def measure_traced(checks, seconds, namespaces):
    """Cold pass, then untraced and traced warm passes in turn."""
    import spans

    failures = []
    start = perf_counter()
    run_pass(checks, failures)
    plain, traced, layers = [], [], []
    missing = []
    while not traced or _fits(start, (plain[-1][0] + traced[-1][0],),
                              seconds):
        plain.append(run_pass(checks, failures))
        recorder = spans.Recorder()
        installed = spans.Installation(recorder, namespaces)
        try:
            traced.append(run_pass(checks, failures))
        finally:
            installed.remove()
        missing = installed.missing
        layers.append(recorder.layer_metrics(sum(traced[-1][0])))
    units = {m["name"]: m["unit"] for m in _declared_metrics("per_layer")}
    metrics = {}
    for name in layers[0]:
        if name in units:
            metrics[name] = (statistics.median(layer[name] for layer in layers),
                             units[name])
    overhead = typical_pass(traced) / typical_pass(plain) - 1
    metrics["trace_overhead"] = (overhead, units["trace_overhead"])
    return {
        "attempted": len(checks) * (1 + len(plain) + len(traced)),
        "failures": failures,
        "passes": len(traced),
        "missing": missing,
        "metrics": metrics,
    }


def _report(workload, result, declared):
    """Print the table and the JSON line; return the exit code."""
    failed = len(result["failures"])
    attempted = result["attempted"]
    for name, detail in result["failures"]:
        print(f"bench: FAILED {name}: {detail}", file=sys.stderr)
    for name in result.get("missing", ()):
        print(f"bench: untraced entry point {name}", file=sys.stderr)
    absent = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if absent:
        sys.exit(f"bench: no value for declared metrics {absent}")
    print(f"workload {workload}: {result['passes']} measured passes, "
          f"{attempted} checks attempted, {failed} failed")
    rows = [(m["name"], *result["metrics"][m["name"]]) for m in declared]
    rows.append(("check_fail_ratio", failed / attempted, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:28s} {value:16.6f} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"  raw {name:24s} {value:16.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in rows[:-1]},
    }))
    return 0 if failed == 0 else 1


def _self_test(workloads, workload, seed):
    """Plant a wrong expected value and a raising check; both must fail."""
    real = workloads.build(workload, seed)[0]

    def wrong():
        got, expected = real.run()
        return got, ("planted", expected)

    def raising():
        raise ValueError("planted")

    checks = [workloads.Check(f"planted-wrong:{real.name}", wrong),
              workloads.Check("planted-raise", raising), real]
    failures = []
    run_pass(checks, failures)
    caught = [name for name, _ in failures]
    expected = [checks[0].name, checks[1].name]
    print(f"self-test on {workload}: failures {caught}")
    if caught != expected:
        print(f"self-test FAILED: expected failures {expected}", file=sys.stderr)
        return 1
    print("self-test passed: the planted mismatch and exception were caught")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("two_sided", "fan_geometry", "lattice_hom"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_library()
    if args.self_test:
        return _self_test(workloads, args.workload, args.seed)
    if args.trace:
        checks = workloads.build(args.workload, args.seed)
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name.startswith("fltzlab.")] + [workloads]
        result = measure_traced(checks, args.seconds, namespaces)
        return _report(args.workload, result, _declared_metrics("per_layer"))
    if args.worker or args.probe:
        checks = workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        probe = statistics.mean(speed_probe() for _ in range(SPEED_PROBES))
        result = _worker(checks, args.seconds) if args.worker else {}
        print(json.dumps({"probe": probe, **result}))
        return 0
    return _report(args.workload, measure(args),
                   _declared_metrics("end_to_end"))


if __name__ == "__main__":
    sys.exit(main())
