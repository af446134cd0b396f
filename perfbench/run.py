"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload calibrate|scan|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a panelscan checkout. With --trace 0 the last line
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
from one traced round, and the spans go to perfbench/out/.
"""

import argparse
import importlib
import json
import statistics
import subprocess
import sys

import env

BENCHMARK_FILE = "BENCHMARK.json"
IMPORT_REPEATS = 9
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import panelscan; print(time.perf_counter() - t)")


def metric_units(traced):
    """Metric name -> unit, from the per_layer or end_to_end list of BENCHMARK.json."""
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("calibrate", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Median wall time of importing panelscan in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, env.source_dir()],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
        env.check_import(importlib.import_module("panelscan"))
    except (env.CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else import_seconds()

    import workloads

    result = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               import_s)
    for failure in result.checks.failures():
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    units = metric_units(bool(args.trace))
    if set(result.metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(result.metrics) ^ set(units))} disagree "
              f"with {BENCHMARK_FILE}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.checks.ok,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
