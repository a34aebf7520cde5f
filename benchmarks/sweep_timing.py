"""Serial vs parallel vs warm-cache sweep timing (CI smoke benchmark).

Runs a reduced but representative sweep three ways over a throwaway
cache directory and writes the numbers as JSON (``BENCH_sweep.json`` in
CI), seeding the performance trajectory:

1. serial, cold cache   — the pre-engine baseline path
2. parallel, cold cache — the SweepEngine fan-out
3. parallel, warm cache — must be a small fraction of the cold time

Usage::

    PYTHONPATH=src python benchmarks/sweep_timing.py --jobs 4 --out BENCH_sweep.json
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import SystemConfig, MultiprocessorParams  # noqa: E402
from repro.experiments.cache import ResultCache              # noqa: E402
from repro.experiments.export import write_json              # noqa: E402
from repro.experiments.runner import ExperimentContext       # noqa: E402
from repro.experiments.sweep import SweepEngine, \
    default_points                                           # noqa: E402

#: A representative slice: two uniprocessor workloads and two SPLASH
#: apps cover both simulator families without nightly-scale runtimes.
WORKLOADS = ("DC", "R1")
APPS = ("cholesky", "mp3d")


def _make_ctx(cache):
    return ExperimentContext(
        config=SystemConfig.fast(),
        mp_params=MultiprocessorParams(n_nodes=4),
        warmup=10_000, measure=40_000, cache=cache)


def _timed_sweep(points, jobs, cache):
    ctx = _make_ctx(cache)
    engine = SweepEngine(ctx, jobs=jobs)
    t0 = time.perf_counter()
    report = engine.run(points)
    return time.perf_counter() - t0, report, ctx


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--out", default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    points = default_points(workloads=WORKLOADS, apps=APPS)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        serial_s, _, _ = _timed_sweep(points, jobs=1, cache=None)
        parallel_s, report, _ = _timed_sweep(
            points, jobs=args.jobs, cache=ResultCache(cache_dir))
        warm_s, warm_report, warm_ctx = _timed_sweep(
            points, jobs=args.jobs, cache=ResultCache(cache_dir))
        assert warm_ctx.sim_count == 0, "warm rerun re-simulated!"

        payload = dict(
            report.to_dict(),
            benchmark="sweep_timing",
            n_points=len(points),
            serial_seconds=round(serial_s, 3),
            parallel_seconds=round(parallel_s, 3),
            warm_cache_seconds=round(warm_s, 3),
            parallel_speedup=round(serial_s / parallel_s, 3),
            warm_fraction_of_cold=round(warm_s / parallel_s, 4),
            warm_cache_hits=warm_report.count("cache"),
            host={"python": platform.python_version(),
                  "machine": platform.machine(),
                  "cpus": os.cpu_count()},
        )
        write_json(args.out, payload)
        print(json.dumps({k: payload[k] for k in (
            "n_points", "serial_seconds", "parallel_seconds",
            "warm_cache_seconds", "parallel_speedup",
            "warm_fraction_of_cold")}, indent=2))
        print("wrote %s" % args.out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
