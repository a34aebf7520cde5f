"""Engine core timing: the burst engine vs the naive loop (CI gate).

Times identical runs under both simulation engines (the fastest of
three runs per engine, the engines taking turns) and writes the
wall-clock numbers plus the *speedup ratio* ``burst_speedup`` =
naive/burst as JSON (``BENCH_core.json`` in CI).  The ratios are
host-independent — the engines run in the same interpreter on the same
machine — so CI can gate on them: the checked-in baseline
(``BENCH_burst_baseline.json``) records the expected ratios and the
gate fails when any case regresses by more than the allowed fraction.

Usage::

    PYTHONPATH=src python benchmarks/core_timing.py --out BENCH_core.json
    PYTHONPATH=src python benchmarks/core_timing.py \
        --burst-baseline benchmarks/BENCH_burst_baseline.json \
        --max-regression 0.20
"""

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import SystemConfig, MultiprocessorParams  # noqa: E402
from repro.experiments.export import write_json              # noqa: E402
from repro.api import Simulation                             # noqa: E402

#: Memory-latency-bound DASH-like machine (~4x default latencies); see
#: bench_simulator_speed.STRESS_PARAMS for the rationale.
STRESS_PARAMS = MultiprocessorParams(
    n_nodes=4,
    local_memory=(120, 160),
    remote_memory=(400, 520),
    remote_cache=(520, 640),
)

#: Compute-bound stream for the burst engine's best case; mirrors
#: bench_simulator_speed.COMPUTE_SPEC.
_COMPUTE_SPEC = dict(name="compute", load_fraction=0.0,
                     store_fraction=0.0, fp_fraction=0.35,
                     branch_fraction=0.0, dependency_distance=3, seed=11)

#: name -> simulation builder kwargs; each case runs once per engine.
CASES = {
    "mp3d_interleaved_2": dict(
        kind="mp", workload="mp3d", scheme="interleaved", n_contexts=2,
        scale=0.5),
    "cholesky_interleaved_2": dict(
        kind="mp", workload="cholesky", scheme="interleaved", n_contexts=2,
        scale=0.5),
    "DC_interleaved_4": dict(
        kind="ws", workload="DC", scheme="interleaved", n_contexts=4,
        warmup=10_000, measure=60_000),
    # The blocked scheme's current context owns its bursts and stall
    # windows even while its siblings are runnable.  The experiment
    # layer's own window: at 60k cycles the ratio spread too widely to
    # gate.
    "DC_blocked_4": dict(
        kind="ws", workload="DC", scheme="blocked", n_contexts=4,
        warmup=30_000, measure=120_000),
    "compute_single_1": dict(
        kind="stream", scheme="single", n_contexts=1, until=330_000),
    # The Section 7 multi-issue extension on the burst fast path: same
    # compute-bound stream, dual-issue pipeline — precompiled width-2
    # schedules must stay well ahead of per-cycle stepping.
    "compute_width2_1": dict(
        kind="stream", scheme="single", n_contexts=1, until=330_000,
        width=2),
}


def _run_case(spec, engine):
    """Run one case under one engine; returns (RunResult, seconds)."""
    if spec["kind"] == "mp":
        simulation = Simulation.from_config(
            STRESS_PARAMS, scheme=spec["scheme"],
            n_contexts=spec["n_contexts"], seed=1994,
            engine=engine).load(spec["workload"], scale=spec["scale"])
        t0 = time.perf_counter()
        result = simulation.run(until=20_000_000)
        elapsed = time.perf_counter() - t0
        if not result.completed:
            raise RuntimeError("%s did not complete" % spec["workload"])
    elif spec["kind"] == "stream":
        from repro.core.simulator import WorkstationSimulator
        from repro.workloads.generator import (
            GenSpec, generate_process)
        procs = [generate_process(GenSpec(**_COMPUTE_SPEC), index=0,
                                  verify=False)]
        config = SystemConfig.fast().with_pipeline(
            issue_width=spec.get("width", 1))
        sim = WorkstationSimulator(
            procs, scheme=spec["scheme"], n_contexts=spec["n_contexts"],
            config=config, seed=1994, engine=engine)
        t0 = time.perf_counter()
        result = sim.run(until=spec["until"])
        elapsed = time.perf_counter() - t0
    else:
        simulation = Simulation.from_config(
            SystemConfig.fast(), scheme=spec["scheme"],
            n_contexts=spec["n_contexts"], seed=1994,
            engine=engine).load(spec["workload"])
        t0 = time.perf_counter()
        result = simulation.run(warmup=spec["warmup"],
                                measure=spec["measure"])
        elapsed = time.perf_counter() - t0
    return result, elapsed


#: Runs per case and engine; the fastest one is kept.  Host contention
#: only ever adds time, and the fast engines' runs are short enough
#: (well under a second) that one slow run would move a ratio past its
#: gate floor.
REPEATS = 3


def _fastest_runs(spec):
    """engine -> (RunResult, seconds) of its fastest run.

    The engines take turns, so a slow spell of the host falls on both
    rather than on one engine's back-to-back repeats.
    """
    best = {}
    for _ in range(REPEATS):
        for engine in ("naive", "burst"):
            run = _run_case(spec, engine)
            if engine not in best or run[1] < best[engine][1]:
                best[engine] = run
    return best


def run_cases():
    """Time every case under both engines; returns the payload."""
    cases = {}
    for name, spec in CASES.items():
        runs = _fastest_runs(spec)
        naive, naive_s = runs["naive"]
        burst, burst_s = runs["burst"]
        if (burst.cycles != naive.cycles
                or burst.retired != naive.retired
                or burst.counts != naive.counts):
            raise AssertionError(
                "engines disagree on %s: burst/naive stats differ" % name)
        cases[name] = {
            "cycles": naive.cycles,
            "retired": naive.retired,
            "naive_seconds": round(naive_s, 3),
            "burst_seconds": round(burst_s, 3),
            "burst_speedup": round(naive_s / burst_s, 3),
        }
    return {
        "benchmark": "core_timing",
        "cases": cases,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }


def check_against_baseline(payload, baseline, max_regression):
    """Compare speedup ratios; returns a list of failure strings.

    Every key ending in ``speedup`` in a baseline case is gated.
    """
    failures = []
    for name, base in baseline["cases"].items():
        current = payload["cases"].get(name)
        if current is None:
            failures.append("case %r missing from current run" % name)
            continue
        for key, base_ratio in base.items():
            if not key.endswith("speedup"):
                continue
            ratio = current.get(key)
            if ratio is None:
                failures.append("%s: %r missing from current run"
                                % (name, key))
                continue
            floor = base_ratio * (1.0 - max_regression)
            if ratio < floor:
                failures.append(
                    "%s: %s %.2fx below floor %.2fx (baseline %.2fx, "
                    "max regression %.0f%%)"
                    % (name, key, ratio, floor, base_ratio,
                       max_regression * 100))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_core.json")
    parser.add_argument("--burst-baseline", default=None,
                        help="burst-engine baseline JSON to gate against "
                             "(omit to skip the gate, e.g. when "
                             "regenerating it)")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional speedup regression vs "
                             "the baseline (default 0.20)")
    args = parser.parse_args(argv)

    payload = run_cases()
    write_json(args.out, payload)
    print(json.dumps({name: {key: value for key, value in case.items()
                             if key.endswith("speedup")}
                      for name, case in payload["cases"].items()},
                     indent=2))
    print("wrote %s" % args.out)

    if not args.burst_baseline:
        return 0
    with open(args.burst_baseline) as fh:
        baseline = json.load(fh)
    failures = check_against_baseline(payload, baseline,
                                      args.max_regression)
    if failures:
        for failure in failures:
            print("REGRESSION: %s" % failure, file=sys.stderr)
        return 1
    print("baseline gate passed (max regression %.0f%%)"
          % (args.max_regression * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
