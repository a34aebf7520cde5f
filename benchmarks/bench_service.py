"""Service-path timing: job latency and burst-cache warmup (CI gate).

Submits the same burst-engine sweep job twice through a
:class:`~repro.service.manager.JobManager`:

* **cold** — empty burst-table cache: every worker compiles its
  program's tables and publishes them;
* **warm** — same burst directory, a *fresh* result cache: every point
  recomputes its simulation but loads its burst tables from the shared
  cache (validated by ``audit_bursts``) instead of compiling.

then resubmits it as a **warm hit** into the warm run's result cache
(every point must be read from the cache, none computed or rewritten),
and runs the same job once more as a **net** case: a TCP
:class:`~repro.service.net.ServiceServer` fronting the manager, with a
:class:`~repro.service.client.ServiceClient` submitting and streaming
the results over a real socket (warm burst tables, fresh result cache
— so the simulation work matches the warm case and the delta is the
wire).

Records submit-to-first-result latency and points/sec for every run
plus two host-independent ratios CI gates against a checked-in
baseline (``BENCH_service_baseline.json``): ``warm_speedup`` (warm /
cold points-per-sec) and ``net_vs_warm_speedup`` (net / warm — how
much throughput the TCP hop costs).  Four correctness gates are
unconditional: the warm run must *hit* the table cache on every point,
no run may reject a cached entry, the warm-hit resubmit must serve
every point from the result cache without storing anything and stream
payloads byte-identical to the warm run's, and the streamed TCP
payloads must be byte-identical to the manager's in-process results.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py \
        --baseline benchmarks/BENCH_service_baseline.json \
        --max-regression 0.50
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
from repro.service import JobManager, JobSpec                # noqa: E402

#: One workload, several schemes/context counts: every point shares one
#: program, so the table cache's cross-worker sharing is on the hot path.
POINTS = (
    ("uniproc", "R1", "single", 1),
    ("uniproc", "R1", "blocked", 2),
    ("uniproc", "R1", "interleaved", 2),
    ("uniproc", "R1", "interleaved", 4),
)

WARMUP = 2_000
MEASURE = 12_000
WORKERS = 2


def _run_once(burst_dir, cache):
    """One submit -> drain cycle; returns (timing/stat dict, payloads)."""
    spec = JobSpec(points=POINTS, config=SystemConfig.fast(),
                   mp_params=MultiprocessorParams(n_nodes=2),
                   warmup=WARMUP, measure=MEASURE, engine="burst")
    with JobManager(workers=WORKERS, cache=cache,
                    burst_dir=burst_dir) as manager:
        t0 = time.perf_counter()
        job_id = manager.submit(spec)
        first = None
        payloads = []
        for payload in manager.iter_results(job_id, timeout=600):
            if first is None:
                first = time.perf_counter() - t0
            payloads.append(payload)
        total = time.perf_counter() - t0
        status = manager.status(job_id)
    if status["status"] != "completed" or len(payloads) != len(POINTS):
        raise RuntimeError("benchmark job did not complete: %r"
                           % (status,))
    return {
        "submit_to_first_result_seconds": round(first, 3),
        "total_seconds": round(total, 3),
        "points_per_second": round(len(payloads) / total, 3),
        "burst": status["burst_cache"],
        "cache_hits": status["cache_hits"],
    }, payloads


def _run_net(burst_dir, result_dir):
    """The same job over a real TCP socket; returns the timing dict.

    Uses the already-warm burst directory with a fresh result cache,
    so the compute matches the warm in-process run and the measured
    difference is the protocol itself.
    """
    from repro.service import connect
    from repro.service.net import ServiceServer
    spec = JobSpec(points=POINTS, config=SystemConfig.fast(),
                   mp_params=MultiprocessorParams(n_nodes=2),
                   warmup=WARMUP, measure=MEASURE, engine="burst")
    with JobManager(workers=WORKERS, cache=ResultCache(result_dir),
                    burst_dir=burst_dir) as manager:
        with ServiceServer(manager) as server:
            with connect(server.host, server.port) as client:
                t0 = time.perf_counter()
                job_id = client.submit(spec)
                first = None
                streamed = []
                for payload in client.stream(job_id):
                    if first is None:
                        first = time.perf_counter() - t0
                    streamed.append(payload)
                total = time.perf_counter() - t0
                status = client.status(job_id)
            stats = server.stats.snapshot()
        direct = manager.results(job_id, timeout=600)
    if status["status"] != "completed" or len(streamed) != len(POINTS):
        raise RuntimeError("network benchmark job did not complete: %r"
                           % (status,))
    if streamed != direct:
        raise RuntimeError(
            "TCP stream diverged from the in-process results")
    return {
        "submit_to_first_result_seconds": round(first, 3),
        "total_seconds": round(total, 3),
        "points_per_second": round(len(streamed) / total, 3),
        "burst": status["burst_cache"],
        "server": {key: stats[key] for key in
                   ("requests", "bytes_in", "bytes_out", "frames_out",
                    "streams", "resumes")},
    }


def run_benchmark():
    root = tempfile.mkdtemp(prefix="bench_service_")
    try:
        burst_dir = os.path.join(root, "bursts")
        cold, _ = _run_once(burst_dir,
                            ResultCache(os.path.join(root, "rc_cold")))
        # Fresh result cache: the simulations recompute, only the
        # compiled burst tables carry over.
        warm_cache = ResultCache(os.path.join(root, "rc_warm"))
        warm, warm_payloads = _run_once(burst_dir, warm_cache)
        # The same job again into the now-warm result cache: a hit is
        # read and validated, never written back.
        stores = warm_cache.stores
        warm_hit, hit_payloads = _run_once(burst_dir, warm_cache)
        warm_hit["stores"] = warm_cache.stores - stores
        warm_hit["identical"] = sorted(hit_payloads) == sorted(
            warm_payloads)
        net = _run_net(burst_dir, os.path.join(root, "rc_net"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    sweep_case = {
        "cold": cold,
        "warm": warm,
        "warm_hit": warm_hit,
        "warm_speedup": round(warm["points_per_second"]
                              / cold["points_per_second"], 3),
    }
    net_case = {
        "net": net,
        "net_vs_warm_speedup": round(net["points_per_second"]
                                     / warm["points_per_second"], 3),
    }
    return {
        "benchmark": "bench_service",
        "n_points": len(POINTS),
        "workers": WORKERS,
        "cases": {"service_burst_sweep": sweep_case,
                  "service_net_stream": net_case},
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }


def check(payload, baseline, max_regression):
    """Correctness gates plus the ratio gate; returns failure strings."""
    failures = []
    case = payload["cases"]["service_burst_sweep"]
    warm_burst = case["warm"]["burst"]
    if warm_burst["hits"] < payload["n_points"]:
        failures.append(
            "warm run hit the burst cache on %d/%d points — table "
            "sharing is not on the hot path"
            % (warm_burst["hits"], payload["n_points"]))
    for phase in ("cold", "warm"):
        if case[phase]["burst"]["rejected"]:
            failures.append("%s run rejected %d cached burst tables"
                            % (phase, case[phase]["burst"]["rejected"]))
    hit = case["warm_hit"]
    if hit["cache_hits"] < payload["n_points"]:
        failures.append("warm-hit resubmit read %d/%d points from the "
                        "result cache" % (hit["cache_hits"],
                                          payload["n_points"]))
    if hit["stores"]:
        failures.append("warm-hit resubmit stored %d result-cache "
                        "entries (a hit must not be rewritten)"
                        % (hit["stores"],))
    if not hit["identical"]:
        failures.append("warm-hit payloads differ from the warm run's")
    net = payload["cases"]["service_net_stream"]["net"]
    if net["burst"]["rejected"]:
        failures.append("net run rejected %d cached burst tables"
                        % (net["burst"]["rejected"],))
    if baseline is not None:
        for case_name, base in baseline["cases"].items():
            measured = payload["cases"].get(case_name)
            if measured is None:
                failures.append("case %r in baseline but not measured"
                                % (case_name,))
                continue
            for key, base_ratio in base.items():
                if not key.endswith("speedup"):
                    continue
                ratio = measured.get(key)
                floor = base_ratio * (1.0 - max_regression)
                if ratio is None or ratio < floor:
                    failures.append(
                        "%s: %s %s below floor %.2fx "
                        "(baseline %.2fx, max regression %.0f%%)"
                        % (case_name, key, "%.2fx" % ratio
                           if ratio is not None else "missing",
                           floor, base_ratio, max_regression * 100))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate warm_speedup against "
                             "(omit when regenerating the baseline)")
    parser.add_argument("--max-regression", type=float, default=0.50,
                        help="allowed fractional warm_speedup regression "
                             "vs the baseline (default 0.50 — process "
                             "scheduling makes this ratio noisier than "
                             "the in-process engine ratios)")
    args = parser.parse_args(argv)

    payload = run_benchmark()
    write_json(args.out, payload)
    case = payload["cases"]["service_burst_sweep"]
    net_case = payload["cases"]["service_net_stream"]
    print(json.dumps({
        "submit_to_first_result_seconds": {
            phase: case[phase]["submit_to_first_result_seconds"]
            for phase in ("cold", "warm")},
        "points_per_second": {
            phase: case[phase]["points_per_second"]
            for phase in ("cold", "warm")},
        "warm_speedup": case["warm_speedup"],
        "warm_burst": case["warm"]["burst"],
        "warm_hit": {key: case["warm_hit"][key]
                     for key in ("cache_hits", "stores", "identical")},
        "net": {
            "submit_to_first_result_seconds":
                net_case["net"]["submit_to_first_result_seconds"],
            "points_per_second": net_case["net"]["points_per_second"],
            "bytes_out": net_case["net"]["server"]["bytes_out"],
        },
        "net_vs_warm_speedup": net_case["net_vs_warm_speedup"],
    }, indent=2))
    print("wrote %s" % args.out)

    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    failures = check(payload, baseline, args.max_regression)
    if failures:
        for failure in failures:
            print("REGRESSION: %s" % failure, file=sys.stderr)
        return 1
    print("service gate passed%s"
          % (" (max regression %.0f%%)" % (args.max_regression * 100)
             if baseline is not None else " (correctness gates only)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
