"""Service-path timing: job latency and the cost of the wire (CI gate).

Submits the same burst-engine sweep job through a
:class:`~repro.service.manager.JobManager` three times:

* **computed** — a fresh result cache: every point is simulated by a
  worker process;
* **warm hit** — the same job again into that result cache: every
  point must be read from the cache, none computed or rewritten;
* **net** — the same job through a TCP
  :class:`~repro.service.net.ServiceServer` fronting the manager, with a
  :class:`~repro.service.client.ServiceClient` submitting and streaming
  the results over a real socket (fresh result cache — so the
  simulation work matches the computed run and the delta is the wire).

Records submit-to-first-result latency and points/sec for every run
plus one host-independent ratio CI gates against a checked-in baseline
(``BENCH_service_baseline.json``): ``net_vs_warm_speedup`` (net /
computed points-per-sec — how much throughput the TCP hop costs).  Two
correctness gates are unconditional: the warm-hit resubmit must serve
every point from the result cache without storing anything and stream
payloads byte-identical to the computed run's, and the streamed TCP
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

#: One workload, several schemes/context counts.
POINTS = (
    ("uniproc", "R1", "single", 1),
    ("uniproc", "R1", "blocked", 2),
    ("uniproc", "R1", "interleaved", 2),
    ("uniproc", "R1", "interleaved", 4),
)

WARMUP = 2_000
MEASURE = 12_000
WORKERS = 2


def _spec():
    return JobSpec(points=POINTS, config=SystemConfig.fast(),
                   mp_params=MultiprocessorParams(n_nodes=2),
                   warmup=WARMUP, measure=MEASURE, engine="burst")


def _run_once(cache):
    """One submit -> drain cycle; returns (timing/stat dict, payloads)."""
    spec = _spec()
    with JobManager(workers=WORKERS, cache=cache) as manager:
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
        "cache_hits": status["cache_hits"],
    }, payloads


def _run_net(result_dir):
    """The same job over a real TCP socket; returns the timing dict.

    A fresh result cache makes the compute match the in-process
    computed run, so the measured difference is the protocol itself.
    """
    from repro.service import connect
    from repro.service.net import ServiceServer
    spec = _spec()
    with JobManager(workers=WORKERS,
                    cache=ResultCache(result_dir)) as manager:
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
        "server": {key: stats[key] for key in
                   ("requests", "bytes_in", "bytes_out", "frames_out",
                    "streams", "resumes")},
    }


def run_benchmark():
    root = tempfile.mkdtemp(prefix="bench_service_")
    try:
        cache = ResultCache(os.path.join(root, "rc"))
        computed, computed_payloads = _run_once(cache)
        # The same job again into the now-warm result cache: a hit is
        # read and validated, never written back.
        stores = cache.stores
        warm_hit, hit_payloads = _run_once(cache)
        warm_hit["stores"] = cache.stores - stores
        warm_hit["identical"] = sorted(hit_payloads) == sorted(
            computed_payloads)
        net = _run_net(os.path.join(root, "rc_net"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    net_case = {
        "net": net,
        "net_vs_warm_speedup": round(net["points_per_second"]
                                     / computed["points_per_second"], 3),
    }
    return {
        "benchmark": "bench_service",
        "n_points": len(POINTS),
        "workers": WORKERS,
        "cases": {"service_warm_hit": {"computed": computed,
                                       "warm_hit": warm_hit},
                  "service_net_stream": net_case},
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }


def check(payload, baseline, max_regression):
    """Correctness gates plus the ratio gate; returns failure strings."""
    failures = []
    hit = payload["cases"]["service_warm_hit"]["warm_hit"]
    if hit["cache_hits"] < payload["n_points"]:
        failures.append("warm-hit resubmit read %d/%d points from the "
                        "result cache" % (hit["cache_hits"],
                                          payload["n_points"]))
    if hit["stores"]:
        failures.append("warm-hit resubmit stored %d result-cache "
                        "entries (a hit must not be rewritten)"
                        % (hit["stores"],))
    if not hit["identical"]:
        failures.append("warm-hit payloads differ from the computed "
                        "run's")
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
                        help="baseline JSON to gate net_vs_warm_speedup "
                             "against (omit when regenerating the "
                             "baseline)")
    parser.add_argument("--max-regression", type=float, default=0.50,
                        help="allowed fractional net_vs_warm_speedup "
                             "regression vs the baseline (default 0.50 "
                             "— process "
                             "scheduling makes this ratio noisier than "
                             "the in-process engine ratios)")
    args = parser.parse_args(argv)

    payload = run_benchmark()
    write_json(args.out, payload)
    case = payload["cases"]["service_warm_hit"]
    net_case = payload["cases"]["service_net_stream"]
    print(json.dumps({
        "computed": {
            key: case["computed"][key]
            for key in ("submit_to_first_result_seconds",
                        "points_per_second")},
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
