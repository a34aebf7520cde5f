"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload ws_grid --seed 1 --seconds 15 --trace 0

Workloads are ``ws_grid``, ``mp_grid`` and ``service_warm`` (see
README.md).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
adds cProfile and spans and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes: ``--refresh-oracle`` recomputes the committed naive-engine
digests; ``--probe`` and ``--prepare`` are the child processes the run
starts for set-up timing and for inputs built outside the timed region.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
RUN_PY = os.path.abspath(__file__)

WORKLOADS = ("ws_grid", "mp_grid", "service_warm")

#: Printed with --trace 0; names and units mirror BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "sim_insts_per_s": "1/s",
    "points_per_s": "1/s",
    "job_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_COUNTERS = ("core.retired_insts", "core.busy_slots",
             "pipeline.inst_short_slots", "pipeline.inst_long_slots",
             "memory.icache_slots", "memory.dcache_slots",
             "core.sync_slots", "core.switch_slots", "core.idle_slots",
             "core.context_switches", "memory.l1d_misses",
             "memory.l2_misses", "memory.tlb_misses",
             "memory.mshr_full_stalls", "coherence.remote_fills",
             "coherence.invalidations_sent", "coherence.nack_retries")

#: Printed with --trace 1; names and units mirror BENCHMARK.json.
PER_LAYER = dict([
    ("trace_overhead", "ratio"),
    ("core.self_s", "s"), ("core.step_calls", "count"),
    ("core.skip_idle_calls", "count"), ("core.cycles_per_step", "cycles/call"),
    ("isa.self_s", "s"), ("isa.execute_calls", "count"),
    ("pipeline.self_s", "s"), ("pipeline.scoreboard_calls", "count"),
    ("memory.self_s", "s"), ("memory.data_access_calls", "count"),
    ("memory.inst_fetch_calls", "count"),
    ("coherence.self_s", "s"), ("coherence.access_calls", "count"),
    ("workloads.self_s", "s"), ("analysis.self_s", "s"), ("api.self_s", "s"),
    ("experiments.self_s", "s"), ("experiments.cache_get_s", "s"),
    ("experiments.cache_put_s", "s"), ("experiments.cache_hit_ratio", "ratio"),
    ("service.self_s", "s"), ("service.submit_ms_p50", "ms"),
    ("service.first_result_ms_p50", "ms"),
    ("service.bytes_out_per_point", "B/point"),
    ("service.frames_out", "count"), ("service.requests", "count"),
    ("unattributed.self_s", "s"),
] + [(name, "count") for name in _COUNTERS])

SETUP_REPEATS = 7

#: Host-speed kernel calls after each grid point (see hostspeed.py).
KERNEL_REPS = 4
CHILD_TIMEOUT = 170


# -- helpers -------------------------------------------------------------------

def import_repro():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: no repro sources under %s" % SRC)
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported repro from %s, not %s"
                 % (repro.__file__, SRC))


def percentile(values, q):
    """Linear-interpolated ``q`` quantile (0..1) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pin_to_one_cpu():
    """Keep the timed process (and its children) on one CPU, so its
    threads and the host-speed kernel always share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest(samples):
    """Per unit, its fastest repetition.

    Every pass repeats the same units (points or jobs) with the same
    work, and host noise on a shared machine only ever adds time, so
    the fastest repetition is the steadiest estimate of the program's
    own cost.  ``samples`` yields (unit, seconds) pairs.
    """
    best = {}
    for unit, seconds in samples:
        best[unit] = min(seconds, best.get(unit, seconds))
    return best


def repeat(one_pass, seconds, start=None):
    """Run passes until ``seconds`` have elapsed since ``start`` (>= 1)."""
    start = time.perf_counter() if start is None else start
    out = [one_pass()]
    while time.perf_counter() - start < seconds:
        out.append(one_pass())
    return out


def child(args, timeout=CHILD_TIMEOUT):
    """Run this script in a child process; returns its last stdout line."""
    proc = subprocess.run([sys.executable, RUN_PY] + [str(a) for a in args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("child %s failed:\n%s" % (args, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def setup_seconds(workload, seed, run_dir, clock, extra=()):
    """Median cold start (imports + fixture) over SETUP_REPEATS children."""
    times = []
    for i in range(SETUP_REPEATS):
        clock.sample(3)
        line = child(["--probe", workload, "--seed", seed, "--work-dir",
                      os.path.join(run_dir, "probe-%d" % i)] + list(extra))
        times.append(json.loads(line)["setup_s"])
    return statistics.median(times)


def code_version16():
    from repro.experiments.cache import code_version
    return code_version()[:16]


def grid_oracle(workload, seed):
    """{point id: naive digest} for ``seed`` (committed, cached or new)."""
    import oracle
    if seed == oracle.DEFAULT_SEED:
        return oracle.load_committed(workload)
    path = os.path.join(WORK, "oracle", "%s-seed%d-%s.json"
                        % (workload, seed, code_version16()))
    if not os.path.exists(path):
        child(["--prepare", "oracle", "--workload", workload, "--seed", seed,
               "--out", path])
    with open(path) as fh:
        return json.load(fh)


def pool_dir():
    """The service's pre-computed point pool (built once per code version)."""
    path = os.path.join(WORK, "pool-" + code_version16())
    if not os.path.exists(os.path.join(path, "complete")):
        child(["--prepare", "pool", "--out", path])
    return path


def write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# -- tracing -------------------------------------------------------------------

def _sim_ident(args, kwargs):
    sim = args[0]
    workload = args[1] if len(args) > 1 else sim.workload
    return "%s/%s/%s" % (workload, sim.scheme, sim.n_contexts)


def _run_ident(args, kwargs):
    sim = args[0]
    return "%s/%s/%s" % (sim.workload, sim.scheme, sim.n_contexts)


def _key_ident(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    return "%s:%s" % (kind, str(args[1])[:12])


def _put_ident(args, kwargs):
    meta = kwargs.get("meta") or (args[4] if len(args) > 4 else None)
    if not meta:
        return _key_ident(args, kwargs)
    return "%s/%s/%s/%s" % (meta["kind"], meta["name"], meta["scheme"],
                            meta["n_contexts"])


def _job_ident(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


def start_spans(workload):
    """Wrap the layer entry points the workload calls with spans."""
    import layers
    from repro.api import Simulation
    from repro.experiments.cache import ResultCache
    from repro.service.client import ServiceClient
    spans = layers.SpanRecorder()
    spans.wrap(ResultCache, "get_state", "ResultCache.get_state", _key_ident)
    spans.wrap(ResultCache, "put_state", "ResultCache.put_state", _put_ident)
    if workload == "service_warm":
        spans.wrap(ServiceClient, "submit", "ServiceClient.submit")
        spans.wrap(ServiceClient, "stream", "ServiceClient.stream",
                   _job_ident, generator=True)
    else:
        spans.wrap(ResultCache, "get", "ResultCache.get", _key_ident)
        spans.wrap(Simulation, "load", "Simulation.load", _sim_ident)
        spans.wrap(Simulation, "run", "Simulation.run", _run_ident)
    return spans


def layer_metrics(stats, n_passes):
    """Per-pass self time by layer, entry-point calls and cache time."""
    import layers
    from repro.coherence.dsm import DSMachine
    from repro.core.processor import Processor
    from repro.experiments.cache import ResultCache
    from repro.isa import executor
    from repro.memory.hierarchy import MemorySystem
    from repro.pipeline.scoreboard import Scoreboard
    self_s, wait_s = layers.split_by_layer(stats, SRC, BENCH_DIR)
    out = {"%s.self_s" % layer: self_s.get(layer, 0.0) / n_passes
           for layer in layers.LAYERS}
    entries = {
        "core.step_calls": [getattr(Processor, "step", None)],
        "core.skip_idle_calls": [getattr(Processor, "skip_idle", None)],
        "isa.execute_calls": [getattr(executor, "execute", None)],
        "pipeline.scoreboard_calls": [
            f for name, f in vars(Scoreboard).items()
            if not name.startswith("_") and callable(f)],
        "memory.data_access_calls": [MemorySystem.data_access],
        "memory.inst_fetch_calls": [MemorySystem.inst_fetch],
        "coherence.access_calls": [DSMachine.access],
    }
    for name, functions in entries.items():
        out[name] = layers.call_counts(stats, functions) / n_passes
    out["experiments.cache_get_s"] = layers.cumulative_seconds(
        stats, [ResultCache.get, ResultCache.get_state]) / n_passes
    out["experiments.cache_put_s"] = layers.cumulative_seconds(
        stats, [ResultCache.put_state]) / n_passes
    detail = {"self_s_total": self_s, "wait_s_total": wait_s,
              "passes": n_passes}
    return out, detail


def hit_ratio(cache_stats):
    lookups = cache_stats["hits"] + cache_stats["misses"]
    return cache_stats["hits"] / lookups if lookups else 0.0


# -- grids ---------------------------------------------------------------------

def run_grid(args, run_dir):
    import grids
    import hostspeed
    import layers
    pts = grids.points(args.workload)
    expected = grid_oracle(args.workload, args.seed)
    pin_to_one_cpu()
    clock = hostspeed.HostClock()
    setup = setup_seconds(args.workload, args.seed, run_dir, clock)
    counter = itertools.count()
    tally = {"attempted": 0, "failed": 0}

    def one_pass(after_point=None):
        return grids.GridPass(pts, args.seed, os.path.join(
            run_dir, "pass-%d" % next(counter)), after_point)

    def settle(grid_pass, keep=False):
        failed = grid_pass.verify(expected)
        if grid_pass.error:
            print("grid pass failed: %s" % grid_pass.error, file=sys.stderr)
        for pid in failed:
            print("point %s differs from the oracle" % pid, file=sys.stderr)
        tally["attempted"] += len(pts)
        tally["failed"] += len(failed)
        if not keep:
            grid_pass.release()
        return grid_pass

    if not args.trace:
        rss = []

        def measured_pass():
            # Kernel blocks before the pass and after each point: point
            # k is scaled by the faster of blocks k and k + 1.
            blocks = [clock.sample(KERNEL_REPS)]
            grid_pass = settle(one_pass(
                lambda: blocks.append(clock.sample(KERNEL_REPS))))
            grid_pass.scales = [clock.scale(min(blocks[k:k + 2]))
                                for k in range(len(blocks))]
            rss.append(peak_rss_mb())
            return grid_pass

        passes = repeat(measured_pass, args.seconds)
        best = fastest((point, seconds * p.scales[k]) for p in passes
                       for k, (point, seconds)
                       in enumerate(p.point_seconds.items()))
        wall = sum(best.values()) or clock.scale() * passes[0].seconds
        metrics = {
            "wall_s": wall,
            "sim_insts_per_s": max(p.insts for p in passes) / wall,
            "points_per_s": len(best) / wall,
            # A sweep is one job, so its latency is the pass itself.
            "job_ms_p50": 1000 * wall,
            "setup_s": setup * clock.scale(),
            "peak_rss_mb": rss[0],
        }
        return metrics, tally, None

    start = time.perf_counter()
    base = settle(one_pass(), keep=True)
    spans = start_spans(args.workload)
    profiler = layers.LayerProfiler()
    profiler.enable()
    try:
        traced = []
        while not traced or time.perf_counter() - start < args.seconds:
            with spans.span("pass", args.workload) as record:
                spans.root = record["id"]
                traced.append(one_pass())
    finally:
        profiler.disable()
        spans.unwrap()
    # The same oracle checks the traced passes, so their digests equal
    # the untraced pass's exactly when every point passes.
    for grid_pass in traced:
        settle(grid_pass)
    metrics, detail = layer_metrics(profiler.stats(), len(traced))
    counters, cycles = grids.model_counters(base)
    metrics.update(counters)
    steps = metrics["core.step_calls"]
    metrics["core.cycles_per_step"] = cycles / steps if steps else 0.0
    metrics["trace_overhead"] = (statistics.median(p.seconds for p in traced)
                                 / base.seconds)
    metrics["experiments.cache_hit_ratio"] = hit_ratio(base.cache_stats)
    for name in ("service.submit_ms_p50", "service.first_result_ms_p50",
                 "service.bytes_out_per_point", "service.frames_out",
                 "service.requests"):
        metrics[name] = 0
    return metrics, tally, {"spans": spans.spans, "layers": detail}


# -- service -------------------------------------------------------------------

def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def run_service(args, run_dir):
    import hostspeed
    import layers
    import wire
    pool = pool_dir()
    specs = wire.job_specs(args.seed)
    pin_to_one_cpu()
    clock = hostspeed.HostClock()
    setup = setup_seconds(args.workload, args.seed, run_dir, clock,
                          ["--pool-dir", pool])
    tally = {"attempted": 0, "failed": 0}

    def account(passes):
        for _seconds, jobs, *_scale in passes:
            for job in jobs:
                tally["attempted"] += job.points
                tally["failed"] += job.failed

    start = time.perf_counter()
    rss = []
    fixture = wire.Fixture(pool, os.path.join(run_dir, "cache"))
    try:
        expected = wire.expected_payloads(fixture, specs)
        server = fixture.server.stats.snapshot()
        cache = dict(fixture.cache.session_stats())

        def measured_pass():
            # A kernel call before the pass and after each job: job k
            # is scaled by the faster of calls k and k + 1.
            blocks = [clock.sample()]
            seconds, jobs = wire.run_pass(
                fixture, specs, expected,
                after_job=lambda: blocks.append(clock.sample()))
            rss.append(peak_rss_mb())
            return seconds, jobs, [clock.scale(min(blocks[k:k + 2]))
                                   for k in range(len(jobs))]

        passes = repeat(measured_pass,
                        args.seconds / 4 if args.trace else args.seconds,
                        None if args.trace else start)
    finally:
        fixture.close()
    # Read after close, so every frame the server sent is counted.
    server = _delta(fixture.server.stats.snapshot(), server)
    cache = _delta(fixture.cache.session_stats(), cache)
    account(passes)

    def best(field):
        return list(fastest((k, getattr(job, field) * scales[k])
                            for _s, jobs, scales in passes
                            for k, job in enumerate(jobs)).values())

    one = passes[0][1]
    if not args.trace:
        wall = sum(best("seconds"))
        metrics = {
            "wall_s": wall,
            "sim_insts_per_s": sum(j.insts for j in one) / wall,
            "points_per_s": sum(j.points - j.failed for j in one) / wall,
            "job_ms_p50": 1000 * percentile(best("seconds"), 0.5),
            "setup_s": setup * clock.scale(),
            "peak_rss_mb": rss[0],
        }
        return metrics, tally, None

    # Traced: a second fixture built with the thread hook installed, so
    # the scheduler, event-loop and executor threads are profiled too.
    profiler = layers.LayerProfiler()
    profiler.install_thread_hook()
    try:
        traced_fixture = wire.Fixture(pool, os.path.join(run_dir, "cache2"))
        try:
            spans = start_spans(args.workload)
            profiler.enable()
            try:
                traced = repeat(
                    lambda: wire.run_pass(traced_fixture, specs, expected,
                                          spans),
                    args.seconds - (time.perf_counter() - start))
            finally:
                profiler.disable()
                spans.unwrap()
        finally:
            traced_fixture.close()
    finally:
        profiler.remove_thread_hook()
    account(traced)
    n_points = sum(j.points for _s, jobs, _scales in passes for j in jobs)
    metrics, detail = layer_metrics(profiler.stats(), len(traced))
    metrics.update(dict.fromkeys(_COUNTERS, 0))
    metrics["core.cycles_per_step"] = 0.0
    metrics["trace_overhead"] = (
        statistics.median(s for s, _j in traced)
        / statistics.median(s for s, _j, _scales in passes))
    metrics["experiments.cache_hit_ratio"] = hit_ratio(cache)
    metrics["service.submit_ms_p50"] = 1000 * percentile(best("submit_s"),
                                                         0.5)
    metrics["service.first_result_ms_p50"] = 1000 * percentile(
        best("first_s"), 0.5)
    metrics["service.bytes_out_per_point"] = server["bytes_out"] / n_points
    metrics["service.frames_out"] = server["frames_out"] / len(passes)
    metrics["service.requests"] = server["requests"] / len(passes)
    return metrics, tally, {"spans": spans.spans, "layers": detail}


# -- child modes ---------------------------------------------------------------

def probe(args, t0):
    """One cold start: imports plus the workload's fixture, timed."""
    if args.probe == "service_warm":
        import wire
        fixture = wire.Fixture(args.pool_dir,
                               os.path.join(args.work_dir, "cache"))
        elapsed = time.perf_counter() - t0
        fixture.close()
    else:
        import grids
        ctx, _engine = grids.fixture(
            args.seed, os.path.join(args.work_dir, "cache"))
        ctx.point_cache_key(*grids.points(args.probe)[0])
        elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))


def prepare(args):
    if args.prepare == "pool":
        import wire
        wire.compute_pool(args.out)
        open(os.path.join(args.out, "complete"), "w").close()
        return
    import grids
    import oracle
    digests = oracle.compute(grids.points(args.workload), args.seed)
    write_json(args.out, digests)


def refresh_oracle():
    import grids
    import oracle
    payload = {"seed": oracle.DEFAULT_SEED, "engine": "naive",
               "workloads": {}}
    for workload in ("ws_grid", "mp_grid"):
        payload["workloads"][workload] = oracle.compute(
            grids.points(workload), oracle.DEFAULT_SEED)
    write_json(oracle.COMMITTED, payload)
    print("wrote %s" % oracle.COMMITTED)


# -- entry ---------------------------------------------------------------------

def emit(args, metrics, tally, trace_detail):
    table = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(table):
        raise RuntimeError("metric set mismatch: %s"
                           % sorted(set(metrics) ^ set(table)))
    if trace_detail is not None:
        write_json(os.path.join(WORK, "traces", "%s-seed%d.json"
                                % (args.workload, args.seed)),
                   dict(trace_detail, metrics=metrics))
    attempted, failed = tally["attempted"], tally["failed"]
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name in table:
        print("  %-34s %16.6g %s" % (name, metrics[name], table[name]))
    print("  %-34s %16.6g" % ("failed_frac", failed / max(attempted, 1)))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name]}
                    for name in table},
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-oracle", action="store_true")
    parser.add_argument("--probe", choices=WORKLOADS)
    parser.add_argument("--prepare", choices=("oracle", "pool"))
    parser.add_argument("--work-dir")
    parser.add_argument("--pool-dir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if not (args.workload or args.refresh_oracle or args.probe
            or args.prepare == "pool"):
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_repro()
    if args.refresh_oracle:
        return refresh_oracle()
    if args.probe:
        return probe(args, t0)
    if args.prepare:
        return prepare(args)
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(run_dir)
    try:
        runner = run_service if args.workload == "service_warm" else run_grid
        metrics, tally, detail = runner(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    emit(args, metrics, tally, detail)


if __name__ == "__main__":
    main()
