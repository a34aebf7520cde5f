"""Raw simulator performance (host cycles-per-second).

Three families of benchmark live here:

* pytest-benchmark timings of the cycle loop itself (guarding against
  hot-path regressions),
* the memory-bound acceptance gate: on a memory-latency-bound SPLASH
  configuration the default ``burst`` engine must finish the same run
  at least 3x faster than the ``naive`` reference loop *with
  bit-identical statistics* — the fast-forward is an optimisation,
  never an approximation, and
* the compute-bound acceptance gate: on a compute-bound single-context
  workstation stream (where straight-line bursts are longest) the
  ``burst`` engine must finish the same run at least 2x faster than
  ``naive``, again bit-identically.
"""

import time

from repro.config import SystemConfig, MultiprocessorParams
from repro.core.simulator import WorkstationSimulator
from repro.core.mpsimulator import MultiprocessorSimulator
from repro.workloads import build_workload, build_app
from repro.workloads.generator import GenSpec, generate_process

#: Memory-latency-bound machine: DASH-like topology with ~4x the
#: default latencies (a larger/slower interconnect), where single-issue
#: nodes spend most cycles waiting on remote fills — the regime the
#: paper targets and where event-driven fast-forward pays off most.
STRESS_PARAMS = MultiprocessorParams(
    n_nodes=4,
    local_memory=(120, 160),
    remote_memory=(400, 520),
    remote_cache=(520, 640),
)


def _make_sim(scheme, n_contexts, engine="burst"):
    procs, instances, barriers = build_workload("R1", scale=1.0)
    return WorkstationSimulator(procs, scheme=scheme,
                                n_contexts=n_contexts,
                                config=SystemConfig.fast(),
                                app_instances=instances,
                                barriers=barriers, engine=engine)


def _run_mp(app, scheme, n_contexts, engine, seed=1994):
    """Run one SPLASH stand-in to completion; returns (RunResult, secs)."""
    instance = build_app(
        app, n_threads=STRESS_PARAMS.n_nodes * n_contexts,
        threads_per_node=n_contexts, scale=0.5)
    sim = MultiprocessorSimulator(
        instance, scheme=scheme, n_contexts=n_contexts,
        params=STRESS_PARAMS, seed=seed, engine=engine)
    t0 = time.perf_counter()
    result = sim.run(until=20_000_000)
    elapsed = time.perf_counter() - t0
    assert result.completed, "%s did not complete" % app
    return result, elapsed


def _assert_identical(fast, naive):
    """The bit-identical contract between the two engines."""
    assert fast.cycles == naive.cycles
    assert fast.retired == naive.retired
    assert fast.counts == naive.counts
    assert fast.per_process == naive.per_process
    assert fast.raw.stats.issued == naive.raw.stats.issued
    assert fast.raw.stats.squashed == naive.raw.stats.squashed
    assert (fast.raw.stats.context_switches
            == naive.raw.stats.context_switches)
    assert fast.raw.stats.backoffs == naive.raw.stats.backoffs


def test_speed_single_context(benchmark):
    sim = _make_sim("single", 1)
    sim.run(until=5_000)                # warm caches
    benchmark.pedantic(lambda: sim.run(until=sim.now + 10_000),
                       rounds=5, iterations=1)


def test_speed_interleaved_four_contexts(benchmark):
    sim = _make_sim("interleaved", 4)
    sim.run(until=5_000)
    benchmark.pedantic(lambda: sim.run(until=sim.now + 10_000),
                       rounds=5, iterations=1)


def test_speed_blocked_four_contexts(benchmark):
    sim = _make_sim("blocked", 4)
    sim.run(until=5_000)
    benchmark.pedantic(lambda: sim.run(until=sim.now + 10_000),
                       rounds=5, iterations=1)


def test_fast_engine_speedup_memory_bound(benchmark, save_result):
    """Acceptance gate: >=3x on a memory-latency-bound SPLASH config.

    mp3d (the paper's most latency-bound application) on the stress
    machine: the burst engine must produce *bit-identical* statistics to
    the naive per-cycle loop while finishing at least 3x faster in wall
    clock.  The ratio is host-independent (both engines run on the same
    interpreter in the same process), so the assertion is stable in CI.
    """
    def run_both():
        fa, fa_s = _run_mp("mp3d", "interleaved", 2, "burst")
        nv, nv_s = _run_mp("mp3d", "interleaved", 2, "naive")
        return fa, fa_s, nv, nv_s

    fast, fast_s, naive, naive_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    _assert_identical(fast, naive)
    speedup = naive_s / fast_s
    lines = [
        "Burst engine vs naive reference (mp3d, interleaved, 2 contexts,",
        "4 nodes, ~4x DASH latencies; run to completion):",
        "",
        "  cycles simulated : %d" % fast.cycles,
        "  naive wall clock : %.2f s" % naive_s,
        "  burst wall clock : %.2f s" % fast_s,
        "  speedup          : %.1fx" % speedup,
        "  stats identical  : yes (enforced)",
    ]
    save_result("fast_engine_speedup", "\n".join(lines))
    assert speedup >= 3.0, (
        "burst engine speedup %.2fx below the 3x acceptance floor"
        % speedup)


#: Compute-bound stream: no memory ops, no branches inside blocks, a
#: dense FP mix with short dependency distances.  Exactly the regime
#: the burst engine targets — long straight-line runs whose schedules
#: (including their hazard stalls) precompile completely.
COMPUTE_SPEC = GenSpec(name="compute", load_fraction=0.0,
                       store_fraction=0.0, fp_fraction=0.35,
                       branch_fraction=0.0, dependency_distance=3,
                       seed=11)


def _run_stream(engine, until=330_000):
    """One compute-stream run on the single-context workstation."""
    procs = [generate_process(COMPUTE_SPEC, index=0, verify=False)]
    sim = WorkstationSimulator(procs, scheme="single", n_contexts=1,
                               config=SystemConfig.fast(), engine=engine)
    t0 = time.perf_counter()
    result = sim.run(until=until)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_burst_engine_speedup_compute_bound(benchmark, save_result):
    """Acceptance gate: >=2x over the naive loop on long bursts.

    Single-context workstation, compute-bound stream: the pipeline is
    never idle, so there is nothing to fast-forward; the burst engine
    retires whole precompiled segments and bulk-charges hazard-stall
    windows where naive pays the full per-cycle issue path.  Both
    engines must agree bit for bit.  The ratio is host-independent
    (same interpreter, same process), so the assertion is stable in CI.
    """
    def run_both():
        bu, bu_s = _run_stream("burst")
        nv, nv_s = _run_stream("naive")
        return bu, bu_s, nv, nv_s

    burst, burst_s, naive, naive_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    _assert_identical(burst, naive)
    speedup = naive_s / burst_s
    lines = [
        "Burst engine vs naive reference (compute-bound stream, single",
        "context workstation; 330k cycles):",
        "",
        "  cycles simulated : %d" % burst.cycles,
        "  instructions     : %d" % burst.retired,
        "  naive wall clock : %.2f s" % naive_s,
        "  burst wall clock : %.2f s" % burst_s,
        "  speedup vs naive : %.1fx" % speedup,
        "  stats identical  : yes (enforced)",
    ]
    save_result("burst_engine_speedup", "\n".join(lines))
    assert speedup >= 2.0, (
        "burst engine speedup %.2fx below the 2x acceptance floor"
        % speedup)
