"""ws_grid and mp_grid: subsets of the paper's grids, serially through
:class:`~repro.experiments.sweep.SweepEngine` into a cold
:class:`~repro.experiments.cache.ResultCache`."""

import time

import oracle

#: Table 7 / Figures 6-7 subset: one workload mix across single,
#: blocked and interleaved with 1/2/4 contexts, plus the dedicated
#: calibration runs of its four applications.
WS_WORKLOADS = ("DC",)

#: Table 10 / Figure 9 subset: the single-context and interleaved
#: 2/4/8-context runs of four SPLASH stand-ins, none of which dominates
#: the pass (Barnes, over half of the full grid's time, is left out).
#: Blocked multiprocessor points are left out because the default
#: engine's statistics differ from the naive engine's on some of them
#: (see README.md); a point that fails its oracle check cannot be timed.
MP_APPS = ("mp3d", "locus", "cholesky", "pthor")
MP_SCHEMES = ("interleaved",)


def points(workload):
    """The workload's fixed point list, in the paper modules' order."""
    from repro.experiments import figures6_7, figures8_9, table7, table10
    from repro.experiments.sweep import dedupe
    if workload == "ws_grid":
        raw = (table7.points(WS_WORKLOADS)
               + figures6_7.points("blocked", WS_WORKLOADS)
               + figures6_7.points("interleaved", WS_WORKLOADS))
    else:
        configs = [c for c in table10.CONFIGS if c[0] in MP_SCHEMES]
        raw = table10.points(MP_APPS, configs)
        for scheme in MP_SCHEMES:
            raw += figures8_9.points(scheme, MP_APPS)
    return [tuple(p) for p in dedupe(raw)]


def fixture(seed, cache_dir, after_point=None):
    """A fresh context, cache and serial engine (what set-up builds).

    ``after_point`` runs after each finished point, outside the point's
    own timing.
    """
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.sweep import SweepEngine
    ctx = ExperimentContext(seed=seed, cache=ResultCache(cache_dir))

    def progress(_message):
        if after_point is not None:
            after_point()
    return ctx, SweepEngine(ctx, jobs=1, progress=progress)


def retired(kind, state):
    if kind == "mp":
        return sum(s["retired"] for s in state["node_stats"])
    return state["stats"]["retired"]


class GridPass:
    """One timed pass over every point of a grid, then its check."""

    def __init__(self, pts, seed, cache_dir, after_point=None):
        self.points = pts
        self.ctx, engine = fixture(seed, cache_dir, after_point)
        self.error = None
        t0 = time.perf_counter()
        try:
            report = engine.run(pts)
        except Exception as exc:  # a failed point fails the pass
            report = None
            self.error = "%s: %s" % (type(exc).__name__, exc)
        self.seconds = time.perf_counter() - t0
        self.point_seconds = ({tuple(o.point): o.seconds
                               for o in report.outcomes}
                              if report is not None else {})
        self.cache_stats = dict(self.ctx.cache.session_stats())
        self.states = {}
        self.insts = 0

    def verify(self, expected):
        """Read each point back from the cache; returns failed point ids."""
        failed = []
        cache = self.ctx.cache
        for p in self.points:
            state = cache.get_state(self.ctx.point_cache_key(*p), p[0])
            if state is None or not oracle.check(expected, p, state):
                failed.append(oracle.point_id(p))
                continue
            self.states[oracle.point_id(p)] = state
            self.insts += retired(p[0], state)
        return failed

    def release(self):
        """Drop the live simulators the context memoises."""
        self.ctx = None


#: Exact model counters, summed over a pass's points.
COUNTERS = ("core.retired_insts", "core.busy_slots",
            "pipeline.inst_short_slots", "pipeline.inst_long_slots",
            "memory.icache_slots", "memory.dcache_slots", "core.sync_slots",
            "core.switch_slots", "core.idle_slots", "core.context_switches",
            "memory.l1d_misses", "memory.l2_misses", "memory.tlb_misses",
            "memory.mshr_full_stalls", "coherence.remote_fills",
            "coherence.invalidations_sent", "coherence.nack_retries")

_SLOTS = (("core.busy_slots", "BUSY"),
          ("pipeline.inst_short_slots", "INST_SHORT"),
          ("pipeline.inst_long_slots", "INST_LONG"),
          ("memory.icache_slots", "ICACHE"),
          ("memory.dcache_slots", "DCACHE"), ("core.sync_slots", "SYNC"),
          ("core.switch_slots", "SWITCH"), ("core.idle_slots", "IDLE"))


def model_counters(grid_pass):
    """(counters, simulated node-cycles) of a verified pass.

    Slot buckets and retire counts come from the point states; cache,
    TLB and MSHR counters from the live simulators the serial
    :class:`ExperimentContext` keeps (uniprocessor points) or the
    ``MPResult`` machine (multiprocessor points).
    """
    from repro.pipeline.stalls import Stall
    out = dict.fromkeys(COUNTERS, 0)
    cycles = 0
    ctx = grid_pass.ctx
    for p in grid_pass.points:
        state = grid_pass.states.get(oracle.point_id(p))
        if state is None:
            continue
        kind, name, scheme, n_contexts = p
        per_node = state["node_stats"] if kind == "mp" else [state["stats"]]
        for stats in per_node:
            out["core.retired_insts"] += stats["retired"]
            out["core.context_switches"] += stats["context_switches"]
            for metric, bucket in _SLOTS:
                out[metric] += stats["counts"][Stall[bucket]]
        if kind == "mp":
            cycles += state["cycles"] * len(per_node)
            machine = ctx.mp_run(name, scheme, n_contexts).machine
            for key in ("remote_fills", "invalidations_sent",
                        "nack_retries"):
                out["coherence." + key] += getattr(machine, key, 0)
            for node in getattr(machine, "nodes", ()):
                out["memory.l1d_misses"] += node.cache.misses
                out["memory.mshr_full_stalls"] += (
                    node.mshr.structural_stalls)
            continue
        cycles += ctx.warmup + state["duration"]
        if kind != "uniproc":
            continue
        memsys = ctx.uniproc_run(name, scheme, n_contexts).simulator.memsys
        out["memory.l1d_misses"] += memsys.l1d.misses
        out["memory.l2_misses"] += memsys.l2.misses
        out["memory.tlb_misses"] += memsys.dtlb.misses
        out["memory.mshr_full_stalls"] += memsys.mshr.structural_stalls
    return out, cycles
