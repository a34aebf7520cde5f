"""Shared experiment machinery: building, running, and memoising runs.

The tables and figures share underlying simulations (Table 7 and
Figures 6/7 use the same uniprocessor runs; Table 10 and Figures 8/9 the
same multiprocessor runs), so an :class:`ExperimentContext` memoises them
in process memory — and, when given a :class:`~repro.experiments.cache.
ResultCache`, reads/writes a content-addressed on-disk cache so the same
simulation is never computed twice across processes or invocations.

The module-level ``compute_*`` functions are the *only* way a simulation
point is ever produced: the serial context calls them directly, and
both the parallel :class:`~repro.experiments.sweep.SweepEngine` pool and
the service's worker processes go through :func:`compute_point_state`,
which dispatches to them.  Parallel and service results are therefore
bit-identical to serial ones by construction (each point is seeded
independently from the context's seed; no state is shared between
points).
"""

from repro.api import Simulation
from repro.config import SystemConfig, MultiprocessorParams

#: Default measurement window lengths (cycles) for the fast profile.
UNIPROC_WARMUP = 30_000
UNIPROC_MEASURE = 120_000
MP_MAX_CYCLES = 20_000_000


def compute_uniproc(workload, scheme, n_contexts, config, seed,
                    warmup, measure, engine="burst"):
    """Measured run of a Table 5 workload; returns (RunResult, sim)."""
    simulation = Simulation.from_config(
        config, scheme=scheme, n_contexts=n_contexts,
        seed=seed, engine=engine).load(workload)
    result = simulation.run(warmup=warmup, measure=measure)
    return result.raw, simulation.simulator


def compute_dedicated(kernel_name, config, seed, warmup, measure,
                      engine="burst"):
    """Calibration run of one application alone; returns RunResult."""
    simulation = Simulation.from_config(
        config, scheme="single", n_contexts=1,
        seed=seed, engine=engine).load(kernel_name)
    return simulation.run(warmup=warmup, measure=measure).raw


def compute_mp(app_name, scheme, n_contexts, mp_params, seed,
               max_cycles=MP_MAX_CYCLES, engine="burst"):
    """Run-to-completion of a SPLASH stand-in; returns MPResult."""
    simulation = Simulation.from_config(
        mp_params, scheme=scheme, n_contexts=n_contexts,
        seed=seed, engine=engine).load(app_name)
    result = simulation.run(until=max_cycles)
    if not result.completed:
        raise RuntimeError(
            "application %r did not finish within %d cycles"
            % (app_name, max_cycles))
    return result.raw


def point_window(kind, warmup, measure):
    """The (warmup, measure) window a point of ``kind`` runs and is
    cached under: an mp point runs to completion, so its window is
    ``(0, MP_MAX_CYCLES)``; every other kind measures
    ``(warmup, measure)``."""
    if kind == "mp":
        return 0, MP_MAX_CYCLES
    return warmup, measure


def compute_point_state(kind, name, scheme, n_contexts, config, mp_params,
                        seed, warmup, measure, engine="burst"):
    """Compute one point of any kind; returns its serialised state.

    The one point dispatcher behind the sweep's process pool and the
    service's workers.  ``warmup``/``measure`` is the point's
    :func:`point_window`; a ``gen`` point's ``name`` is its
    :class:`~repro.workloads.generator.GenSpec` text.  Touches only its
    arguments, so it may run in any process, in any order.
    """
    from repro.experiments import cache as cache_mod
    if kind == "uniproc":
        result, _ = compute_uniproc(name, scheme, n_contexts, config, seed,
                                    warmup, measure, engine=engine)
    elif kind == "gen":
        result, _ = compute_uniproc("gen:" + name, scheme, n_contexts,
                                    config, seed, warmup, measure,
                                    engine=engine)
    elif kind == "dedicated":
        result = compute_dedicated(name, config, seed, warmup, measure,
                                   engine=engine)
    elif kind == "mp":
        result = compute_mp(name, scheme, n_contexts, mp_params, seed,
                            engine=engine)
    else:
        raise ValueError("unknown point kind %r" % (kind,))
    return cache_mod.SERIALIZERS[kind][0](result)


def dedicated_rate_of(result):
    """Instructions/cycle of a dedicated calibration RunResult."""
    return sum(result.per_process.values()) / result.duration


class UniprocRun:
    """One uniprocessor measurement plus its simulator's end state.

    ``simulator`` is None when the result was loaded from the on-disk
    cache (only the measured numbers are persisted, not the machine).
    """

    def __init__(self, result, simulator):
        self.result = result
        self.simulator = simulator


class ExperimentContext:
    """Runs and memoises the simulations behind the tables/figures.

    Lookup order for every point: in-process memo, then the on-disk
    ``cache`` (if any), then an actual simulation (which populates
    both).  ``sim_count`` counts actual simulations, so tests and the
    sweep engine can assert that cache hits skip simulation.
    """

    def __init__(self, config=None, mp_params=None, seed=1994,
                 warmup=UNIPROC_WARMUP, measure=UNIPROC_MEASURE,
                 cache=None, engine="burst"):
        self.config = config if config is not None else SystemConfig.fast()
        self.mp_params = (mp_params if mp_params is not None
                          else MultiprocessorParams())
        self.seed = seed
        self.warmup = warmup
        self.measure = measure
        self.cache = cache
        #: Simulation engine for every point this context computes.  By
        #: contract all engines produce bit-identical results (enforced
        #: by the engine test suites), so the choice deliberately does
        #: NOT enter the cache keys: points computed under one engine
        #: are valid hits for any other.
        self.engine = engine
        self.sim_count = 0
        self._uniproc = {}
        self._dedicated = {}
        self._mp = {}

    # -- cache plumbing ------------------------------------------------------

    def point_cache_key(self, kind, name, scheme="single", n_contexts=1):
        """The on-disk cache key of one of this context's points."""
        from repro.experiments import cache as cache_mod
        warmup, measure = point_window(kind, self.warmup, self.measure)
        return cache_mod.point_key(kind, name, scheme, n_contexts,
                                   self.config, self.mp_params, self.seed,
                                   warmup, measure)

    def _cache_get(self, kind, name, scheme, n_contexts):
        if self.cache is None:
            return None
        return self.cache.get(
            self.point_cache_key(kind, name, scheme, n_contexts), kind)

    def _cache_put(self, kind, name, scheme, n_contexts, result):
        if self.cache is None:
            return
        self.cache.put(
            self.point_cache_key(kind, name, scheme, n_contexts), kind,
            result, meta={"kind": kind, "name": name, "scheme": scheme,
                          "n_contexts": n_contexts, "seed": self.seed})

    def store_point(self, kind, name, scheme, n_contexts, result):
        """Inject an externally computed result (sweep worker) into the
        in-process memo, exactly as a cache load would."""
        if kind == "uniproc":
            self._uniproc[(name, scheme, n_contexts)] = UniprocRun(
                result, None)
        elif kind == "dedicated":
            self._dedicated[name] = dedicated_rate_of(result)
        elif kind == "mp":
            self._mp[(name, scheme, n_contexts)] = result
        else:
            raise ValueError("unknown point kind %r" % kind)

    # -- uniprocessor ----------------------------------------------------------

    def uniproc_run(self, workload, scheme, n_contexts,
                    need_simulator=False):
        """Measured run of a Table 5 workload; memoised and cached.

        Pass ``need_simulator=True`` to guarantee a live simulator on
        the returned run (forces a simulation if the memoised result
        came from the on-disk cache).
        """
        key = (workload, scheme, n_contexts)
        entry = self._uniproc.get(key)
        if entry is not None and (entry.simulator is not None
                                  or not need_simulator):
            return entry
        if not need_simulator:
            cached = self._cache_get("uniproc", *key)
            if cached is not None:
                self._uniproc[key] = UniprocRun(cached, None)
                return self._uniproc[key]
        result, sim = compute_uniproc(
            workload, scheme, n_contexts, self.config, self.seed,
            self.warmup, self.measure, engine=self.engine)
        self.sim_count += 1
        self._cache_put("uniproc", workload, scheme, n_contexts, result)
        self._uniproc[key] = UniprocRun(result, sim)
        return self._uniproc[key]

    def dedicated_rate(self, kernel_name):
        """Instructions/cycle of one application run alone (calibration).

        The paper normalises multiprogrammed throughput against each
        application receiving a fair 1/N share of a dedicated processor;
        this is the dedicated-processor rate that normalisation needs.
        """
        if kernel_name not in self._dedicated:
            result = self._cache_get("dedicated", kernel_name, "single", 1)
            if result is None:
                result = compute_dedicated(
                    kernel_name, self.config, self.seed, self.warmup,
                    self.measure, engine=self.engine)
                self.sim_count += 1
                self._cache_put("dedicated", kernel_name, "single", 1,
                                result)
            self._dedicated[kernel_name] = dedicated_rate_of(result)
        return self._dedicated[kernel_name]

    def normalized_throughput(self, workload, scheme, n_contexts):
        """The paper's fair-share throughput metric.

        Sum over applications of (measured rate / dedicated rate): the
        single-context timesliced run scores ~1.0; perfect latency
        overlap with N contexts scores up to N (bounded by issue width).
        This normalisation is what makes the metric robust to the
        blocked scheme's bias toward low-miss-rate applications
        (Section 5.1 of the paper).
        """
        from repro.workloads.uniprocessor import WORKLOADS
        run = self.uniproc_run(workload, scheme, n_contexts)
        members = WORKLOADS[workload]
        total = 0.0
        for i, kernel in enumerate(members):
            name = [n for n in run.result.per_process
                    if n.startswith(kernel + ".")][0]
            rate = run.result.per_process[name] / run.result.duration
            total += rate / self.dedicated_rate(kernel)
        return total

    # -- multiprocessor ------------------------------------------------------------

    def mp_run(self, app_name, scheme, n_contexts):
        """Run-to-completion of a SPLASH stand-in; memoised and cached."""
        key = (app_name, scheme, n_contexts)
        if key not in self._mp:
            result = self._cache_get("mp", *key)
            if result is None:
                result = compute_mp(app_name, scheme, n_contexts,
                                    self.mp_params, self.seed,
                                    engine=self.engine)
                self.sim_count += 1
                self._cache_put("mp", app_name, scheme, n_contexts, result)
            self._mp[key] = result
        return self._mp[key]

    def mp_speedup(self, app_name, scheme, n_contexts):
        """Speedup over the single-context run of the same machine.

        Like the paper's Table 10, the reported value is for the optimum
        number of contexts up to ``n_contexts`` ("on occasion, the best
        performance was encountered with fewer than the maximum number
        of hardware contexts").
        """
        base = self.mp_run(app_name, "single", 1).cycles
        best = 0.0
        c = 1
        while c <= n_contexts:
            if c == 1:
                cycles = base
            else:
                cycles = self.mp_run(app_name, scheme, c).cycles
            best = max(best, base / cycles)
            c *= 2
        return best
