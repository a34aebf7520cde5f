"""Shared experiment machinery: building, running, and memoising runs.

The tables and figures share underlying simulations (Table 7 and
Figures 6/7 use the same uniprocessor runs; Table 10 and Figures 8/9 the
same multiprocessor runs), so an :class:`ExperimentContext` memoises them
in process memory — and, when given a :class:`~repro.experiments.cache.
ResultCache`, reads/writes a content-addressed on-disk cache so the same
simulation is never computed twice across processes or invocations.

:func:`compute_point` is the *only* way a simulation point is ever
produced: the serial context, the parallel
:class:`~repro.experiments.sweep.SweepEngine` pool and the service's
worker processes all reach the ``compute_*`` builders through it, with
the arguments :func:`point_args` derives from one holder of the
point's inputs.  Parallel and service results are therefore
bit-identical to serial ones by construction (each point is seeded
independently from the context's seed; no state is shared between
points).
"""

from repro.api import Simulation
from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments import cache as cache_mod

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


def point_args(holder, point):
    """:func:`compute_point`'s arguments for ``point``.

    ``holder`` carries a point's six inputs — ``config``, ``mp_params``,
    ``seed``, ``warmup``, ``measure`` and ``engine`` — as an
    :class:`ExperimentContext` and a :class:`~repro.service.jobs.JobSpec`
    both do; the window is the point's :func:`point_window`.
    """
    kind, name, scheme, n_contexts = point
    warmup, measure = point_window(kind, holder.warmup, holder.measure)
    return (kind, name, scheme, n_contexts, holder.config,
            holder.mp_params, holder.seed, warmup, measure, holder.engine)


def point_key_of(holder, point):
    """``point``'s on-disk cache key under ``holder``'s inputs.

    Every argument of :func:`point_args` but the engine enters the key:
    by contract all engines produce bit-identical results (enforced by
    the engine test suites), so a point computed under one engine is a
    valid hit for any other.
    """
    return cache_mod.point_key(*point_args(holder, point)[:-1])


def compute_point(kind, name, scheme, n_contexts, config, mp_params,
                  seed, warmup, measure, engine="burst"):
    """Compute one point of any kind; returns ``(result, simulator)``.

    The one point dispatcher behind the serial context, the sweep's
    process pool and the service's workers.  ``simulator`` is the live
    simulator of a ``uniproc`` or ``gen`` point, None for a dedicated
    run (kept only as its window) and an mp run (its ``MPResult``
    carries the machine).  ``warmup``/``measure`` is the point's
    :func:`point_window`; a ``gen`` point's ``name`` is its
    :class:`~repro.workloads.generator.GenSpec` text.  Touches only its
    arguments, so it may run in any process, in any order.
    """
    if kind in ("uniproc", "gen"):
        workload = name if kind == "uniproc" else "gen:" + name
        return compute_uniproc(workload, scheme, n_contexts, config, seed,
                               warmup, measure, engine=engine)
    if kind == "dedicated":
        return compute_dedicated(name, config, seed, warmup, measure,
                                 engine=engine), None
    if kind == "mp":
        return compute_mp(name, scheme, n_contexts, mp_params, seed,
                          engine=engine), None
    raise ValueError("unknown point kind %r" % (kind,))


def compute_point_state(kind, name, scheme, n_contexts, config, mp_params,
                        seed, warmup, measure, engine="burst"):
    """:func:`compute_point`'s result as its serialised state: what the
    sweep's pool and the service's workers send back."""
    result, _ = compute_point(kind, name, scheme, n_contexts, config,
                              mp_params, seed, warmup, measure, engine)
    return cache_mod.SERIALIZERS[kind][0](result)


def dedicated_rate_of(result):
    """Instructions/cycle of a dedicated calibration RunResult."""
    return sum(result.per_process.values()) / result.duration


class PointRun:
    """One memoised point: its result, plus the live simulator of a
    ``uniproc`` or ``gen`` point simulated in this process.

    ``simulator`` is None for every other entry: a result loaded from
    the on-disk cache or computed in another process (only the measured
    numbers travel, not the machine), a dedicated run and an mp run.
    """

    __slots__ = ("result", "simulator")

    def __init__(self, result, simulator=None):
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
        #: Simulation engine for every point this context computes; it
        #: does not enter the cache keys (see :func:`point_key_of`).
        self.engine = engine
        self.sim_count = 0
        #: (kind, name, scheme, n_contexts) -> PointRun.
        self._memo = {}

    def point_cache_key(self, kind, name, scheme="single", n_contexts=1):
        """The on-disk cache key of one of this context's points."""
        return point_key_of(self, (kind, name, scheme, n_contexts))

    # -- the point path -----------------------------------------------------

    def lookup(self, point):
        """``(run, source)`` of ``point`` from the memo (``"memo"``) or
        the on-disk cache (``"cache"``, memoised on the way); ``(None,
        None)`` when neither holds it."""
        run = self._memo.get(point)
        if run is not None:
            return run, "memo"
        if self.cache is not None:
            result = self.cache.get(self.point_cache_key(*point), point[0])
            if result is not None:
                run = self._memo[point] = PointRun(result)
                return run, "cache"
        return None, None

    def point_run(self, point, need_simulator=False):
        """``(run, source)`` of one ``(kind, name, scheme, n_contexts)``
        point: :meth:`lookup`, otherwise a simulation (``"computed"``)
        that fills the memo and the cache.

        ``need_simulator=True`` guarantees a live simulator on a
        ``uniproc`` or ``gen`` run: unless the memo holds one, it
        simulates without probing the cache and rewrites the entry.
        """
        if need_simulator:
            run = self._memo.get(point)
            if run is not None and run.simulator is not None:
                return run, "memo"
        else:
            run, source = self.lookup(point)
            if run is not None:
                return run, source
        result, simulator = compute_point(*point_args(self, point))
        self.sim_count += 1
        return self.store(point, result, simulator), "computed"

    def store(self, point, result, simulator=None):
        """Memoise ``point``'s result and write it through to the cache;
        returns its :class:`PointRun`."""
        if self.cache is not None:
            self.cache.put(self.point_cache_key(*point), point[0], result,
                           meta=cache_mod.entry_meta(point, self.seed))
        run = self._memo[point] = PointRun(result, simulator)
        return run

    # -- uniprocessor ----------------------------------------------------------

    def uniproc_run(self, workload, scheme, n_contexts,
                    need_simulator=False):
        """Measured run of a Table 5 workload (a :class:`PointRun`);
        memoised and cached.

        Pass ``need_simulator=True`` to guarantee a live simulator on
        the returned run (forces a simulation if the memoised result
        came from the on-disk cache).
        """
        return self.point_run(("uniproc", workload, scheme, n_contexts),
                              need_simulator)[0]

    def dedicated_rate(self, kernel_name):
        """Instructions/cycle of one application run alone (calibration).

        The paper normalises multiprogrammed throughput against each
        application receiving a fair 1/N share of a dedicated processor;
        this is the dedicated-processor rate that normalisation needs.
        """
        run, _ = self.point_run(("dedicated", kernel_name, "single", 1))
        return dedicated_rate_of(run.result)

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
        """Run-to-completion of a SPLASH stand-in (its ``MPResult``);
        memoised and cached."""
        return self.point_run(("mp", app_name, scheme, n_contexts))[0].result

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
