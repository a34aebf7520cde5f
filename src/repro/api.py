"""The stable public facade over the simulation core.

Callers build and run simulations through three names::

    from repro.api import Simulation

    result = (Simulation.from_config(SystemConfig.fast(),
                                     scheme="interleaved", n_contexts=4)
              .load("DC")
              .run(warmup=30_000, measure=120_000))
    print(result.ipc, result.breakdown["busy"])
    print(result.to_json())

    mp = (Simulation.from_config(MultiprocessorParams(n_nodes=8),
                                 scheme="interleaved", n_contexts=4)
          .load("mp3d")
          .run())                      # to completion
    print(mp.cycles, mp.completed)

:class:`Simulation` dispatches on the configuration type — a
:class:`~repro.config.SystemConfig` builds the workstation simulator, a
:class:`~repro.config.MultiprocessorParams` the DASH-like
multiprocessor — and ``load`` accepts a Table 5 workload mix name, a
single kernel name (dedicated/calibration runs), or a SPLASH stand-in
app name respectively.  :class:`RunResult` is one result type for both
machine families, bundling the stats, utilisation breakdown, and
runlength data every table and figure needs, with a stable
``to_json()``.

Everything underneath (``WorkstationSimulator``, ``Processor``,
``MemorySystem`` wiring...) remains importable for tests and
microarchitectural experiments, but the experiment layer goes through
this module only.
"""

import json
from dataclasses import dataclass, field, fields, replace

from repro.config import SystemConfig, MultiprocessorParams
from repro.pipeline.stalls import (
    Stall,
    UNIPROCESSOR_CATEGORIES,
    MULTIPROCESSOR_CATEGORIES,
)

#: Default completion bound for multiprocessor runs without ``until``.
DEFAULT_MP_MAX_CYCLES = 50_000_000


@dataclass
class RunResult:
    """Outcome of one simulation run, for either machine family.

    ``raw`` keeps the underlying core result (a
    :class:`repro.core.simulator.RunResult` window for workstations, an
    :class:`repro.core.mpsimulator.MPResult` for multiprocessors) for
    code that needs the full stats object; it is excluded from
    ``to_json`` and comparisons.
    """

    kind: str                 # "workstation" | "multiprocessor"
    workload: str             # load() name (None for hand-built sims)
    scheme: str
    n_contexts: int
    seed: int
    engine: str               # "burst" | "naive"
    cycles: int               # window length / completion cycle
    completed: bool           # mp: every thread halted within the bound
    retired: int
    issued: int
    squashed: int
    context_switches: int
    backoffs: int
    ipc: float                # retired instructions per machine cycle
    utilization: float        # busy fraction of all issue slots
    breakdown: dict           # category -> fraction (paper's figures)
    runlength: dict           # {"count", "mean", "max"} (Section 5.1)
    counts: dict              # Stall name -> issue slots
    per_process: dict         # process/thread name -> retired
    raw: object = field(default=None, repr=False, compare=False)

    #: Version of the ``to_json`` payload layout.  Carried in every
    #: serialized result so remote clients (the service wire protocol,
    #: archived ``results.jsonl`` files) can detect layout drift.
    SCHEMA_VERSION = 1

    def to_json(self, indent=None):
        """Stable JSON rendering (sorted keys, ``raw`` excluded)."""
        payload = {name: getattr(self, name) for name in _JSON_FIELDS}
        payload["schema_version"] = self.SCHEMA_VERSION
        return json.dumps(payload, sort_keys=True, indent=indent)

    def with_workload(self, workload):
        return replace(self, workload=workload)


#: The fields :meth:`RunResult.to_json` writes.
_JSON_FIELDS = tuple(f.name for f in fields(RunResult) if f.name != "raw")

#: Stall name of each ``CycleStats.counts`` slot.
_STALL_NAMES = tuple(Stall(i).name for i in range(max(Stall) + 1))


def _stats_fields(stats, cycles, categories):
    """The RunResult fields shared by both machine families."""
    return dict(
        retired=stats.retired,
        issued=stats.issued,
        squashed=stats.squashed,
        context_switches=stats.context_switches,
        backoffs=stats.backoffs,
        ipc=stats.retired / cycles if cycles else 0.0,
        utilization=stats.utilization(),
        breakdown=stats.breakdown_fractions(categories),
        runlength={"count": stats.run_count,
                   "mean": stats.mean_runlength(),
                   "max": stats.run_max},
        counts=dict(zip(_STALL_NAMES, stats.counts)),
    )


def build_run_result(kind, raw, workload, scheme, n_contexts, seed,
                     engine, completed, per_process):
    """The one :class:`RunResult` builder, for a live run and for a
    state restored from the result cache alike.

    ``raw`` is the core result: a workstation window (its ``duration``
    is the result's ``cycles``) or an ``MPResult`` (its ``cycles``).
    """
    if kind == "multiprocessor":
        cycles, categories = raw.cycles, MULTIPROCESSOR_CATEGORIES
    else:
        cycles, categories = raw.duration, UNIPROCESSOR_CATEGORIES
    return RunResult(
        kind=kind, workload=workload, scheme=scheme, n_contexts=n_contexts,
        seed=seed, engine=engine, cycles=cycles, completed=completed,
        per_process=per_process, raw=raw,
        **_stats_fields(raw.stats, cycles, categories))


def workstation_run_result(sim, window, workload=None):
    """Wrap a workstation measurement window as a :class:`RunResult`."""
    return build_run_result(
        "workstation", window, workload, sim.processor.scheme,
        sim.n_contexts, sim.seed, sim.engine, True,
        dict(window.per_process))


def multiprocessor_run_result(sim, mp_result):
    """Wrap a multiprocessor run as a :class:`RunResult`."""
    return build_run_result(
        "multiprocessor", mp_result, sim.app.name, sim.scheme,
        sim.n_contexts, sim.seed, sim.engine, sim.all_halted(),
        {p.name: p.retired for p in sim.processes})


class Simulation:
    """Fluent facade: ``Simulation.from_config(cfg).load(name).run()``.

    The configuration type selects the machine family:

    * :class:`~repro.config.SystemConfig` (or None, meaning
      ``SystemConfig.fast()``) — the multiprogrammed workstation.
      ``load`` accepts a Table 5 workload mix name (``"DC"``, ``"R1"``,
      ...) or a single kernel name (a dedicated calibration run on the
      single-context scheme's semantics of whatever scheme was asked
      for).
    * :class:`~repro.config.MultiprocessorParams` — the DASH-like
      multiprocessor.  ``load`` accepts a SPLASH stand-in app name
      (``"mp3d"``, ``"cholesky"``, ...); the application is partitioned
      into ``n_nodes x n_contexts`` threads, as the paper scales them.
    """

    def __init__(self, config=None, *, scheme="interleaved", n_contexts=1,
                 seed=1994, engine="burst", pipeline=None):
        if config is None:
            config = SystemConfig.fast()
        if isinstance(config, MultiprocessorParams):
            self.kind = "multiprocessor"
        elif isinstance(config, SystemConfig):
            self.kind = "workstation"
        else:
            raise TypeError(
                "config must be a SystemConfig (workstation) or "
                "MultiprocessorParams (multiprocessor), not %r"
                % type(config).__name__)
        self.config = config
        self.scheme = scheme
        self.n_contexts = n_contexts
        self.seed = seed
        self.engine = engine
        self.pipeline = pipeline
        self.workload = None
        self.simulator = None

    @classmethod
    def from_config(cls, config=None, **kwargs):
        """Build an unloaded simulation around ``config``."""
        return cls(config, **kwargs)

    # -- loading ---------------------------------------------------------------

    def load(self, workload, scale=None):
        """Construct the simulator around ``workload``; returns self."""
        if self.simulator is not None:
            raise RuntimeError("a workload is already loaded; build a "
                               "fresh Simulation per run")
        if self.kind == "multiprocessor":
            self._load_multiprocessor(workload, scale)
        else:
            self._load_workstation(workload, scale)
        self.workload = workload
        return self

    def _load_workstation(self, workload, scale):
        from repro.core.simulator import WorkstationSimulator
        from repro.workloads import build_workload, build_process
        from repro.workloads.uniprocessor import WORKLOADS
        if scale is None:
            scale = self.config.workload_scale
        if workload.startswith("gen:"):
            # A generated family: "gen:<GenSpec text>" (the canonical
            # k=v;k=v form or "" for the default spec), one process per
            # context.  The family head is verified at birth.
            from repro.workloads.generator import (GenSpec,
                                                   generate_processes)
            spec = GenSpec.from_text(workload[len("gen:"):])
            self.simulator = WorkstationSimulator(
                generate_processes(spec, max(1, self.n_contexts)),
                scheme=self.scheme, n_contexts=self.n_contexts,
                config=self.config, seed=self.seed,
                engine=self.engine)
            return
        if workload in WORKLOADS:
            processes, instances, barriers = build_workload(
                workload, scale=scale)
        else:
            process, instance = build_process(workload, index=0,
                                              scale=scale)
            processes = [process]
            instances = [instance] if instance is not None else []
            barriers = instance.barriers if instance is not None else {}
        self.simulator = WorkstationSimulator(
            processes, scheme=self.scheme, n_contexts=self.n_contexts,
            config=self.config, seed=self.seed,
            app_instances=instances, barriers=barriers,
            engine=self.engine)

    def _load_multiprocessor(self, workload, scale):
        from repro.core.mpsimulator import MultiprocessorSimulator
        from repro.workloads.splash import build_app
        app = build_app(workload,
                        n_threads=self.config.n_nodes * self.n_contexts,
                        threads_per_node=self.n_contexts,
                        scale=scale if scale is not None else 1.0)
        self.simulator = MultiprocessorSimulator(
            app, scheme=self.scheme, n_contexts=self.n_contexts,
            params=self.config, pipeline=self.pipeline, seed=self.seed,
            engine=self.engine)

    # -- running ---------------------------------------------------------------

    def run(self, until=None, *, warmup=0, measure=None):
        """Run the loaded workload; returns a :class:`RunResult`.

        Workstation: warm up for ``warmup`` cycles, then measure a
        window — ``measure`` cycles when given, otherwise up to the
        absolute cycle ``until``.  Multiprocessor: run to completion,
        bounded by the absolute cycle ``until`` (default
        ``DEFAULT_MP_MAX_CYCLES``); ``warmup``/``measure`` do not apply
        (the paper times SPLASH runs whole).
        """
        sim = self.simulator
        if sim is None:
            raise RuntimeError("call load(workload) before run()")
        if self.kind == "multiprocessor":
            if warmup or measure is not None:
                raise ValueError("warmup/measure only apply to "
                                 "workstation simulations")
            return sim.run(until=until).with_workload(self.workload)
        if measure is None:
            if until is None:
                raise TypeError("workstation run() needs measure=<n> "
                                "or until=<absolute cycle>")
            measure = until - sim.now - warmup
            if measure < 0:
                raise ValueError("until=%d is before the end of the "
                                 "%d-cycle warmup" % (until, warmup))
        window = sim.measure(measure, warmup=warmup)
        return workstation_run_result(sim, window,
                                      workload=self.workload)
