"""Multiprocessor simulator: N nodes stepped in lockstep.

The paper's multiprocessor study runs each SPLASH application to
completion of its measured section and reports speedups from adding
hardware contexts; more contexts per processor means the application is
partitioned into proportionally more threads (n_nodes × n_contexts).
"""

from repro.config import MultiprocessorParams, PipelineParams
from repro.coherence.dsm import DSMachine
from repro.core.processor import Processor
from repro.core.simulator import Process, SimulationDeadlock
from repro.core.sync import SyncManager
from repro.core.stats import CycleStats


class MPResult:
    """Outcome of one run-to-completion."""

    def __init__(self, cycles, node_stats, machine):
        self.cycles = cycles
        self.node_stats = node_stats
        self.machine = machine
        merged = CycleStats()
        for s in node_stats:
            merged = merged.merged_with(s)
        self.stats = merged

    def breakdown_fractions(self, categories=None):
        from repro.pipeline.stalls import MULTIPROCESSOR_CATEGORIES
        cats = categories or MULTIPROCESSOR_CATEGORIES
        return self.stats.breakdown_fractions(cats)


class _HaltCounter:
    """``on_halt`` hook counting HALTs as they retire.

    The simulator shares the count with every processor through this
    small cell, so no processor holds a reference back to the simulator.
    """

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def __call__(self, ctx, now):
        self.n += 1


class MultiprocessorSimulator:
    """Run a parallel application instance on the DASH-like machine."""

    def __init__(self, app_instance, scheme="interleaved", n_contexts=1,
                 params=None, pipeline=None, seed=None, engine="burst"):
        if engine not in ("naive", "burst"):
            raise ValueError(
                "engine must be 'naive' or 'burst', not %r" % (engine,))
        self.engine = engine
        self.params = params if params is not None else MultiprocessorParams()
        self.pipeline = pipeline if pipeline is not None else PipelineParams()
        self.app = app_instance
        self.scheme = scheme
        self.n_contexts = n_contexts
        self.seed = seed
        n_nodes = self.params.n_nodes
        threads = app_instance.programs
        if len(threads) != n_nodes * n_contexts:
            raise ValueError(
                "app built with %d threads but machine has %d nodes x %d "
                "contexts" % (len(threads), n_nodes, n_contexts))

        self.machine = DSMachine(self.params, seed=seed)
        app_instance.load(self.machine.memory)
        for addr, n_words, node in app_instance.placement:
            if node != "interleave":
                self.machine.place(addr, n_words, node)

        self.sync = SyncManager(
            lock_transfer_latency=self.params.lock_transfer_latency,
            barrier_release_latency=self.params.barrier_release_latency)
        for barrier_id, expected in app_instance.barriers.items():
            self.sync.configure_barrier(barrier_id, expected)

        self.processors = []
        self.processes = []
        for node_id in range(n_nodes):
            proc = Processor(scheme, n_contexts, self.pipeline,
                             self.machine.nodes[node_id],
                             self.machine.memory, sync=self.sync,
                             proc_id=node_id)
            if engine == "burst":
                proc.burst_enabled = True
                # Another node's lock release or barrier arrival can
                # wake a context here mid-window, so burst dispatch must
                # veto whenever such a wake is possible.
                proc.extern_wakes = True
            self.processors.append(proc)
        for t, program in enumerate(threads):
            node_id, slot = t // n_contexts, t % n_contexts
            process = Process("%s.t%d" % (app_instance.name, t), program)
            self.processes.append(process)
            self.processors[node_id].load_process(slot, process)
        self.now = 0
        # Completion tracking: counting HALTs as they retire beats
        # scanning every context every cycle.
        self._halted = _HaltCounter()
        for proc in self.processors:
            proc.on_halt = self._halted

    def all_halted(self):
        """True when every thread of the application has executed HALT."""
        return self._halted.n >= len(self.processes)

    def run(self, *, until=None):
        """Advance until completion or ``until``; returns a
        :class:`repro.api.RunResult`.

        The unified entry point shared with the workstation simulator:
        ``until`` is an *absolute* cycle bound (default: now plus
        :data:`repro.api.DEFAULT_MP_MAX_CYCLES`); the run stops early
        when every thread has halted, and the result's ``completed``
        flag records which happened.
        """
        from repro.api import DEFAULT_MP_MAX_CYCLES, multiprocessor_run_result
        if until is None:
            until = self.now + DEFAULT_MP_MAX_CYCLES
        self._advance(until)
        return multiprocessor_run_result(
            self, MPResult(self.now, [p.stats for p in self.processors],
                           self.machine))

    def _advance(self, end):
        if self.engine == "naive":
            self._advance_naive(end)
        else:
            self._advance_burst(end)

    def _advance_naive(self, end):
        """Reference engine: lockstep-step every node every cycle.

        The fast engine's contract is defined against this loop — any
        run must produce bit-identical statistics and cycle counts.
        """
        procs = self.processors
        halted = self._halted
        now = self.now
        n_live = len(self.processes)
        while now < end:
            if halted.n >= n_live:
                break
            for p in procs:
                p.step(now)
            now += 1
        self.now = now

    def _advance_burst(self, end):
        """Fast engine: park idle nodes, skip mid-burst nodes, jump.

        Each cycle only the nodes with work are stepped (in node order,
        preserving the lockstep access interleaving exactly).  A node
        that reports nothing runnable is *parked* — its idle accounting
        is deferred until it is woken by its own clock (``parked_due``),
        by a sync handoff (``context_woken``), or by the run ending.  A
        node that dispatched a burst or charged a hazard-stall or doomed
        window is busy — and fully accounted — until its
        ``burst_until``; it is
        simply skipped (not stepped, not parked) while other nodes keep
        their per-cycle lockstep.  When every node is parked or
        mid-window the loop jumps to the earliest due cycle.  Windows
        hold no memory or synchronisation operations (``NodeMemory``
        declares ``runs_ahead`` False, so bursts here stay plain and
        never span a load or store), so a mid-window
        node cannot affect any other node, and the policy's ownership
        test (``ContextPolicy.owns_window``) vetoes any window a
        handoff from another node could cut short.
        """
        procs = self.processors
        for p in procs:
            p.burst_limit = end
        halted = self._halted
        now = self.now
        n_live = len(self.processes)
        while now < end:
            if halted.n >= n_live:
                break
            stepped = False
            min_due = None
            for p in procs:
                due = p.burst_until
                if due > now:
                    if min_due is None or due < min_due:
                        min_due = due
                    continue
                if p._parked_from is not None:
                    due = p.parked_due
                    if due is None:
                        continue
                    if due > now:
                        if min_due is None or due < min_due:
                            min_due = due
                        continue
                    p.unpark(now)
                idle = p.step(now)
                stepped = True
                if p.burst_until > now:
                    continue
                if idle or p.stall_until > now + 1:
                    p.park(now + 1)
            if stepped:
                now += 1
                continue
            if min_due is None:
                # Nothing will ever run again by itself; if threads
                # remain unhalted they wait on sync no one can provide.
                raise SimulationDeadlock(
                    "all processors blocked on external events at cycle"
                    " %d" % now)
            now = min(min_due, end)
        for p in procs:
            p.unpark(now)
        self.now = now
