"""Workstation (uniprocessor) simulator with the OS scheduler model.

Section 4.3 of the paper: a 30 ms time slice (six million cycles at
200 MHz — scaled in the fast profile), an affinity mechanism that keeps a
group of N processes resident for three time slices each, and scheduler
cache interference per Table 6.  The scheduler itself runs in negligible
time; its only modelled effect is the cache pollution.
"""

import random

from repro.isa.executor import ArchState, Memory
from repro.config import SystemConfig
from repro.memory.hierarchy import MemorySystem
from repro.core.processor import Processor
from repro.core.sync import SyncManager
from repro.core.context import Status

# _restart_process reads the enum member through a module global (see
# the note in repro.core.processor).
RUNNING = Status.RUNNING


class Process:
    """A software process: a program plus its persistent register state."""

    __slots__ = ("name", "program", "state", "retired", "finished_at",
                 "pid", "completions")

    def __init__(self, name, program, pid=0):
        self.name = name
        self.program = program
        self.state = ArchState(entry=program.entry)
        self.retired = 0
        self.finished_at = None
        self.pid = pid
        #: Times the program ran to HALT (restart-on-halt mode).
        self.completions = 0

    def __repr__(self):
        return "<Process %s retired=%d>" % (self.name, self.retired)


def _restart_process(ctx, now):
    """``on_halt`` hook: restart a finished process for continuous
    throughput runs.  A plain function, so the processor holds no
    reference back to its simulator."""
    process = ctx.process
    process.completions += 1
    process.state.pc = process.program.entry
    process.state.halted = False
    ctx.status = RUNNING
    ctx.fetch_valid = False


class SimulationDeadlock(RuntimeError):
    """All contexts wait on events that can never fire."""


class RunResult:
    """Outcome of one measured window."""

    def __init__(self, duration, stats, per_process):
        self.duration = duration
        self.stats = stats
        #: process name -> instructions retired during the window
        self.per_process = per_process

    def rate(self, name):
        return self.per_process[name] / self.duration

    def total_ipc(self):
        return sum(self.per_process.values()) / self.duration


class WorkstationSimulator:
    """One multiple-context processor running a multiprogrammed mix."""

    def __init__(self, processes, scheme="interleaved", n_contexts=1,
                 config=None, seed=1994, app_instances=(), barriers=None,
                 restart_halted=True, engine="burst"):
        if not processes:
            raise ValueError("need at least one process")
        if engine not in ("naive", "burst"):
            raise ValueError(
                "engine must be 'naive' or 'burst', not %r" % (engine,))
        #: "burst" fast-forwards idle and processor-wide stall windows,
        #: retires precompiled straight-line runs in one step and
        #: bulk-charges hazard-stall windows; "naive" steps every cycle
        #: and is the reference the fast engine must match bit for bit.
        self.engine = engine
        self.config = config if config is not None else SystemConfig.fast()
        self.seed = seed
        self.processes = list(processes)
        for pid, p in enumerate(self.processes):
            p.pid = pid
        self.memory = Memory()
        for p in self.processes:
            p.program.load(self.memory)
        for instance in app_instances:
            # SPLASH uniprocessor members bring shared data of their own.
            instance.load(self.memory)
        self.memsys = MemorySystem(self.config.memory)
        self.sync = SyncManager()
        for barrier_id, expected in (barriers or {}).items():
            self.sync.configure_barrier(barrier_id, expected)
        self.n_contexts = n_contexts
        self.processor = Processor(scheme, n_contexts,
                                   self.config.pipeline, self.memsys,
                                   self.memory, sync=self.sync)
        # Schedules are packed per issue width (Program.bursts_for keys
        # its memo on it), so the Section 7 multi-issue extension
        # dispatches bursts too.
        self.processor.burst_enabled = engine == "burst"
        if restart_halted:
            self.processor.on_halt = _restart_process
        self.rng = random.Random(seed)
        self.now = 0
        self._next_resident = 0     # index of the next process to schedule
        self._slices_elapsed = 0
        #: Active SharedAccessRecorder (see trace_shared_accesses).
        self.access_recorder = None
        self._load_group()

    def trace_shared_accesses(self):
        """Opt-in dynamic access log for the race-analysis oracle.

        Attaches a :class:`repro.core.tracing.SharedAccessRecorder` to
        the processor and returns it.  The burst engine keeps its fast
        paths: a block logs each load and store it issues at the op's
        issue cycle, as stepping does, and a charged stall or doomed
        window holds no access, so the log is the one naive stepping
        records.  Subsequent
        ``run()`` windows attach the JSON-ready log to their core
        window result as ``shared_accesses``.
        """
        from repro.core.tracing import SharedAccessRecorder
        self.access_recorder = SharedAccessRecorder(self.sync).attach(
            self.processor)
        return self.access_recorder

    # -- scheduling ------------------------------------------------------------

    def _load_group(self):
        """Load the next group of N processes onto the hardware contexts.

        Default policy is round-robin rotation.  With the paper's
        context-usage feedback enabled, the scheduler instead picks the
        N least-served processes (by retired instructions), evening out
        the cycles each application receives — the countermeasure to the
        blocked scheme's bias toward low-miss-rate applications.
        """
        n = min(self.n_contexts, len(self.processes))
        total = len(self.processes)
        if self.config.os.usage_feedback:
            group = sorted(self.processes,
                           key=lambda p: (p.retired, p.pid))[:n]
        else:
            group = [self.processes[(self._next_resident + slot) % total]
                     for slot in range(n)]
            self._next_resident = (self._next_resident + n) % total
        for slot, proc in enumerate(group):
            self.processor.load_process(slot, proc)
        # More hardware contexts than processes: the extras stay empty
        # (loading one process onto two contexts would alias its state).
        for slot in range(n, self.n_contexts):
            self.processor.unload_process(slot)

    def _scheduler_interrupt(self):
        """Called every time slice; swaps groups at affinity boundaries."""
        self._slices_elapsed += 1
        os_params = self.config.os
        residency = os_params.affinity_slices * self.n_contexts
        if len(self.processes) <= self.n_contexts:
            # Everything fits in hardware: nothing to swap, no pollution
            # ("the number of processes switched will either be zero or
            # the number of hardware contexts supported").
            return
        if self._slices_elapsed % residency:
            return
        for slot in range(self.n_contexts):
            self.processor.unload_process(slot)
        self._load_group()
        self.processor.policy.reset()
        self.memsys.scheduler_interference(self.n_contexts, os_params,
                                           self.rng)

    # -- running ------------------------------------------------------------------

    def run(self, *, until):
        """Advance the machine; returns a :class:`repro.api.RunResult`.

        The unified entry point shared with the multiprocessor
        simulator: ``run(until=cycle)`` advances to the *absolute* cycle
        ``until``.
        """
        from repro.api import workstation_run_result
        start = self.now
        stats_before = self.processor.stats.snapshot()
        retired_before = {p.name: p.retired for p in self.processes}
        self._advance(until)
        stats = self.processor.stats.delta_since(stats_before)
        per_process = {p.name: p.retired - retired_before[p.name]
                       for p in self.processes}
        window = RunResult(self.now - start, stats, per_process)
        if self.access_recorder is not None:
            window.shared_accesses = self.access_recorder.to_payload()
        return workstation_run_result(self, window)

    def _advance(self, end):
        if self.engine == "naive":
            self._advance_naive(end)
        else:
            self._advance_burst(end)

    def _advance_naive(self, end):
        """Reference engine: step every cycle.

        The fast engine's contract is defined against this loop — any
        run must produce bit-identical statistics either way.
        """
        proc = self.processor
        now = self.now
        slice_len = self.config.os.time_slice
        next_interrupt = ((now // slice_len) + 1) * slice_len
        while now < end:
            if now >= next_interrupt:
                self._scheduler_interrupt()
                next_interrupt += slice_len
            proc.step(now)
            now += 1
        self.now = now

    def _advance_burst(self, end):
        """Fast engine: park/unpark fast-forward plus one-step bursts.

        The processor is parked (``Processor.park``) only when the
        previous step was idle or froze the front end, keeping the idle
        probe off the busy hot path.  A parked window runs to the
        processor's own due cycle (``parked_due``) and never crosses
        ``end`` or a scheduler interrupt; ``unpark`` then charges every
        skipped slot as naive stepping would.  When every context has
        halted nothing is due by itself, so the window runs to the next
        interrupt, which may load the next group.  When ``step``
        dispatched a precompiled burst or charged a hazard-stall window
        the processor is busy — and fully accounted — until
        ``burst_until``, so the clock jumps straight there.
        ``burst_limit`` keeps any such window inside both the advance
        window and the current time slice, so scheduler interrupts fire
        on exactly the cycle naive stepping would fire them.
        """
        proc = self.processor
        now = self.now
        slice_len = self.config.os.time_slice
        next_interrupt = ((now // slice_len) + 1) * slice_len
        proc.burst_limit = min(end, next_interrupt)
        check_idle = True
        while now < end:
            if now >= next_interrupt:
                self._scheduler_interrupt()
                next_interrupt += slice_len
                proc.burst_limit = min(end, next_interrupt)
                check_idle = True
            if check_idle and proc.park(now):
                due = proc.parked_due
                if due is None:
                    if not proc.all_halted():
                        raise SimulationDeadlock(
                            "all contexts blocked on %s with nothing "
                            "running" % proc._parked_reason.name)
                    due = next_interrupt
                now = min(due, end, next_interrupt)
                proc.unpark(now)
                continue
            check_idle = proc.step(now)
            if proc.burst_until > now:
                now = proc.burst_until
                check_idle = False
            else:
                now += 1
            if not check_idle and proc.stall_until > now:
                check_idle = True
        self.now = now

    def measure(self, cycles, warmup=0):
        """Warm up, then measure a window; returns a :class:`RunResult`.

        Mirrors the paper's methodology: "each application in the workload
        was run for a time slice before simulation statistics are
        gathered" so caches are loaded and initialisation is excluded.
        """
        if warmup:
            self._advance(self.now + warmup)
        stats_before = self.processor.stats.snapshot()
        retired_before = {p.name: p.retired for p in self.processes}
        self._advance(self.now + cycles)
        stats = self.processor.stats.delta_since(stats_before)
        per_process = {p.name: p.retired - retired_before[p.name]
                       for p in self.processes}
        return RunResult(cycles, stats, per_process)
