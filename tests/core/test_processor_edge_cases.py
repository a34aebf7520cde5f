"""Processor corner cases around the multithreading mechanisms."""

from dataclasses import replace
from types import SimpleNamespace

from repro.isa import AsmBuilder
from repro.isa.executor import Memory
from repro.config import PipelineParams, SystemConfig
from repro.memory.hierarchy import MemorySystem, AccessResult
from repro.core.processor import Processor
from repro.core.simulator import Process, WorkstationSimulator
from repro.core.sync import SyncManager
from repro.core.context import Status
from repro.pipeline.stalls import Stall
from repro.experiments.microbench import FixedLatencyMemory, run_to_halt


def build(proc, memory, slot, body):
    b = AsmBuilder("p%d" % slot, code_base=(slot + 1) * 0x2000,
                   data_base=0x400000 + slot * 0x20000)
    body(b)
    program = b.build()
    program.load(memory)
    process = Process("p%d" % slot, program)
    proc.load_process(slot, process)
    return process


class TestBlockingICache:
    """Paper: 'no context switching will be done for instruction cache
    misses' — an I-miss freezes every context."""

    def test_icache_miss_freezes_all_contexts(self):
        cfg = SystemConfig.fast()
        memory = Memory()
        memsys = MemorySystem(cfg.memory)
        proc = Processor("interleaved", 2, cfg.pipeline, memsys, memory,
                         sync=SyncManager())
        for slot in range(2):
            build(proc, memory, slot, lambda b: (
                [b.addi("t0", "t0", 1) for _ in range(5)], b.halt()))
        run_to_halt(proc)
        # Cold I-misses happened and were charged as ICACHE stalls while
        # nobody issued (squashes would show as SWITCH).
        assert proc.stats.counts[Stall.ICACHE] > 0
        assert proc.stats.squashed == 0


class TestTLBRefill:
    def test_tlb_refill_freezes_pipeline_without_flush(self):
        """Software TLB refill runs inline: no doomed window."""
        cfg = SystemConfig.fast()
        memory = Memory()
        memsys = MemorySystem(cfg.memory)
        # Pre-warm the I-cache region and the L1D line so only the TLB
        # misses.
        proc = Processor("interleaved", 2, cfg.pipeline, memsys, memory,
                         sync=SyncManager())

        def body(b):
            arr = b.word("arr", [1, 2])
            b.li("t0", arr)
            b.lw("t1", 0, "t0")
            b.halt()

        build(proc, memory, 0, body)
        build(proc, memory, 1, lambda b: b.halt())
        memsys.l1d.fill(0x400000)
        for i in range(16):
            memsys.l1i.fill(0x2000 + 32 * i)
        run_to_halt(proc)
        # The data access cost exactly one TLB refill, no squash.
        assert memsys.dtlb.misses == 1
        assert proc.stats.squashed == 0
        assert proc.stats.counts[Stall.DCACHE] >= cfg.memory.tlb.miss_penalty - 1


class TestSwitchInstruction:
    def test_explicit_switch_rotates_blocked(self):
        memory = Memory()
        proc = Processor("blocked", 2, PipelineParams(),
                         FixedLatencyMemory(), memory,
                         sync=SyncManager())
        procs = []
        for slot in range(2):
            def body(b, slot=slot):
                b.addi("t0", "t0", 1)
                if slot == 0:
                    b.switch()
                for _ in range(10):
                    b.addi("t1", "t1", 1)
                b.halt()
            procs.append(build(proc, memory, slot, body))
        run_to_halt(proc)
        # The switch cost 3 cycles and let p1 run before p0 finished.
        assert proc.stats.counts[Stall.SWITCH] == 3
        assert procs[1].finished_at < procs[0].finished_at

    def test_switch_is_noop_on_interleaved_and_single(self):
        for scheme, n in (("interleaved", 2), ("single", 1)):
            memory = Memory()
            proc = Processor(scheme, n, PipelineParams(),
                             FixedLatencyMemory(), memory,
                             sync=SyncManager())
            for slot in range(n):
                build(proc, memory, slot,
                      lambda b: (b.switch(), b.halt()))
            run_to_halt(proc)
            assert proc.stats.counts[Stall.SWITCH] == 0, scheme


class TestParkedSyncWake:
    """A lock handoff or barrier release reaching a parked processor
    (``context_woken``, the fast engine's path) must resume the park
    where naive stepping would next issue."""

    def _blocked(self):
        memory = Memory()
        proc = Processor("blocked", 2, PipelineParams(),
                         FixedLatencyMemory(), memory,
                         sync=SyncManager(), proc_id=1)
        proc.burst_enabled = True
        for slot in range(2):
            build(proc, memory, slot, lambda b: b.halt())
        return proc

    def test_wake_inside_switch_tail_keeps_the_stall_window(self):
        proc = self._blocked()
        waiting = proc.contexts[0]
        # A failed LOCK: context 0 waits on the lock and the blocked
        # scheme's switch tail freezes the processor until cycle 110;
        # context 1 can run once the tail ends.
        waiting.wait_on_lock()
        proc.stall_until, proc.stall_category = 110, Stall.SWITCH
        proc.step(99)   # the tail's cycle 99; parks from 100
        assert proc._parked_from == 100 and proc.parked_due == 110
        proc.context_woken(waiting, 140, 104, SimpleNamespace(proc_id=0))
        assert proc.parked_due == 110
        proc.unpark(110)
        assert proc.stats.counts[Stall.SWITCH] == 11
        assert proc.stats.counts[Stall.SYNC] == 0

    def test_wake_at_tail_end_with_a_runner_is_due_at_once(self):
        proc = self._blocked()
        waiting = proc.contexts[0]
        waiting.wait_on_lock()
        proc.stall_until, proc.stall_category = 105, Stall.SWITCH
        proc.step(99)
        assert proc._parked_from == 100 and proc.parked_due == 105
        # A higher-id waker: the wake is visible at now + 1, the cycle
        # the tail ends, when context 1 can issue.
        proc.context_woken(waiting, 140, 104, SimpleNamespace(proc_id=2))
        assert proc.parked_due == 105


class TestDoomedWindowDetails:
    def test_store_miss_also_enters_doomed(self):
        memory = Memory()
        memsys = FixedLatencyMemory(latency=25)
        proc = Processor("interleaved", 2, PipelineParams(), memsys,
                         memory, sync=SyncManager())

        def body0(b):
            arr = b.space("arr", 8)
            b.li("t0", arr)
            memsys.miss_addrs.add(b.addr("arr"))
            b.sw("t1", 0, "t0")
            b.halt()

        build(proc, memory, 0, body0)
        build(proc, memory, 1, lambda b: (
            [b.addi("t0", "t0", 1) for _ in range(30)], b.halt()))
        run_to_halt(proc)
        assert proc.stats.context_switches == 1
        assert proc.stats.squashed >= 1

    def test_functional_state_survives_squash(self):
        """Doomed-window instructions must leave no architectural trace."""
        memory = Memory()
        memsys = FixedLatencyMemory(latency=25)
        proc = Processor("blocked", 2, PipelineParams(), memsys, memory,
                         sync=SyncManager())

        def body0(b):
            arr = b.word("arr", [7])
            b.li("t0", arr)
            memsys.miss_addrs.add(b.addr("arr"))
            b.lw("t1", 0, "t0")      # misses: everything after squashed
            b.addi("t2", "t2", 1)    # issued doomed, must re-execute once
            b.addi("t2", "t2", 1)
            b.halt()

        p0 = build(proc, memory, 0, body0)
        build(proc, memory, 1, lambda b: b.halt())
        run_to_halt(proc)
        assert p0.state.regs[9] == 7    # t1: the load completed
        assert p0.state.regs[10] == 2   # t2: exactly two increments

    def test_miss_during_only_context_still_squashes(self):
        """With every other context halted the mechanism still runs."""
        memory = Memory()
        memsys = FixedLatencyMemory(latency=25)
        proc = Processor("interleaved", 2, PipelineParams(), memsys,
                         memory, sync=SyncManager())

        def body0(b):
            arr = b.word("arr", [7])
            b.li("t0", arr)
            memsys.miss_addrs.add(b.addr("arr"))
            for _ in range(3):
                b.addi("t3", "t3", 1)
            b.lw("t1", 0, "t0")
            b.halt()

        build(proc, memory, 0, body0)
        build(proc, memory, 1, lambda b: b.halt())
        run_to_halt(proc)
        # Alone in the rotation: the full pipeline's worth of slots.
        assert proc.stats.squashed >= 2


class TestProcessSwapHygiene:
    def test_swapped_in_process_replays_pending_miss(self):
        """A process descheduled mid-miss re-executes the load later."""
        cfg = SystemConfig.fast()
        cfg = replace(cfg, os=replace(cfg.os, time_slice=500))

        def looping(name, index, with_load):
            b = AsmBuilder(name, code_base=(index + 1) * 0x4000,
                           data_base=0x1000000 + index * 0x21000)
            arr = b.word("arr", [3])
            b.label("top")
            if with_load:
                b.li("t0", arr)
                b.lw("t1", 0, "t0")
            b.addi("t2", "t2", 1)
            b.j("top")
            b.halt()
            return Process(name, b.build())

        procs = [looping("a", 0, True), looping("b", 1, False)]
        sim = WorkstationSimulator(procs, scheme="single", n_contexts=1,
                                   config=cfg)
        sim.run(until=20_000)
        assert procs[0].retired > 0
        assert procs[1].retired > 0
