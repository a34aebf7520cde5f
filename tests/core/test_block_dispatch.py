"""Blocks: bursts through loads, stores and the closing branch.

On a workstation processor (a memory system it alone uses, one issue
slot per cycle) a burst runs on through loads and stores and ends with
the branch that closes its run (:mod:`repro.isa.segments`).  Each load
or store issues at its scheduled cycle: an L1 hit commits through
``MemorySystem.l1_hit`` and the block goes on; anything else issues
through the processor's own path and, unless it is a single-context
store miss, ends the dispatch.  These tests drive each of those paths
inside a dispatch — a spy on the processor names what happened — and
hold the burst engine to the naive one at a series of checkpoints: the
statistics, every cache, TLB, MSHR, port and BTB counter, the
architectural state and the access log must be equal at each.
"""

import pytest

from repro.config import SystemConfig
from repro.core.context import Status
from repro.core.processor import Processor
from repro.core.simulator import Process, WorkstationSimulator
from repro.isa import AsmBuilder
from repro.isa.instruction import KIND_CONTROL, KIND_MEM
from repro.memory.hierarchy import MemorySystem

#: Checkpoints each run is compared at (absolute cycles).  They cut
#: windows short, so blocks that would cross one are refused there.
CHECKPOINTS = (997, 2_500, 4_999, 6_001, 9_000)


def _stream(name="stream", iterations=64, stride=4, store_stride=4,
            base=0x1000):
    """A loop over two arrays: a streaming load, a hot load, a use of
    both, a streaming store, pointer bumps and the closing branch."""
    b = AsmBuilder(name, code_base=base, data_base=0x400000 + base * 64)
    hot = b.word("hot", [7])
    b.space("src", 16)
    b.li("s0", hot)
    b.label("outer")
    # The hot word, the load stream and the store stream sit in
    # different L1 sets.
    b.li("t0", 0x800100 + base * 256)
    b.li("s1", 0xC01100 + base * 256)
    b.li("t5", iterations)
    b.label("top")
    b.lw("t1", 0, "t0")
    b.lw("t2", 0, "s0")
    b.add("t3", "t1", "t2")
    b.sw("t3", 0, "s1")
    b.addi("t0", "t0", stride)
    b.addi("s1", "s1", store_stride)
    b.addi("t5", "t5", -1)
    b.bne("t5", "zero", "top")
    b.j("outer")
    b.halt()
    return b.build()


def _simulator(programs, scheme, engine, config=None):
    processes = [Process(p.name, p) for p in programs]
    return WorkstationSimulator(
        processes, scheme=scheme, n_contexts=len(processes),
        config=config or SystemConfig.fast(), engine=engine)


def _machine(sim):
    """Everything a run leaves behind that the engines must agree on."""
    proc = sim.processor
    memsys = sim.memsys
    stats = proc.stats
    caches = []
    for cache in (memsys.l1i, memsys.l1d, memsys.l2):
        caches.append((cache.hits, cache.misses, cache.writebacks,
                       list(cache.tags), bytes(cache.dirty)))
    ports = [(r.busy_until, r.total_busy, r.total_requests,
              r.total_queue_delay)
             for r in (memsys.l1i.port, memsys.l1d.port, memsys.l2.port,
                       memsys.l1i.fill_port, memsys.l1d.fill_port,
                       memsys.l2.fill_port, memsys.bus_req,
                       memsys.bus_reply, *memsys.banks)]
    mshr = memsys.mshr
    contexts = [(c.status, c.state.pc, list(c.state.regs), c.wake_at,
                 c.run_instructions, c.process.retired)
                for c in proc.contexts]
    btb = proc.btb
    return {
        "stats": (list(stats.counts), stats.retired, stats.issued,
                  stats.squashed, stats.context_switches, stats.run_count,
                  stats.run_inst_sum, stats.run_max),
        "caches": caches,
        "ports": ports,
        "tlb": (memsys.dtlb.hits, memsys.dtlb.misses,
                list(memsys.dtlb.pages), memsys.tlb_stall_count),
        "mshr": (dict(mshr.entries), mshr.merges, mshr.allocations,
                 mshr.structural_stalls),
        "btb": (btb.lookups, btb.hits, btb.mispredicts, list(btb.tags),
                list(btb.targets)),
        "contexts": contexts,
        "memory": dict(sim.memory.words),
    }


def _log(sim):
    log = []
    sim.processor.access_log = (
        lambda cycle, ctx, pc, addr, is_write:
        log.append((cycle, ctx.cid, pc, addr, is_write)))
    return log


class BlockSpy:
    """Names what block dispatches do, from wrappers on the processor's
    own paths: each op a dispatch issues through the generic path is
    recorded with its outcome, each hit it commits, each closing
    branch with whether it was mispredicted, and each refusal by the
    advance window."""

    def __init__(self, monkeypatch):
        self.inside = False
        self.events = []            # (kind, cycle, dispatch attempt)
        self.attempts = 0
        self.refused_at_limit = 0
        spy = self
        try_burst = Processor._try_burst
        issue_memory = Processor._issue_memory
        resolve = Processor._resolve_control
        l1_hit = MemorySystem.l1_hit

        def wrapped_try_burst(proc, ctx, now):
            burst = ctx.burst_table[ctx.state.pc]
            spy.attempts += 1
            spy.inside = True
            try:
                taken = try_burst(proc, ctx, now)
            finally:
                spy.inside = False
            if (not taken and burst is not None and now >= ctx.next_issue_min
                    and now + burst.duration > proc.burst_limit):
                spy.refused_at_limit += 1
            return taken

        def wrapped_issue_memory(proc, ctx, inst, now):
            if not spy.inside:
                return issue_memory(proc, ctx, inst, now)
            pc = ctx.state.pc
            satisfied = ctx.satisfied_pc == pc
            issue_memory(proc, ctx, inst, now)
            if satisfied:
                outcome = "satisfied"
            elif ctx.status is Status.DOOMED:
                outcome = "doomed"
            elif proc.stall_until > now:
                outcome = "tlb"
            elif ctx.status is Status.WAITING:
                outcome = "mshr"
            elif inst.info.is_store:
                outcome = "store-miss"
            else:
                outcome = "load-miss"
            spy.events.append((outcome, now, spy.attempts))

        def wrapped_resolve(proc, ctx, inst, fetch_addr, now):
            resolve(proc, ctx, inst, fetch_addr, now)
            if spy.inside:
                spy.events.append(
                    ("mispredict" if ctx.next_issue_min > now + 1
                     else "branch", now, spy.attempts))

        def wrapped_l1_hit(memsys, addr, is_write, now):
            start = l1_hit(memsys, addr, is_write, now)
            if spy.inside and start is not None:
                spy.events.append(("hit", now, spy.attempts))
            return start

        monkeypatch.setattr(Processor, "_try_burst", wrapped_try_burst)
        monkeypatch.setattr(Processor, "_issue_memory",
                            wrapped_issue_memory)
        monkeypatch.setattr(Processor, "_resolve_control", wrapped_resolve)
        monkeypatch.setattr(MemorySystem, "l1_hit", wrapped_l1_hit)

    def outcomes(self):
        return {kind for kind, _, _ in self.events}

    def continued_after(self, kind):
        """Whether some dispatch issued another op, at a later cycle,
        after a ``kind`` op (the block went on past it)."""
        return any(a[0] == kind and a[2] == b[2] and b[1] > a[1]
                   for a, b in zip(self.events, self.events[1:]))


def _run_both(make_programs, scheme, monkeypatch, config=None):
    """Run burst (spied) and naive side by side to each checkpoint;
    every machine snapshot and the access logs must be equal."""
    naive = _simulator(make_programs(), scheme, "naive", config)
    naive_log = _log(naive)
    spy = BlockSpy(monkeypatch)
    burst = _simulator(make_programs(), scheme, "burst", config)
    burst_log = _log(burst)
    for until in CHECKPOINTS:
        naive.run(until=until)
        burst.run(until=until)
        assert _machine(burst) == _machine(naive), until
        assert burst_log == naive_log, until
    return spy


def test_one_dispatch_retires_loads_stores_and_the_branch(monkeypatch):
    """A warm loop body dispatches whole: both loads and the store hit,
    and the closing branch retires in the same dispatch, one step per
    iteration."""
    program = _stream(stride=0, store_stride=0)
    sim = _simulator([program], "single", "burst")
    sim.run(until=2_000)
    top = program.labels["top"]
    block = sim.processor.contexts[0].burst_table[top]
    kinds = [inst.kind for inst in block.instructions]
    assert block.n == 8 and kinds[-1] == KIND_CONTROL
    assert kinds.count(KIND_MEM) == 3
    spy = BlockSpy(monkeypatch)
    steps = []
    step = Processor.step
    monkeypatch.setattr(Processor, "step",
                        lambda proc, now: steps.append(now)
                        or step(proc, now))
    retired = sim.processor.stats.retired
    sim.run(until=3_000)
    assert [kind for kind, _, _ in spy.events[:4]] == [
        "hit", "hit", "hit", "branch"]
    iterations = (sim.processor.stats.retired - retired) / block.n
    assert len(steps) < 1.2 * iterations


@pytest.mark.parametrize("scheme,outcome", [
    ("single", "load-miss"),
    ("single", "store-miss"),
])
def test_single_context_misses(monkeypatch, scheme, outcome):
    spy = _run_both(lambda: [_stream()], scheme, monkeypatch)
    assert outcome in spy.outcomes()
    assert "hit" in spy.outcomes() and "branch" in spy.outcomes()


def test_single_store_miss_continues(monkeypatch):
    """A store miss retires while its write-allocate completes: the
    block issues its later ops in the same dispatch."""
    spy = _run_both(lambda: [_stream(stride=0, store_stride=32)],
                    "single", monkeypatch)
    assert "store-miss" in spy.outcomes()
    assert spy.continued_after("store-miss")


def test_blocked_doomed_miss_and_satisfied_retry(monkeypatch):
    """Blocked-2: a miss dooms the context inside a block; after the
    fill it re-enters the block at the missing load, which takes the
    MSHR-forward retry through the generic path."""
    spy = _run_both(lambda: [_stream("a", stride=32),
                             _stream("b", stride=32, base=0x40000)],
                    "blocked", monkeypatch)
    assert {"doomed", "satisfied", "branch"} <= spy.outcomes()
    assert spy.continued_after("satisfied")


def test_interleaved_sole_runner_doomed_miss(monkeypatch):
    """Interleaved-2: a context dispatches blocks while its sibling
    waits on a fill, and a miss inside one dooms it."""
    spy = _run_both(lambda: [_stream("a", stride=32),
                             _stream("b", stride=8, base=0x40000)],
                    "interleaved", monkeypatch)
    assert {"doomed", "hit"} <= spy.outcomes()


def test_tlb_refill_stops_the_block(monkeypatch):
    """A page stride with more pages than the TLB holds: every
    streaming load refills the TLB, a processor-wide stall."""
    spy = _run_both(lambda: [_stream(stride=4096, store_stride=0)],
                    "single", monkeypatch)
    assert "tlb" in spy.outcomes()


def test_mshr_full_wait_stops_the_block(monkeypatch):
    """Two MSHRs and a store stream a line apart: the third store miss
    finds every MSHR busy and the context waits for one."""
    config = SystemConfig.fast().with_memory(mshr_capacity=2)
    spy = _run_both(lambda: [_stream(stride=0, store_stride=32)],
                    "single", monkeypatch, config)
    assert "mshr" in spy.outcomes()


def test_closing_branch_mispredict(monkeypatch):
    """Three iterations per outer pass: the loop branch's exit is
    mispredicted, and the redirect bubble after the block matches."""
    spy = _run_both(lambda: [_stream(iterations=3, stride=0,
                                     store_stride=0)],
                    "single", monkeypatch)
    assert "mispredict" in spy.outcomes()


def _fp_in_flight():
    """An FP add issues just before a streaming load; after the load
    the next op reads the add's result, still four cycles out."""
    b = AsmBuilder("fp", code_base=0x1000, data_base=0x400000)
    b.label("outer")
    b.li("t0", 0x800100)
    b.li("t5", 64)
    b.label("top")
    b.fadd("f1", "f2", "f3")
    b.lw("t1", 0, "t0")
    b.fmul("f4", "f1", "f1")
    b.add("t3", "t1", "t3")
    b.addi("t0", "t0", 8)
    b.addi("t5", "t5", -1)
    b.bne("t5", "zero", "top")
    b.j("outer")
    b.halt()
    return b.build()


def test_prefix_writes_land_before_a_stop(monkeypatch):
    """A load miss stops the block with the FP add's write in flight:
    the prefix's writes reach the scoreboard before the load issues,
    so the multiply after it waits for the add exactly as stepping
    makes it wait."""
    spy = _run_both(lambda: [_fp_in_flight()], "single", monkeypatch)
    assert "load-miss" in spy.outcomes()


def test_block_crossing_the_window_is_refused(monkeypatch):
    """Checkpoints fall inside block windows: such a block is refused,
    as a plain burst is, and the runs still agree at each checkpoint."""
    spy = _run_both(lambda: [_stream(stride=0, store_stride=0)],
                    "single", monkeypatch)
    assert spy.refused_at_limit > 0


def test_multiprocessor_and_wide_tables_stay_plain():
    """Only a width-1 processor on a memory system it alone uses asks
    for blocks."""
    from repro.config import MultiprocessorParams
    from repro.core.mpsimulator import MultiprocessorSimulator
    from repro.workloads.splash import build_app
    sim = MultiprocessorSimulator(
        build_app("mp3d", n_threads=2, scale=0.05), n_contexts=1,
        params=MultiprocessorParams(n_nodes=2))
    for proc in sim.processors:
        for ctx in proc.contexts:
            assert all(not b.ops for b in ctx.burst_table
                       if b is not None)
    wide = SystemConfig.fast().with_pipeline(issue_width=2)
    ws = _simulator([_stream()], "single", "burst", wide)
    assert all(not b.ops for b in ws.processor.contexts[0].burst_table
               if b is not None)
    ws = _simulator([_stream()], "single", "burst")
    assert any(b.ops for b in ws.processor.contexts[0].burst_table
               if b is not None)
