"""Microbenchmark scaffolding for the switch-cost experiments.

Figures 2/3 and Table 4 of the paper are about the *mechanism* costs, so
they are measured on a processor with an idealised instruction memory and
a fixed-latency data memory: exactly the paper's illustration setting
(one level of cache, every designated address a cold miss).
"""

from repro.isa import AsmBuilder
from repro.isa.executor import Memory
from repro.config import PipelineParams
from repro.memory.hierarchy import AccessResult
from repro.core.processor import Processor
from repro.core.simulator import Process
from repro.core.sync import SyncManager


class FixedLatencyMemory:
    """Instruction fetches always hit; designated data lines miss once."""

    #: The I-cache is ideal, so the processor never probes it.
    ideal_icache = True

    def __init__(self, latency=30, miss_addrs=()):
        self.latency = latency
        self.miss_addrs = set(miss_addrs)
        self.serviced = set()

    def data_access(self, addr, is_write, now, requester=0):
        if addr in self.miss_addrs and addr not in self.serviced:
            self.serviced.add(addr)
            return AccessResult("mem", now + self.latency)
        return AccessResult("l1", now)


def paper_thread(name, index, n_alu=0, with_dependency=False):
    """One of the Figure 3 threads: ALU work ending in a missing load.

    ``with_dependency`` inserts the paper's thread-B two-cycle pipeline
    dependency (a load immediately feeding an add).
    """
    b = AsmBuilder(name, code_base=index * 0x1000,
                   data_base=0x400000 + index * 0x1000)
    arr = b.space("arr", 16)
    b.li("t0", arr)
    if with_dependency:
        b.lw("t1", 4, "t0")      # hits; 2-cycle dependency to the add
        b.add("t2", "t1", "t1")
    for _ in range(n_alu):
        b.addi("t3", "t3", 1)
    b.lw("t4", 0, "t0")          # the final, missing load
    b.halt()
    return b.build(), arr


def build_four_thread_processor(scheme, latency=30, n_contexts=4,
                                pipeline=None, trace=None):
    """The Figure 3 scenario: threads A (2 instrs), B (3, with a
    dependency), C (4), and D (6), all ending in a cache miss."""
    specs = [("A", 1, False), ("B", 0, True), ("C", 3, False),
             ("D", 5, False)]
    memory = Memory()
    memsys = FixedLatencyMemory(latency)
    pp = pipeline if pipeline is not None else PipelineParams()
    proc = Processor(scheme, n_contexts, pp, memsys, memory,
                     sync=SyncManager())
    proc.trace = trace
    for i, (name, n_alu, dep) in enumerate(specs):
        program, arr = paper_thread(name, i + 1, n_alu, dep)
        program.load(memory)
        memsys.miss_addrs.add(arr)
        proc.load_process(i, Process(name, program))
    return proc


def run_to_halt(proc, limit=10_000):
    """Step until every context halts; returns the cycle count."""
    now = 0
    while not proc.all_halted():
        if now >= limit:
            raise RuntimeError("microbenchmark did not finish")
        proc.step(now)
        now += 1
    return now


def measure_miss_cost(scheme, n_contexts, latency=40, pipeline=None):
    """Issue slots lost to one cache miss (Table 4's cache-miss rows).

    Builds ``n_contexts`` identical long ALU threads, lets exactly one of
    them take one cold miss, and counts the squashed issue slots.
    """
    memory = Memory()
    memsys = FixedLatencyMemory(latency)
    pp = pipeline if pipeline is not None else PipelineParams()
    proc = Processor(scheme, n_contexts, pp, memsys, memory,
                     sync=SyncManager())
    for i in range(n_contexts):
        b = AsmBuilder("t%d" % i, code_base=(i + 1) * 0x1000,
                       data_base=0x400000 + (i + 1) * 0x1000)
        arr = b.space("arr", 16)
        b.li("t0", arr)
        for _ in range(40):
            b.addi("t1", "t1", 1)
        if i == 0:
            b.lw("t2", 0, "t0")       # the only miss in the run
            memsys.miss_addrs.add(arr)
        for _ in range(40):
            b.addi("t3", "t3", 1)
        b.halt()
        program = b.build()
        program.load(memory)
        proc.load_process(i, Process("t%d" % i, program))
    run_to_halt(proc)
    return proc.stats.squashed
