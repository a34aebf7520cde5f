"""Burst engine vs the naive per-cycle reference.

The contract (docs/architecture.md, "The fast engine"): for any
workload and configuration, ``engine="burst"`` must produce statistics
*bit-identical* to ``engine="naive"`` — idle and processor-wide stall
fast-forwards (``Processor.park``/``unpark``), precompiled burst
dispatch and bulk stall-window charging are optimisations, never
approximations.  These tests enforce the contract over every Table 5
uniprocessor workload and across schemes, property-check the compile
step (a precompiled schedule must retire instructions in program order
and charge exactly the stall slots, in exactly the categories, the
per-cycle scoreboard loop would) and the idle probe behind ``park``,
pin the deadlock detector the jumping loop needs, and pin the
keyword-only run API.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.config import SystemConfig
from repro.core.context import HardwareContext, NEVER
from repro.core.simulator import (
    WorkstationSimulator, Process, SimulationDeadlock,
)
from repro.isa import AsmBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.segments import (
    MIN_BURST, BurstTable, burstable, schedule_burst,
)
from repro.pipeline.scoreboard import Scoreboard
from repro.workloads.generator import GenSpec, generate_process
from repro.workloads.uniprocessor import WORKLOAD_ORDER

#: PipelineParams.short_stall_threshold default — the short/long split.
THRESHOLD = 4


def comparable(result):
    """Everything in a RunResult except the engine tag and raw object."""
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


def run_workload(workload, scheme, n_contexts, engine,
                 warmup=5_000, measure=20_000):
    simulation = Simulation.from_config(
        SystemConfig.fast(), scheme=scheme, n_contexts=n_contexts,
        seed=1994, engine=engine).load(workload)
    return simulation.run(warmup=warmup, measure=measure)


class TestBitIdentical:
    """Burst == naive, bit for bit, on all seven paper workloads."""

    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_all_workloads_interleaved(self, workload):
        burst = run_workload(workload, "interleaved", 4, "burst")
        naive = run_workload(workload, "interleaved", 4, "naive")
        assert comparable(burst) == comparable(naive)

    @pytest.mark.parametrize("scheme,n_contexts",
                             [("single", 1), ("blocked", 2),
                              ("blocked", 4), ("interleaved", 2)])
    @pytest.mark.parametrize("workload", ("DC", "R1"))
    def test_scheme_matrix(self, workload, scheme, n_contexts):
        burst = run_workload(workload, scheme, n_contexts, "burst")
        naive = run_workload(workload, scheme, n_contexts, "naive")
        assert comparable(burst) == comparable(naive)

    def test_fp_single_context(self):
        """The FP mix, whose long FP latencies open the longest
        hazard-stall windows, on the single-context baseline."""
        burst = run_workload("FP", "single", 1, "burst")
        naive = run_workload("FP", "single", 1, "naive")
        assert comparable(burst) == comparable(naive)

    @pytest.mark.slow
    @pytest.mark.parametrize("scheme,n_contexts",
                             [("single", 1),
                              ("blocked", 1), ("blocked", 2), ("blocked", 4),
                              ("interleaved", 1), ("interleaved", 2),
                              ("interleaved", 4)])
    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_full_experiment_window(self, workload, scheme, n_contexts):
        """The exact window the experiment layer measures, for 1/2/4
        contexts under both schemes (the acceptance matrix)."""
        burst = run_workload(workload, scheme, n_contexts, "burst",
                             warmup=30_000, measure=120_000)
        naive = run_workload(workload, scheme, n_contexts, "naive",
                             warmup=30_000, measure=120_000)
        assert comparable(burst) == comparable(naive)


# -- the compile step ----------------------------------------------------------

_INT_OPS = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT)
_SHIFT_OPS = (Op.SLL, Op.SRL, Op.SRA)
_FP_OPS = (Op.FADD, Op.FSUB, Op.FMUL)


@st.composite
def straight_line_runs(draw):
    """A random burstable run mixing 1-cycle ALU, 2-cycle shifts, and
    5-cycle FP ops over a small register pool (dense dependencies)."""
    n = draw(st.integers(MIN_BURST, 24))
    insts = []
    for _ in range(n):
        family = draw(st.integers(0, 2))
        if family == 2:
            op = draw(st.sampled_from(_FP_OPS))
            regs = st.integers(33, 40)
        else:
            op = draw(st.sampled_from(
                _INT_OPS if family == 0 else _SHIFT_OPS))
            regs = st.integers(1, 8)
        insts.append(Instruction(op, rd=draw(regs), rs1=draw(regs),
                                 rs2=draw(regs)))
    return insts


def replay_per_cycle(insts, scoreboard, threshold, now=0):
    """What the naive single-issue loop does to this run: one slot per
    cycle, either an issue or a hazard stall in the naive category."""
    short = long_ = 0
    for inst in insts:
        while True:
            until, kind = scoreboard.hazard_until(0, inst, now)
            if until <= now:
                break
            assert kind == "data", (
                "burstable runs must only stall on register data "
                "dependencies, got %r" % kind)
            if until - now <= threshold:
                short += 1
            else:
                long_ += 1
            now += 1
        scoreboard.issue(0, inst, now)
        now += 1
    return now, short, long_


class TestSchedulePrecomputation:
    """schedule_burst() == the per-cycle scoreboard loop, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(insts=straight_line_runs(),
           threshold=st.integers(1, 8))
    def test_schedule_matches_per_cycle_replay(self, insts, threshold):
        burst = schedule_burst(insts, 0, threshold)
        sb = Scoreboard(1)
        duration, short, long_ = replay_per_cycle(insts, sb, threshold)

        # Never reorders: the burst retires exactly this run, in order.
        assert burst.instructions == tuple(insts)
        assert burst.n == len(insts)
        # Never double- or under-charges: every cycle of the schedule is
        # exactly one issue slot or one stall slot, and the per-category
        # split matches the naive loop's.
        assert burst.duration == duration
        assert burst.short_stalls == short
        assert burst.long_stalls == long_
        assert burst.short_stalls + burst.long_stalls + burst.n \
            == burst.duration

        # The bulk scoreboard update leaves the exact state the serial
        # issues would have left (ready times and cleared miss flags).
        bulk = Scoreboard(1)
        bulk.apply_burst(0, 0, burst.writes_out)
        assert list(bulk.reg_ready) == list(sb.reg_ready)
        assert bytes(bulk.reg_mem) == bytes(sb.reg_mem)

    @settings(max_examples=100, deadline=None)
    @given(insts=straight_line_runs())
    def test_guard_boundary_is_exact(self, insts):
        """Live-ins ready *exactly at* their guard slack neither delay
        the schedule nor shift any stall between categories — the guard
        admits every dispatch it can possibly admit."""
        burst = schedule_burst(insts, 0, THRESHOLD)
        sb = Scoreboard(1)
        for reg, slack in burst.guard:
            sb.set_ready(0, reg, slack, memory=True)  # worst-case flag
        assert sb.can_dispatch_burst(0, burst, 0)
        duration, short, long_ = replay_per_cycle(insts, sb, THRESHOLD)
        assert duration == burst.duration
        assert short == burst.short_stalls
        assert long_ == burst.long_stalls

        # One cycle later than the slack and the guard must refuse: the
        # precompiled schedule could no longer be trusted.
        for reg, slack in burst.guard:
            late = Scoreboard(1)
            late.set_ready(0, reg, slack + 1)
            assert not late.can_dispatch_burst(0, burst, 0), (reg, slack)

    def test_known_schedule_with_fp_dependency(self):
        # FADD f1 <- f2,f3 ; ADD t0 <- t1,t2 ; FMUL f4 <- f1,f2
        insts = [Instruction(Op.FADD, rd=33, rs1=34, rs2=35),
                 Instruction(Op.ADD, rd=8, rs1=9, rs2=10),
                 Instruction(Op.FMUL, rd=36, rs1=33, rs2=34)]
        burst = schedule_burst(insts, 0, THRESHOLD)
        # issue@0, issue@1, then f1 ready at 5: stall 2,3,4, issue@5.
        assert burst.duration == 6
        assert burst.short_stalls == 3 and burst.long_stalls == 0
        assert dict(burst.writes_out) == {33: 5, 8: 2, 36: 10}

    def test_long_stall_categorisation(self):
        # Back-to-back dependent FP ops with threshold 1: the first
        # stall cycles have gaps > 1 and must land in the long bucket.
        insts = [Instruction(Op.FADD, rd=33, rs1=34, rs2=35),
                 Instruction(Op.FMUL, rd=36, rs1=33, rs2=34)]
        burst = schedule_burst(insts, 0, 1)
        assert burst.duration == 6
        assert burst.long_stalls == 3 and burst.short_stalls == 1


class TestBurstTable:
    """BurstTable: suffix coverage and run maximality."""

    def _program(self):
        from repro.workloads.generator import generate_program
        return generate_program(GenSpec(load_fraction=0.1,
                                        fp_fraction=0.3,
                                        branch_fraction=0.1,
                                        seed=3), code_base=0x1000,
                                data_base=0x400000, verify=False)

    def test_every_entry_is_a_maximal_suffix(self):
        program = self._program()
        insts = program.instructions
        table = BurstTable(program, THRESHOLD)
        assert len(table) == len(insts)
        hits = 0
        for pc, burst in enumerate(table):
            if burst is None:
                continue
            hits += 1
            end = pc + burst.n
            assert burst.start == pc
            assert burst.instructions == tuple(insts[pc:end])
            assert all(burstable(i) for i in burst.instructions)
            # Maximal: the run extends to the next non-burstable op.
            assert end == len(insts) or not burstable(insts[end])
        assert hits > 0, "stream programs must contain bursts"

    def test_every_long_enough_run_has_a_burst(self):
        program = self._program()
        insts = program.instructions
        table = BurstTable(program, THRESHOLD)
        for pc in range(len(insts)):
            j = pc
            while j < len(insts) and burstable(insts[j]):
                j += 1
            if j - pc >= MIN_BURST:
                assert table[pc] is not None, pc
            else:
                assert table[pc] is None, pc

    def test_program_memoises_tables_per_threshold(self):
        program = self._program()
        t4 = program.bursts_for(4)
        assert program.bursts_for(4) is t4
        t2 = program.bursts_for(2)
        assert t2 is not t4


class TestRandomStreams:
    """Full-simulation equivalence over randomised synthetic streams."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1 << 16),
           scheme=st.sampled_from(["blocked", "interleaved", "single"]),
           n_contexts=st.sampled_from([1, 2, 4]),
           load=st.floats(0.0, 0.3),
           fp=st.floats(0.0, 0.4),
           distance=st.integers(1, 8))
    def test_burst_matches_naive(self, seed, scheme, n_contexts, load,
                                 fp, distance):
        if scheme == "single":
            n_contexts = 1
        results = {}
        for engine in ("naive", "burst"):
            spec = GenSpec(load_fraction=load, fp_fraction=fp,
                              dependency_distance=distance,
                              footprint_words=4096, seed=seed)
            procs = [generate_process(spec, index=i, verify=False)
                     for i in range(n_contexts)]
            sim = WorkstationSimulator(procs, scheme=scheme,
                                       n_contexts=n_contexts,
                                       config=SystemConfig.fast(),
                                       restart_halted=False,
                                       engine=engine)
            results[engine] = sim.run(until=6_000)
        assert comparable(results["naive"]) == comparable(results["burst"])


class TestEngineSelection:
    def test_burst_enabled_on_multi_issue(self):
        """Burst schedules are packed per issue width, so a wider
        pipeline keeps the burst engine — and stays bit-identical to
        naive stepping."""
        from dataclasses import replace
        cfg = SystemConfig.fast()
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, issue_width=2))
        sim = Simulation.from_config(cfg, scheme="interleaved",
                                     n_contexts=2, seed=1994,
                                     engine="burst").load("DC")
        assert sim.simulator.processor.burst_enabled is True
        naive_sim = Simulation.from_config(cfg, scheme="interleaved",
                                           n_contexts=2, seed=1994,
                                           engine="naive").load("DC")
        burst = sim.run(warmup=2_000, measure=8_000)
        naive = naive_sim.run(warmup=2_000, measure=8_000)
        assert comparable(burst) == comparable(naive)

    def test_engine_argument_validated(self):
        with pytest.raises(ValueError, match="engine"):
            Simulation.from_config(SystemConfig.fast(),
                                   engine="warp").load("DC")

    def test_burst_is_the_default(self):
        sim = Simulation.from_config(SystemConfig.fast()).load("DC")
        assert sim.engine == "burst"
        assert sim.simulator.processor.burst_enabled is True

    def test_result_carries_engine_tag(self):
        result = run_workload("DC", "single", 1, "burst",
                              warmup=500, measure=2_000)
        assert result.engine == "burst"


class TestIdleProbe:
    """``Processor.idle_until``, the probe behind ``park``, never
    overshoots a wakeup.

    Property: whenever the probe predicts the next issue opportunity
    strictly in the future, stepping the current cycle must not issue or
    retire anything — a prediction that skipped over real work would
    corrupt the fast-forward.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1 << 16),
           scheme=st.sampled_from(["blocked", "interleaved"]),
           n_contexts=st.sampled_from([1, 2, 4]),
           load=st.floats(0.05, 0.35),
           fdiv=st.integers(0, 2),
           distance=st.integers(1, 8))
    def test_never_overshoots(self, seed, scheme, n_contexts, load,
                              fdiv, distance):
        spec = GenSpec(load_fraction=load, fdiv_per_block=fdiv,
                       dependency_distance=distance,
                       footprint_words=4096, seed=seed)
        procs = [generate_process(spec, index=i, verify=False)
                 for i in range(n_contexts)]
        sim = WorkstationSimulator(procs, scheme=scheme,
                                   n_contexts=n_contexts,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine="naive")
        proc = sim.processor
        stats = proc.stats
        for now in range(3_000):
            idle = proc.idle_until(now)
            if idle is None:
                predicted = now
            else:
                # A wake of None: nothing wakes this processor by the clock.
                predicted = NEVER if idle[0] is None else idle[0]
            assert predicted >= now
            if predicted > now:
                retired, issued = stats.retired, stats.issued
                proc.step(now)
                assert stats.retired == retired, (
                    "retired at %d despite wake predicted at %d"
                    % (now, predicted))
                assert stats.issued == issued, (
                    "issued at %d despite wake predicted at %d"
                    % (now, predicted))
            else:
                proc.step(now)


class TestDeadlockSemantics:
    """The one documented behavioural difference between the engines."""

    def _blocked_sim(self, engine):
        lock_addr = 0x7000
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.li("t0", lock_addr)
        b.lock(0, "t0")
        b.halt()
        sim = WorkstationSimulator([Process("p", b.build())],
                                   scheme="single", n_contexts=1,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine=engine)
        # Pre-hold the lock on behalf of a phantom owner, so the one
        # process blocks on something no one will ever release.
        sim.sync.try_acquire(lock_addr, "phantom", HardwareContext(9))
        return sim

    def test_fast_engine_raises(self):
        sim = self._blocked_sim("burst")
        with pytest.raises(SimulationDeadlock):
            sim.run(until=50_000)

    def test_naive_engine_burns_to_the_bound(self):
        # The reference loop has no deadlock detector: it charges SYNC
        # idle slots until the bound.  The fast engine adds detection
        # because jumping would otherwise spin forever at one cycle.
        sim = self._blocked_sim("naive")
        result = sim.run(until=50_000)
        assert sim.now == 50_000
        assert result.retired <= 2


class TestHaltedGroup:
    """A workstation whose resident group has halted still fires the
    scheduler interrupts that load the next group."""

    def _run(self, engine):
        procs = []
        for i in range(3):
            b = AsmBuilder("p%d" % i, code_base=0x1000 + 0x1000 * i,
                           data_base=0x400000)
            for _ in range(20):
                b.addi("t0", "t0", 1)
            b.halt()
            procs.append(Process("p%d" % i, b.build()))
        sim = WorkstationSimulator(procs, scheme="single", n_contexts=1,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine=engine)
        return sim.run(until=40_000)

    def test_burst_loads_every_group_like_naive(self):
        naive = self._run("naive")
        burst = self._run("burst")
        assert naive.per_process == {"p0": 21, "p1": 21, "p2": 21}
        assert burst.per_process == naive.per_process
        assert burst.counts == naive.counts


class TestUnifiedRunAPI:
    """run(until=...) is the one entry point; the bound is keyword-only."""

    def _sim(self, **kwargs):
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.label("top")
        b.addi("t0", "t0", 1)
        b.j("top")
        b.halt()
        return WorkstationSimulator([Process("p", b.build())],
                                    scheme="single", n_contexts=1,
                                    config=SystemConfig.fast(), **kwargs)

    def test_positional_cycles_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000)
        assert sim.now == 0

    def test_until_is_absolute_and_does_not_warn(self):
        import warnings
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run(until=1_500)
        assert sim.now == 1_500

    def test_neither_form_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run()

    def test_run_returns_api_run_result(self):
        from repro.api import RunResult
        sim = self._sim()
        result = sim.run(until=1_000)
        assert isinstance(result, RunResult)
        assert result.kind == "workstation"
        assert result.cycles == 1_000
        assert result.retired > 0

    def test_engine_argument_validated(self):
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="warp")
        # The events loop was folded into the burst engine.
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="events")
