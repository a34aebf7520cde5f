"""Scoreboard hazard detection (Table 3 issue-to-issue distances)."""

from repro.isa.opcodes import FU, Op
from repro.isa.instruction import Instruction
from repro.pipeline.scoreboard import Scoreboard


def I(op, **kw):
    return Instruction(op, **kw)


class TestRegisterHazards:
    def test_alu_back_to_back_no_stall(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.ADD, rd=8, rs1=9, rs2=10), 0)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8, rs2=9), 1)
        assert until == 1 and kind is None

    def test_load_two_delay_slots(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.LW, rd=8, rs1=9), 0)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8, rs2=9), 1)
        assert until == 3 and kind == "data"

    def test_fp_add_five_cycle_distance(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FADD, rd=33, rs1=34, rs2=35), 0)
        until, _ = sb.hazard_until(0, I(Op.FMUL, rd=36, rs1=33, rs2=34), 1)
        assert until == 5

    def test_fdiv_sixty_one_cycles(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, _ = sb.hazard_until(0, I(Op.FADD, rd=36, rs1=33, rs2=34), 1)
        assert until == 61

    def test_independent_instruction_unblocked(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=8, rs1=9, rs2=10), 1)
        assert until == 1 and kind is None

    def test_output_dependency_orders_writes(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)   # ready at 61
        # A 5-cycle op writing f1 must not complete before the divide.
        until, kind = sb.hazard_until(0, I(Op.FADD, rd=33, rs1=34,
                                           rs2=35), 1)
        assert until == 61 - 5
        assert kind == "data"

    def test_r0_not_tracked(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.LW, rd=0, rs1=9), 0)   # writes discarded
        until, _ = sb.hazard_until(0, I(Op.ADD, rd=8, rs1=0, rs2=0), 1)
        assert until == 1


class TestStructuralHazards:
    def test_fdiv_unit_not_pipelined(self):
        sb = Scoreboard(2)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        # A *different context's* divide stalls on the shared unit.
        until, kind = sb.hazard_until(1, I(Op.FDIV, rd=33, rs1=34,
                                           rs2=35), 1)
        assert until == 61 and kind == "structural"

    def test_muldiv_unit_shared(self):
        sb = Scoreboard(2)
        sb.issue(0, I(Op.DIV, rd=8, rs1=9, rs2=10), 0)
        until, kind = sb.hazard_until(1, I(Op.MUL, rd=8, rs1=9, rs2=10), 1)
        assert until == 35 and kind == "structural"

    def test_fpadd_pipelined(self):
        sb = Scoreboard(2)
        sb.issue(0, I(Op.FADD, rd=33, rs1=34, rs2=35), 0)
        until, _ = sb.hazard_until(1, I(Op.FADD, rd=33, rs1=34, rs2=35), 1)
        assert until == 1


class TestContextIsolation:
    def test_contexts_have_independent_registers(self):
        sb = Scoreboard(2)
        sb.issue(0, I(Op.LW, rd=8, rs1=9), 0)
        until, _ = sb.hazard_until(1, I(Op.ADD, rd=11, rs1=8, rs2=9), 1)
        assert until == 1   # context 1's t0 is not context 0's t0

    def test_memory_flag_reported(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.LW, rd=8, rs1=9), 0)
        sb.set_ready(0, 8, 40, memory=True)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8,
                                           rs2=9), 1)
        assert until == 40 and kind == "memory"

    def test_clear_context(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        sb.clear_context(0)
        until, _ = sb.hazard_until(0, I(Op.FADD, rd=36, rs1=33,
                                        rs2=34), 1)
        assert until == 1

    def test_clear_context_is_isolated(self):
        sb = Scoreboard(2)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        sb.issue(1, I(Op.FDIV, rd=36, rs1=37, rs2=38), 70)
        sb.set_ready(0, 8, 40, memory=True)
        sb.clear_context(0)
        # Context 0 forgets its ready times and miss flags ...
        assert sb.reg_ready[:64] == [0] * 64
        assert sb.reg_mem[:64] == bytes(64)
        # ... context 1's pending divide keeps its ready time ...
        assert sb.reg_ready[(1 << 6) + 36] == 70 + 61
        # ... and the shared unit stays busy with that divide.
        assert sb.fu_busy[FU.FPDIV] == 70 + 61
        until, kind = sb.hazard_until(0, I(Op.FDIV, rd=40, rs1=41,
                                           rs2=42), 80)
        assert until == 70 + 61 and kind == "structural"

    def test_normal_write_clears_memory_flag(self):
        sb = Scoreboard(1)
        sb.set_ready(0, 8, 100, memory=True)
        sb.issue(0, I(Op.ADDI, rd=8, rs1=9), 200)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8,
                                           rs2=9), 201)
        assert kind is None


class TestWAWTail:
    """Output dependencies whose adjusted bound lands beyond ``now``."""

    def test_waw_bound_strictly_in_the_future(self):
        # FDIV's write to f1 completes at 61; a 5-cycle FADD writing f1
        # attempted at 10 has ready[w] - latency == 56 > now and must
        # wait there, not at the raw ready time.
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FADD, rd=33, rs1=40,
                                           rs2=41), 10)
        assert until == 56 and kind == "data"

    def test_waw_bound_exactly_now_is_free(self):
        # At now == 56 the in-order write completes at 61 == the divide's
        # completion: legal, no hazard reported.
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FADD, rd=33, rs1=40,
                                           rs2=41), 56)
        assert until == 56 and kind is None

    def test_waw_on_memory_pending_register_attributes_memory(self):
        # The stalled writer waits on an outstanding miss's write-back
        # ordering: the slot belongs to the data-cache category.
        sb = Scoreboard(1)
        sb.set_ready(0, 8, 50, memory=True)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=8, rs1=9,
                                           rs2=10), 10)
        assert until == 49 and kind == "memory"


class TestBackToBackDivides:
    """The non-pipelined FP divider serialises its users."""

    def test_same_context_independent_registers(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FDIV, rd=36, rs1=37,
                                           rs2=38), 1)
        assert until == 61 and kind == "structural"

    def test_unit_frees_exactly_at_busy_until(self):
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FDIV, rd=36, rs1=37,
                                           rs2=38), 61)
        assert until == 61 and kind is None

    def test_structural_outranks_waw_on_same_register(self):
        # Same destination: the WAW bound (61 - 61 == 0) is long past,
        # the shared unit is the real limiter and names the category.
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIV, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FDIV, rd=33, rs1=37,
                                           rs2=38), 1)
        assert until == 61 and kind == "structural"

    def test_short_divide_then_long_divide(self):
        # FDIVS holds the unit 31 cycles; a following FDIV waits for the
        # unit, then its own consumer waits the full 61 from its issue.
        sb = Scoreboard(1)
        sb.issue(0, I(Op.FDIVS, rd=33, rs1=34, rs2=35), 0)
        until, kind = sb.hazard_until(0, I(Op.FDIV, rd=36, rs1=37,
                                           rs2=38), 1)
        assert until == 31 and kind == "structural"
        sb.issue(0, I(Op.FDIV, rd=36, rs1=37, rs2=38), 31)
        until, kind = sb.hazard_until(0, I(Op.FADD, rd=40, rs1=36,
                                           rs2=37), 32)
        assert until == 31 + 61 and kind == "data"


class TestStallAttribution:
    """The *limiting* register decides memory-vs-data attribution."""

    def test_data_limiter_wins_over_earlier_memory_pending(self):
        sb = Scoreboard(1)
        sb.set_ready(0, 8, 20, memory=True)   # miss returns at 20
        sb.set_ready(0, 9, 30, memory=False)  # pipeline result at 30
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8,
                                           rs2=9), 1)
        assert until == 30 and kind == "data"

    def test_memory_limiter_wins_over_earlier_data_pending(self):
        sb = Scoreboard(1)
        sb.set_ready(0, 8, 30, memory=True)
        sb.set_ready(0, 9, 20, memory=False)
        until, kind = sb.hazard_until(0, I(Op.ADD, rd=11, rs1=8,
                                           rs2=9), 1)
        assert until == 30 and kind == "memory"


class TestBurstBulkOps:
    """apply_burst / can_dispatch_burst: the burst engine's fast path."""

    def test_apply_burst_matches_serial_issues(self):
        insts = [I(Op.ADD, rd=8, rs1=9, rs2=10),
                 I(Op.FADD, rd=33, rs1=34, rs2=35),
                 I(Op.SLL, rd=9, rs1=8)]
        serial = Scoreboard(2)
        now = 100
        for inst in insts:
            serial.issue(1, inst, now)
            now += 1
        bulk = Scoreboard(2)
        bulk.reg_mem[(1 << 6) + 8] = 1   # stale miss flag must clear
        bulk.apply_burst(1, 100, ((8, 1), (9, 4), (33, 6)))
        assert list(bulk.reg_ready) == list(serial.reg_ready)
        assert bytes(bulk.reg_mem) == bytes(serial.reg_mem)

    def test_can_dispatch_burst_boundary(self):
        from repro.isa.segments import schedule_burst
        insts = [I(Op.ADD, rd=8, rs1=9, rs2=10),
                 I(Op.ADD, rd=11, rs1=8, rs2=9)]
        burst = schedule_burst(insts, 0, 4)
        sb = Scoreboard(1)
        for reg, slack in burst.guard:
            sb.set_ready(0, reg, 200 + slack)
        assert sb.can_dispatch_burst(0, burst, 200)
        assert not sb.can_dispatch_burst(0, burst, 199)

    def test_other_contexts_untouched(self):
        sb = Scoreboard(2)
        sb.apply_burst(0, 50, ((8, 3), (33, 7)))
        assert all(t == 0 for t in sb.reg_ready[64:])
        assert sb.reg_ready[8] == 53 and sb.reg_ready[33] == 57
