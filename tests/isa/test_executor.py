"""Functional semantics of every instruction class."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import assemble
from repro.isa.executor import (
    ArchState, Memory, execute, run_functional, ExecutionError, _w,
)
from repro.isa.opcodes import Op
from repro.isa.instruction import Instruction


def run_src(src, data_base=0x100000):
    return run_functional(assemble(src, data_base=data_base))


def exec_one(op, regs_in=None, fregs_in=None, **fields):
    state = ArchState()
    mem = Memory()
    for i, v in (regs_in or {}).items():
        state.regs[i] = v
    for i, v in (fregs_in or {}).items():
        state.regs[32 + i] = v
    execute(state, Instruction(op, **fields), mem)
    return state, mem


class TestIntegerArithmetic:
    def test_add_wraps_32bit(self):
        state, _ = exec_one(Op.ADD, {9: 0x7FFFFFFF, 10: 1},
                            rd=8, rs1=9, rs2=10)
        assert state.regs[8] == -0x80000000

    def test_sub(self):
        state, _ = exec_one(Op.SUB, {9: 3, 10: 10}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == -7

    def test_logic_ops(self):
        state, _ = exec_one(Op.XOR, {9: 0b1100, 10: 0b1010},
                            rd=8, rs1=9, rs2=10)
        assert state.regs[8] == 0b0110
        state, _ = exec_one(Op.NOR, {9: 0, 10: 0}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == -1

    def test_slt_signed_vs_unsigned(self):
        state, _ = exec_one(Op.SLT, {9: -1, 10: 1}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == 1
        state, _ = exec_one(Op.SLTU, {9: -1, 10: 1}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == 0   # 0xFFFFFFFF > 1 unsigned

    def test_lui_shift14(self):
        state, _ = exec_one(Op.LUI, rd=8, imm=3)
        assert state.regs[8] == 3 << 14

    def test_shifts(self):
        state, _ = exec_one(Op.SLL, {9: 1}, rd=8, rs1=9, imm=4)
        assert state.regs[8] == 16
        state, _ = exec_one(Op.SRA, {9: -16}, rd=8, rs1=9, imm=2)
        assert state.regs[8] == -4
        state, _ = exec_one(Op.SRL, {9: -16}, rd=8, rs1=9, imm=2)
        assert state.regs[8] == (0xFFFFFFF0 >> 2)

    def test_variable_shifts_mask_to_5_bits(self):
        state, _ = exec_one(Op.SLLV, {9: 1, 10: 33}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == 2

    def test_mul_wraps(self):
        state, _ = exec_one(Op.MUL, {9: 0x10000, 10: 0x10000},
                            rd=8, rs1=9, rs2=10)
        assert state.regs[8] == 0

    def test_div_truncates_toward_zero(self):
        state, _ = exec_one(Op.DIV, {9: -7, 10: 2}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == -3
        state, _ = exec_one(Op.REM, {9: -7, 10: 2}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == -1

    def test_div_by_zero_raises(self):
        for op in (Op.DIV, Op.REM):
            with pytest.raises(ExecutionError):
                exec_one(op, {9: 1, 10: 0}, rd=8, rs1=9, rs2=10)

    def test_r0_stays_zero(self):
        """Every opcode that writes a register discards a write to r0."""
        writers = [op for op in Op if Instruction(op, rd=8).writes == 8]
        assert Op.ADDI in writers and Op.JALR in writers
        for op in writers:
            state = ArchState()
            mem = Memory()
            state.regs[1:32] = [0x104] * 31
            state.regs[32:] = [2.5] * 32
            mem.write(0x108, 77)
            src = 33 if Instruction(op).info.reads_fp else 9
            execute(state, Instruction(op, rd=0, rs1=src, rs2=src + 1,
                                       imm=4), mem)
            assert state.regs[0] == 0, op.name


class TestFloatingPoint:
    def test_fp_ops(self):
        state, _ = exec_one(Op.FADD, fregs_in={2: 1.5, 3: 2.25},
                            rd=33, rs1=34, rs2=35)
        assert state.regs[33] == 3.75

    def test_fdiv_by_zero_gives_inf(self):
        state, _ = exec_one(Op.FDIV, fregs_in={2: 1.0, 3: 0.0},
                            rd=33, rs1=34, rs2=35)
        assert state.regs[33] == float("inf")

    def test_converts(self):
        state, _ = exec_one(Op.FCVTIF, {9: -5}, rd=33, rs1=9)
        assert state.regs[33] == -5.0
        state, _ = exec_one(Op.FCVTFI, fregs_in={2: 3.9}, rd=8, rs1=34)
        assert state.regs[8] == 3

    def test_fp_compares_write_int(self):
        state, _ = exec_one(Op.FLT, fregs_in={2: 1.0, 3: 2.0},
                            rd=8, rs1=34, rs2=35)
        assert state.regs[8] == 1
        state, _ = exec_one(Op.FEQ, fregs_in={2: 1.0, 3: 2.0},
                            rd=8, rs1=34, rs2=35)
        assert state.regs[8] == 0

    def test_fneg_fabs_fmov(self):
        state, _ = exec_one(Op.FNEG, fregs_in={2: 3.0}, rd=33, rs1=34)
        assert state.regs[33] == -3.0
        state, _ = exec_one(Op.FABS, fregs_in={2: -3.0}, rd=33, rs1=34)
        assert state.regs[33] == 3.0


class TestMemoryOps:
    def test_store_load_round_trip(self):
        state, mem = run_src("""
            .data
        buf: .space 2
            .text
            la  t0, buf
            li  t1, 1234
            sw  t1, 4(t0)
            lw  t2, 4(t0)
            halt
        """)
        assert state.regs[10] == 1234

    def test_unaligned_access_raises(self):
        mem = Memory()
        with pytest.raises(ExecutionError):
            mem.read(3)
        with pytest.raises(ExecutionError):
            mem.write(5, 1)
        for op in (Op.LW, Op.SW):
            with pytest.raises(ExecutionError):
                exec_one(op, {9: 0x100}, rd=8, rs1=9, imm=2)

    def test_uninitialised_reads_zero(self):
        assert Memory().read(0x1000) == 0

    def test_bulk_words(self):
        mem = Memory()
        mem.store_words(0x100, [1, 2, 3])
        assert mem.read_words(0x100, 4) == [1, 2, 3, 0]


class TestControlFlow:
    def test_branch_taken_and_not_taken(self):
        state, _ = run_src("""
            li t0, 1
            beq t0, zero, skip
            li t1, 42
        skip: halt
        """)
        assert state.regs[9] == 42

    def test_jal_jr_ret(self):
        state, _ = run_src("""
            jal func
            li t1, 2
            halt
        func: li t0, 1
            jr ra
        """)
        assert state.regs[8] == 1
        assert state.regs[9] == 2

    def test_jalr_links(self):
        state, _ = run_src("""
            li   t0, 3
            jalr t1, t0
            halt
        f:  halt
        """)
        # link register holds the index of the instruction after jalr
        assert state.regs[9] == 2

    def test_jalr_links_before_reading_its_target(self):
        # With rd == rs1 the link overwrites the target: jump to pc + 1.
        state = ArchState(entry=5)
        state.regs[9] = 40
        execute(state, Instruction(Op.JALR, rd=9, rs1=9), Memory())
        assert state.regs[9] == 6
        assert state.pc == 6

    def test_halt_leaves_pc_unchanged(self):
        state = ArchState(entry=7)
        execute(state, Instruction(Op.HALT), Memory())
        assert state.halted
        assert state.pc == 7

    def test_loop_executes_n_times(self):
        state, _ = run_src("""
            li t0, 10
            li t1, 0
        top: addi t1, t1, 3
            addi t0, t0, -1
            bgtz t0, top
            halt
        """)
        assert state.regs[9] == 30

    def test_runaway_program_detected(self):
        prog = assemble("top: j top")
        with pytest.raises(ExecutionError):
            run_functional(prog, max_steps=100)

    def test_pc_out_of_range_detected(self):
        prog = assemble("nop")   # falls off the end (no halt)
        with pytest.raises(ExecutionError):
            run_functional(prog)


class TestWrapHelper:
    @given(st.integers(min_value=-2**40, max_value=2**40))
    def test_w_is_signed_32bit(self, x):
        w = _w(x)
        assert -2**31 <= w < 2**31
        assert (w - x) % 2**32 == 0

    @given(st.integers(min_value=-2**31, max_value=2**31 - 1),
           st.integers(min_value=-2**31, max_value=2**31 - 1))
    def test_add_matches_reference(self, a, b):
        state, _ = exec_one(Op.ADD, {9: a, 10: b}, rd=8, rs1=9, rs2=10)
        assert state.regs[8] == _w(a + b)
