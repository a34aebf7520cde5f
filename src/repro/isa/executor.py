"""Functional execution of the ISA.

The executor implements architectural semantics only; all timing lives in
``repro.pipeline`` and ``repro.core``.  Multithreading magic operations
(SWITCH, BACKOFF, LOCK, UNLOCK, BARRIER) are functional no-ops here — the
timing layer interprets them — except that their program-counter behaviour
(fall through) is defined here so a program can also be run purely
functionally for testing.
"""

from repro.isa.opcodes import Op


class ExecutionError(Exception):
    """Raised for architecturally undefined behaviour (e.g. divide by 0)."""


_MASK = 0xFFFFFFFF


def _w(x):
    """Wrap a Python int to signed 32-bit."""
    x &= _MASK
    return x - 0x100000000 if x & 0x80000000 else x


class Memory:
    """Word-granularity functional memory.

    Backed by a dict keyed on word index so that sparse, multi-process
    address spaces cost nothing.  Uninitialised words read as integer 0.
    """

    __slots__ = ("words",)

    def __init__(self):
        self.words = {}

    def read(self, addr):
        if addr & 3:
            raise ExecutionError("unaligned read at 0x%x" % addr)
        return self.words.get(addr >> 2, 0)

    def write(self, addr, value):
        if addr & 3:
            raise ExecutionError("unaligned write at 0x%x" % addr)
        self.words[addr >> 2] = value

    def store_words(self, base, values):
        """Bulk-install ``values`` starting at byte address ``base``."""
        if base & 3:
            raise ExecutionError("unaligned segment base 0x%x" % base)
        start = base >> 2
        words = self.words
        for i, v in enumerate(values):
            words[start + i] = v

    def read_words(self, base, count):
        """Bulk-read ``count`` words starting at byte address ``base``."""
        start = base >> 2
        words = self.words
        return [words.get(start + i, 0) for i in range(count)]


class ArchState:
    """Architectural state of one hardware context."""

    __slots__ = ("regs", "pc", "halted")

    def __init__(self, entry=0):
        # Flat register file: [0..31] integer, [32..63] floating point.
        self.regs = [0] * 32 + [0.0] * 32
        self.pc = entry
        self.halted = False


def _div(a, b):
    if b == 0:
        raise ExecutionError("integer divide by zero")
    # MIPS divides truncate toward zero.
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a, b):
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return a - b * _div(a, b)


def _fdiv(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")


#: Opcode -> handler, filled by :func:`_handles` at import.  A handler is
#: ``fn(regs, inst, mem, state)``: it updates registers (and ``mem`` for
#: stores) and returns the branch or jump target (an instruction index),
#: or None to fall through.  :func:`execute` makes one lookup here: an
#: if/elif chain of ``op is Op.X`` tests would pay an enum attribute
#: load per test, about ten times a global load on CPython 3.11.
_HANDLERS = {}


def _handles(*ops):
    """Register the decorated function as the handler of ``ops``."""
    def register(fn):
        for op in ops:
            _HANDLERS[op] = fn
        return fn
    return register


@_handles(Op.ADD)
def _add(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] + regs[inst.rs2])


@_handles(Op.ADDI)
def _addi(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] + inst.imm)


@_handles(Op.SUB)
def _sub(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] - regs[inst.rs2])


@_handles(Op.AND)
def _and(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] & regs[inst.rs2])


@_handles(Op.ANDI)
def _andi(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] & inst.imm)


@_handles(Op.OR)
def _or(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] | regs[inst.rs2])


@_handles(Op.ORI)
def _ori(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] | inst.imm)


@_handles(Op.XOR)
def _xor(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] ^ regs[inst.rs2])


@_handles(Op.XORI)
def _xori(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] ^ inst.imm)


@_handles(Op.NOR)
def _nor(regs, inst, mem, state):
    regs[inst.rd] = _w(~(regs[inst.rs1] | regs[inst.rs2]))


@_handles(Op.SLT)
def _slt(regs, inst, mem, state):
    regs[inst.rd] = 1 if regs[inst.rs1] < regs[inst.rs2] else 0


@_handles(Op.SLTI)
def _slti(regs, inst, mem, state):
    regs[inst.rd] = 1 if regs[inst.rs1] < inst.imm else 0


@_handles(Op.SLTU)
def _sltu(regs, inst, mem, state):
    regs[inst.rd] = (1 if (regs[inst.rs1] & _MASK) < (regs[inst.rs2] & _MASK)
                     else 0)


@_handles(Op.LUI)
def _lui(regs, inst, mem, state):
    # This ISA's LUI shifts by 14 so that a LUI/ORI pair covers the
    # machine's 28-bit physical address space within 14-bit immediates.
    regs[inst.rd] = _w(inst.imm << 14)


@_handles(Op.SLL)
def _sll(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] << (inst.imm & 31))


@_handles(Op.SRL)
def _srl(regs, inst, mem, state):
    regs[inst.rd] = _w((regs[inst.rs1] & _MASK) >> (inst.imm & 31))


@_handles(Op.SRA)
def _sra(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] >> (inst.imm & 31))


@_handles(Op.SLLV)
def _sllv(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] << (regs[inst.rs2] & 31))


@_handles(Op.SRLV)
def _srlv(regs, inst, mem, state):
    regs[inst.rd] = _w((regs[inst.rs1] & _MASK) >> (regs[inst.rs2] & 31))


@_handles(Op.SRAV)
def _srav(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] >> (regs[inst.rs2] & 31))


@_handles(Op.MUL)
def _mul(regs, inst, mem, state):
    regs[inst.rd] = _w(regs[inst.rs1] * regs[inst.rs2])


@_handles(Op.DIV)
def _divide(regs, inst, mem, state):
    regs[inst.rd] = _w(_div(regs[inst.rs1], regs[inst.rs2]))


@_handles(Op.REM)
def _remainder(regs, inst, mem, state):
    regs[inst.rd] = _w(_rem(regs[inst.rs1], regs[inst.rs2]))


@_handles(Op.LW)
def _lw(regs, inst, mem, state):
    regs[inst.rd] = mem.read(regs[inst.rs1] + inst.imm)


@_handles(Op.LWF)
def _lwf(regs, inst, mem, state):
    regs[inst.rd] = float(mem.read(regs[inst.rs1] + inst.imm))


@_handles(Op.SW, Op.SWF)
def _store(regs, inst, mem, state):
    mem.write(regs[inst.rs1] + inst.imm, regs[inst.rd])


@_handles(Op.BEQ)
def _beq(regs, inst, mem, state):
    if regs[inst.rs1] == regs[inst.rs2]:
        return inst.imm


@_handles(Op.BNE)
def _bne(regs, inst, mem, state):
    if regs[inst.rs1] != regs[inst.rs2]:
        return inst.imm


@_handles(Op.BLT)
def _blt(regs, inst, mem, state):
    if regs[inst.rs1] < regs[inst.rs2]:
        return inst.imm


@_handles(Op.BGE)
def _bge(regs, inst, mem, state):
    if regs[inst.rs1] >= regs[inst.rs2]:
        return inst.imm


@_handles(Op.BLEZ)
def _blez(regs, inst, mem, state):
    if regs[inst.rs1] <= 0:
        return inst.imm


@_handles(Op.BGTZ)
def _bgtz(regs, inst, mem, state):
    if regs[inst.rs1] > 0:
        return inst.imm


@_handles(Op.J)
def _j(regs, inst, mem, state):
    return inst.imm


@_handles(Op.JAL)
def _jal(regs, inst, mem, state):
    regs[31] = state.pc + 1
    return inst.imm


@_handles(Op.JR)
def _jr(regs, inst, mem, state):
    return regs[inst.rs1]


@_handles(Op.JALR)
def _jalr(regs, inst, mem, state):
    # The link is written before the target is read, so rd == rs1
    # jumps to pc + 1.
    regs[inst.rd] = state.pc + 1
    return regs[inst.rs1]


@_handles(Op.FADD)
def _fadd(regs, inst, mem, state):
    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]


@_handles(Op.FSUB)
def _fsub(regs, inst, mem, state):
    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]


@_handles(Op.FMUL)
def _fmul(regs, inst, mem, state):
    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]


@_handles(Op.FDIV, Op.FDIVS)
def _fdivide(regs, inst, mem, state):
    regs[inst.rd] = _fdiv(regs[inst.rs1], regs[inst.rs2])


@_handles(Op.FNEG)
def _fneg(regs, inst, mem, state):
    regs[inst.rd] = -regs[inst.rs1]


@_handles(Op.FABS)
def _fabs(regs, inst, mem, state):
    regs[inst.rd] = abs(regs[inst.rs1])


@_handles(Op.FMOV)
def _fmov(regs, inst, mem, state):
    regs[inst.rd] = regs[inst.rs1]


@_handles(Op.FCVTIF)
def _fcvtif(regs, inst, mem, state):
    regs[inst.rd] = float(regs[inst.rs1])


@_handles(Op.FCVTFI)
def _fcvtfi(regs, inst, mem, state):
    regs[inst.rd] = _w(int(regs[inst.rs1]))


@_handles(Op.FLT)
def _flt(regs, inst, mem, state):
    regs[inst.rd] = 1 if regs[inst.rs1] < regs[inst.rs2] else 0


@_handles(Op.FLE)
def _fle(regs, inst, mem, state):
    regs[inst.rd] = 1 if regs[inst.rs1] <= regs[inst.rs2] else 0


@_handles(Op.FEQ)
def _feq(regs, inst, mem, state):
    regs[inst.rd] = 1 if regs[inst.rs1] == regs[inst.rs2] else 0


@_handles(Op.HALT)
def _halt(regs, inst, mem, state):
    state.halted = True
    return state.pc  # the pc stays on the HALT


@_handles(Op.NOP, Op.SWITCH, Op.BACKOFF, Op.LOCK, Op.UNLOCK, Op.BARRIER,
          Op.PREF)
def _fall_through(regs, inst, mem, state):
    """Timing semantics only; functionally fall through."""


# Every opcode must have a handler; catch omissions at import time.
assert set(_HANDLERS) == set(Op), "executor handlers out of sync with Op"


def execute(state, inst, mem):
    """Execute one instruction; updates ``state`` (and ``mem`` for stores).

    Returns nothing; ``state.pc`` is advanced (branches included) and
    ``state.halted`` is set by HALT.
    """
    regs = state.regs
    taken = _HANDLERS[inst.op](regs, inst, mem, state)
    regs[0] = 0  # r0 is hardwired to zero
    state.pc = state.pc + 1 if taken is None else taken


def run_functional(program, memory=None, max_steps=1_000_000, state=None,
                   trace_access=None):
    """Run a program to HALT with no timing model; returns (state, memory).

    This is the reference interpreter the timing simulator is validated
    against: both must compute identical architectural results.

    ``trace_access`` (opt-in, None is free) is called as
    ``fn(step, pc, addr, is_write)`` before every load/store executes —
    the functional-interpreter end of the shared-access log the race
    analysis validates against (the cycle-accurate end is
    ``Processor.access_log``).
    """
    if memory is None:
        memory = Memory()
        program.load(memory)
    if state is None:
        state = ArchState(entry=program.entry)
    instructions = program.instructions
    steps = 0
    while not state.halted:
        if steps >= max_steps:
            raise ExecutionError(
                "program %r did not halt within %d steps"
                % (program.name, max_steps))
        if not 0 <= state.pc < len(instructions):
            raise ExecutionError(
                "pc %d outside program %r" % (state.pc, program.name))
        inst = instructions[state.pc]
        if trace_access is not None and inst.is_mem:
            trace_access(steps, state.pc,
                         state.regs[inst.rs1] + inst.imm,
                         inst.info.is_store)
        execute(state, inst, memory)
        steps += 1
    return state, memory
