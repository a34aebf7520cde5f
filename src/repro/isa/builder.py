"""Programmatic assembly builder.

The synthetic workload kernels are generated by Python code; building
instruction lists through :class:`AsmBuilder` is less error-prone than
formatting assembler text.  Any real mnemonic is available as a method
(via ``__getattr__``), with operands in assembler order::

    b = AsmBuilder("dot", data_base=0x200000)
    x = b.space("x", 1024)
    y = b.space("y", 1024)
    b.li("t0", x)
    b.li("t1", y)
    b.li("t2", 1024)
    b.label("loop")
    b.lwf("f1", 0, "t0")          # lwf f1, 0(t0)
    b.lwf("f2", 0, "t1")
    b.fmul("f3", "f1", "f2")
    b.fadd("f0", "f0", "f3")
    b.addi("t0", "t0", 4)
    b.addi("t1", "t1", 4)
    b.addi("t2", "t2", -1)
    b.bgtz("t2", "loop")
    b.halt()
    program = b.build()

Branch targets are label strings (or literal instruction indices) and are
patched at :meth:`AsmBuilder.build` time, so forward references are fine.
"""

from repro.isa.opcodes import Op, OP_INFO, MNEMONIC_TO_OP
from repro.isa.registers import reg_num
from repro.isa.instruction import Instruction
from repro.isa.program import Program, DataSegment
from repro.isa.assembler import AssemblerError, _expand_li


def _r(token):
    """Accept a register name or an already-flat register id."""
    if isinstance(token, int):
        return token
    return reg_num(token)


class _Label:
    """Unresolved branch target."""

    def __init__(self, name):
        self.name = name


class AsmBuilder:
    """Incrementally build a :class:`Program`."""

    def __init__(self, name, code_base=0, data_base=0x100000):
        self.name = name
        self.code_base = code_base
        self.instructions = []
        self.labels = {}
        self.data = DataSegment(data_base)
        self._fresh = 0
        #: instruction-index -> comment, from ``note=`` kwargs; carried
        #: into :attr:`Program.annotations` and rendered by
        #: :meth:`Program.to_source`.
        self.notes = {}
        #: name -> value ``.equ`` constants (see :meth:`equ`).
        self.equs = {}

    # -- data segment -------------------------------------------------------

    def space(self, name, n_words):
        """Reserve zero-filled words; returns the absolute address."""
        return self.data.define(name, n_words)

    def word(self, name, values):
        """Reserve initialised words; returns the absolute address."""
        return self.data.define(name, len(values), init=list(values))

    def string(self, name, text):
        """A string literal: one char code per word + NUL terminator.

        Returns the absolute address (a named pointer to the text)."""
        words = [ord(c) for c in text] + [0]
        return self.data.define(name, len(words), init=words,
                                kind="string")

    def ptr(self, name, target):
        """A named pointer variable: one word holding the absolute
        address of ``target`` (an existing data symbol) or a literal
        address.  Returns the pointer's own address."""
        value = (self.data.address_of(target)
                 if isinstance(target, str) else int(target))
        return self.data.define(name, 1, init=[value], kind="word")

    def addr(self, name):
        """Absolute address of a previously defined data symbol."""
        return self.data.address_of(name)

    def equ(self, name, value):
        """Define a named ``.equ`` constant; returns the value.

        The constant is carried into :attr:`Program.equs` and rendered
        as a ``.equ`` directive by :meth:`Program.to_source`, so
        well-known addresses (a shared lock word, say) keep their names
        in emitted source."""
        if name in self.equs:
            raise AssemblerError("duplicate constant %r" % name)
        self.equs[name] = int(value)
        return self.equs[name]

    # -- code emission ------------------------------------------------------

    def label(self, name):
        """Define ``name`` at the current position; returns the index."""
        if name in self.labels:
            raise AssemblerError("duplicate label %r" % name)
        self.labels[name] = len(self.instructions)
        return self.labels[name]

    def fresh_label(self, prefix="L"):
        """A unique label name (not yet placed)."""
        self._fresh += 1
        return "__%s%d" % (prefix, self._fresh)

    def emit(self, inst):
        self.instructions.append(inst)
        return inst

    def note(self, text, index=None):
        """Attach a comment to the instruction at ``index`` (default:
        the next instruction to be emitted)."""
        self.notes[len(self.instructions) if index is None
                   else index] = text

    def li(self, rd, value, note=None):
        """Load a constant (expands to addi or lui+ori)."""
        if note is not None:
            self.note(note)
        for inst in _expand_li(_r(rd), value, None, None):
            self.emit(inst)

    def la(self, rd, symbol, note=None):
        """Load the absolute address of a data symbol."""
        self.li(rd, self.addr(symbol),
                note=note if note is not None
                else "%s = &%s" % (rd, symbol))

    def move(self, rd, rs):
        self.emit(Instruction(Op.OR, rd=_r(rd), rs1=_r(rs), rs2=0))

    def _target(self, t):
        if isinstance(t, int):
            return t
        return _Label(t)

    def __getattr__(self, mnemonic):
        op = MNEMONIC_TO_OP.get(mnemonic)
        if op is None:
            raise AttributeError(mnemonic)
        fmt = OP_INFO[op].fmt

        def emit_rrr(rd, rs1, rs2):
            return self.emit(Instruction(op, rd=_r(rd), rs1=_r(rs1),
                                         rs2=_r(rs2)))

        def emit_rri(rd, rs1, imm):
            return self.emit(Instruction(op, rd=_r(rd), rs1=_r(rs1),
                                         imm=imm))

        def emit_ri(rd, imm):
            return self.emit(Instruction(op, rd=_r(rd), imm=imm))

        def emit_mem(reg, offset, base):
            return self.emit(Instruction(op, rd=_r(reg), rs1=_r(base),
                                         imm=offset))

        def emit_cbr(rs1, rs2, t):
            return self.emit(Instruction(op, rs1=_r(rs1), rs2=_r(rs2),
                                         imm=self._target(t)))

        def emit_cbr1(rs1, t):
            return self.emit(Instruction(op, rs1=_r(rs1),
                                         imm=self._target(t)))

        def emit_j(t):
            return self.emit(Instruction(op, imm=self._target(t)))

        def emit_jr(rs1):
            return self.emit(Instruction(op, rs1=_r(rs1)))

        def emit_jalr(rd, rs1):
            return self.emit(Instruction(op, rd=_r(rd), rs1=_r(rs1)))

        def emit_fr2(rd, rs1):
            return self.emit(Instruction(op, rd=_r(rd), rs1=_r(rs1)))

        def emit_i(imm):
            return self.emit(Instruction(op, imm=imm))

        def emit_mref(offset, base):
            return self.emit(Instruction(op, rs1=_r(base), imm=offset))

        def emit_none():
            return self.emit(Instruction(op))

        return {
            "rrr": emit_rrr, "rri": emit_rri, "ri": emit_ri,
            "ld": emit_mem, "st": emit_mem, "cbr": emit_cbr,
            "cbr1": emit_cbr1, "j": emit_j, "jr": emit_jr,
            "jalr": emit_jalr, "fr2": emit_fr2, "i": emit_i,
            "mref": emit_mref, "none": emit_none,
        }[fmt]

    # -- finalisation -------------------------------------------------------

    def build(self):
        """Resolve labels and return the finished :class:`Program`."""
        for inst in self.instructions:
            if isinstance(inst.imm, _Label):
                name = inst.imm.name
                if name not in self.labels:
                    raise AssemblerError("undefined label %r in %s"
                                         % (name, self.name))
                inst.imm = self.labels[name]
        return Program(self.name, self.instructions, dict(self.labels),
                       self.data, code_base=self.code_base,
                       annotations=self.notes, equs=self.equs)
