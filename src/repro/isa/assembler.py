"""Two-pass text assembler.

Syntax example::

        .data
    arr:    .space 64           # 64 words, zero filled
    tbl:    .word 1, 2, -3
        .text
    main:   la   t0, arr
            li   t1, 10
    loop:   lw   t2, 0(t0)
            add  t3, t3, t2
            addi t0, t0, 4
            addi t1, t1, -1
            bgtz t1, loop
            halt

Comments start with ``#`` or ``;``.  Supported pseudo-instructions:

``li rd, imm``
    expands to ``addi`` (small constants) or ``lui``+``ori``.
``la rd, symbol``
    loads the absolute address of a data symbol or text label.
``move rd, rs`` / ``not rd, rs`` / ``neg rd, rs`` / ``b target``
    the usual one-instruction idioms.
``bgt``/``ble``
    operand-swapped ``blt``/``bge``.

Data-section ergonomics (all round-trip through
:meth:`~repro.isa.program.Program.to_source`):

``.equ NAME, value``
    a named constant, usable wherever an integer is expected —
    immediates, memory-operand offsets, ``li``/``la``, repeat counts.
``.string "text"`` (alias ``.asciiz``)
    one character code per word (the memory model is word-granular)
    plus a NUL terminator; ``\\n \\t \\0 \\\\ \\"`` escapes apply.
``.word`` values
    may be plain integers, ``.equ`` constants, the names of previously
    defined data symbols (named pointer variables — the word holds the
    symbol's absolute address), or ``value : count`` repeats.
label-less ``.word``/``.space``/``.string``
    continuation lines extend the most recently defined symbol, so
    large initialisers can be written (and are emitted) in readable
    chunks.

Because programs are position-dependent (see :mod:`repro.isa.program`),
``assemble`` takes the code and data base addresses up front and resolves
``la`` immediately.
"""

import re

from repro.isa.opcodes import Op, OP_INFO, MNEMONIC_TO_OP
from repro.isa.registers import reg_num
from repro.isa.instruction import Instruction
from repro.isa.program import Program, DataSegment


class AssemblerError(Exception):
    """Syntax or semantic error in assembler input."""

    def __init__(self, message, line_no=None, line=None):
        if line_no is not None:
            message = "line %d: %s [%s]" % (line_no, message, line)
        super().__init__(message)


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_RE = re.compile(r"^(-?\w+)\((\$?\w+)\)$")

#: Constants too wide for one addi; widest value reachable by lui+ori.
_LI_MAX = (1 << 28) - 1
_IMM_MIN, _IMM_MAX = -8192, 8191


def _parse_int(token, line_no, line, consts=None):
    if consts and token in consts:
        return consts[token]
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError("bad integer %r" % token, line_no, line)


def _strip_comment(raw):
    """Drop ``#``/``;`` comments, ignoring comment chars inside strings."""
    in_string = False
    escaped = False
    for pos, ch in enumerate(raw):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "#;":
            return raw[:pos]
    return raw


_STRING_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"'}


def _parse_string(rest, line_no, raw):
    """The word image of a ``.string`` literal: one char per word + NUL."""
    rest = rest.strip()
    if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
        raise AssemblerError("bad string literal %r" % rest, line_no, raw)
    out = []
    chars = iter(rest[1:-1])
    for ch in chars:
        if ch == "\\":
            try:
                esc = next(chars)
            except StopIteration:
                raise AssemblerError("dangling escape in string",
                                     line_no, raw)
            if esc not in _STRING_ESCAPES:
                raise AssemblerError("unknown escape %r" % ("\\" + esc),
                                     line_no, raw)
            ch = _STRING_ESCAPES[esc]
        out.append(ord(ch))
    out.append(0)
    return out


def _reg(token, line_no, line):
    try:
        return reg_num(token)
    except KeyError:
        raise AssemblerError("bad register %r" % token, line_no, line)


def _split_operands(rest):
    return [t.strip() for t in rest.split(",")] if rest else []


class _PendingBranch:
    """Placeholder immediate naming a not-yet-resolved label."""

    def __init__(self, label):
        self.label = label


def _expand_li(rd, value, line_no, line):
    """Expansion of ``li``; returns a list of Instructions."""
    if _IMM_MIN <= value <= _IMM_MAX:
        return [Instruction(Op.ADDI, rd=rd, rs1=0, imm=value)]
    if 0 <= value <= _LI_MAX:
        hi, lo = value >> 14, value & 0x3FFF
        out = [Instruction(Op.LUI, rd=rd, imm=hi)]
        if lo:
            out.append(Instruction(Op.ORI, rd=rd, rs1=rd, imm=lo))
        return out
    raise AssemblerError("constant %d out of li range" % value,
                         line_no, line)


def assemble(source, name="program", code_base=0, data_base=0x100000):
    """Assemble ``source`` text into a :class:`Program`."""
    data = DataSegment(data_base)
    text_records = []   # (label_or_None, mnemonic, operand list, line info)
    section = ".text"
    pending_data_label = None
    consts = {}         # .equ constants
    last_data_symbol = None   # continuation target for label-less data

    def data_value(token, line_no, raw):
        """One ``.word`` entry: int, const, or data-symbol address."""
        if token in data.symbols:
            return data.address_of(token)
        return _parse_int(token, line_no, raw, consts)

    def word_values(rest, line_no, raw):
        """Parse a ``.word`` operand list, expanding ``v : n`` repeats."""
        values = []
        for tok in rest.split(","):
            tok = tok.strip()
            if ":" in tok:
                value, count = (t.strip() for t in tok.split(":", 1))
                n = _parse_int(count, line_no, raw, consts)
                if n < 1:
                    raise AssemblerError("bad repeat count %r" % tok,
                                         line_no, raw)
                values.extend([data_value(value, line_no, raw)] * n)
            else:
                values.append(data_value(tok, line_no, raw))
        return values

    def define_or_extend(label, line_no, raw, n_words, init=None,
                         kind=None):
        nonlocal last_data_symbol
        if label is None and last_data_symbol is not None:
            data.extend(n_words, init=init)    # continuation line
        else:
            name = label or "__anon%d" % line_no
            data.define(name, n_words, init=init, kind=kind)
            last_data_symbol = name

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _LABEL_RE.match(line)
        label = None
        if m:
            label = m.group(1)
            line = line[m.end():].strip()
        if line.startswith("."):
            parts = line.split(None, 1)
            directive, rest = parts[0], parts[1] if len(parts) > 1 else ""
            if directive in (".text", ".data"):
                section = directive
                if label is not None:
                    raise AssemblerError("label on section directive",
                                         line_no, raw)
            elif directive == ".equ":
                ops = _split_operands(rest)
                if len(ops) != 2:
                    raise AssemblerError(".equ expects NAME, value",
                                         line_no, raw)
                if ops[0] in consts:
                    raise AssemblerError("duplicate constant %r" % ops[0],
                                         line_no, raw)
                consts[ops[0]] = _parse_int(ops[1], line_no, raw, consts)
            elif directive == ".space":
                if section != ".data":
                    raise AssemblerError(".space outside .data", line_no, raw)
                if label is None and pending_data_label is not None:
                    label, pending_data_label = pending_data_label, None
                n = _parse_int(rest, line_no, raw, consts)
                define_or_extend(label, line_no, raw, n, kind="space")
            elif directive == ".word":
                if section != ".data":
                    raise AssemblerError(".word outside .data", line_no, raw)
                if label is None and pending_data_label is not None:
                    label, pending_data_label = pending_data_label, None
                values = word_values(rest, line_no, raw)
                define_or_extend(label, line_no, raw, len(values),
                                 init=values, kind="word")
            elif directive in (".string", ".asciiz"):
                if section != ".data":
                    raise AssemblerError("%s outside .data" % directive,
                                         line_no, raw)
                if label is None and pending_data_label is not None:
                    label, pending_data_label = pending_data_label, None
                values = _parse_string(rest, line_no, raw)
                define_or_extend(label, line_no, raw, len(values),
                                 init=values, kind="string")
            else:
                raise AssemblerError("unknown directive %r" % directive,
                                     line_no, raw)
            continue
        if section == ".data":
            if line:
                raise AssemblerError("instruction in .data section",
                                     line_no, raw)
            if label is not None:
                pending_data_label = label  # bare label before .space/.word
            continue
        if not line:
            if label is not None:
                text_records.append((label, None, None, (line_no, raw)))
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1] if len(parts) > 1 else "")
        text_records.append((label, mnemonic, operands, (line_no, raw)))

    if pending_data_label is not None:
        raise AssemblerError("dangling data label %r" % pending_data_label)

    # Pass 2: expand text records into instructions, collecting labels.
    instructions = []
    labels = {}

    def symbol_value(token, line_no, raw):
        """Address of a data symbol, or None when ``token`` isn't one."""
        if token in data.symbols:
            return data.address_of(token)
        return None

    for label, mnemonic, operands, (line_no, raw) in text_records:
        if label is not None:
            if label in labels:
                raise AssemblerError("duplicate label %r" % label,
                                     line_no, raw)
            labels[label] = len(instructions)
        if mnemonic is None:
            continue
        instructions.extend(
            _expand(mnemonic, operands, symbol_value, line_no, raw,
                    consts=consts))

    # Pass 3: resolve branch/jump targets.
    for inst in instructions:
        if isinstance(inst.imm, _PendingBranch):
            target = inst.imm.label
            if target in labels:
                inst.imm = labels[target]
            else:
                raise AssemblerError("undefined label %r" % target)

    return Program(name, instructions, labels, data,
                   code_base=code_base, equs=consts)


def _expand(mnemonic, ops, symbol_value, line_no, raw, consts=None):
    """Expand one source mnemonic (real or pseudo) into instructions."""
    r = lambda t: _reg(t, line_no, raw)
    i = lambda t: _parse_int(t, line_no, raw, consts)

    def target(token):
        """Branch target: a literal index or a label placeholder."""
        if re.fullmatch(r"-?\d+|0[xX][0-9a-fA-F]+", token):
            return i(token)
        return _PendingBranch(token)

    # Pseudo-instructions first.
    if mnemonic == "li":
        return _expand_li(r(ops[0]), i(ops[1]), line_no, raw)
    if mnemonic == "la":
        addr = symbol_value(ops[1], line_no, raw)
        if addr is None:
            if consts and ops[1] in consts:
                addr = consts[ops[1]]
            else:
                raise AssemblerError("unknown symbol %r" % ops[1],
                                     line_no, raw)
        return _expand_li(r(ops[0]), addr, line_no, raw)
    if mnemonic == "move":
        return [Instruction(Op.OR, rd=r(ops[0]), rs1=r(ops[1]), rs2=0)]
    if mnemonic == "not":
        return [Instruction(Op.NOR, rd=r(ops[0]), rs1=r(ops[1]), rs2=0)]
    if mnemonic == "neg":
        return [Instruction(Op.SUB, rd=r(ops[0]), rs1=0, rs2=r(ops[1]))]
    if mnemonic == "b":
        return [Instruction(Op.J, imm=target(ops[0]))]
    if mnemonic == "bgt":
        return [Instruction(Op.BLT, rs1=r(ops[1]), rs2=r(ops[0]),
                            imm=target(ops[2]))]
    if mnemonic == "ble":
        return [Instruction(Op.BGE, rs1=r(ops[1]), rs2=r(ops[0]),
                            imm=target(ops[2]))]

    op = MNEMONIC_TO_OP.get(mnemonic)
    if op is None:
        raise AssemblerError("unknown mnemonic %r" % mnemonic, line_no, raw)
    fmt = OP_INFO[op].fmt

    def mem_operand(token):
        m = _MEM_RE.match(token.replace(" ", ""))
        if not m:
            raise AssemblerError("bad memory operand %r" % token,
                                 line_no, raw)
        off = m.group(1)
        base = m.group(2)
        if off in ("", "-"):
            raise AssemblerError("bad offset in %r" % token, line_no, raw)
        sym = symbol_value(off, line_no, raw)
        offset = sym if sym is not None else i(off)
        return offset, r(base)

    def expect(n):
        if len(ops) != n:
            raise AssemblerError(
                "%s expects %d operands, got %d" % (mnemonic, n, len(ops)),
                line_no, raw)

    if fmt == "rrr":
        expect(3)
        return [Instruction(op, rd=r(ops[0]), rs1=r(ops[1]), rs2=r(ops[2]))]
    if fmt == "rri":
        expect(3)
        return [Instruction(op, rd=r(ops[0]), rs1=r(ops[1]), imm=i(ops[2]))]
    if fmt == "ri":
        expect(2)
        return [Instruction(op, rd=r(ops[0]), imm=i(ops[1]))]
    if fmt in ("ld", "st"):
        expect(2)
        offset, base = mem_operand(ops[1])
        return [Instruction(op, rd=r(ops[0]), rs1=base, imm=offset)]
    if fmt == "cbr":
        expect(3)
        return [Instruction(op, rs1=r(ops[0]), rs2=r(ops[1]),
                            imm=target(ops[2]))]
    if fmt == "cbr1":
        expect(2)
        return [Instruction(op, rs1=r(ops[0]), imm=target(ops[1]))]
    if fmt == "j":
        expect(1)
        return [Instruction(op, imm=target(ops[0]))]
    if fmt == "jr":
        expect(1)
        return [Instruction(op, rs1=r(ops[0]))]
    if fmt == "jalr":
        expect(2)
        return [Instruction(op, rd=r(ops[0]), rs1=r(ops[1]))]
    if fmt == "fr2":
        expect(2)
        return [Instruction(op, rd=r(ops[0]), rs1=r(ops[1]))]
    if fmt == "i":
        expect(1)
        return [Instruction(op, imm=i(ops[0]))]
    if fmt == "mref":
        expect(1)
        offset, base = mem_operand(ops[0])
        return [Instruction(op, rs1=base, imm=offset)]
    if fmt == "none":
        expect(0)
        return [Instruction(op)]
    raise AssemblerError("unhandled format %r" % fmt, line_no, raw)
