"""Static program verifier over decoded :class:`Program` objects.

Checks run *before any cycle is simulated*, so whole classes of program
bugs — branch targets outside the program, code that falls off the end,
reads of registers no path ever wrote, unbalanced lock/unlock pairing —
are rejected where programs enter the system (the generator's birth
verification and ``repro-experiments lint``) instead of surfacing as a
mysterious deadlock or a silently wrong statistic deep inside a run.

The passes: exact reachability (fall-off-end and unreachable-code on
the real CFG), the read-before-write dataflow, lock/barrier balance, and
(when ``widths`` is given) the static burst-schedule audit of
:mod:`repro.analysis.burst_audit`.  A caller that must reject a broken
program checks ``has_errors(verify_program(program))``.

Severities follow :mod:`repro.analysis.diagnostics`: only error-level
findings reject a program.  Read-before-write is a warning by design —
architectural state is zero-initialised (``isa/executor.ArchState``), so
reading a never-written register is *defined*, merely suspicious; the
mutation suite relies on the V104 code appearing, not on rejection.
"""

import hashlib

from repro.isa.opcodes import Op
from repro.analysis.cfg import ProgramCFG, EXIT
from repro.analysis.diagnostics import Diagnostic, has_errors


def verify_program(program, *, threshold=None, widths=()):
    """Run the static verifier; returns a list of Diagnostics.

    ``widths`` (a tuple of issue widths) additionally audits the
    program's burst tables at ``threshold``.
    """
    diags = []
    name = program.name
    insts = program.instructions
    n = len(insts)

    if not 0 <= program.entry < n:
        diags.append(Diagnostic(
            "V100", "entry %r outside program of %d instructions"
            % (program.entry, n), program=name))
        return diags

    has_sync = _check_structure(program, diags)
    cfg = ProgramCFG(program)
    _check_termination(cfg, diags)
    _check_unreachable(cfg, diags)
    _check_read_before_write(cfg, diags)
    if has_sync:
        _check_lock_balance(cfg, diags)
    if widths:
        from repro.analysis.burst_audit import audit_bursts
        if threshold is None:
            threshold = 4    # PipelineParams.short_stall_threshold default
        diags.extend(audit_bursts(program, threshold, widths))
    return diags


def program_fingerprint(program):
    """Stable content hash of a program's code.

    Covers the decoded fields that determine both functional behaviour
    and every burst schedule — opcode, operands, immediates, entry, and
    the code base (PC addresses feed the I-cache and BTB) — so two
    programs with equal fingerprints simulate identically (the
    ``generate`` verb prints it as a generated program's identity).
    """
    h = hashlib.sha256()
    h.update(("%d:%d:%d\n" % (program.code_base, program.entry,
                              len(program.instructions))).encode())
    for inst in program.instructions:
        h.update(("%d,%d,%d,%d,%r\n" % (int(inst.op), inst.rd, inst.rs1,
                                        inst.rs2, inst.imm)).encode())
    return h.hexdigest()


# -- structural pass -------------------------------------------------------

def _check_structure(program, diags):
    """Fused single pass: static target ranges; returns sync presence."""
    name = program.name
    insts = program.instructions
    n = len(insts)
    has_sync = False
    for i, inst in enumerate(insts):
        info = inst.info
        if info.is_sync:
            has_sync = True
            continue
        if not (info.is_branch or info.is_jump):
            continue
        if inst.op in (Op.JR, Op.JALR):
            continue
        target = inst.imm
        if not isinstance(target, int):
            diags.append(Diagnostic(
                "V101", "%s has unresolved target %r"
                % (info.mnemonic, target), program=name, pc=i))
        elif not 0 <= target < n:
            diags.append(Diagnostic(
                "V101", "%s targets index %d outside [0, %d)"
                % (info.mnemonic, target, n), program=name, pc=i))
    return has_sync


# -- CFG-based checks ------------------------------------------------------

def _check_termination(cfg, diags):
    """Exact fall-off-end: is the virtual EXIT block reachable?"""
    name = cfg.program.name
    reachable = cfg.reachable_blocks()
    if EXIT not in reachable:
        return
    for block in cfg.blocks:
        if block.bid in reachable and EXIT in block.succs:
            diags.append(Diagnostic(
                "V102", "execution can fall off the end of the program "
                "after instruction %d" % (block.end - 1),
                program=name, pc=block.end - 1))


def _check_unreachable(cfg, diags):
    """V103 per unreachable block; pure-HALT blocks are exempt.

    A HALT after an unconditional backward jump is the conventional
    epilogue of throughput-mode kernels (``OuterLoop`` with
    ``iterations=None`` loops forever and still emits the HALT), so
    blocks consisting only of HALTs are not reported.
    """
    reachable = cfg.reachable_blocks()
    insts = cfg.program.instructions
    for block in cfg.blocks:
        if block.bid in reachable:
            continue
        if all(insts[i].op is Op.HALT
               for i in range(block.start, block.end)):
            continue
        diags.append(Diagnostic(
            "V103", "instructions [%d, %d) are unreachable from the "
            "entry point" % (block.start, block.end),
            program=cfg.program.name, pc=block.start))


def _check_read_before_write(cfg, diags):
    """V104: reads with no prior write on *any* path (may-written
    dataflow over the CFG, 64-register bitmask lattice)."""
    program = cfg.program
    insts = program.instructions
    blocks = cfg.blocks
    preds = cfg.predecessors()
    reachable = cfg.reachable_blocks()
    rpo = cfg.reverse_postorder()

    entry_mask = 1  # r0 is hardwired (reads of r0 are pre-filtered too)

    gen = {}
    for block in blocks:
        mask = 0
        for i in range(block.start, block.end):
            w = insts[i].writes
            if w >= 0:
                mask |= 1 << w
        gen[block.bid] = mask

    in_mask = {block.bid: 0 for block in blocks}
    out_mask = {block.bid: 0 for block in blocks}
    entry_bid = cfg.entry_bid
    changed = True
    while changed:
        changed = False
        for bid in rpo:
            m = entry_mask if bid == entry_bid else 0
            for p in preds[bid]:
                m |= out_mask[p]
            out = m | gen[bid]
            if m != in_mask[bid] or out != out_mask[bid]:
                in_mask[bid] = m
                out_mask[bid] = out
                changed = True

    for block in blocks:
        if block.bid not in reachable:
            continue
        mask = in_mask[block.bid]
        for i in range(block.start, block.end):
            inst = insts[i]
            for r in inst.reads:
                if not (mask >> r) & 1:
                    diags.append(Diagnostic(
                        "V104", "%s reads %s with no prior write on any "
                        "path" % (inst.disassemble(), _reg(r)),
                        program=program.name, pc=i))
            w = inst.writes
            if w >= 0:
                mask |= 1 << w


def _check_lock_balance(cfg, diags):
    """V106-V109: lock-*set* dataflow.

    Runs the combined abstract interpretation of
    :mod:`repro.analysis.absint`, whose per-point value is the set of
    possible lock *stacks* — the depth set falls out as the stack
    lengths, and the must-held lock words are surfaced on each finding
    as ``Diagnostic.held_locks`` (the race analysis consumes the same
    memoised fixpoint, so lint's verify and race passes share the
    work).
    """
    from repro.analysis.absint import analyze
    program = cfg.program
    result = analyze(program, cfg)
    seen = set()

    def emit(code, message, pc, held):
        key = (code, pc)
        if key not in seen:
            seen.add(key)
            diags.append(Diagnostic(code, message, program=program.name,
                                    pc=pc,
                                    held_locks=tuple(sorted(held))))

    def _held_note(held):
        if not held:
            return ""
        return "; holding %s" % ",".join("0x%x" % w for w in sorted(held))

    def visit(pc, inst, state):
        op = inst.op
        if op is Op.UNLOCK:
            depths = state.depths()
            if depths == frozenset((0,)):
                emit("V106", "unlock while definitely holding no lock",
                     pc, frozenset())
            elif 0 in depths:
                emit("V108", "unlock reachable with lock depth 0 "
                     "(depths %s)" % (sorted(depths),),
                     pc, state.must_locks())
        elif op is Op.BARRIER:
            depths = state.depths()
            if 0 not in depths:
                held = state.must_locks()
                emit("V109", "barrier arrival while definitely holding "
                     "a lock (depths %s)%s"
                     % (sorted(depths), _held_note(held)), pc, held)
        elif op is Op.HALT:
            depths = state.depths()
            if not depths:
                return
            if 0 not in depths:
                held = state.must_locks()
                emit("V107", "HALT with a lock definitely still held "
                     "(depths %s)%s"
                     % (sorted(depths), _held_note(held)), pc, held)
            elif depths != frozenset((0,)):
                emit("V108", "HALT reachable with inconsistent lock "
                     "depths %s" % (sorted(depths),),
                     pc, state.must_locks())

    result.walk(visit)


def _reg(num):
    from repro.isa.registers import reg_name
    try:
        return reg_name(num)
    except ValueError:
        return "reg%d" % num


__all__ = ["verify_program", "program_fingerprint", "has_errors"]
