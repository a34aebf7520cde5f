"""Static program verifier over decoded :class:`Program` objects.

Checks run *before any cycle is simulated*, so whole classes of program
bugs — branch targets outside the program, code that falls off the end,
reads of registers no path ever wrote, unbalanced lock/unlock pairing —
are rejected at load (or commit) time instead of surfacing as a
mysterious deadlock or a silently wrong statistic deep inside a run.

Two levels:

* ``level="load"`` — the cheap structural subset used by the opt-in
  ``Program(strict=True)`` hook: one fused pass over the instruction
  list (entry/targets/terminator), plus the depth-only CFG lock-balance
  analysis *only* when the program actually contains sync opcodes.
  Measured well under 5 % of program build time
  (``benchmarks/bench_lint_overhead.py``).
* ``level="full"`` — everything: exact reachability (fall-off-end and
  unreachable-code on the real CFG), the read-before-write dataflow,
  lock/barrier balance, and (when ``widths`` is given) the static
  burst-schedule audit of :mod:`repro.analysis.burst_audit`.

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

#: Deepest lock nesting the balance analysis distinguishes; deeper
#: nesting saturates (the committed applications never nest past 2).
LOCK_DEPTH_CAP = 7

_SYNC_OPS = (Op.LOCK, Op.UNLOCK, Op.BARRIER)


class ProgramVerificationError(ValueError):
    """Raised by ``Program(strict=True)`` for error-level findings."""

    def __init__(self, program_name, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "\n".join("  " + d.render() for d in self.diagnostics)
        super().__init__("program %r failed static verification:\n%s"
                         % (program_name, lines))


def verify_program(program, *, level="full", entry_defined=(),
                   threshold=None, widths=()):
    """Run the static verifier; returns a list of Diagnostics.

    ``entry_defined`` names flat register ids assumed written at entry
    (for code meant to be entered with live arguments).  ``widths`` (a
    tuple of issue widths) additionally audits the program's burst
    tables at ``threshold``; both burst parameters are ignored at
    ``level="load"``.
    """
    if level not in ("load", "full"):
        raise ValueError("level must be 'load' or 'full', not %r"
                         % (level,))
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

    if level == "load":
        if has_sync:
            cfg = ProgramCFG(program)
            _check_termination(cfg, diags)
            _check_lock_balance_depths(cfg, diags)
        else:
            _quick_termination_check(program, diags)
        return diags

    cfg = ProgramCFG(program)
    _check_termination(cfg, diags)
    _check_unreachable(cfg, diags)
    _check_read_before_write(cfg, diags, entry_defined)
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


# -- structural pass (shared by both levels) ------------------------------

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


def _quick_termination_check(program, diags):
    """Load-level fall-off check: the last instruction must not fall
    through (the full level proves the exact reachability version)."""
    insts = program.instructions
    last = insts[-1]
    if last.op is Op.HALT or last.info.is_jump:
        return
    diags.append(Diagnostic(
        "V102", "last instruction %r falls through the end of the "
        "program" % (last.info.mnemonic,),
        program=program.name, pc=len(insts) - 1))


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


def _check_read_before_write(cfg, diags, entry_defined):
    """V104: reads with no prior write on *any* path (may-written
    dataflow over the CFG, 64-register bitmask lattice)."""
    program = cfg.program
    insts = program.instructions
    blocks = cfg.blocks
    preds = cfg.predecessors()
    reachable = cfg.reachable_blocks()
    rpo = cfg.reverse_postorder()

    entry_mask = 1  # r0 is hardwired (reads of r0 are pre-filtered too)
    for reg in entry_defined:
        entry_mask |= 1 << reg

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


def _check_lock_balance_depths(cfg, diags):
    """V106-V109 at ``level="load"``: depth-only lock dataflow.

    The lattice value at a point is the set of lock-nesting depths
    execution can reach it with (saturating at LOCK_DEPTH_CAP, so the
    fixpoint exists even for a lock inside a loop with no unlock).
    This is the cheap single-lattice pass the strict-load budget is
    measured against; ``level="full"`` runs the per-lock-*word* version
    on top of the combined abstract interpretation instead, which also
    surfaces ``held_locks`` on each finding.  The machine's locks are
    re-entrant per context (``SyncManager`` hands a held lock straight
    back to its holder), so nested LOCKs are not themselves findings;
    only definite unlock-without-lock, definite leaks at HALT, and
    barrier-while-locked are.
    """
    program = cfg.program
    insts = program.instructions
    blocks = cfg.blocks
    preds = cfg.predecessors()
    reachable = cfg.reachable_blocks()
    rpo = cfg.reverse_postorder()
    entry_bid = cfg.entry_bid

    def transfer(depths, block, emit):
        for i in range(block.start, block.end):
            op = insts[i].op
            if op is Op.LOCK:
                depths = frozenset(min(d + 1, LOCK_DEPTH_CAP)
                                   for d in depths)
            elif op is Op.UNLOCK:
                if emit is not None and depths == frozenset((0,)):
                    emit(Diagnostic(
                        "V106", "unlock while definitely holding no "
                        "lock", program=program.name, pc=i))
                elif emit is not None and 0 in depths:
                    emit(Diagnostic(
                        "V108", "unlock reachable with lock depth 0 "
                        "(depths %s)" % (sorted(depths),),
                        program=program.name, pc=i))
                depths = frozenset(max(d - 1, 0) for d in depths)
            elif op is Op.BARRIER:
                if emit is not None and 0 not in depths:
                    emit(Diagnostic(
                        "V109", "barrier arrival while definitely "
                        "holding a lock (depths %s)"
                        % (sorted(depths),),
                        program=program.name, pc=i))
            elif op is Op.HALT:
                if emit is not None and depths:
                    if 0 not in depths:
                        emit(Diagnostic(
                            "V107", "HALT with a lock definitely still "
                            "held (depths %s)" % (sorted(depths),),
                            program=program.name, pc=i))
                    elif depths != frozenset((0,)):
                        emit(Diagnostic(
                            "V108", "HALT reachable with inconsistent "
                            "lock depths %s" % (sorted(depths),),
                            program=program.name, pc=i))
        return depths

    in_set = {block.bid: frozenset() for block in blocks}
    out_set = {block.bid: frozenset() for block in blocks}
    changed = True
    while changed:
        changed = False
        for bid in rpo:
            m = frozenset((0,)) if bid == entry_bid else frozenset()
            for p in preds[bid]:
                m |= out_set[p]
            if not m:
                continue
            out = transfer(m, blocks[bid], None)
            if m != in_set[bid] or out != out_set[bid]:
                in_set[bid] = m
                out_set[bid] = out
                changed = True

    seen = set()

    def emit(diag):
        key = (diag.code, diag.pc)
        if key not in seen:
            seen.add(key)
            diags.append(diag)

    for block in blocks:
        if block.bid in reachable and in_set[block.bid]:
            transfer(in_set[block.bid], block, emit)


def _check_lock_balance(cfg, diags):
    """V106-V109 at ``level="full"``: lock-*set* dataflow.

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


__all__ = ["verify_program", "program_fingerprint",
           "ProgramVerificationError", "has_errors"]
