"""Interval / lockset / barrier-phase abstract interpretation.

One forward dataflow over the :class:`~repro.analysis.cfg.ProgramCFG`
computing, at every program point, three coupled abstract facts:

* **Register intervals** — each integer register maps to a ``(lo, hi)``
  byte-value interval (``None`` bounds mean unbounded), grown from the
  ``li``/``la``/``lui``+``ori`` constant idioms through pointer
  arithmetic (``addi``/``add``/``sub``/shifts/masks).  Loads and any
  operation the transfer cannot bound go to ⊤.  Joins widen: a bound
  that keeps growing across fixpoint iterations is pushed to ±∞ after
  :data:`WIDEN_AFTER` growths, then two descending (narrowing) passes
  recover the bounds that conditional-branch refinement can prove —
  the ``blt ptr, end / move ptr, base`` wrap idiom every generated
  footprint walk uses stays a finite interval instead of ⊤.
* **Lock stacks** — the set of possible stacks of held lock words
  (addresses resolved through the same interval machinery; an
  unresolvable lock address is the :data:`UNKNOWN_LOCK` sentinel).
  The lock-nesting depth set the verifier's balance checks read is
  ``{len(s) for s in stacks}``, and the *must-held* lockset — what the
  race analysis compares across contexts — is the intersection of the
  stacks' members.
* **Barrier phase** — how many BARRIERs every path executed to reach
  the point; ``None`` (⊤) once paths disagree or a barrier is
  loop-carried.

The pass is deliberately conservative in the direction race detection
needs: intervals only over-approximate the addresses an access may
touch, and must-held locksets only under-approximate the locks a path
definitely holds, so a data race can never be hidden by imprecision
(the soundness contract ``static ⊇ dynamic`` of
:mod:`repro.analysis.races`).
"""

from repro.isa.opcodes import Op
from repro.analysis.cfg import EXIT

#: Deepest lock nesting distinguished; a deeper push saturates, so the
#: fixpoint exists even for a lock inside a loop with no unlock (the
#: committed applications never nest past 2).
LOCK_DEPTH_CAP = 7

#: Lock pushed with a statically unresolvable word address.  Excluded
#: from must-held locksets: a lock we cannot name might be a different
#: word on every path, so it must not suppress a race report.
UNKNOWN_LOCK = "?"

#: Cap on the number of distinct lock stacks tracked per point before
#: the set collapses to depth-only stacks of unknown words.
_MAX_STACKS = 64

#: Interval-join growths per (block, register) before the growing bound
#: widens to ±∞.
WIDEN_AFTER = 2

#: 32-bit signed range; transfer results escaping it (wraparound) go ⊤.
_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1

TOP = (None, None)

_NARROW_PASSES = 2


def _const(v):
    return (v, v)


def _is_const(iv):
    lo, hi = iv
    return lo is not None and lo == hi


def _clamp(lo, hi):
    """An interval, or TOP when it escapes the 32-bit signed range."""
    if lo is not None and lo < _INT_MIN:
        lo = None
    if hi is not None and hi > _INT_MAX:
        hi = None
    return (lo, hi)


def _add(a, b):
    alo, ahi = a
    blo, bhi = b
    return _clamp(None if alo is None or blo is None else alo + blo,
                  None if ahi is None or bhi is None else ahi + bhi)


def _addc(a, c):
    return _add(a, (c, c))


def _sub(a, b):
    blo, bhi = b
    return _add(a, (None if bhi is None else -bhi,
                    None if blo is None else -blo))


def _join_iv(a, b):
    """Interval hull (no widening here; the caller widens)."""
    alo, ahi = a
    blo, bhi = b
    return (None if alo is None or blo is None else min(alo, blo),
            None if ahi is None or bhi is None else max(ahi, bhi))


def _le_iv(a, b):
    """a ⊑ b: every concretisation of a is in b."""
    alo, ahi = a
    blo, bhi = b
    lo_ok = blo is None or (alo is not None and alo >= blo)
    hi_ok = bhi is None or (ahi is not None and ahi <= bhi)
    return lo_ok and hi_ok


class AbsState:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "stacks", "phase")

    def __init__(self, regs, stacks, phase):
        self.regs = regs          # tuple of 32 (lo, hi) intervals
        self.stacks = stacks      # frozenset of tuples of lock words
        self.phase = phase        # int, or None for ⊤

    def key(self):
        return (self.regs, self.stacks, self.phase)

    def must_locks(self):
        """Lock words held on *every* path (UNKNOWN_LOCK excluded)."""
        if not self.stacks:
            return frozenset()
        held = None
        for stack in self.stacks:
            members = frozenset(w for w in stack if w is not UNKNOWN_LOCK)
            held = members if held is None else held & members
        return held or frozenset()

    def depths(self):
        return frozenset(len(s) for s in self.stacks)


def entry_state():
    regs = [TOP] * 32
    regs[0] = _const(0)
    return AbsState(tuple(regs), frozenset((((),))), 0)


def _join_phase(a, b):
    return a if a == b else None


def _join_stacks(a, b):
    stacks = a | b
    if len(stacks) > _MAX_STACKS:
        # Collapse to depth-only stacks of unknown words: preserves the
        # depth set (V106-V109) and drops every must-held lock, which
        # is the conservative direction for race reporting.
        stacks = frozenset((UNKNOWN_LOCK,) * d
                           for d in {len(s) for s in stacks})
    return stacks


def join(a, b, widen_counts=None, bid=None):
    """Join two states; with ``widen_counts`` (a dict), bounds of ``a``
    that grow past WIDEN_AFTER times at ``bid`` are widened to ±∞.

    Returns ``a`` itself when the join is a no-op (``b ⊑ a``), so
    callers can detect convergence by identity instead of comparing
    32-tuples.
    """
    if a.regs is b.regs or a.regs == b.regs:
        regs = a.regs
        grew = False
    else:
        out = []
        grew = False
        for r in range(32):
            av = a.regs[r]
            bv = b.regs[r]
            if av == bv:
                out.append(av)
                continue
            iv = _join_iv(av, bv)
            if iv != av:
                grew = True
                if widen_counts is not None:
                    # Each bound widens on its own growth count: a
                    # lower bound that moves once (the wrap-reset join)
                    # must not pay for a hi bound that grew through the
                    # whole ascending phase.
                    lo, hi = iv
                    alo, ahi = av
                    if alo is not None and (lo is None or lo < alo):
                        key = (bid, r, 0)
                        n = widen_counts.get(key, 0) + 1
                        widen_counts[key] = n
                        if n > WIDEN_AFTER:
                            lo = None
                    if ahi is not None and (hi is None or hi > ahi):
                        key = (bid, r, 1)
                        n = widen_counts.get(key, 0) + 1
                        widen_counts[key] = n
                        if n > WIDEN_AFTER:
                            hi = None
                    iv = (lo, hi)
            out.append(iv)
        out[0] = _const(0)
        regs = a.regs if not grew else tuple(out)
    stacks = (a.stacks if b.stacks is a.stacks or b.stacks <= a.stacks
              else _join_stacks(a.stacks, b.stacks))
    phase = _join_phase(a.phase, b.phase)
    if not grew and stacks is a.stacks and phase == a.phase:
        return a
    return AbsState(regs, stacks, phase)


# -- transfer --------------------------------------------------------------

def _pop_lock(stack, addr):
    """UNLOCK transfer on one stack: release ``addr`` (an int or None
    for unresolved).  Releases the innermost matching hold, or the
    innermost hold when the address is unknown / not found."""
    if not stack:
        return stack
    if addr is not None:
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == addr:
                return stack[:i] + stack[i + 1:]
    return stack[:-1]


def transfer_inst(state, inst):
    """One-instruction transfer; returns the successor state."""
    op = inst.op
    regs = state.regs
    stacks = state.stacks
    phase = state.phase
    w = None                       # (reg, interval) write, if any

    if op is Op.ADDI:
        w = (inst.rd, _addc(regs[inst.rs1], inst.imm))
    elif op is Op.ADD:
        w = (inst.rd, _add(regs[inst.rs1], regs[inst.rs2]))
    elif op is Op.SUB:
        w = (inst.rd, _sub(regs[inst.rs1], regs[inst.rs2]))
    elif op is Op.LUI:
        w = (inst.rd, _const(inst.imm << 14))
    elif op is Op.ORI:
        src = regs[inst.rs1]
        if inst.imm == 0:
            w = (inst.rd, src)
        elif _is_const(src):
            w = (inst.rd, _const(src[0] | inst.imm))
        else:
            w = (inst.rd, TOP)
    elif op is Op.OR:
        a, b = regs[inst.rs1], regs[inst.rs2]
        if b == (0, 0):
            w = (inst.rd, a)       # the builder's `move` idiom
        elif a == (0, 0):
            w = (inst.rd, b)
        elif _is_const(a) and _is_const(b):
            w = (inst.rd, _const(a[0] | b[0]))
        else:
            w = (inst.rd, TOP)
    elif op is Op.ANDI:
        if inst.imm >= 0:
            # Masking bounds the result regardless of the input.
            w = (inst.rd, (0, inst.imm))
        else:
            w = (inst.rd, TOP)
    elif op is Op.AND:
        a, b = regs[inst.rs1], regs[inst.rs2]
        if _is_const(a) and _is_const(b):
            w = (inst.rd, _const(a[0] & b[0]))
        elif _is_const(b) and b[0] >= 0:
            w = (inst.rd, (0, b[0]))
        elif _is_const(a) and a[0] >= 0:
            w = (inst.rd, (0, a[0]))
        else:
            w = (inst.rd, TOP)
    elif op is Op.SLL:
        lo, hi = regs[inst.rs1]
        s = inst.imm & 31
        if lo is not None and lo >= 0:
            w = (inst.rd, _clamp(lo << s,
                                 None if hi is None else hi << s))
        else:
            w = (inst.rd, TOP)
    elif op is Op.SRL or op is Op.SRA:
        lo, hi = regs[inst.rs1]
        s = inst.imm & 31
        if lo is not None and lo >= 0:
            w = (inst.rd, (lo >> s, None if hi is None else hi >> s))
        else:
            w = (inst.rd, (0, 0xFFFFFFFF >> s) if op is Op.SRL else TOP)
    elif op is Op.MUL:
        a, b = regs[inst.rs1], regs[inst.rs2]
        if _is_const(a) and _is_const(b):
            w = (inst.rd, _clamp(a[0] * b[0], a[0] * b[0]))
        else:
            w = (inst.rd, TOP)
    elif op in (Op.SLT, Op.SLTI, Op.SLTU, Op.FLT, Op.FLE, Op.FEQ):
        w = (inst.rd, (0, 1))
    elif op is Op.LOCK:
        addr_iv = _addc(regs[inst.rs1], inst.imm)
        word = addr_iv[0] if _is_const(addr_iv) else UNKNOWN_LOCK
        stacks = frozenset(
            s if len(s) >= LOCK_DEPTH_CAP else s + (word,)
            for s in stacks)
    elif op is Op.UNLOCK:
        addr_iv = _addc(regs[inst.rs1], inst.imm)
        addr = addr_iv[0] if _is_const(addr_iv) else None
        stacks = frozenset(_pop_lock(s, addr) for s in stacks)
    elif op is Op.BARRIER:
        phase = None if phase is None else phase + 1
    elif inst.writes >= 0 and inst.writes < 32:
        # Any other int-register write (loads, div/rem, fcvtfi, jal...).
        w = (inst.writes, TOP)

    if w is None or not (0 < w[0] < 32):
        if stacks is state.stacks and phase == state.phase:
            return state
        return AbsState(regs, stacks, phase)
    new_regs = list(regs)
    new_regs[w[0]] = w[1]
    return AbsState(tuple(new_regs), stacks, phase)


def lock_word_of(state, inst):
    """The lock word a LOCK/UNLOCK at ``state`` names, or None."""
    iv = _addc(state.regs[inst.rs1], inst.imm)
    return iv[0] if _is_const(iv) else None


def access_interval(state, inst):
    """Byte-address interval of a load/store's effective address."""
    return _addc(state.regs[inst.rs1], inst.imm)


# -- branch refinement -----------------------------------------------------

def _refined(state, reg, lo=None, hi=None):
    """``state`` with register ``reg`` meet [lo, hi]; None = infeasible."""
    rlo, rhi = state.regs[reg]
    if lo is not None and (rlo is None or rlo < lo):
        rlo = lo
    if hi is not None and (rhi is None or rhi > hi):
        rhi = hi
    if rlo is not None and rhi is not None and rlo > rhi:
        return None
    if (rlo, rhi) == state.regs[reg]:
        return state
    regs = list(state.regs)
    regs[reg] = (rlo, rhi)
    return AbsState(tuple(regs), state.stacks, state.phase)


def refine_edge(state, inst, taken):
    """Refine ``state`` along the taken/fall-through edge of a branch.

    Returns the refined state, or None when the edge is infeasible.
    Only compare-against-constant shapes refine; everything else passes
    through unchanged (still sound — refinement only tightens).
    """
    op = inst.op
    if op is Op.BLEZ:
        return (_refined(state, inst.rs1, hi=0) if taken
                else _refined(state, inst.rs1, lo=1))
    if op is Op.BGTZ:
        return (_refined(state, inst.rs1, lo=1) if taken
                else _refined(state, inst.rs1, hi=0))
    if op in (Op.BLT, Op.BGE):
        a, b = state.regs[inst.rs1], state.regs[inst.rs2]
        lt = taken if op is Op.BLT else not taken
        if _is_const(b):
            c = b[0]
            return (_refined(state, inst.rs1, hi=c - 1) if lt
                    else _refined(state, inst.rs1, lo=c))
        if _is_const(a):
            c = a[0]
            return (_refined(state, inst.rs2, lo=c + 1) if lt
                    else _refined(state, inst.rs2, hi=c))
        return state
    if op is Op.BEQ:
        a, b = state.regs[inst.rs1], state.regs[inst.rs2]
        if taken:
            if _is_const(b):
                return _refined(state, inst.rs1, lo=b[0], hi=b[0])
            if _is_const(a):
                return _refined(state, inst.rs2, lo=a[0], hi=a[0])
        return state
    if op is Op.BNE and not taken:
        a, b = state.regs[inst.rs1], state.regs[inst.rs2]
        if _is_const(b):
            return _refined(state, inst.rs1, lo=b[0], hi=b[0])
        if _is_const(a):
            return _refined(state, inst.rs2, lo=a[0], hi=a[0])
    return state


# -- the fixpoint ----------------------------------------------------------

class AbsResult:
    """Per-block input states of the converged analysis."""

    __slots__ = ("cfg", "in_states", "reachable")

    def __init__(self, cfg, in_states, reachable):
        self.cfg = cfg
        self.in_states = in_states      # bid -> AbsState (reachable only)
        self.reachable = reachable

    def walk(self, visit):
        """Apply the transfer through every reachable block, calling
        ``visit(pc, inst, state_before)`` per instruction, in pc order."""
        insts = self.cfg.program.instructions
        for block in self.cfg.blocks:
            state = self.in_states.get(block.bid)
            if state is None:
                continue
            for i in range(block.start, block.end):
                inst = insts[i]
                visit(i, inst, state)
                state = transfer_inst(state, inst)


def _block_out(state, cfg, block):
    insts = cfg.program.instructions
    for i in range(block.start, block.end):
        state = transfer_inst(state, insts[i])
    return state


def _succ_states(cfg, block, out_state):
    """(succ_bid, edge-refined state) pairs for one block."""
    last = cfg.program.instructions[block.end - 1]
    succs = block.succs
    if last.info.is_branch and len(succs) == 2:
        # succs[0] is the fall-through, succs[1] the taken target.
        out = []
        fall = refine_edge(out_state, last, taken=False)
        take = refine_edge(out_state, last, taken=True)
        if fall is not None:
            out.append((succs[0], fall))
        if take is not None:
            out.append((succs[1], take))
        return out
    return [(s, out_state) for s in succs]


def analyze(program, cfg=None):
    """Run the combined fixpoint; returns an :class:`AbsResult`.

    Ascending iteration with per-(block, register) widening, then
    :data:`_NARROW_PASSES` descending passes (sound from any
    post-fixpoint; recovers refinement-bounded intervals after
    widening overshoots).

    The converged result is memoised on the program (the
    ``Program._analysis_cache`` dict, beside the burst-table memo and
    under the same contract: instructions are treated as immutable once
    analysed — rebuild or copy the Program to re-analyse).  Lint's
    verify pass (lock balance) and race pass therefore share one
    fixpoint per program.
    """
    memo = getattr(program, "_analysis_cache", None)
    if memo is not None:
        hit = memo.get("absint")
        if hit is not None:
            return hit
    if cfg is None:
        from repro.analysis.cfg import ProgramCFG
        cfg = ProgramCFG(program)
    if cfg.entry_bid == EXIT:
        result = AbsResult(cfg, {}, set())
        if memo is not None:
            memo["absint"] = result
        return result
    rpo = cfg.reverse_postorder()
    blocks = cfg.blocks
    entry_bid = cfg.entry_bid
    in_states = {entry_bid: entry_state()}
    widen_counts = {}
    out_cache = {}      # bid -> (in-state object, out-state)

    def block_out(bid, state):
        hit = out_cache.get(bid)
        if hit is not None and hit[0] is state:
            return hit[1]
        out = _block_out(state, cfg, blocks[bid])
        out_cache[bid] = (state, out)
        return out

    for narrowing in range(1 + _NARROW_PASSES):
        counts = None if narrowing else widen_counts
        changed = True
        while changed:
            changed = False
            for bid in rpo:
                state = in_states.get(bid)
                if state is None:
                    continue
                out = block_out(bid, state)
                for succ, edge_state in _succ_states(cfg, blocks[bid],
                                                     out):
                    if succ == EXIT:
                        continue
                    cur = in_states.get(succ)
                    if cur is None:
                        in_states[succ] = edge_state
                        changed = True
                        continue
                    new = join(cur, edge_state, counts, succ)
                    if new is not cur and new.key() != cur.key():
                        in_states[succ] = new
                        changed = True
            if narrowing:
                # Descending passes recompute each in-state once from
                # scratch; a single sweep per pass, no inner fixpoint.
                break
        if narrowing:
            # Rebuild every non-entry in-state as the plain join of its
            # predecessors' edge states (values can only shrink).
            preds = cfg.predecessors()
            rebuilt = {entry_bid: entry_state()}
            for bid in rpo:
                if bid == entry_bid:
                    continue
                acc = None
                for p in preds[bid]:
                    pstate = in_states.get(p)
                    if pstate is None:
                        continue
                    out = block_out(p, pstate)
                    for succ, edge_state in _succ_states(
                            cfg, blocks[p], out):
                        if succ != bid:
                            continue
                        acc = (edge_state if acc is None
                               else join(acc, edge_state))
                if acc is not None:
                    rebuilt[bid] = acc
            in_states = rebuilt

    result = AbsResult(cfg, in_states, set(in_states))
    if memo is not None:
        memo["absint"] = result
    return result
