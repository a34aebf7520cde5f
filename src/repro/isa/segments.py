"""Straight-line burst segmentation (the burst engine's compile step).

The paper's central statistic — run length between long-latency events
(Figures 6/8, Table 7) — says most issued instructions sit in long,
perfectly predictable straight-line runs.  The burst engine exploits
this: each program is segmented into *bursts*, straight-line runs whose
complete issue schedule can be computed ahead of time, so the processor
can retire a whole burst in one dispatch with one scoreboard bulk-update
and one stats bulk-add instead of N per-cycle issue trips.

An instruction is *burstable* when its timing depends only on register
ready-times established before or inside the run:

* no control transfer (a branch might leave the run, and touches the
  BTB and the mispredict-redirect machinery);
* no memory operation, prefetch, or synchronisation op (their timing
  depends on dynamic cache/MSHR/lock state);
* no non-pipelined functional unit (integer multiply/divide, FP divide
  impose cross-context structural hazards through shared ``fu_busy``
  state that a per-context precomputed schedule cannot see);
* not HALT (it retires the context).

**Blocks.**  A processor that alone uses its memory system and issues
one instruction per cycle (the workstation's, see
``MemorySystem.runs_ahead``) asks for tables whose runs also span loads
and stores and end with the branch or jump that closes them: a *block*.
Its schedule assumes every load and store hits the L1 D-cache, which
makes them plain 1-slot issues with the Table 3 latencies.  The
schedule records each such op (:attr:`Burst.ops`): its issue cycle,
the stall slots charged before it and the register writes of the
instructions before it.  The processor issues each at its cycle; an op
that leaves the static schedule (a miss, a TLB refill) is issued
through the processor's own path and ends the dispatch there, with
exactly the prefix before it charged.  The closing branch always
retires through the processor's own path, in the block's last cycle.
A plain burst is a block with no ops.  At wider issue, or on a memory
system other processors share (the multiprocessor), runs end at memory
ops and branches.

Within a burst the only hazards are register dependencies with the
Table 3 latencies, all of which are known statically.  The schedule is
computed *assuming every live-in register is ready*; the runtime guard
(:attr:`Burst.guard`) lists, per live-in register, the latest scoreboard
ready-time under which that assumption reproduces the per-cycle loop
exactly — if any live-in is later than its slack, the processor falls
back to ordinary per-issue stepping, which handles the hazard (and its
stall attribution) the slow way.

Schedules are packed for the processor's ``issue_width`` (the Section 7
in-order multi-issue extension): each cycle offers ``width`` issue
slots, consecutive ready instructions share a cycle, and a hazard
wastes every remaining slot of its cycle — exactly the per-cycle loop's
slot accounting.  A multi-issue schedule is only usable when it ends on
a cycle boundary (otherwise the trailing slots of its final cycle would
belong to whatever instruction follows the run, which the compile step
cannot see), so the burst covers the longest prefix of the run whose
last instruction issues in the final slot of its cycle; the tail is
left to per-issue stepping — which typically redispatches it as the
matching suffix burst one cycle later.

Because control flow can enter a run at any instruction (branch targets,
post-squash re-issue, JR), a table holds a burst for every entry PC:
the run from that PC on.  :class:`BurstTable` builds each entry the
first time its PC is looked up.
"""

from repro.isa.opcodes import Op, FU
from repro.isa.instruction import KIND_CONTROL, KIND_MEM, KIND_PLAIN

#: Units whose structural (cross-context, shared ``fu_busy``) hazards a
#: per-context precomputed schedule cannot resolve.
_NON_PIPELINED = (FU.MULDIV, FU.FPDIV)

#: Shortest run worth a burst dispatch: below this the guard overhead
#: exceeds the per-issue work saved.
MIN_BURST = 2


class Burst:
    """One precompiled straight-line segment starting at ``start``.

    ``duration`` is the number of cycles the burst occupies on a
    ``width``-issue pipeline (issue slots plus hazard-stall slots packed
    per the per-cycle loop's slot rules); dispatching at cycle T retires
    all ``n`` instructions and leaves the processor due again at
    ``T + duration``.  Every slot of the window is accounted:
    ``n + short_stalls + long_stalls == duration * width``.

    ``guard`` is a tuple of ``(reg, slack)`` pairs: the burst may only
    be dispatched at cycle T when every live-in register satisfies
    ``reg_ready[reg] <= T + slack`` (slack is the relative cycle of the
    register's first use, so an earlier ready-time can never change the
    schedule or the stall attribution).

    ``writes_out`` is a tuple of ``(reg, delta)`` pairs describing the
    scoreboard bulk-update: after a dispatch at T, ``reg_ready[reg] =
    T + delta`` (the final in-burst write's completion time, computed
    against the packed multi-issue schedule).  A closing branch's own
    write is not in it: the branch retires through the processor's own
    path, after the bulk update.

    ``ops`` lists, in order, the block's loads, stores and closing
    branch (empty for a plain burst) as ``(index, cycle, short, long,
    writes)``: the op's position in ``instructions``, its issue cycle
    relative to the dispatch, the short and long stall slots of the
    window before that cycle, and the ``(reg, delta)`` writes of the
    instructions before it (what ``writes_out`` is for the whole
    block).  Every slot before the op is then accounted:
    ``index + short + long == cycle``.  A closing branch is the last
    instruction and issues in the window's last cycle.
    """

    __slots__ = ("start", "n", "instructions", "duration", "width",
                 "short_stalls", "long_stalls", "guard", "writes_out",
                 "ops")

    def __init__(self, start, instructions, duration, short_stalls,
                 long_stalls, guard, writes_out, width=1, ops=()):
        self.start = start
        self.instructions = instructions
        self.n = len(instructions)
        self.duration = duration
        self.width = width
        self.short_stalls = short_stalls
        self.long_stalls = long_stalls
        self.guard = guard
        self.writes_out = writes_out
        self.ops = ops

    def __repr__(self):
        return ("<Burst pc=%d n=%d duration=%d width=%d stalls=%d/%d "
                "ops=%d>" % (self.start, self.n, self.duration,
                             self.width, self.short_stalls,
                             self.long_stalls, len(self.ops)))


def burstable(inst):
    """True when ``inst`` may be part of a precompiled plain burst."""
    return (inst.kind == KIND_PLAIN
            and inst.op is not Op.HALT
            and inst.info.unit not in _NON_PIPELINED)


def block_member(inst):
    """True when ``inst`` may sit inside a block (before its closing
    branch): a burstable instruction, a load or a store."""
    return burstable(inst) or inst.kind == KIND_MEM


def run_from(instructions, pc, memory_ops=False):
    """The straight-line run entered at ``pc``: burstable instructions
    up to the next one that is not, or with ``memory_ops`` the block
    members up to the next non-member, which the run includes when it
    is a branch or jump."""
    member = block_member if memory_ops else burstable
    end = pc
    n = len(instructions)
    while end < n and member(instructions[end]):
        end += 1
    if memory_ops and end < n and instructions[end].kind == KIND_CONTROL:
        end += 1
    return instructions[pc:end]


def _pack(instructions, threshold, width):
    """Pack a run into ``width`` issue slots per cycle.

    Replays exactly what the per-cycle loop does for a sole-running
    context with all live-in registers ready (and every load and store
    hitting): each cycle offers ``width`` slots; a slot either issues
    the next instruction or — when the next instruction is hazarded —
    charges one stall slot, with the naive loop's category split
    (remaining gap of at most ``threshold`` cycles -> short instruction
    stall, else long).  A hazard discovered at slot ``s`` therefore
    stalls the remaining ``width - s`` slots of its cycle, then
    ``width`` slots of every full stall cycle after it.

    Returns ``(cycle, slot, short, long, guard, writes, aligned, ops)``
    where ``(cycle, slot)`` is the position after the last issue,
    ``writes`` maps each register written to the ``(reg, relative ready
    cycle)`` pair of its last write, ``aligned`` is the index just past
    the last instruction that issued in the final slot of its cycle (the
    longest cycle-aligned prefix) and ``ops`` is :attr:`Burst.ops` for
    every instruction that is not plain (their write tuples share the
    pairs, so a long block's ops cost one pointer per write).
    """
    writes = {}         # reg -> (reg, relative ready cycle of last write)
    guard = {}          # live-in reg -> first-attempt relative cycle
    ops = []
    cycle = 0
    slot = 0
    short = long_ = 0
    aligned = 0
    for index, inst in enumerate(instructions):
        attempt = cycle
        until = cycle
        for r in inst.reads:
            last = writes.get(r)
            if last is None:
                guard.setdefault(r, attempt)
            elif last[1] > until:
                until = last[1]
        w = inst.writes
        if w >= 0:
            last = writes.get(w)
            if last is None:
                guard.setdefault(w, attempt)
            elif last[1] - inst.info.latency > until:
                until = last[1] - inst.info.latency
        while cycle < until:
            # Every remaining slot of a hazarded cycle stalls; the
            # category is the cycle's remaining gap, as the naive loop
            # charges it.
            slots = width - slot
            if until - cycle <= threshold:
                short += slots
            else:
                long_ += slots
            cycle += 1
            slot = 0
        if inst.kind != KIND_PLAIN:
            ops.append((index, cycle, short, long_,
                        tuple(sorted(writes.values()))))
        if w >= 0:
            writes[w] = (w, cycle + inst.info.latency)
        slot += 1
        if slot == width:
            cycle += 1
            slot = 0
            aligned = index + 1
    return cycle, slot, short, long_, guard, writes, aligned, ops


def schedule_burst(instructions, start, threshold, width=1):
    """Precompute the issue schedule of one straight-line run.

    With ``width == 1`` the whole run is always schedulable, loads,
    stores and a closing branch included.  With ``width > 1`` the run
    must be plain, and the burst covers the longest prefix ending on a
    cycle boundary (see module docstring); returns None when that prefix
    is shorter than :data:`MIN_BURST` (the caller falls back to
    per-issue stepping for this entry PC).
    """
    cycle, slot, short, long_, guard, writes, aligned, ops = _pack(
        instructions, threshold, width)
    if slot != 0:
        # The run's last instruction does not fill its cycle: truncate
        # to the aligned prefix and recompute its (prefix-stable)
        # schedule, so stalls, guards, and write-outs describe exactly
        # the retired instructions.
        if aligned < MIN_BURST:
            return None
        instructions = instructions[:aligned]
        cycle, slot, short, long_, guard, writes, aligned, ops = _pack(
            instructions, threshold, width)
        assert slot == 0, "aligned prefix must end on a cycle boundary"
    if instructions[-1].kind == KIND_CONTROL:
        writes_out = ops[-1][4]
    else:
        writes_out = tuple(sorted(writes.values()))
    return Burst(start, tuple(instructions), cycle, short, long_,
                 tuple(sorted(guard.items())), writes_out, width,
                 tuple(ops))


class BurstTable(dict):
    """Burst per entry PC of one program, built on demand.

    ``table[pc]`` is the :class:`Burst` entered at ``pc`` — scheduled
    the first time ``pc`` is looked up, from :func:`run_from` — or None
    when that run is shorter than :data:`MIN_BURST` (or, at a wider
    issue, its cycle-aligned prefix is).  A lookup of a built entry is
    a plain dict hit.  ``len`` and iteration cover every PC of the
    program in order, building what is missing, as a list of entries
    would.  ``memory_ops`` (width 1 only) makes the runs blocks.
    """

    __slots__ = ("instructions", "threshold", "width", "memory_ops")

    def __init__(self, program, threshold, width=1, memory_ops=False):
        if memory_ops and width != 1:
            raise ValueError("blocks are scheduled at issue width 1 only")
        super().__init__()
        self.instructions = program.instructions
        self.threshold = threshold
        self.width = width
        self.memory_ops = memory_ops

    def __missing__(self, pc):
        run = run_from(self.instructions, pc, self.memory_ops)
        burst = None
        if len(run) >= MIN_BURST:
            burst = schedule_burst(run, pc, self.threshold, self.width)
        self[pc] = burst
        return burst

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return (self[pc] for pc in range(len(self.instructions)))
