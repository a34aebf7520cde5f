"""Straight-line burst segmentation (the burst engine's compile step).

The paper's central statistic — run length between long-latency events
(Figures 6/8, Table 7) — says most issued instructions sit in long,
perfectly predictable straight-line runs.  The burst engine exploits
this: at program load each program is segmented into *bursts*, maximal
straight-line runs whose complete issue schedule can be computed ahead
of time, so the processor can retire a whole burst with one scoreboard
bulk-update and one stats bulk-add instead of N per-cycle issue trips.

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
post-squash re-issue, JR), a burst is built for *every suffix* of every
maximal run, keyed by entry PC.
"""

from repro.isa.opcodes import Op, FU
from repro.isa.instruction import KIND_PLAIN

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
    against the packed multi-issue schedule).
    """

    __slots__ = ("start", "n", "instructions", "duration", "width",
                 "short_stalls", "long_stalls", "guard", "writes_out")

    def __init__(self, start, instructions, duration, short_stalls,
                 long_stalls, guard, writes_out, width=1):
        self.start = start
        self.instructions = instructions
        self.n = len(instructions)
        self.duration = duration
        self.width = width
        self.short_stalls = short_stalls
        self.long_stalls = long_stalls
        self.guard = guard
        self.writes_out = writes_out

    def __repr__(self):
        return ("<Burst pc=%d n=%d duration=%d width=%d stalls=%d/%d>"
                % (self.start, self.n, self.duration, self.width,
                   self.short_stalls, self.long_stalls))


def burstable(inst):
    """True when ``inst`` may be part of a precompiled burst."""
    return (inst.kind == KIND_PLAIN
            and inst.op is not Op.HALT
            and inst.info.unit not in _NON_PIPELINED)


def _pack(instructions, threshold, width):
    """Pack a run into ``width`` issue slots per cycle.

    Replays exactly what the per-cycle loop does for a sole-running
    context with all live-in registers ready: each cycle offers
    ``width`` slots; a slot either issues the next instruction or — when
    the next instruction is hazarded — charges one stall slot, with the
    naive loop's category split (remaining gap of at most ``threshold``
    cycles -> short instruction stall, else long).  A hazard discovered
    at slot ``s`` therefore stalls the remaining ``width - s`` slots of
    its cycle, then ``width`` slots of every full stall cycle after it.

    Returns ``(cycle, slot, short, long, guard, rel_ready, aligned)``
    where ``(cycle, slot)`` is the position after the last issue and
    ``aligned`` is the index just past the last instruction that issued
    in the final slot of its cycle (the longest cycle-aligned prefix).
    """
    rel_ready = {}      # reg -> relative ready cycle of its last write
    guard = {}          # live-in reg -> first-attempt relative cycle
    cycle = 0
    slot = 0
    short = long_ = 0
    aligned = 0
    for index, inst in enumerate(instructions):
        attempt = cycle
        until = cycle
        for r in inst.reads:
            t = rel_ready.get(r)
            if t is None:
                guard.setdefault(r, attempt)
            elif t > until:
                until = t
        w = inst.writes
        if w >= 0:
            t = rel_ready.get(w)
            if t is None:
                guard.setdefault(w, attempt)
            else:
                t -= inst.info.latency
                if t > until:
                    until = t
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
        if w >= 0:
            rel_ready[w] = cycle + inst.info.latency
        slot += 1
        if slot == width:
            cycle += 1
            slot = 0
            aligned = index + 1
    return cycle, slot, short, long_, guard, rel_ready, aligned


def schedule_burst(instructions, start, threshold, width=1):
    """Precompute the issue schedule of one straight-line run.

    With ``width == 1`` the whole run is always schedulable.  With
    ``width > 1`` the burst covers the longest prefix ending on a cycle
    boundary (see module docstring); returns None when that prefix is
    shorter than :data:`MIN_BURST` (the caller falls back to per-issue
    stepping for this entry PC).
    """
    cycle, slot, short, long_, guard, rel_ready, aligned = _pack(
        instructions, threshold, width)
    if slot != 0:
        # The run's last instruction does not fill its cycle: truncate
        # to the aligned prefix and recompute its (prefix-stable)
        # schedule, so stalls, guards, and write-outs describe exactly
        # the retired instructions.
        if aligned < MIN_BURST:
            return None
        instructions = instructions[:aligned]
        cycle, slot, short, long_, guard, rel_ready, aligned = _pack(
            instructions, threshold, width)
        assert slot == 0, "aligned prefix must end on a cycle boundary"
    return Burst(start, tuple(instructions), cycle, short, long_,
                 tuple(sorted(guard.items())),
                 tuple(sorted(rel_ready.items())), width)


def build_burst_table(program, threshold, width=1):
    """Burst-per-entry-PC table for ``program``.

    Returns a list the length of the program; entry ``pc`` is the
    :class:`Burst` covering the straight-line run from ``pc`` to the
    next non-burstable instruction (truncated to a cycle-aligned prefix
    when ``width > 1``), or None when that run is shorter than
    :data:`MIN_BURST`.
    """
    insts = program.instructions
    n = len(insts)
    table = [None] * n
    i = 0
    while i < n:
        if not burstable(insts[i]):
            i += 1
            continue
        j = i
        while j < n and burstable(insts[j]):
            j += 1
        for s in range(i, j - MIN_BURST + 1):
            table[s] = schedule_burst(insts[s:j], s, threshold, width)
        i = j
    return table
