"""Static audit of the burst engine's precompiled schedules (B2xx).

The burst engine's correctness rests on a handful of slot-packing
invariants that :mod:`repro.isa.segments` promises (and the differential
harness checks dynamically against the naive engine).  This module
re-derives the *checkable* part symbolically from the burst tables a
program would actually hand the engine — no simulator runs:

* **Slot conservation** (B201): every slot of a burst's window is
  accounted — ``n + short_stalls + long_stalls == duration * width``.
  This is also exactly the "ends on a cycle boundary" alignment rule
  for multi-issue bursts: a non-aligned schedule cannot conserve slots
  with an integer duration.
* **Issue-bandwidth bound** (B202): ``duration >= ceil(n / width)`` —
  a width-w pipeline cannot retire more than w instructions per cycle.
* **Guard-slack monotonicity** (B203): a register's guard slack is the
  relative cycle of its first use; with more issue slots per cycle an
  instruction can only issue *earlier*, so for any entry PC the slack
  of a shared live-in register must be non-increasing in width.
  (Truncation keeps this comparable: a wider burst is a prefix of the
  same run, so a register in both guards first appears at the same
  instruction.)
* **Suffix coverage** (B204): control can enter a run at any
  instruction, so the width-1 table must carry a full-suffix burst for
  *every* entry PC of every maximal burstable run that is at least
  ``MIN_BURST`` from the run's end — and no burst anywhere else.
  Wider tables may drop an entry (cycle-aligned prefix shorter than
  ``MIN_BURST``) but must never add one outside an eligible position.
* **Metadata bounds** (B205): starts/instruction slices match the
  program, guard registers are architectural (1..63, never hardwired
  r0), slacks sit inside the burst window, write-out deltas are
  positive completion times, and both tuples are reg-sorted (the
  engine's bulk ops rely on the order).

The width-1 *block* table (runs through loads and stores to their
closing branch, the table a workstation processor dispatches from) is
audited too, against maximal block runs, with the checks above plus
its ops (:attr:`repro.isa.segments.Burst.ops`): they must be exactly
the block's loads, stores and closing branch, in order (B205); each
must account every slot before it, ``index + short + long == cycle``,
with cycles and stall counts inside the whole window's, and a closing
branch must issue in the window's last cycle (B201); the write-outs of
a block that closes with a branch are the writes before it (B205).  A
plain table holds no op.

Maximal runs are recomputed here independently from
:func:`repro.isa.segments.burstable` and
:func:`~repro.isa.segments.block_member`, so a table built from a stale
or hand-edited schedule cannot vouch for itself.
"""

from repro.isa.instruction import KIND_CONTROL, KIND_PLAIN
from repro.isa.segments import MIN_BURST, block_member, burstable
from repro.analysis.diagnostics import Diagnostic

#: Issue widths audited by default — the widths the experiments use
#: (Section 7 extension sweeps 1/2/4).
DEFAULT_WIDTHS = (1, 2, 4)


def maximal_runs(program, memory_ops=False):
    """Maximal straight-line runs as ``(start, end)`` pairs: burstable
    runs, or with ``memory_ops`` block runs, each with the branch or
    jump that closes it."""
    insts = program.instructions
    member = block_member if memory_ops else burstable
    n = len(insts)
    runs = []
    i = 0
    while i < n:
        if not member(insts[i]):
            i += 1
            continue
        j = i
        while j < n and member(insts[j]):
            j += 1
        if memory_ops and j < n and insts[j].kind == KIND_CONTROL:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def _run_ends(program, memory_ops):
    """Entry pc -> end of its maximal run, for every eligible entry."""
    run_end = {}
    for i, j in maximal_runs(program, memory_ops):
        for s in range(i, j - MIN_BURST + 1):
            run_end[s] = j
    return run_end


def audit_bursts(program, threshold, widths=DEFAULT_WIDTHS):
    """Audit ``program``'s burst tables — one per width in ``widths``,
    plus the block table when 1 is among them; returns a list of
    Diagnostics."""
    diags = []
    name = program.name
    insts = program.instructions
    tables = {w: program.bursts_for(threshold, w) for w in widths}
    plain_ends = _run_ends(program, False)
    audited = [(w, False, tables[w], plain_ends) for w in widths]
    if 1 in widths:
        audited.append((1, True, program.bursts_for(threshold, 1, True),
                        _run_ends(program, True)))

    for width, blocks, table, run_end in audited:
        label = "width-1 block" if blocks else "width-%d" % width
        if len(table) != len(insts):
            diags.append(Diagnostic(
                "B205", "%s burst table has %d entries for a "
                "%d-instruction program" % (label, len(table),
                                            len(insts)), program=name))
            continue
        for s, burst in enumerate(table):
            if burst is None:
                if width == 1 and s in run_end:
                    diags.append(Diagnostic(
                        "B204", "%s table missing the suffix burst "
                        "for entry pc %d (run ends at %d)"
                        % (label, s, run_end[s]), program=name, pc=s))
                continue
            if s not in run_end:
                diags.append(Diagnostic(
                    "B204", "%s burst at pc %d, which is not an "
                    "eligible entry of any %s run"
                    % (label, s, "block" if blocks else "burstable"),
                    program=name, pc=s))
                continue
            _audit_one(burst, width, s, run_end[s], insts, name, diags)

    _audit_guard_monotonicity(tables, widths, name, diags)
    return diags


def _audit_one(burst, width, pc, end, insts, name, diags):
    if burst.start != pc or burst.width != width:
        diags.append(Diagnostic(
            "B205", "burst filed at pc %d / width %d records "
            "start=%d width=%d" % (pc, width, burst.start, burst.width),
            program=name, pc=pc))
        return
    n = burst.n
    if (n != len(burst.instructions) or n < MIN_BURST
            or pc + n > end
            or (width == 1 and pc + n != end)
            or any(burst.instructions[k] is not insts[pc + k]
                   for k in range(n))):
        diags.append(Diagnostic(
            "B204", "width-%d burst at pc %d covers %d instructions; "
            "expected a %s of the run ending at %d"
            % (width, pc, n,
               "full suffix" if width == 1 else "prefix of the suffix",
               end), program=name, pc=pc))
        return
    if burst.duration * width < n:
        diags.append(Diagnostic(
            "B202", "width-%d burst at pc %d retires %d instructions "
            "in %d cycles (max %d per cycle)"
            % (width, pc, n, burst.duration, width),
            program=name, pc=pc))
    if n + burst.short_stalls + burst.long_stalls != burst.duration * width:
        diags.append(Diagnostic(
            "B201", "width-%d burst at pc %d: %d issues + %d short + "
            "%d long stalls != %d cycles * %d slots"
            % (width, pc, n, burst.short_stalls, burst.long_stalls,
               burst.duration, width), program=name, pc=pc))
    if burst.short_stalls < 0 or burst.long_stalls < 0:
        diags.append(Diagnostic(
            "B201", "width-%d burst at pc %d has negative stall counts "
            "%d/%d" % (width, pc, burst.short_stalls,
                       burst.long_stalls), program=name, pc=pc))
    for label, pairs in (("guard", burst.guard),
                        ("writes_out", burst.writes_out)):
        if list(pairs) != sorted(pairs):
            diags.append(Diagnostic(
                "B205", "width-%d burst at pc %d: %s not sorted by "
                "register" % (width, pc, label), program=name, pc=pc))
        for reg, value in pairs:
            if not 1 <= reg <= 63:
                diags.append(Diagnostic(
                    "B205", "width-%d burst at pc %d: %s names "
                    "non-architectural register %d"
                    % (width, pc, label, reg), program=name, pc=pc))
            elif label == "guard" and not 0 <= value < burst.duration:
                diags.append(Diagnostic(
                    "B205", "width-%d burst at pc %d: guard slack %d "
                    "for reg %d outside the %d-cycle window"
                    % (width, pc, value, reg, burst.duration),
                    program=name, pc=pc))
            elif label == "writes_out" and value < 1:
                diags.append(Diagnostic(
                    "B205", "width-%d burst at pc %d: write-out delta "
                    "%d for reg %d is not a completion time"
                    % (width, pc, value, reg), program=name, pc=pc))
    _audit_ops(burst, pc, name, diags)


def _audit_ops(burst, pc, name, diags):
    """B201/B205 over a burst's ops (a plain burst has none)."""
    insts = burst.instructions
    positions = [op[0] for op in burst.ops]
    expected = [k for k, inst in enumerate(insts)
                if inst.kind != KIND_PLAIN]
    if positions != expected:
        diags.append(Diagnostic(
            "B205", "burst at pc %d records ops at %s; its loads, stores "
            "and closing branch sit at %s" % (pc, positions, expected),
            program=name, pc=pc))
        return
    last = (-1, 0, 0)
    for index, cycle, short, long_, writes in burst.ops:
        if (index + short + long_ != cycle
                or not last[0] < cycle < burst.duration
                or not last[1] <= short <= burst.short_stalls
                or not last[2] <= long_ <= burst.long_stalls
                or (insts[index].kind == KIND_CONTROL
                    and cycle != burst.duration - 1)):
            diags.append(Diagnostic(
                "B201", "burst at pc %d: op %d at cycle %d after %d "
                "issues + %d short + %d long stalls does not fit the "
                "%d-cycle window" % (pc, index, cycle, index, short,
                                     long_, burst.duration),
                program=name, pc=pc))
        if (list(writes) != sorted(writes)
                or any(not 1 <= reg <= 63 or delta < 1
                       for reg, delta in writes)):
            diags.append(Diagnostic(
                "B205", "burst at pc %d: the writes before op %d are "
                "unsorted or out of bounds" % (pc, index),
                program=name, pc=pc))
        last = (cycle, short, long_)
    if (positions and insts[-1].kind == KIND_CONTROL
            and burst.writes_out != burst.ops[-1][4]):
        diags.append(Diagnostic(
            "B205", "burst at pc %d closes with a branch but its "
            "write-outs are not the writes before it" % pc,
            program=name, pc=pc))


def _audit_guard_monotonicity(tables, widths, name, diags):
    ordered = sorted(set(widths))
    for a in range(len(ordered)):
        for b in range(a + 1, len(ordered)):
            w1, w2 = ordered[a], ordered[b]
            t1, t2 = tables[w1], tables[w2]
            for pc in range(min(len(t1), len(t2))):
                b1, b2 = t1[pc], t2[pc]
                if b1 is None or b2 is None:
                    continue
                g1 = dict(b1.guard)
                for reg, slack2 in b2.guard:
                    slack1 = g1.get(reg)
                    if slack1 is not None and slack2 > slack1:
                        diags.append(Diagnostic(
                            "B203", "guard slack for reg %d at pc %d "
                            "grows from %d (width %d) to %d (width %d)"
                            % (reg, pc, slack1, w1, slack2, w2),
                            program=name, pc=pc))


__all__ = ["audit_bursts", "maximal_runs", "DEFAULT_WIDTHS"]
