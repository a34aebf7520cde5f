"""Issue scoreboard: register and functional-unit hazard tracking.

The paper's simulator "models all major pipeline dependencies, including
load, execution result, execution issue, and control-transfer hazards ...
through a scoreboard which maintains information on the functional unit
and register usage of all operations in progress".  This is that
scoreboard, at issue granularity:

* per-context register ready-times model result forwarding — a consumer
  may issue once ``now >= ready[reg]``, and the Table 3 latencies are
  exactly these issue-to-issue distances (ALU 1, shift 2, load 3, FP 5,
  divides 35/61);
* non-pipelined functional units (integer multiply/divide, FP divide)
  impose structural hazards through shared busy-until times;
* output (WAW) dependencies delay issue until the write completes in
  order; anti (WAR) dependencies cannot occur at issue granularity since
  operands are captured at issue.

Register state is kept in flat arrays indexed ``(ctx_id << 6) | reg``
(ready-times plus miss-pending flags): one index computation replaces
the per-access inner-list lookup on the hot path, and the burst engine's
bulk updates write straight into the flat arrays.
"""

from repro.isa.opcodes import FU

#: Units that are not pipelined and therefore block subsequent issues.
_NON_PIPELINED = (FU.MULDIV, FU.FPDIV)

#: Registers per hardware context in the flat arrays (32 int + 32 fp).
_REGS = 64

#: Reusable zero blocks for clear_context's slice assignment (one
#: context's worth of ready-times / miss flags).
_ZERO_READY = (0,) * _REGS
_ZERO_MEM = bytes(_REGS)


class Scoreboard:
    """Register and functional-unit hazard tracking for all contexts."""

    __slots__ = ("n_contexts", "reg_ready", "reg_mem", "fu_busy")

    def __init__(self, n_contexts):
        self.n_contexts = n_contexts
        # reg_ready[ctx << 6 | reg] = first cycle the value is usable.
        self.reg_ready = [0] * (_REGS * n_contexts)
        # reg_mem[ctx << 6 | reg] = the pending value comes from a cache
        # miss (stall-on-use); consumers charge their wait to the
        # data-cache category rather than to a pipeline dependency.
        self.reg_mem = bytearray(_REGS * n_contexts)
        self.fu_busy = [0] * (max(FU) + 1)

    def hazard_until(self, ctx_id, inst, now):
        """Earliest cycle ``inst`` could issue, and the limiting kind.

        Returns ``(ready_cycle, kind)`` where kind is ``"data"`` for a
        register dependency, ``"memory"`` when the limiting register is
        waiting on an outstanding cache miss, ``"structural"`` for a busy
        functional unit, or None when the instruction can issue at ``now``.
        """
        base = ctx_id << 6
        ready = self.reg_ready
        mem = self.reg_mem
        latest = now
        kind = None
        for r in inst.reads:
            t = ready[base + r]
            if t > latest:
                latest = t
                kind = "memory" if mem[base + r] else "data"
        w = inst.writes
        if w >= 0:
            # In-order (output-dependency-safe) write: this write must not
            # complete before an older, longer-latency write to the same
            # register.
            t = ready[base + w] - inst.info.latency
            if t > latest:
                latest = t
                kind = "memory" if mem[base + w] else "data"
        unit = inst.info.unit
        if unit in _NON_PIPELINED:
            t = self.fu_busy[unit]
            if t > latest:
                latest = t
                kind = "structural"
        if latest > now:
            return latest, kind
        return now, None

    def issue(self, ctx_id, inst, now):
        """Commit the issue of ``inst`` at cycle ``now``."""
        w = inst.writes
        if w >= 0:
            idx = (ctx_id << 6) + w
            self.reg_ready[idx] = now + inst.info.latency
            self.reg_mem[idx] = 0
        unit = inst.info.unit
        if unit in _NON_PIPELINED:
            self.fu_busy[unit] = now + inst.info.issue

    def apply_burst(self, ctx_id, now, writes_out):
        """Bulk-commit a burst's ``(reg, delta)`` write schedule at ``now``.

        The deltas come from the burst's packed schedule, so they are
        already issue-width aware (a width-2 burst's issue cycles — and
        hence its write completion deltas — differ from the width-1
        packing of the same run).  Equivalent to calling :meth:`issue`
        for every instruction of the burst (bursts never touch
        non-pipelined units, so ``fu_busy`` is untouched by
        construction).
        """
        base = ctx_id << 6
        ready = self.reg_ready
        mem = self.reg_mem
        for reg, delta in writes_out:
            idx = base + reg
            ready[idx] = now + delta
            mem[idx] = 0

    def can_dispatch_burst(self, ctx_id, burst, now):
        """True when every live-in register of ``burst`` is ready early
        enough that the precompiled schedule is exact (see
        :class:`repro.isa.segments.Burst`).  Guard slacks are the first
        *attempt cycle* of each live-in in the packed schedule, so the
        check is exact at any issue width: a register ready by its first
        attempt cycle cannot change the schedule regardless of which
        slot of that cycle the instruction issues in."""
        base = ctx_id << 6
        ready = self.reg_ready
        for reg, slack in burst.guard:
            if ready[base + reg] > now + slack:
                return False
        return True

    def set_ready(self, ctx_id, reg, cycle, memory=False):
        """Override a register's ready time (used for load-miss returns)."""
        idx = (ctx_id << 6) + reg
        self.reg_ready[idx] = cycle
        self.reg_mem[idx] = 1 if memory else 0

    def clear_context(self, ctx_id):
        """Forget all pending results of a context.

        Used when the OS loads a *different process* onto the hardware
        context — every process switch of the workstation model lands
        here, so it is a single slice assignment, not an element loop.
        It is deliberately **not** used on a cache-miss squash:
        instructions older than the miss (e.g. an in-flight FP divide)
        keep completing during the memory wait, and the squashed younger
        instructions never touched the scoreboard in the first place.
        """
        base = ctx_id << 6
        self.reg_ready[base:base + _REGS] = _ZERO_READY
        self.reg_mem[base:base + _REGS] = _ZERO_MEM


__all__ = ["Scoreboard"]
