"""The multiple-context processor timing model.

One :class:`Processor` owns up to N hardware contexts, a scoreboard, a
BTB, and a context-selection policy, and issues at most one instruction
per cycle into the Figure 5 pipeline.  Timing is modelled at issue
granularity with three mechanisms that together reproduce the paper's
switch-cost behaviour exactly (Table 4):

**Doomed window** (cache-miss squash).  A memory operation's hit/miss
outcome is architecturally visible only at the WB stage, 6 cycles after
issue.  When a miss is detected, every instruction the offending context
issued in the window (including the memory op itself) is squashed and
re-executed after the fill.  Under the blocked scheme the context owns
every slot of the window — 7 lost cycles, the pipeline depth; under the
interleaved scheme it owns only its round-robin share — 1..7 slots,
usually 2-3.  Squashed slots are charged to the context-switch category.

**Processor-wide stall window.**  Blocking events that freeze the whole
front end — instruction-cache misses (the paper's I-cache is blocking and
never causes a context switch) and the tail of the blocked scheme's
3-cycle explicit-switch instruction — park the processor until a given
cycle with a fixed stall category.

**Stall-on-use** (single-context baseline).  With one context the lockup-
free cache lets execution continue past a load miss until a consumer
needs the value; the scoreboard's register ready-time is simply pushed
out to the fill-completion cycle.
"""

from repro.isa.opcodes import Op
from repro.isa.executor import execute
from repro.isa.instruction import (
    KIND_CONTROL, KIND_MEM, KIND_PREFETCH, KIND_LOCK, KIND_UNLOCK,
    KIND_BARRIER, KIND_BACKOFF, KIND_SWITCH,
)
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.scoreboard import Scoreboard
from repro.pipeline.stalls import Stall
from repro.core.context import HardwareContext, Status, NEVER
from repro.core.stats import CycleStats
from repro.core.policies import make_policy, idle_wake_info

# The per-cycle and per-instruction paths read enum members through
# these module globals, never as ``Stall.X``/``Status.X``/``Op.X``: on
# CPython 3.11 the enum metaclass defines ``__getattr__``, which sends
# every enum attribute load down the slow generic lookup, about ten
# times the cost of a global.  They are the same member objects, so
# ``is`` tests, ``counts[...]`` indices and every statistic are
# unchanged.
BUSY = Stall.BUSY
INST_SHORT = Stall.INST_SHORT
INST_LONG = Stall.INST_LONG
ICACHE = Stall.ICACHE
DCACHE = Stall.DCACHE
SYNC = Stall.SYNC
SWITCH = Stall.SWITCH
IDLE = Stall.IDLE
EMPTY = Status.EMPTY
RUNNING = Status.RUNNING
DOOMED = Status.DOOMED
WAITING = Status.WAITING
HALTED = Status.HALTED
LOCK_OPS = (Op.LOCK, Op.UNLOCK)


class Processor:
    """An N-context processor attached to a memory system."""

    def __init__(self, scheme, n_contexts, pipeline_params, memsys,
                 memory, sync=None, proc_id=0):
        self.scheme = scheme
        self.pp = pipeline_params
        self.policy = make_policy(scheme, n_contexts, pipeline_params)
        self.contexts = [HardwareContext(i) for i in range(n_contexts)]
        # The contexts in scan order from each pointer value (step's
        # one-pass pick).  load_process reuses the context objects, so
        # the rotations stay valid for the processor's life.
        self._rotations = [self.contexts[i:] + self.contexts[:i]
                           for i in range(n_contexts)]
        self.scoreboard = Scoreboard(n_contexts)
        self.btb = BranchTargetBuffer(pipeline_params.btb_entries)
        self.memsys = memsys
        # A model whose I-cache cannot miss (the multiprocessor's,
        # Section 5.2) is never probed for instruction fetches.
        self._ideal_icache = memsys.ideal_icache
        self.memory = memory          # functional memory (shared image)
        self.sync = sync
        self.proc_id = proc_id
        self.stats = CycleStats()
        self.stall_until = 0
        self.stall_category = ICACHE
        #: Optional hook fired when a context executes HALT; the
        #: workstation simulator uses it to restart finite processes for
        #: continuous throughput measurement.  A hook must hold no
        #: reference back to its simulator: that would close a cycle
        #: (processor, hook, simulator) that keeps a finished run's whole
        #: machine alive until a full garbage collection.
        self.on_halt = None
        #: Optional per-slot trace hook ``fn(cycle, ctx_or_None, kind)``
        #: with kind in {"busy", "squash", "stall", "idle"}; used by the
        #: Figure 2/3 trace reproductions.  Setting it disables the fast
        #: paths (burst dispatch and stall-window skipping) so every slot
        #: is stepped and reported; None (the default) is free.
        self.trace = None
        #: Optional data-access hook ``fn(cycle, ctx, pc, addr, is_write)``
        #: fired once per retired load/store, before it executes — the
        #: dynamic oracle of the race analysis
        #: (:class:`repro.core.tracing.SharedAccessRecorder`).  A block
        #: fires it for each load and store it issues, at the op's issue
        #: cycle, as stepping does, so the fast paths stay on while it
        #: is installed; None (the default) is free.
        self.access_log = None
        # Idle-parking state (see park/unpark below): while
        # parked, idle-slot accounting is deferred and settled lazily so
        # a fast-forwarding loop never steps this processor cycle by
        # cycle through a known-idle window.
        self._parked_from = None
        #: Cycle a parked processor must be stepped again, or None when
        #: only an external wake (or nothing) can make it runnable; set
        #: by park and context_woken, read by the advance loops.
        self.parked_due = None
        self._parked_reason = IDLE
        # Burst-engine state: when enabled, straight-line runs whose
        # precompiled schedule is valid retire in one step (_try_burst),
        # hazard-stall and doomed windows are charged in one step
        # (_skip_stall_window, _skip_doomed_window), and the processor
        # is busy — fully accounted — until burst_until.  burst_limit
        # bounds a window so it never crosses the advance window or a
        # scheduler interrupt, and extern_wakes marks machines (the
        # multiprocessor) where a lock/barrier handoff from another
        # processor could land inside a window.
        self.burst_enabled = False
        self.burst_until = 0
        self.burst_limit = NEVER
        self.extern_wakes = False
        # Runs span loads, stores and their closing branch (blocks) only
        # where a dispatch may perform accesses ahead of the loop's
        # clock and every stop falls on a cycle boundary: a memory
        # system this processor alone uses, one issue slot per cycle.
        self._memory_ops = (pipeline_params.issue_width == 1
                            and memsys.runs_ahead)

    # -- process management ----------------------------------------------------

    def load_process(self, slot, process):
        """Put ``process`` on hardware context ``slot``."""
        ctx = self.contexts[slot]
        ctx.load(process)
        self.scoreboard.clear_context(slot)
        if self.burst_enabled:
            ctx.burst_table = process.program.bursts_for(
                self.pp.short_stall_threshold, self.pp.issue_width,
                self._memory_ops)
        return ctx

    def unload_process(self, slot):
        self.contexts[slot].unload()
        self.scoreboard.clear_context(slot)

    def all_halted(self):
        return all(c.status in (HALTED, EMPTY) for c in self.contexts)

    # -- simulation interface ----------------------------------------------------

    def step(self, now):
        """Simulate one cycle; returns True when the cycle was idle.

        With ``issue_width > 1`` (the Section 7 in-order multi-issue
        extension) each cycle offers several issue slots; every slot is
        accounted separately, so utilisation and breakdown fractions are
        per-slot.  A processor-wide stall (blocking I-miss, TLB refill,
        blocked-scheme switch tail) wastes all of a cycle's slots.
        """
        stats = self.stats
        width = self.pp.issue_width
        if now < self.burst_until:
            # Inside a dispatched burst window: every slot up to
            # burst_until was charged at dispatch time.
            return False
        if now < self.stall_until:
            stats.add(self.stall_category, width)
            if self.trace is not None:
                self.trace(now, None, "stall")
            return False
        policy = self.policy
        # One pass in issue order from the policy's pointer applies each
        # context's due wake or miss detection, counts the selectable
        # (RUNNING or DOOMED) contexts and takes the first as slot 0's
        # (the scan ContextPolicy.select makes for later slots).
        ctx = None
        ready = 0
        for cand in self._rotations[policy.pointer]:
            status = cand.status
            if status is WAITING:
                if cand.wake_at > now:
                    continue
                cand.status = RUNNING
            elif status is DOOMED:
                if now >= cand.doomed_detect:
                    self._detect_miss(cand, now)
                    if cand.status is not RUNNING:
                        continue
            elif status is not RUNNING:
                continue
            ready += 1
            if ctx is None:
                ctx = cand
        if ctx is not None:
            policy.pointer = ((ctx.cid + policy.round_robin)
                              % policy.n_contexts)
        # One check per cycle decides whether this cycle may take a fast
        # path (a burst dispatch or a bulk-charged hazard window): the
        # burst engine is on, the slot tracer is off, and — under
        # round-robin issue — no second context is selectable, in which
        # case the policy could not give the window to one context
        # anyway.
        fast = (self.burst_enabled and self.trace is None
                and (ready < 2 or not policy.round_robin))
        trace = self.trace
        idle = True
        for _slot in range(width):
            if _slot:
                ctx = policy.select(self.contexts, now)
            if ctx is None:
                _, reason = idle_wake_info(self.contexts)
                stats.add(reason)
                if trace is not None:
                    trace(now, None, "idle")
                continue
            idle = False
            if ctx.status is DOOMED:
                ctx.doomed_count += 1
                stats.add(SWITCH)
                stats.squashed += 1
                if trace is not None:
                    trace(now, ctx, "squash")
                continue
            if fast and _slot == 0 and self._try_burst(ctx, now):
                # A dispatched burst accounts every slot of every cycle
                # in its window, including this cycle's.  (Dispatch is
                # legal only at slot 0: the packed schedule starts at a
                # cycle boundary.)
                break
            if trace is None:
                self._try_issue(ctx, now, width - _slot, fast)
            else:
                retired_before = stats.retired
                squashed_before = stats.squashed
                self._try_issue(ctx, now, width - _slot, fast)
                if stats.squashed != squashed_before:
                    kind = "squash"   # the memory op's own doomed slot
                elif stats.retired != retired_before:
                    kind = "busy"
                else:
                    kind = "stall"
                trace(now, ctx, kind)
            if now < self.burst_until:
                # _skip_stall_window opened a bulk-charged stall window
                # covering this cycle's remaining slots.
                break
            if now < self.stall_until:
                # The slot froze the front end (I-miss / TLB refill /
                # switch tail): the cycle's remaining slots are lost.
                remaining = width - _slot - 1
                if remaining:
                    stats.add(self.stall_category, remaining)
                break
        return idle

    def idle_until(self, now):
        """(wake_cycle, reason) when nothing can issue before wake_cycle.

        Returns None when the processor has work this cycle.  A wake_cycle
        of None means the processor can only be woken externally (lock or
        barrier release from another processor) or is fully halted.  The
        probe behind :meth:`park`.
        """
        if now < self.stall_until:
            return self.stall_until, self.stall_category
        if self._update_contexts(now):
            return None
        return idle_wake_info(self.contexts)

    def park(self, now):
        """Begin deferring idle accounting from cycle ``now``.

        Returns True when the processor has nothing to issue at ``now``
        (it is then parked); the owning loop must not step a parked
        processor again before :attr:`parked_due`, and must
        :meth:`unpark` it before doing so.  Equivalent to stepping every
        cycle of the window: idle slots are charged on unpark with the
        reason cycle-stepping would have used, and external wakes are
        reconciled by :meth:`context_woken`.
        """
        info = self.idle_until(now)
        if info is None:
            return False
        self._parked_from = now
        wake, self._parked_reason = info
        self._set_parked_due(wake)
        return True

    def _set_parked_due(self, wake):
        """:attr:`parked_due` for a park from ``_parked_from`` whose
        clock wake is ``wake`` (None: no clock wake exists)."""
        self.parked_due = (None if wake is None
                           else max(wake, self._parked_from))

    def unpark(self, now):
        """Settle the deferred idle window [parked_from, ``now``)."""
        start = self._parked_from
        if start is None:
            return
        if now > start:
            self.stats.add(self._parked_reason,
                           (now - start) * self.pp.issue_width)
        self._parked_from = None

    def context_woken(self, ctx, wake_at, now, waker=None):
        """Sync-event wake of ``ctx`` scheduled for ``wake_at``.

        Called by the SyncManager (instead of a bare ``ctx.wake``) when
        another processor's lock release or barrier arrival at cycle
        ``now`` wakes one of this processor's contexts.  For a parked
        processor the deferred window is settled with the pre-wake stall
        reason up to the cycle the wake becomes visible, then parking
        resumes from there — reproducing naive stepping exactly: within
        a cycle processors step in id order, so this processor observes
        the wake at ``now`` when it steps after the waker and at
        ``now + 1`` otherwise.  The resumed window is what stepping
        would see from that boundary: a processor-wide stall window
        still open (the blocked scheme's switch tail after a failed LOCK
        or an unreleased BARRIER) keeps its end and category; a context
        that can issue makes the processor due at once; otherwise the
        post-wake idle information applies.
        """
        if self._parked_from is None:
            ctx.wake(wake_at)
            return
        boundary = now
        if waker is None or self.proc_id < waker.proc_id:
            boundary = now + 1
        if boundary < self._parked_from:
            boundary = self._parked_from
        self.unpark(boundary)
        ctx.wake(wake_at)
        self._parked_from = boundary
        if boundary < self.stall_until:
            wake = self.stall_until
            self._parked_reason = self.stall_category
        elif any(c.status is RUNNING or c.status is DOOMED
                 for c in self.contexts):
            wake = boundary
        else:
            wake, self._parked_reason = idle_wake_info(self.contexts)
        self._set_parked_due(wake)

    # -- internals ---------------------------------------------------------------

    def _update_contexts(self, now):
        """Apply the wakes and miss detections due at ``now``; returns
        the number of selectable (RUNNING or DOOMED) contexts (the
        probe of :meth:`idle_until`; ``step`` makes the same pass)."""
        ready = 0
        for ctx in self.contexts:
            status = ctx.status
            if status is RUNNING:
                ready += 1
            elif status is WAITING:
                if ctx.wake_at <= now:
                    ctx.status = RUNNING
                    ready += 1
            elif status is DOOMED:
                if now < ctx.doomed_detect:
                    ready += 1
                    continue
                self._detect_miss(ctx, now)
                if ctx.status is RUNNING:
                    ready += 1
        return ready

    def _detect_miss(self, ctx, now):
        """WB-stage miss determination for a DOOMED context at ``now``:
        squash and go unavailable until the fill completes (at once
        RUNNING again when it already has)."""
        self.stats.context_switches += 1
        ctx.wait_until(max(ctx.doomed_completion, now), DCACHE)
        ctx.fetch_valid = False
        if ctx.wake_at <= now:
            ctx.status = RUNNING

    def _enter_doomed(self, ctx, result, now):
        """A late-detected memory stall: squash-window entry (Table 4).

        When the fill completes the context re-issues the memory op,
        which is satisfied directly from the MSHR fill data (no cache
        re-probe — see :attr:`HardwareContext.satisfied_pc`).
        """
        self.stats.add(SWITCH)
        self.stats.squashed += 1
        self._end_run(ctx)
        ctx.enter_doomed(now + self.pp.miss_detect_offset + 1, result.ready)
        ctx.doomed_count = 1
        ctx.satisfied_pc = ctx.state.pc

    def _end_run(self, ctx):
        """The context is leaving the available pool: record the
        runlength (paper Section 5.1)."""
        if ctx.run_instructions:
            self.stats.end_run(ctx.run_instructions)
            ctx.run_instructions = 0

    def _pay_off_cost(self, now):
        """Charge the tail of an explicit switch/backoff (Table 4).

        The instruction's own slot is charged by the caller; the blocked
        scheme's explicit switch costs 3 cycles total, so two more slots
        freeze the processor.
        """
        extra = self.policy.off_cost - 1
        if extra > 0:
            self.stall_until = now + 1 + extra
            self.stall_category = SWITCH

    def _retire(self, ctx, inst, now):
        """Functionally execute and commit ``inst`` for ``ctx``."""
        state = ctx.state
        if self.access_log is not None and inst.kind == KIND_MEM:
            self.access_log(now, ctx, state.pc,
                            state.regs[inst.rs1] + inst.imm,
                            inst.info.is_store)
        execute(state, inst, self.memory)
        self.scoreboard.issue(ctx.cid, inst, now)
        stats = self.stats
        stats.add(BUSY)
        stats.issued += 1
        stats.retired += 1
        ctx.run_instructions += 1
        if ctx.process is not None:
            ctx.process.retired += 1
        ctx.fetch_valid = False
        if state.halted:
            self._end_run(ctx)
            ctx.status = HALTED
            if ctx.process is not None:
                ctx.process.finished_at = now
            if self.on_halt is not None:
                self.on_halt(ctx, now)

    def _retire_bulk(self, ctx, n, short, long_):
        """Charge ``n`` retired instructions of a burst and the ``short``
        and ``long_`` hazard-stall slots between them: every counter
        :meth:`_retire` bumps per instruction, in one add each."""
        stats = self.stats
        stats.add(BUSY, n)
        if short:
            stats.add(INST_SHORT, short)
        if long_:
            stats.add(INST_LONG, long_)
        stats.issued += n
        stats.retired += n
        ctx.run_instructions += n
        if ctx.process is not None:
            ctx.process.retired += n

    def _try_burst(self, ctx, now):
        """Dispatch a precompiled straight-line burst, if legal at ``now``.

        Legality mirrors what per-cycle stepping would observe over the
        window ``[now, now + duration)``:

        * the context's PC heads a precompiled burst and no redirect
          bubble is pending;
        * the window fits under :attr:`burst_limit` (the advance loop's
          horizon / next scheduler interrupt);
        * this context owns every slot of the window, as the policy
          decides (:meth:`ContextPolicy.owns_window`): always under the
          single and blocked schemes, only as the sole runner under
          interleaving;
        * every live-in register is ready early enough that the
          precomputed schedule is exact (scoreboard guard);
        * every instruction line of the run is present in the I-cache
          (a memory model whose I-cache is ideal is not probed).

        Plain instructions execute functionally and retire in bulk: the
        scoreboard and stats take one bulk update each.  A block's ops
        (:attr:`Burst.ops`) issue at their scheduled cycles ``t``.  A
        load or store that hits the L1 D-cache commits through
        ``MemorySystem.l1_hit`` and the block goes on.  Anything else —
        a miss, a TLB refill, an MSHR-forward retry, the closing branch
        — first charges the prefix before it, then issues through the
        processor's own path at ``t`` exactly as stepping would.  The
        block goes on after that only when the op retired leaving the
        schedule intact (a single-context store miss, whose
        write-allocate completes in the background, or an MSHR-forward
        retry); otherwise the dispatch stops there and the
        processor is busy to ``t + 1``, or to the end of a window the op
        itself opened.  A completed dispatch leaves the processor busy
        until ``now + duration``.  Every slot of every cycle up to there
        is accounted — the schedule is packed for this pipeline's issue
        width, and dispatch happens only at slot 0 of a cycle, matching
        its cycle-boundary start — and the I-cache counts one hit per
        instruction stepping would have fetched.
        """
        state = ctx.state
        pc = state.pc
        burst = ctx.burst_table[pc]
        if burst is None or now < ctx.next_issue_min:
            return False
        end = now + burst.duration
        if end > self.burst_limit:
            return False
        if not self.policy.owns_window(ctx, self.contexts, end,
                                       self.extern_wakes):
            return False
        if not self.scoreboard.can_dispatch_burst(ctx.cid, burst, now):
            return False
        memsys = self.memsys
        code_base = ctx.program.code_base
        if not self._ideal_icache:
            if not memsys.inst_run_present(code_base + 4 * pc, burst.n):
                return False
            # Stepping fetches an instruction once, at its first attempt.
            already = 1 if (ctx.fetch_valid and ctx.fetch_pc == pc) else 0
        memory = self.memory
        insts = burst.instructions
        done = charged = short_charged = long_charged = 0
        for index, cycle, short, long_, writes in burst.ops:
            for inst in insts[done:index]:
                execute(state, inst, memory)
            done = index + 1
            op = insts[index]
            t = now + cycle
            if op.kind == KIND_MEM and ctx.satisfied_pc != state.pc:
                addr = state.regs[op.rs1] + op.imm
                is_store = op.info.is_store
                if memsys.l1_hit(addr, is_store, t) is not None:
                    if self.access_log is not None:
                        self.access_log(t, ctx, state.pc, addr, is_store)
                    execute(state, op, memory)
                    continue
            # The op issues through its own path at t, as stepping
            # issues it, after the prefix it follows is charged.
            self._retire_bulk(ctx, index - charged, short - short_charged,
                              long_ - long_charged)
            self.scoreboard.apply_burst(ctx.cid, now, writes)
            op_pc = state.pc
            ctx.fetch_pc = op_pc
            ctx.fetch_valid = True
            self.burst_until = t + 1
            if op.kind == KIND_CONTROL:
                self._retire(ctx, op, t)
                self._resolve_control(ctx, op, code_base + 4 * op_pc, t)
                break
            self._issue_memory(ctx, op, t)
            if state.pc == op_pc:
                # Not retired: a doomed miss, a TLB refill or an MSHR
                # wait.
                if ctx.status is DOOMED:
                    self._skip_doomed_window(ctx, t, 1)
                break
            if op.writes >= 0 and self.scoreboard.reg_mem[
                    (ctx.cid << 6) + op.writes]:
                break               # a stall-on-use load miss
            charged = done
            short_charged = short
            long_charged = long_
        else:
            for inst in insts[done:]:
                execute(state, inst, memory)
            done = burst.n
            self._retire_bulk(ctx, done - charged,
                              burst.short_stalls - short_charged,
                              burst.long_stalls - long_charged)
            self.scoreboard.apply_burst(ctx.cid, now, burst.writes_out)
            ctx.fetch_valid = False
            self.burst_until = end
        if not self._ideal_icache:
            memsys.count_fetch_hits(done - already)
        return True

    def _skip_doomed_window(self, ctx, now, slots_left):
        """Bulk-charge the squash slots of a doomed window (burst engine
        only).

        ``ctx`` entered its doomed window at ``now`` with one of the
        ``slots_left`` slots left in that cycle.  While it owns the
        window up to its WB-stage detection cycle (as the policy
        decides, see :meth:`_try_burst`), stepping would select it for
        every later slot of the window and squash each one: the rest of
        cycle ``now``, then ``issue_width`` slots of every cycle up to
        the detection.  Charges those slots (capped at
        :attr:`burst_limit`) at once and marks the processor busy to
        the window's end, where stepping resumes with the detection.
        """
        tgt = ctx.doomed_detect
        if tgt > self.burst_limit:
            tgt = self.burst_limit
        n = slots_left - 1 + (tgt - now - 1) * self.pp.issue_width
        if n <= 0 or not self.policy.owns_window(ctx, self.contexts, tgt,
                                                 self.extern_wakes):
            return
        stats = self.stats
        stats.add(SWITCH, n)
        stats.squashed += n
        ctx.doomed_count += n
        self.burst_until = tgt

    def _skip_stall_window(self, ctx, now, until, kind, slots_left):
        """Bulk-charge a hazard-stall window (burst engine only).

        While the stalled context owns the window (as the policy decides,
        see :meth:`_try_burst`) nothing can touch the scoreboard before
        ``until``, so every stall slot naive
        stepping would charge over ``[now, until)`` is known now: the
        data-cache category for a miss-pending register, otherwise the
        short/long split of the closing gap.  ``slots_left`` is the
        number of issue slots (this one included) remaining in cycle
        ``now`` — the hazard wastes all of them, then ``issue_width``
        slots of every later stall cycle, exactly as per-slot stepping
        would charge.  Charges the window (capped at
        :attr:`burst_limit`) in one bulk-add and marks the processor
        busy to its end; returns False — leaving the per-cycle charge to
        the caller — when the window is trivial or the context does not
        own it.
        """
        tgt = until if until <= self.burst_limit else self.burst_limit
        if tgt <= now + 1:
            return False
        if not self.policy.owns_window(ctx, self.contexts, tgt,
                                       self.extern_wakes):
            return False
        width = self.pp.issue_width
        n = tgt - now                       # stall cycles charged
        stats = self.stats
        if kind == "memory":
            stats.add(DCACHE, slots_left + (n - 1) * width)
        else:
            # Cycle t of the window stalls short when until - t is at
            # most the threshold, long before that.  The first cycle
            # contributes ``slots_left`` slots, every later one
            # ``width``.
            long_ = until - self.pp.short_stall_threshold - now
            if long_ > n:
                long_ = n
            if long_ > 0:
                stats.add(INST_LONG,
                          slots_left + (long_ - 1) * width)
                if n > long_:
                    stats.add(INST_SHORT, (n - long_) * width)
            else:
                stats.add(INST_SHORT, slots_left + (n - 1) * width)
        self.burst_until = tgt
        return True

    def _try_issue(self, ctx, now, slots_left=1, fast=False):
        stats = self.stats
        if now < ctx.next_issue_min:
            # Redirect bubble after a branch mispredict.
            stats.add(INST_SHORT)
            return
        state = ctx.state
        pc = state.pc
        inst = ctx.program.instructions[pc]

        # Instruction fetch (once per instruction instance; never for
        # an ideal I-cache, which cannot miss).
        fetch_addr = ctx.program.code_base + 4 * pc
        if not (self._ideal_icache
                or (ctx.fetch_valid and ctx.fetch_pc == pc)):
            res = self.memsys.inst_fetch(fetch_addr, now)
            ctx.fetch_pc = pc
            ctx.fetch_valid = True
            if res.level != "l1":
                # Blocking I-cache: the whole processor stalls, and no
                # context switch happens (paper Section 4.1).
                stats.add(ICACHE)
                self.stall_until = res.ready
                self.stall_category = ICACHE
                return

        # Register / functional-unit hazards.
        until, kind = self.scoreboard.hazard_until(ctx.cid, inst, now)
        if until > now:
            if fast and self._skip_stall_window(ctx, now, until, kind,
                                                slots_left):
                return
            if kind == "memory":
                stats.add(DCACHE)
            elif until - now <= self.pp.short_stall_threshold:
                stats.add(INST_SHORT)
            else:
                stats.add(INST_LONG)
            return

        # Dispatch on the decode-time issue kind (precomputed on the
        # Instruction, so the hot path never re-inspects OpInfo flags).
        kind = inst.kind
        if kind == KIND_MEM:
            self._issue_memory(ctx, inst, now)
        elif kind == KIND_CONTROL:
            self._retire(ctx, inst, now)
            self._resolve_control(ctx, inst, fetch_addr, now)
        elif kind == KIND_PREFETCH:
            self._issue_prefetch(ctx, inst, now)
        elif kind == KIND_LOCK:
            self._issue_lock(ctx, inst, now)
        elif kind == KIND_UNLOCK:
            self._issue_unlock(ctx, inst, now)
        elif kind == KIND_BARRIER:
            self._issue_barrier(ctx, inst, now)
        elif kind == KIND_BACKOFF:
            self._issue_backoff(ctx, inst, now)
        elif kind == KIND_SWITCH:
            self._issue_switch(ctx, inst, now)
        else:
            self._retire(ctx, inst, now)
        if fast and ctx.status is DOOMED:
            # The op's miss just doomed the context (step never issues
            # for a DOOMED one).
            self._skip_doomed_window(ctx, now, slots_left)

    def _access_satisfied(self, ctx, inst, now):
        """Perform the timing access for a memory op; True when usable.

        Covers the MSHR-forwarding retry (a previously doomed/stalled
        access whose fill completed), the inline software TLB refill
        (which freezes the whole pipeline — the handler's instructions
        occupy it, so no scheme can switch over it), and the
        scheme-specific miss behaviour.
        """
        if ctx.satisfied_pc == ctx.state.pc:
            # Re-issue after the fill: data forwarded from the MSHR.
            ctx.satisfied_pc = -1
            return True
        addr = ctx.state.regs[inst.rs1] + inst.imm
        res = self.memsys.data_access(addr, inst.info.is_store or
                                      inst.op in LOCK_OPS, now)
        if res.level == "l1":
            return True
        if res.level == "tlb":
            # Software-refilled TLB: the handler runs in-line and
            # occupies the pipeline for every scheme.
            self.stats.add(DCACHE)
            self.stall_until = res.ready
            self.stall_category = DCACHE
            return False
        if res.level == "mshr":
            # Structural stall: all MSHRs busy; retry when one frees.
            self.stats.add(DCACHE)
            ctx.wait_until(res.ready, DCACHE)
            return False
        if self.policy.uses_doomed_window:
            self._enter_doomed(ctx, res, now)
            return False
        # Single-context baseline.
        if inst.info.is_load and inst.writes >= 0:
            # Stall-on-use: commit now, data arrives at res.ready.
            self._retire(ctx, inst, now)
            self.scoreboard.set_ready(ctx.cid, inst.writes, res.ready,
                                      memory=True)
            return False   # already retired
        if inst.info.is_store:
            # Write-allocate store miss completes in the background.
            self._retire(ctx, inst, now)
            return False
        # LOCK/UNLOCK on the baseline: wait for the line, then operate.
        self.stats.add(DCACHE)
        ctx.wait_until(res.ready, DCACHE)
        ctx.satisfied_pc = ctx.state.pc
        return False

    def _issue_memory(self, ctx, inst, now):
        if self._access_satisfied(ctx, inst, now):
            self._retire(ctx, inst, now)

    def _issue_prefetch(self, ctx, inst, now):
        """Non-binding prefetch: start the fill, never stall or squash.

        The line lands in the cache (and an MSHR tracks it) so a timely
        later load hits or merges; a useless prefetch costs only its
        issue slot and cache traffic — exactly the software-prefetch
        trade the paper's introduction describes.  A prefetch that
        misses the TLB is dropped (it refills the TLB entry but fetches
        no line), like real non-faulting prefetches.
        """
        addr = ctx.state.regs[inst.rs1] + inst.imm
        self.memsys.data_access(addr, False, now)
        self._retire(ctx, inst, now)

    def _issue_lock(self, ctx, inst, now):
        if not self._access_satisfied(ctx, inst, now):
            return
        addr = ctx.state.regs[inst.rs1] + inst.imm
        if self.sync.try_acquire(addr, self, ctx):
            self._retire(ctx, inst, now)
            return
        # Lock held elsewhere: leave the processor until handoff.
        if self.policy.off_cost > 0:
            self.stats.add(SWITCH)
            self._pay_off_cost(now)
        else:
            self.stats.add(SYNC)
        self._end_run(ctx)
        ctx.wait_on_lock(addr)
        ctx.fetch_valid = False

    def _issue_unlock(self, ctx, inst, now):
        if not self._access_satisfied(ctx, inst, now):
            return
        addr = ctx.state.regs[inst.rs1] + inst.imm
        self.sync.release(addr, self, ctx, now)
        self._retire(ctx, inst, now)

    def _issue_barrier(self, ctx, inst, now):
        released = self.sync.barrier_arrive(inst.imm, self, ctx, now)
        self._retire(ctx, inst, now)
        if not released:
            if self.policy.off_cost > 0:
                self._pay_off_cost(now)
            self._end_run(ctx)
            ctx.wait_on_lock(None, SYNC)
            ctx.fetch_valid = False

    def _issue_backoff(self, ctx, inst, now):
        if self.policy.off_cost == 0:
            # The single-context baseline treats the hint as a NOP.
            self._retire(ctx, inst, now)
            return
        execute(ctx.state, inst, self.memory)   # just advances the PC
        self.stats.add(SWITCH)
        self.stats.issued += 1
        self.stats.backoffs += 1
        self._pay_off_cost(now)
        self._end_run(ctx)
        ctx.wait_until(now + 1 + inst.imm, INST_LONG)
        ctx.fetch_valid = False

    def _issue_switch(self, ctx, inst, now):
        if self.policy.name != "blocked":
            self._retire(ctx, inst, now)
            return
        execute(ctx.state, inst, self.memory)
        self.stats.add(SWITCH)
        self.stats.issued += 1
        self._pay_off_cost(now)
        self.policy.force_switch(self.contexts)
        ctx.fetch_valid = False

    def _resolve_control(self, ctx, inst, fetch_addr, now):
        predicted = self.btb.predict(fetch_addr)
        actual = ctx.state.pc          # already updated by execute()
        correct = self.btb.resolve(fetch_addr, predicted, actual,
                                   inst.index + 1)
        if not correct:
            ctx.next_issue_min = now + 1 + self.pp.mispredict_penalty
