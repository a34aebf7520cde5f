"""Context-selection policies."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PipelineParams
from repro.core.context import HardwareContext, Status, NEVER
from repro.core.policies import (
    SinglePolicy, BlockedPolicy, InterleavedPolicy, make_policy,
    idle_wake_info,
)
from repro.core.processor import Processor
from repro.core.simulator import Process
from repro.core.sync import SyncManager
from repro.experiments.microbench import FixedLatencyMemory
from repro.isa import AsmBuilder
from repro.isa.executor import Memory
from repro.pipeline.stalls import Stall


def contexts(n, status=Status.RUNNING):
    out = []
    for i in range(n):
        ctx = HardwareContext(i)
        ctx.status = status
        out.append(ctx)
    return out


PP = PipelineParams()


class TestMakePolicy:
    def test_scheme_classes(self):
        assert isinstance(make_policy("single", 1, PP), SinglePolicy)
        assert isinstance(make_policy("blocked", 2, PP), BlockedPolicy)
        assert isinstance(make_policy("interleaved", 2, PP),
                          InterleavedPolicy)

    def test_one_context_degrades_to_single(self):
        """Paper constraint: single-thread performance unchanged."""
        assert isinstance(make_policy("blocked", 1, PP), SinglePolicy)
        assert isinstance(make_policy("interleaved", 1, PP), SinglePolicy)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_policy("simultaneous", 2, PP)

    def test_bad_context_count(self):
        with pytest.raises(ValueError):
            make_policy("blocked", 0, PP)
        with pytest.raises(ValueError):
            make_policy("single", 2, PP)

    def test_off_costs_table4(self):
        assert make_policy("blocked", 2, PP).off_cost == 3
        assert make_policy("interleaved", 2, PP).off_cost == 1
        assert make_policy("single", 1, PP).off_cost == 0


class TestInterleavedSelection:
    def test_round_robin_over_available(self):
        policy = InterleavedPolicy(4, PP)
        ctxs = contexts(4)
        picks = [policy.select(ctxs, t).cid for t in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_unavailable_context_skipped(self):
        policy = InterleavedPolicy(4, PP)
        ctxs = contexts(4)
        ctxs[1].status = Status.WAITING
        picks = [policy.select(ctxs, t).cid for t in range(6)]
        assert picks == [0, 2, 3, 0, 2, 3]

    def test_doomed_contexts_still_selected(self):
        policy = InterleavedPolicy(2, PP)
        ctxs = contexts(2)
        ctxs[0].status = Status.DOOMED
        picks = [policy.select(ctxs, t).cid for t in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_none_when_all_unavailable(self):
        policy = InterleavedPolicy(2, PP)
        ctxs = contexts(2, Status.WAITING)
        assert policy.select(ctxs, 0) is None

    def test_reset(self):
        policy = InterleavedPolicy(4, PP)
        ctxs = contexts(4)
        policy.select(ctxs, 0)
        policy.reset()
        assert policy.select(ctxs, 1).cid == 0


#: The cycle the one-pass pick is checked at; drawn wake and miss
#: times fall on either side of it.
NOW = 100
_AROUND_NOW = st.integers(NOW - 3, NOW + 3)


def _alu_program(slot):
    """A straight run of ALU ops: issuing one touches only its own
    context (no memory, sync or halt within a step)."""
    b = AsmBuilder("alu%d" % slot, code_base=(slot + 1) * 0x1000,
                   data_base=0x400000 + slot * 0x10000)
    for _ in range(4):
        b.addi("t0", "t0", 1)
    b.halt()
    return b.build()


_ALU_PROGRAMS = [_alu_program(slot) for slot in range(8)]

_wake_and_miss_times = st.tuples(
    st.one_of(_AROUND_NOW, st.just(NEVER)),    # wake_at
    _AROUND_NOW,                               # doomed_detect
    _AROUND_NOW)                               # doomed_completion

_NOT_DOOMED = [s for s in Status if s is not Status.DOOMED]


@st.composite
def _processors(draw):
    """A processor of any scheme in a random context state at ``NOW``.

    Under blocked only the pointer's context is drawn DOOMED: a context
    turns DOOMED only when it misses while current, and the pointer
    cannot leave it until its miss is detected
    (``BlockedPolicy.owns_window`` rests on the same invariant)."""
    scheme = draw(st.sampled_from(("single", "blocked", "interleaved")))
    n = 1 if scheme == "single" else draw(st.sampled_from((2, 4, 8)))
    memory = Memory()
    proc = Processor(scheme, n, PP, FixedLatencyMemory(), memory,
                     sync=SyncManager())
    pointer = draw(st.integers(0, n - 1))
    for slot in range(n):
        program = _ALU_PROGRAMS[slot]
        program.load(memory)
        proc.load_process(slot, Process("alu%d" % slot, program))
        ctx = proc.contexts[slot]
        statuses = (list(Status) if scheme != "blocked" or slot == pointer
                    else _NOT_DOOMED)
        ctx.status = draw(st.sampled_from(statuses))
        (ctx.wake_at, ctx.doomed_detect,
         ctx.doomed_completion) = draw(_wake_and_miss_times)
    proc.policy.pointer = pointer
    return proc


def reference_select(scheme, contexts, start):
    """(context, next pointer) by the per-scheme selection rules the
    shared pass replaced: single takes its one context when selectable;
    blocked stays on ``start`` while it is RUNNING or DOOMED and
    otherwise moves to the next RUNNING context; interleaved takes the
    first RUNNING or DOOMED context from ``start`` and moves past it."""
    n = len(contexts)
    selectable = (Status.RUNNING, Status.DOOMED)
    if scheme == "single":
        ctx = contexts[0]
        return (ctx if ctx.status in selectable else None), 0
    if scheme == "blocked":
        if contexts[start].status in selectable:
            return contexts[start], start
        for step in range(1, n):
            cand = contexts[(start + step) % n]
            if cand.status is Status.RUNNING:
                return cand, cand.cid
        return None, start
    for step in range(n):
        cand = contexts[(start + step) % n]
        if cand.status in selectable:
            return cand, (cand.cid + 1) % n
    return None, start


def update_contexts(proc, now):
    """Apply the wakes and miss detections due at ``now``, context by
    context in cid order: the separate pass ``Processor.step`` made
    before it folded the wakes into its pick."""
    for ctx in proc.contexts:
        if ctx.status is Status.WAITING:
            if ctx.wake_at <= now:
                ctx.status = Status.RUNNING
        elif ctx.status is Status.DOOMED and now >= ctx.doomed_detect:
            proc._detect_miss(ctx, now)


class TestRoundRobinPass:
    """``Processor.step`` picks slot 0's context in one pass over the
    contexts under every scheme; it must leave what
    :func:`update_contexts` followed by the scheme's own selection rule
    (:func:`reference_select`) leaves.  Both engines run that pass, so
    only this test and the golden pins can see a wrong pick."""

    @settings(max_examples=300, deadline=None)
    @given(_processors())
    def test_one_pass_equals_update_then_select(self, proc):
        ref = copy.deepcopy(proc)
        update_contexts(ref, NOW)
        want, want_pointer = reference_select(
            proc.scheme, ref.contexts, ref.policy.pointer)
        reported = []
        proc.trace = lambda cycle, ctx, kind: reported.append(ctx)
        proc.step(NOW)
        assert len(reported) == 1
        got = reported[0]
        assert (None if got is None else got.cid) == (
            None if want is None else want.cid)
        assert proc.policy.pointer == want_pointer
        assert proc.stats.context_switches == ref.stats.context_switches
        for ctx, expect in zip(proc.contexts, ref.contexts):
            if got is None or ctx.cid != got.cid:
                assert ctx.status is expect.status, ctx.cid
                assert ctx.wake_at == expect.wake_at, ctx.cid

    @settings(max_examples=300, deadline=None)
    @given(_processors())
    def test_later_slots_select_by_the_same_rule(self, proc):
        """``ContextPolicy.select`` (slots 1+ of a multi-issue cycle)
        makes the same pick, with no wake applied."""
        want, want_pointer = reference_select(
            proc.scheme, proc.contexts, proc.policy.pointer)
        assert proc.policy.select(proc.contexts, NOW) is want
        assert proc.policy.pointer == want_pointer


class TestBlockedSelection:
    def test_sticks_with_current(self):
        policy = BlockedPolicy(4, PP)
        ctxs = contexts(4)
        picks = [policy.select(ctxs, t).cid for t in range(4)]
        assert picks == [0, 0, 0, 0]

    def test_rotates_on_unavailability(self):
        policy = BlockedPolicy(4, PP)
        ctxs = contexts(4)
        policy.select(ctxs, 0)
        ctxs[0].status = Status.WAITING
        assert policy.select(ctxs, 1).cid == 1
        assert policy.select(ctxs, 2).cid == 1   # stays on the new one

    def test_wraps_around(self):
        policy = BlockedPolicy(3, PP)
        ctxs = contexts(3)
        policy.pointer = 2
        ctxs[2].status = Status.HALTED
        ctxs[1].status = Status.WAITING
        assert policy.select(ctxs, 0).cid == 0

    def test_force_switch(self):
        policy = BlockedPolicy(3, PP)
        ctxs = contexts(3)
        policy.select(ctxs, 0)
        policy.force_switch(ctxs)
        assert policy.select(ctxs, 1).cid == 1


class TestIdleWakeInfo:
    def test_earliest_waiter_wins(self):
        ctxs = contexts(3, Status.WAITING)
        ctxs[0].wake_at, ctxs[0].wake_reason = 100, Stall.DCACHE
        ctxs[1].wake_at, ctxs[1].wake_reason = 50, Stall.SYNC
        ctxs[2].wake_at, ctxs[2].wake_reason = 70, Stall.DCACHE
        wake, reason = idle_wake_info(ctxs)
        assert wake == 50 and reason is Stall.SYNC

    def test_lock_waiters_reported_external(self):
        ctxs = contexts(2, Status.WAITING)
        for c in ctxs:
            c.wake_at = NEVER
            c.wake_reason = Stall.SYNC
        wake, reason = idle_wake_info(ctxs)
        assert wake is None and reason is Stall.SYNC

    def test_all_halted_is_idle(self):
        ctxs = contexts(2, Status.HALTED)
        wake, reason = idle_wake_info(ctxs)
        assert wake is None and reason is Stall.IDLE
