"""Context-selection policies: single, blocked, interleaved.

This module is the paper's Sections 2 and 3 in executable form.  A policy
decides (a) which context owns each issue slot, (b) what a context pays
to get off the processor when it hits a long-latency event, and (c)
whether the context it selected owns a whole multi-cycle window — the
question the burst engine asks before retiring a straight-line run or
charging a hazard-stall window in one step (:meth:`ContextPolicy.
owns_window`):

**single** (baseline)
    One context.  Loads that miss are stall-on-use (the lockup-free cache
    lets execution continue until a consumer needs the data); BACKOFF and
    SWITCH are no-ops.

**blocked** (Weber & Gupta / MIT APRIL style)
    One context owns the processor until it suffers a cache miss, which is
    detected at the WB stage — the whole 7-deep pipeline is flushed, so
    the switch costs 7 cycles (Figure 2).  An explicit switch instruction
    (3 cycles) tolerates non-miss latencies.

**interleaved** (the paper's proposal)
    Issue round-robins among *available* contexts every cycle.  On a miss
    only the offending context's in-flight instructions are squashed —
    between 1 and 7 slots depending on the dynamic interleaving — and a
    1-cycle BACKOFF instruction removes a context during long instruction
    latencies.  A context whose next instruction is hazarded wastes its
    own slot (the paper's strict round-robin), which is exactly why
    BACKOFF exists.

With a single hardware context both multithreaded schemes degrade to the
baseline (the paper's constraint that single-thread performance be
unchanged), which :func:`make_policy` enforces.
"""

from repro.core.context import Status, NEVER
from repro.pipeline.stalls import Stall

# select(), owns_window() and idle_wake_info() run on the per-cycle
# path, so they read enum members through module globals (see the note
# in repro.core.processor).
RUNNING = Status.RUNNING
DOOMED = Status.DOOMED
WAITING = Status.WAITING
IDLE = Stall.IDLE


class ContextPolicy:
    """Base class: slot selection, window ownership + off-processor costs.

    Every scheme picks a slot's context the same way: the first RUNNING
    or DOOMED context in cid order from :attr:`pointer`, after which the
    pointer moves to that context (single, blocked) or past it
    (interleaved).
    """

    name = "abstract"
    #: Whether late-detected misses squash via the doomed-window mechanism.
    uses_doomed_window = True
    #: Cycles charged when a context voluntarily leaves the processor
    #: (explicit switch / backoff instruction, Table 4).
    off_cost = 1
    #: Whether issue rotates among the selectable contexts every slot
    #: (the pointer moves this many, 1 or 0, past the selected one).
    #: Such a policy can give a window to one context only while no other
    #: is selectable, so the processor skips its fast-path attempts in a
    #: cycle that starts with two or more.
    round_robin = False

    def __init__(self, n_contexts, params):
        self.n_contexts = n_contexts
        self.params = params
        #: The context the next slot's scan starts at.
        self.pointer = 0

    def select(self, contexts, now):
        """The context owning this issue slot (or None).

        ``Processor.step`` makes the same scan for a cycle's first slot
        in one pass with its wakes and miss detections; this serves the
        later slots of a multi-issue cycle.
        """
        n = self.n_contexts
        start = self.pointer
        for step in range(n):
            cand = contexts[(start + step) % n]
            if cand.status is RUNNING or cand.status is DOOMED:
                self.pointer = (cand.cid + self.round_robin) % n
                return cand
        return None

    def owns_window(self, ctx, contexts, end, extern):
        """Whether ``ctx``, just selected, owns every issue slot up to
        cycle ``end`` (exclusive).

        Asked before a burst dispatch or a bulk-charged hazard-stall
        window, neither of which holds a memory, sync, switch or backoff
        op, so ``ctx`` stays RUNNING throughout.  ``extern`` marks a
        machine where another processor's lock or barrier handoff can
        wake a context here at any time.
        """
        raise NotImplementedError

    def reset(self):
        """Forget selection state (used when the OS reschedules)."""
        self.pointer = 0


class SinglePolicy(ContextPolicy):
    """The single-context baseline processor."""

    name = "single"
    uses_doomed_window = False
    off_cost = 0

    def owns_window(self, ctx, contexts, end, extern):
        """The only context always owns the window."""
        return True


class BlockedPolicy(ContextPolicy):
    """Run one context until it blocks; flush and switch.  The pointer
    is the current context."""

    name = "blocked"
    uses_doomed_window = True

    def __init__(self, n_contexts, params):
        super().__init__(n_contexts, params)
        self.off_cost = params.explicit_switch_cost

    def owns_window(self, ctx, contexts, end, extern):
        """The selected context owns the window, whatever its siblings do.

        Selection keeps handing every slot to the current context while
        it is RUNNING, and nothing in the window can stop it running: a
        sibling that wakes — by its own clock or by an external handoff —
        waits for the next switch.  A context turns DOOMED only when it
        misses while current, and the pointer cannot leave a DOOMED
        context, so the only DOOMED context is ever the current one.
        """
        return True

    def force_switch(self, contexts):
        """Explicit SWITCH instruction: move on even though runnable."""
        self.pointer = (self.pointer + 1) % self.n_contexts


class InterleavedPolicy(ContextPolicy):
    """The paper's proposal: cycle-by-cycle round-robin issue.

    Strict round robin: the *next* slot goes to the context after the
    selected one, whether or not the selected one manages to issue.
    """

    name = "interleaved"
    uses_doomed_window = True
    round_robin = True

    def __init__(self, n_contexts, params):
        super().__init__(n_contexts, params)
        self.off_cost = params.backoff_cost

    def owns_window(self, ctx, contexts, end, extern):
        """Only a sole runner owns the window: no other context is
        RUNNING or DOOMED, none wakes before ``end``, and (with
        ``extern``) none is parked on a lock or barrier that another
        processor could release inside it."""
        for other in contexts:
            if other is ctx:
                continue
            status = other.status
            if status is WAITING:
                if other.wake_at < end or (extern and
                                           other.wake_at >= NEVER):
                    return False
            elif status is RUNNING or status is DOOMED:
                return False
        return True


_POLICIES = {
    "single": SinglePolicy,
    "blocked": BlockedPolicy,
    "interleaved": InterleavedPolicy,
}


def make_policy(scheme, n_contexts, params):
    """Build the policy for ``scheme`` with ``n_contexts`` contexts.

    A one-context multithreaded processor behaves identically to the
    single-context baseline (there is nobody to switch to, and the paper
    normalises both schemes' results to the same single-context bar), so
    ``n_contexts == 1`` always yields :class:`SinglePolicy`.
    """
    if scheme not in _POLICIES:
        raise ValueError("unknown scheme %r (want one of %s)"
                         % (scheme, ", ".join(sorted(_POLICIES))))
    if n_contexts < 1:
        raise ValueError("n_contexts must be >= 1")
    if n_contexts == 1:
        return SinglePolicy(1, params)
    if scheme == "single" and n_contexts != 1:
        raise ValueError("the single-context scheme takes one context")
    return _POLICIES[scheme](n_contexts, params)


def idle_wake_info(contexts):
    """(earliest wake cycle, stall reason) over all waiting contexts.

    Asked only when no context is selectable (RUNNING or DOOMED).
    Returns (None, IDLE) when nothing will ever wake by itself — all
    contexts halted/empty, or waiting on locks held elsewhere.
    """
    earliest = None
    reason = IDLE
    for ctx in contexts:
        if ctx.status is WAITING and ctx.wake_at < NEVER:
            if earliest is None or ctx.wake_at < earliest:
                earliest = ctx.wake_at
                reason = ctx.wake_reason
    if earliest is None:
        for ctx in contexts:
            if ctx.status is WAITING:
                # Waiting on a lock/barrier: woken externally.
                return None, ctx.wake_reason
    return earliest, reason
