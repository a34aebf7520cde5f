"""Context-selection policies: single, blocked, interleaved.

This module is the paper's Sections 2 and 3 in executable form.  A policy
decides (a) which context owns each issue slot and (b) what a context pays
to get off the processor when it hits a long-latency event:

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

# select() and idle_wake_info() run every cycle, so they read enum
# members through module globals (see the note in repro.core.processor).
RUNNING = Status.RUNNING
DOOMED = Status.DOOMED
WAITING = Status.WAITING
SWITCH = Stall.SWITCH
IDLE = Stall.IDLE


class ContextPolicy:
    """Base class: slot selection + off-processor costs."""

    name = "abstract"
    #: Whether late-detected misses squash via the doomed-window mechanism.
    uses_doomed_window = True
    #: Cycles charged when a context voluntarily leaves the processor
    #: (explicit switch / backoff instruction, Table 4).
    off_cost = 1

    def __init__(self, n_contexts, params):
        self.n_contexts = n_contexts
        self.params = params

    def select(self, contexts, now):
        """The context owning this issue slot (or None)."""
        raise NotImplementedError

    def note_unavailable(self, ctx):
        """Called when ``ctx`` stops being selectable (miss/halt/wait)."""

    def reset(self):
        """Forget selection state (used when the OS reschedules)."""


class SinglePolicy(ContextPolicy):
    """The single-context baseline processor."""

    name = "single"
    uses_doomed_window = False
    off_cost = 0

    def select(self, contexts, now):
        ctx = contexts[0]
        if ctx.status is RUNNING or ctx.status is DOOMED:
            return ctx
        return None


class BlockedPolicy(ContextPolicy):
    """Run one context until it blocks; flush and switch."""

    name = "blocked"
    uses_doomed_window = True

    def __init__(self, n_contexts, params):
        super().__init__(n_contexts, params)
        self.current = 0
        self.off_cost = params.explicit_switch_cost

    def select(self, contexts, now):
        ctx = contexts[self.current]
        if ctx.status is RUNNING or ctx.status is DOOMED:
            return ctx
        # Current context is unavailable: rotate to the next ready one.
        n = self.n_contexts
        for step in range(1, n):
            cand = contexts[(self.current + step) % n]
            if cand.status is RUNNING:
                self.current = cand.cid
                return cand
        return None

    def force_switch(self, contexts):
        """Explicit SWITCH instruction: move on even though runnable."""
        self.current = (self.current + 1) % self.n_contexts

    def reset(self):
        self.current = 0


class InterleavedPolicy(ContextPolicy):
    """The paper's proposal: cycle-by-cycle round-robin issue."""

    name = "interleaved"
    uses_doomed_window = True

    def __init__(self, n_contexts, params):
        super().__init__(n_contexts, params)
        self.pointer = 0
        self.off_cost = params.backoff_cost

    def select(self, contexts, now):
        n = self.n_contexts
        start = self.pointer
        for step in range(n):
            cand = contexts[(start + step) % n]
            if cand.status is RUNNING or cand.status is DOOMED:
                # Strict round-robin: the *next* slot goes to the context
                # after this one, whether or not this one manages to issue.
                self.pointer = (cand.cid + 1) % n
                return cand
        return None

    def reset(self):
        self.pointer = 0


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
        elif ctx.status is DOOMED:
            # Shouldn't happen (doomed contexts are selectable) but be safe.
            if earliest is None or ctx.doomed_detect < earliest:
                earliest = ctx.doomed_detect
                reason = SWITCH
    if earliest is None:
        for ctx in contexts:
            if ctx.status is WAITING:
                # Waiting on a lock/barrier: woken externally.
                return None, ctx.wake_reason
    return earliest, reason
