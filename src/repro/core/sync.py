"""Synchronisation primitives: locks and barriers.

The ISA's LOCK/UNLOCK/BARRIER magic operations land here.  The manager is
shared by all processors of a machine (for the uniprocessor it simply
serialises the contexts of the one processor).

Semantics modelled:

* **Locks** behave like test&test&set with queued handoff: an acquire on a
  free lock succeeds with the timing of a write to the lock's cache line
  (the caller performs that access); an acquire on a held lock blocks the
  context until the holder releases, plus a transfer latency — the cache
  line moving from the releaser to the next waiter.  Waiting time is
  charged to the synchronisation category, and each scheme pays its own
  cost to get off the processor (blocked: explicit switch; interleaved:
  backoff — paper Table 4).
* **Barriers** are sense-reversing counter barriers: arrival is a write to
  the barrier line; the last arrival releases everyone after a release
  latency.
"""


class Lock:
    __slots__ = ("holder", "waiters")

    def __init__(self):
        self.holder = None
        self.waiters = []   # FIFO of (processor, context) pairs


class Barrier:
    __slots__ = ("expected", "arrived")

    def __init__(self, expected):
        self.expected = expected
        self.arrived = []   # (processor, context) pairs


class SyncManager:
    """Machine-wide lock table and barrier state."""

    def __init__(self, lock_transfer_latency=20, barrier_release_latency=20):
        self.locks = {}
        self.barriers = {}
        self.lock_transfer_latency = lock_transfer_latency
        self.barrier_release_latency = barrier_release_latency
        self.lock_acquires = 0
        self.lock_contentions = 0
        self.barrier_episodes = 0

    def configure_barrier(self, barrier_id, n_participants):
        """Declare how many threads join barrier ``barrier_id``."""
        self.barriers[barrier_id] = Barrier(n_participants)

    @staticmethod
    def _wake(target_proc, target_ctx, wake_at, now, waker):
        """Wake ``target_ctx`` at ``wake_at``, via its processor's
        fast-engine hook when it has one.

        ``context_woken`` lets a processor that is fast-forwarded past
        idle cycles settle its deferred accounting at the exact cycle
        the wake becomes visible; unit tests drive the manager with bare
        contexts (no processor), for which a plain wake is equivalent.
        """
        hook = getattr(target_proc, "context_woken", None)
        if hook is not None:
            hook(target_ctx, wake_at, now, waker)
        else:
            target_ctx.wake(wake_at)

    # -- locks ---------------------------------------------------------------

    def try_acquire(self, lock_addr, processor, ctx):
        """Attempt to take the lock; returns True on success.

        On failure the caller must block the context; it will be woken by
        :meth:`release` (handoff is FIFO).
        """
        lock = self.locks.setdefault(lock_addr, Lock())
        if lock.holder == (processor, ctx):
            # Handed off to this context by a release while it slept:
            # the retried LOCK instruction completes (already counted).
            return True
        if lock.holder is None:
            lock.holder = (processor, ctx)
            self.lock_acquires += 1
            return True
        self.lock_contentions += 1
        lock.waiters.append((processor, ctx))
        return False

    def release(self, lock_addr, processor, ctx, now):
        """Release the lock; hands off to the first waiter if any."""
        lock = self.locks.get(lock_addr)
        if lock is None or lock.holder != (processor, ctx):
            # Releasing an unheld lock is a program bug worth failing on.
            raise RuntimeError(
                "context %r released lock 0x%x it does not hold"
                % (ctx, lock_addr))
        if lock.waiters:
            next_proc, next_ctx = lock.waiters.pop(0)
            lock.holder = (next_proc, next_ctx)
            self.lock_acquires += 1
            self._wake(next_proc, next_ctx,
                       now + self.lock_transfer_latency, now, processor)
        else:
            lock.holder = None

    def holder_of(self, lock_addr):
        lock = self.locks.get(lock_addr)
        return lock.holder if lock else None

    # -- barriers ------------------------------------------------------------

    def barrier_arrive(self, barrier_id, processor, ctx, now):
        """Join the barrier; returns True when this arrival releases it.

        When False is returned the caller must block the context; the
        releasing arrival wakes every earlier one.
        """
        barrier = self.barriers.get(barrier_id)
        if barrier is None:
            raise RuntimeError("barrier %d was never configured"
                               % barrier_id)
        if barrier.expected <= 1:
            return True
        barrier.arrived.append((processor, ctx))
        if len(barrier.arrived) < barrier.expected:
            return False
        release_at = now + self.barrier_release_latency
        for waiting_proc, waiting_ctx in barrier.arrived[:-1]:
            self._wake(waiting_proc, waiting_ctx, release_at, now,
                       processor)
        barrier.arrived.clear()
        self.barrier_episodes += 1
        return True
