"""Lock and barrier semantics."""

import pytest

from repro.core.sync import SyncManager
from repro.core.context import HardwareContext, Status, NEVER


def ctx(cid=0):
    c = HardwareContext(cid)
    c.status = Status.RUNNING
    return c


class TestLocks:
    def test_free_lock_acquired(self):
        sm = SyncManager()
        assert sm.try_acquire(0x100, "p0", ctx(0))

    def test_held_lock_blocks(self):
        sm = SyncManager()
        a, b = ctx(0), ctx(1)
        assert sm.try_acquire(0x100, "p0", a)
        assert not sm.try_acquire(0x100, "p0", b)
        assert sm.lock_contentions == 1

    def test_reacquire_by_holder_succeeds(self):
        """Handoff leaves the lock pre-acquired for the woken waiter."""
        sm = SyncManager()
        a = ctx(0)
        sm.try_acquire(0x100, "p0", a)
        assert sm.try_acquire(0x100, "p0", a)

    def test_release_hands_off_fifo(self):
        sm = SyncManager(lock_transfer_latency=20)
        a, b, c = ctx(0), ctx(1), ctx(2)
        sm.try_acquire(0x100, "p", a)
        sm.try_acquire(0x100, "p", b)
        sm.try_acquire(0x100, "p", c)
        b.wait_on_lock()
        c.wait_on_lock()
        sm.release(0x100, "p", a, now=100)
        assert sm.holder_of(0x100) == ("p", b)
        assert b.status is Status.WAITING and b.wake_at == 120
        assert c.wake_at == NEVER               # still queued

    def test_release_without_waiters_frees(self):
        sm = SyncManager()
        a = ctx(0)
        sm.try_acquire(0x100, "p", a)
        sm.release(0x100, "p", a, 10)
        assert sm.holder_of(0x100) is None

    def test_release_unheld_raises(self):
        sm = SyncManager()
        with pytest.raises(RuntimeError):
            sm.release(0x100, "p", ctx(0), 10)

    def test_independent_locks(self):
        sm = SyncManager()
        a, b = ctx(0), ctx(1)
        assert sm.try_acquire(0x100, "p", a)
        assert sm.try_acquire(0x200, "p", b)


class TestBarriers:
    def test_solo_barrier_passes_immediately(self):
        sm = SyncManager()
        sm.configure_barrier(1, 1)
        assert sm.barrier_arrive(1, "p", ctx(0), 10)

    def test_last_arrival_releases_all(self):
        sm = SyncManager(barrier_release_latency=20)
        sm.configure_barrier(1, 3)
        ctxs = [ctx(i) for i in range(3)]
        assert not sm.barrier_arrive(1, "p", ctxs[0], 10)
        ctxs[0].wait_on_lock()
        assert not sm.barrier_arrive(1, "p", ctxs[1], 11)
        ctxs[1].wait_on_lock()
        assert sm.barrier_arrive(1, "p", ctxs[2], 12)
        assert ctxs[0].wake_at == 32
        assert ctxs[1].wake_at == 32

    def test_barrier_reusable(self):
        sm = SyncManager()
        sm.configure_barrier(1, 2)
        a, b = ctx(0), ctx(1)
        assert not sm.barrier_arrive(1, "p", a, 10)
        assert sm.barrier_arrive(1, "p", b, 11)
        # next episode
        assert not sm.barrier_arrive(1, "p", a, 50)
        assert sm.barrier_arrive(1, "p", b, 51)
        assert sm.barrier_episodes == 2

    def test_unconfigured_barrier_raises(self):
        sm = SyncManager()
        with pytest.raises(RuntimeError):
            sm.barrier_arrive(9, "p", ctx(0), 10)
