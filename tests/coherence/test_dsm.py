"""Directory coherence protocol: transitions, latencies, invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MultiprocessorParams
from repro.coherence.dsm import DSMachine, ProtocolCounters


def machine(n_nodes=4, seed=7):
    return DSMachine(MultiprocessorParams(n_nodes=n_nodes), seed=seed)


def test_machine_counts_only_declared_counters():
    m = machine()
    assert all(getattr(m, name) == 0 for name in ProtocolCounters.__slots__)
    # Slotted: a counter kept anywhere but ProtocolCounters raises.
    with pytest.raises(AttributeError):
        m.coherence_misses = 0


class TestProtocolTransitions:
    def test_read_miss_then_hit(self):
        m = machine()
        res = m.access(0, 0x1000, False, 10)
        assert res.level in ("local", "remote")
        res2 = m.access(0, 0x1000, False, res.ready + 1)
        assert res2.level == "l1"

    def test_read_sharing_multiple_nodes(self):
        m = machine()
        m.access(0, 0x1000, False, 10)
        m.access(1, 0x1000, False, 200)
        entry = m.directory.entry(0x1000)
        assert entry.sharers & 0b11 == 0b11
        assert not entry.is_dirty

    def test_write_gains_exclusive_ownership(self):
        m = machine()
        res = m.access(0, 0x1000, True, 10)
        assert res.level in ("local", "remote")
        entry = m.directory.entry(0x1000)
        assert entry.owner == 0

    def test_write_invalidates_sharers(self):
        """Communication misses: a write kills the other copies."""
        m = machine()
        ra = m.access(0, 0x1000, False, 10)
        rb = m.access(1, 0x1000, False, 200)
        m.access(2, 0x1000, True, 400)
        assert not m.nodes[0].cache.present(0x1000)
        assert not m.nodes[1].cache.present(0x1000)
        # Their next reads miss again — the invalidation is visible.
        assert m.access(0, 0x1000, False, 600).level != "l1"

    def test_upgrade_on_shared_write_hit(self):
        m = machine()
        r = m.access(0, 0x1000, False, 10)
        m.access(1, 0x1000, False, 200)
        res = m.access(0, 0x1000, True, 400)
        assert res.level == "upgrade"
        assert m.upgrades == 1
        assert not m.nodes[1].cache.present(0x1000)

    def test_write_hit_on_owned_line_is_free(self):
        m = machine()
        first = m.access(0, 0x1000, True, 10)
        res = m.access(0, 0x1000, True, first.ready + 1)
        assert res.level == "l1"

    def test_dirty_remote_service(self):
        """A read of a dirty-remote line is a cache-to-cache transfer."""
        m = machine()
        w = m.access(0, 0x1000, True, 10)
        res = m.access(1, 0x1000, False, w.ready + 10)
        assert res.level == "remote_cache"
        assert m.dirty_remote_services == 1
        entry = m.directory.entry(0x1000)
        assert not entry.is_dirty           # owner downgraded to shared
        assert entry.sharers & 0b11 == 0b11

    def test_write_to_dirty_remote_transfers_ownership(self):
        m = machine()
        w = m.access(0, 0x1000, True, 10)
        res = m.access(1, 0x1000, True, w.ready + 10)
        assert res.level == "remote_cache"
        assert m.directory.entry(0x1000).owner == 1
        assert not m.nodes[0].cache.present(0x1000)


class TestLatencyClasses:
    def test_local_vs_remote_ranges(self):
        params = MultiprocessorParams(n_nodes=4)
        m = DSMachine(params, seed=3)
        m.place(0x1000, 8, 0)
        m.place(0x200000, 8, 1)
        local = m.access(0, 0x1000, False, 0)
        remote = m.access(0, 0x200000, False, 0)
        lo, hi = params.local_memory
        assert lo <= local.ready <= hi
        rlo, rhi = params.remote_memory
        assert rlo <= remote.ready <= rhi

    def test_remote_cache_range(self):
        params = MultiprocessorParams(n_nodes=4)
        m = DSMachine(params, seed=3)
        w = m.access(0, 0x1000, True, 0)
        r = m.access(1, 0x1000, False, w.ready + 5)
        lo, hi = params.remote_cache
        assert lo <= r.ready - (w.ready + 5) <= hi + 4  # + port queueing

    def test_default_interleave_and_placement(self):
        m = machine(n_nodes=4)
        assert m.home_of(0x0000) == 0
        assert m.home_of(0x1000) == 1
        m.place(0x1000, 1024, 3)
        assert m.home_of(0x1000) == 3


class TestMSHRs:
    def test_pending_merge(self):
        m = machine()
        first = m.access(0, 0x1000, False, 0)
        second = m.access(0, 0x1004, False, 1)
        assert second.level == "pending"
        assert second.ready == first.ready

    def test_capacity_stall_before_mutation(self):
        m = DSMachine(MultiprocessorParams(n_nodes=2), seed=1,
                      mshr_capacity=1)
        m.access(0, 0x1000, False, 0)
        res = m.access(0, 0x200000, False, 1)
        assert res.level == "mshr"
        # The stalled access must not have installed its tag.
        assert not m.nodes[0].cache.present(0x200000)


class TestInvariants:
    def test_clean_start(self):
        machine().check_coherence_invariants()

    def test_invariants_after_directed_sequence(self):
        m = machine()
        now = 0
        for node, addr, write in [(0, 0x1000, True), (1, 0x1000, False),
                                  (2, 0x1000, True), (0, 0x2000, False),
                                  (2, 0x2000, True), (1, 0x1000, True)]:
            res = m.access(node, addr, write, now)
            now = max(now + 1, res.ready + 1)
        m.check_coherence_invariants()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.integers(0, 31),
                              st.booleans()),
                    min_size=1, max_size=120))
    def test_invariants_under_random_traffic(self, ops):
        """At most one dirty copy machine-wide, directory always exact."""
        m = machine()
        now = 0
        for node, line_idx, write in ops:
            addr = 0x1000 + line_idx * 32
            res = m.access(node, addr, write, now)
            now = max(now + 1, res.ready + 1)  # complete before the next
            m.check_coherence_invariants()
