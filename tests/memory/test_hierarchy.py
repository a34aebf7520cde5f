"""The uniprocessor memory hierarchy: Table 2 latencies and contention."""

import random

from repro.config import SystemConfig, MemoryParams
from repro.memory.hierarchy import MemorySystem


def make_memsys():
    return MemorySystem(MemoryParams())


def warm_tlb(m, addr):
    m.dtlb.lookup(addr)


class TestTable2Latencies:
    """Unloaded latencies must be exactly Table 2's 1 / 9 / 34."""

    def test_l1_hit_costs_nothing_extra(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        m.l1d.fill(0x1000)
        res = m.data_access(0x1000, False, 100)
        assert res.level == "l1"
        assert res.ready == 100

    def test_l2_hit_nine_cycles(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        m.l2.fill(0x1000)
        res = m.data_access(0x1000, False, 100)
        assert res.level == "l2"
        assert res.ready == 109

    def test_memory_thirty_four_cycles(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        res = m.data_access(0x1000, False, 100)
        assert res.level == "mem"
        assert res.ready == 134

    def test_fill_installs_both_levels(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        m.data_access(0x1000, False, 100)
        assert m.l1d.present(0x1000)
        assert m.l2.present(0x1000)


class TestTLBPath:
    def test_tlb_miss_reported_first(self):
        m = make_memsys()
        res = m.data_access(0x1000, False, 100)
        assert res.level == "tlb"
        assert res.ready == 100 + m.params.tlb.miss_penalty

    def test_retry_after_refill_proceeds(self):
        m = make_memsys()
        m.data_access(0x1000, False, 100)       # TLB miss, entry inserted
        res = m.data_access(0x1000, False, 130)
        assert res.level in ("l2", "mem")


class TestMSHRBehaviour:
    def test_second_access_merges(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        first = m.data_access(0x1000, False, 100)
        second = m.data_access(0x1004, False, 105)   # same line, in flight
        assert second.level == "pending"
        assert second.ready == first.ready

    def test_entry_retires_after_completion(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        first = m.data_access(0x1000, False, 100)
        res = m.data_access(0x1000, False, first.ready + 1)
        assert res.level == "l1"

    def test_capacity_structural_stall(self):
        m = MemorySystem(MemoryParams(mshr_capacity=1))
        warm_tlb(m, 0x1000)
        warm_tlb(m, 0x200000)
        m.data_access(0x1000, False, 100)
        res = m.data_access(0x200000, False, 101)
        assert res.level == "mshr"


class TestStores:
    def test_store_hit_marks_dirty_and_causes_writeback(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        m.data_access(0x1000, True, 100)        # write-allocate miss
        # Evict via the conflicting line one L1-size away.
        conflict = 0x1000 + m.params.l1d.size
        warm_tlb(m, conflict)
        m.data_access(conflict, False, 200)
        assert m.l1d.writebacks == 1


class TestContention:
    def test_bank_conflict_adds_latency(self):
        m = make_memsys()
        a = 0x1000
        b = a + 4 * m.params.l1d.line_size * m.params.n_banks  # same bank
        warm_tlb(m, a)
        warm_tlb(m, b)
        first = m.data_access(a, False, 100)
        second = m.data_access(b, False, 101)
        assert second.ready > 101 + 34          # queued behind the first

    def test_different_banks_overlap(self):
        m = make_memsys()
        a = 0x1000
        b = a + m.params.l1d.line_size          # adjacent line: next bank
        warm_tlb(m, a)
        warm_tlb(m, b)
        m.data_access(a, False, 100)
        second = m.data_access(b, False, 101)
        # Only bus/L2 occupancy in the way, not a full bank conflict.
        assert second.ready <= 101 + 34 + 8


class TestInstructionFetch:
    def test_hit_is_free(self):
        m = make_memsys()
        m.l1i.fill(0x400)
        assert m.inst_fetch(0x400, 100) is None
        assert m.l1i.hits == 1

    def test_miss_prefetches_next_line(self):
        m = make_memsys()
        m.inst_fetch(0x400, 100)
        assert m.l1i.present(0x400)
        assert m.l1i.present(0x400 + m.params.l1i.line_size)

    def test_miss_latency(self):
        m = make_memsys()
        res = m.inst_fetch(0x400, 100)
        assert res.level == "mem"
        assert res.ready == 134


class TestSchedulerInterference:
    def test_displaces_lines(self):
        cfg = SystemConfig.paper()
        m = MemorySystem(cfg.memory)
        for i in range(256):
            m.l1d.fill(i * 32)
            m.l1i.fill(i * 32)
        m.scheduler_interference(4, cfg.os, random.Random(7))
        d_present = sum(m.l1d.present(i * 32) for i in range(256))
        assert d_present < 256

    def test_zero_switched_is_noop(self):
        cfg = SystemConfig.paper()
        m = MemorySystem(cfg.memory)
        m.l1d.fill(0x100)
        m.scheduler_interference(0, cfg.os, random.Random(7))
        assert m.l1d.present(0x100)

    def test_flush(self):
        m = make_memsys()
        warm_tlb(m, 0x1000)
        m.data_access(0x1000, False, 100)
        m.flush()
        assert not m.l1d.present(0x1000)
        assert not m.l2.present(0x1000)
