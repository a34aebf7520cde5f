"""The uniprocessor memory hierarchy (paper Figure 4, Tables 1 and 2).

Composition: split 64 KB L1 caches (blocking I-cache, lockup-free D-cache
with MSHRs), a 1 MB unified L2, and four-way interleaved main memory
reached over a split-transaction bus.  Unloaded latencies are Table 2's
1 / 9 / 34 cycles; cache-port, bus, and bank contention add to them.

The timing decomposition of the 34-cycle memory reply::

    now   +2        +4       +5            +27      +29    +31  +32   +34
    |------|---------|--------|-------------|--------|------|----|-----|
    detect  L2 lookup  L2 miss  bus request   DRAM     bus    L2   L1
            (occ 2)             (occ 1)       (22cy,   reply  fill fill+
                                              bank     (occ2) (2)  transit
                                              occ 16)

and of the 9-cycle L2 hit: detect/transit 2, L2 access + reply tail 7.
"""

from repro.memory.cache import DirectMappedCache
from repro.memory.mshr import MSHRFile
from repro.memory.resource import Resource
from repro.memory.tlb import TLB

#: Cycles from the L1 miss determination to the request arriving at L2.
_L2_REQUEST_DELAY = 2
#: DRAM access latency (bank busy for ``bank_occupancy`` of these cycles).
_BANK_LATENCY = 22
#: Return-path cost after the bus reply: L2 fill, L1 fill, transit.
_RETURN_TAIL = 5


class AccessResult:
    """Outcome of a memory access.

    ``level`` is one of ``l1``, ``l2``, ``mem``, ``pending`` (merged into
    an in-flight miss), ``tlb`` (translation miss; retry after ``ready``),
    or ``mshr`` (structural stall; retry after ``ready``).  ``ready`` is
    the cycle at which the data (or the retried access) becomes usable.
    """

    __slots__ = ("level", "ready")

    def __init__(self, level, ready):
        self.level = level
        self.ready = ready

    @property
    def hit(self):
        return self.level == "l1"

    def __repr__(self):
        return "AccessResult(%r, %d)" % (self.level, self.ready)


class MemorySystem:
    """Workstation memory system: L1I, L1D+MSHR, TLB, L2, bus, banks."""

    #: The L1 I-cache is real and blocking: the processor probes it for
    #: every fetch (``inst_fetch``) and burst run (``inst_run_present``).
    ideal_icache = False
    #: Only this model's own processor uses it, so that processor may
    #: perform an access for a cycle ahead of the loop's clock: a block
    #: dispatch issues each load and store at its scheduled cycle,
    #: through ``l1_hit`` (see :mod:`repro.isa.segments`).
    runs_ahead = True

    def __init__(self, params):
        self.params = params
        self.l1i = DirectMappedCache(params.l1i)
        self.l1d = DirectMappedCache(params.l1d)
        self.l2 = DirectMappedCache(params.l2)
        self.dtlb = TLB(params.tlb)
        self.mshr = MSHRFile(params.mshr_capacity)
        # A split-transaction bus decouples the address (request) phase
        # from the data (reply) phase; modelling them as separate
        # channels keeps a reply reserved in the future from blocking a
        # request issued before it.
        self.bus_req = Resource("bus.req")
        self.bus_reply = Resource("bus.reply")
        self.banks = [Resource("bank%d" % i) for i in range(params.n_banks)]
        self.tlb_stall_count = 0

    # -- internals -----------------------------------------------------------

    def _bank_for(self, addr):
        line = addr >> self.l1d.line_bits
        return self.banks[line % len(self.banks)]

    def _memory_transaction(self, addr, now):
        """Bus + bank + reply path; returns data-return cycle at L2."""
        p = self.params
        req = self.bus_req.acquire(now, p.bus_request_occupancy)
        bank = self._bank_for(addr)
        access = bank.acquire(req + p.bus_request_occupancy,
                              p.bank_occupancy)
        data_at_bus = access + _BANK_LATENCY
        reply = self.bus_reply.acquire(data_at_bus, p.bus_reply_occupancy)
        return reply + p.bus_reply_occupancy

    def _writeback_to_memory(self, addr, now):
        """Fire-and-forget dirty-line writeback traffic (occupancy only)."""
        p = self.params
        req = self.bus_req.acquire(now, p.bus_reply_occupancy)
        self._bank_for(addr).acquire(req + p.bus_reply_occupancy,
                                     p.bank_occupancy)

    def _miss_path(self, cache, addr, now, is_inst):
        """L1 miss service through L2 (and memory); returns (level, ready).

        Fills tags along the way; dirty evictions generate write traffic.
        """
        p = self.params
        l2_start = self.l2.port.acquire(now + _L2_REQUEST_DELAY,
                                        p.l2.read_occupancy)
        if self.l2.lookup(addr):
            ready = l2_start + (p.l2_hit_latency - _L2_REQUEST_DELAY)
            level = "l2"
        else:
            miss_known = l2_start + p.l2.read_occupancy
            reply = self._memory_transaction(addr, miss_known)
            ready = max(reply + _RETURN_TAIL,
                        now + p.memory_latency)
            evicted_l2 = self.l2.fill(addr)
            if evicted_l2 is not None:
                self._writeback_to_memory(evicted_l2, ready)
            level = "mem"
        evicted = cache.fill(addr)
        if evicted is not None:
            # L1 victim writeback into L2 (inclusive hierarchy).
            self.l2.fill_port.acquire(ready, p.l2.write_occupancy)
            self.l2.mark_dirty(evicted)
        fill_occ = (p.l1i if is_inst else p.l1d).fill_occupancy
        cache.fill_port.acquire(ready, fill_occ)
        return level, ready

    # -- public API ------------------------------------------------------------

    def l1_hit(self, addr, is_write, now):
        """Perform the access at ``now`` if it hits the L1 D-cache.

        A hit needs a TLB hit, no fill pending for the line, and the tag
        present.  It is then committed as :meth:`data_access` commits it
        — TLB LRU order and hit count, the cache port's reservation, the
        hit count, and the dirty bit of a store — and the port's start
        cycle is returned.  Anything else returns None and changes no
        statistic (the block dispatch then issues the access through
        the processor's own path, which calls :meth:`data_access`).
        """
        dtlb = self.dtlb
        page = addr >> dtlb.page_bits
        pages = dtlb.pages
        if page not in pages:
            return None
        mshr = self.mshr
        l1d = self.l1d
        if mshr.entries:
            mshr.purge(now)
            if (addr >> l1d.line_bits << l1d.line_bits) in mshr.entries:
                return None
        index = (addr >> l1d.line_bits) & l1d.index_mask
        if l1d.tags[index] != addr >> l1d.tag_shift:
            return None
        pages.move_to_end(page)
        dtlb.hits += 1
        p = self.params.l1d
        start = l1d.port.acquire(
            now, p.write_occupancy if is_write else p.read_occupancy)
        l1d.hits += 1
        if is_write:
            l1d.dirty[index] = 1
        return start

    def data_access(self, addr, is_write, now):
        """Access ``addr`` at cycle ``now``; returns an :class:`AccessResult`.

        L1 hits return ``ready == now`` — the pipeline's 3-cycle load
        latency already covers the primary-cache access (Table 2's 1-cycle
        hit is part of the DF stages).
        """
        start = self.l1_hit(addr, is_write, now)
        if start is not None:
            return AccessResult("l1", start)
        p = self.params
        if not self.dtlb.lookup(addr):
            self.tlb_stall_count += 1
            return AccessResult("tlb", now + p.tlb.miss_penalty)

        line = self.l1d.line_addr(addr)
        pending = self.mshr.pending(line)
        if pending is not None:
            self.mshr.merge(line)
            return AccessResult("pending", pending)

        # A miss (l1_hit found the tag absent) still occupies the port.
        self.l1d.port.acquire(now, p.l1d.write_occupancy if is_write
                              else p.l1d.read_occupancy)
        self.l1d.misses += 1
        if len(self.mshr.entries) >= self.mshr.capacity:
            # All MSHRs busy: structural stall, retry when one frees up.
            self.mshr.structural_stalls += 1
            retry = self.mshr.earliest_completion() or now + 1
            return AccessResult("mshr", retry)
        level, ready = self._miss_path(self.l1d, addr, now, is_inst=False)
        if is_write:
            # Write-allocate: the line arrives and is written immediately.
            self.l1d.mark_dirty(addr)
        self.mshr.allocate(line, ready)
        return AccessResult(level, ready)

    def inst_fetch(self, addr, now):
        """Instruction fetch; the I-cache is blocking (paper Section 4.1).

        A hit costs nothing and returns None.  A miss returns its
        :class:`AccessResult`: the whole processor stalls until
        ``ready``, and the fetch brings in two lines (Table 1 fetch
        size), the second as a prefetch that adds occupancy but no
        latency.
        """
        l1i = self.l1i
        if (l1i.tags[(addr >> l1i.line_bits) & l1i.index_mask]
                == addr >> l1i.tag_shift):
            l1i.hits += 1
            return None
        l1i.misses += 1
        level, ready = self._miss_path(l1i, addr, now, is_inst=True)
        next_line = l1i.line_addr(addr) + self.params.l1i.line_size
        if not l1i.present(next_line):
            self._miss_path(l1i, next_line, now, is_inst=True)
        return AccessResult(level, ready)

    def inst_run_present(self, addr, n_insts):
        """Whether every line of a straight-line fetch run of
        ``n_insts`` instructions from ``addr`` is in the I-cache.

        The burst engine's fetch guard: a run whose lines are all
        present cannot stall the front end.  Counts nothing; the
        dispatch counts the fetches it makes (:meth:`count_fetch_hits`).
        """
        l1i = self.l1i
        line_size = self.params.l1i.line_size
        line = l1i.line_addr(addr)
        last = l1i.line_addr(addr + 4 * (n_insts - 1))
        while line <= last:
            if not l1i.present(line):
                return False
            line += line_size
        return True

    def count_fetch_hits(self, n_insts):
        """Count ``n_insts`` instruction fetches that hit (a dispatched
        run's, whose lines :meth:`inst_run_present` found)."""
        self.l1i.hits += n_insts

    def scheduler_interference(self, n_switched, os_params, rng):
        """Displace cache lines on an OS scheduler invocation (Table 6)."""
        i_lines, d_lines = os_params.interference_for(n_switched)
        self.l1i.displace_random(i_lines, rng)
        self.l1d.displace_random(d_lines, rng)

    def flush(self):
        """Cold caches and TLB (used between independent simulations)."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.dtlb.flush()
        self.mshr.clear()
