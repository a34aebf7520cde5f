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
    #: every fetch (``inst_fetch``) and burst run (``inst_run_hits``).
    ideal_icache = False

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

    def data_access(self, addr, is_write, now, requester=0):
        """Access ``addr`` at cycle ``now``; returns an :class:`AccessResult`.

        ``requester`` identifies the accessing processor; the uniprocessor
        hierarchy ignores it (it exists so the coherent multiprocessor
        memory system can expose the same interface).

        L1 hits return ``ready == now`` — the pipeline's 3-cycle load
        latency already covers the primary-cache access (Table 2's 1-cycle
        hit is part of the DF stages).
        """
        p = self.params
        if not self.dtlb.lookup(addr):
            self.tlb_stall_count += 1
            return AccessResult("tlb", now + p.tlb.miss_penalty)

        self.mshr.purge(now)
        line = self.l1d.line_addr(addr)
        pending = self.mshr.pending(line)
        if pending is not None:
            self.mshr.merge(line)
            return AccessResult("pending", pending)

        occ = (p.l1d.write_occupancy if is_write
               else p.l1d.read_occupancy)
        port_start = self.l1d.port.acquire(now, occ)
        if self.l1d.lookup(addr):
            if is_write:
                self.l1d.mark_dirty(addr)
            return AccessResult("l1", port_start)

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

        On a miss the whole processor stalls until ``ready``; the fetch
        brings in two lines (Table 1 fetch size), the second as a
        prefetch that adds occupancy but no latency.
        """
        if self.l1i.lookup(addr):
            return AccessResult("l1", now)
        level, ready = self._miss_path(self.l1i, addr, now, is_inst=True)
        next_line = self.l1i.line_addr(addr) + self.params.l1i.line_size
        if not self.l1i.present(next_line):
            self._miss_path(self.l1i, next_line, now, is_inst=True)
        return AccessResult(level, ready)

    def inst_run_hits(self, addr, n_insts, already_fetched):
        """Probe a straight-line fetch run of ``n_insts`` instructions.

        Burst-engine fetch guard: returns True — and bulk-counts the
        I-cache hits — only when every line the run touches is already
        present, so the run cannot stall the front end.  A False return
        leaves all statistics untouched (the caller falls back to
        per-instruction fetch, which handles the miss the usual way).
        ``already_fetched`` is 1 when the first instruction's fetch was
        already counted this instance (the once-per-instruction fetch
        caching of the per-issue path), else 0.
        """
        l1i = self.l1i
        line_size = self.params.l1i.line_size
        line = l1i.line_addr(addr)
        last = l1i.line_addr(addr + 4 * (n_insts - 1))
        while line <= last:
            if not l1i.present(line):
                return False
            line += line_size
        l1i.hits += n_insts - already_fetched
        return True

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
        self.mshr.entries.clear()
