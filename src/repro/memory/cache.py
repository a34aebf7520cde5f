"""Direct-mapped cache tag model.

Only tags and dirty bits are modelled — data values live in the functional
memory (:class:`repro.isa.executor.Memory`).  All of the paper's caches
are direct-mapped with 32-byte lines (Table 1), so the index/tag split is
a pair of shifts.  Occupancy-based port contention is handled by the
embedded :class:`~repro.memory.resource.Resource`.
"""

from repro.memory.resource import Resource


def _log2(x):
    n = x.bit_length() - 1
    if 1 << n != x:
        raise ValueError("%d is not a power of two" % x)
    return n


class DirectMappedCache:
    """Tag array + dirty bits + port occupancy for one cache level."""

    __slots__ = ("params", "line_bits", "index_bits", "index_mask",
                 "tag_shift", "tags", "dirty", "port", "fill_port", "hits",
                 "misses", "writebacks", "invalidations")

    def __init__(self, params):
        self.params = params
        self.line_bits = _log2(params.line_size)
        self.index_bits = _log2(params.n_lines)
        # The hot tag checks split an address inline with these:
        # index = addr >> line_bits & index_mask, tag = addr >> tag_shift.
        self.index_mask = (1 << self.index_bits) - 1
        self.tag_shift = self.line_bits + self.index_bits
        self.tags = [-1] * params.n_lines
        self.dirty = bytearray(params.n_lines)
        self.port = Resource(params.name + ".port")
        # Fills and victim writebacks land in the future (at miss
        # completion); giving them their own port models fill buffers and
        # keeps future reservations from blocking earlier lookups.
        self.fill_port = Resource(params.name + ".fill")
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.invalidations = 0

    # -- address helpers -----------------------------------------------------

    def index_of(self, addr):
        return (addr >> self.line_bits) & self.index_mask

    def tag_of(self, addr):
        return addr >> self.tag_shift

    def line_addr(self, addr):
        return addr >> self.line_bits << self.line_bits

    # -- tag operations --------------------------------------------------------

    def lookup(self, addr, count=True):
        """Tag check; returns True on hit.  Updates hit/miss counters."""
        hit = (self.tags[(addr >> self.line_bits) & self.index_mask]
               == addr >> self.tag_shift)
        if count:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        return hit

    def present(self, addr):
        """Tag check with no statistics side effects."""
        return (self.tags[(addr >> self.line_bits) & self.index_mask]
                == addr >> self.tag_shift)

    def fill(self, addr):
        """Install the line containing ``addr``.

        Returns the evicted line's address when a *dirty* line was
        displaced (the caller issues the writeback traffic), else None.
        """
        idx = self.index_of(addr)
        evicted = None
        old_tag = self.tags[idx]
        if old_tag != -1 and self.dirty[idx]:
            evicted = (old_tag << self.index_bits | idx) << self.line_bits
            self.writebacks += 1
        self.tags[idx] = self.tag_of(addr)
        self.dirty[idx] = 0
        return evicted

    def mark_dirty(self, addr):
        idx = self.index_of(addr)
        if self.tags[idx] == self.tag_of(addr):
            self.dirty[idx] = 1

    def invalidate(self, addr):
        """Invalidate the line containing ``addr`` if present.

        Returns True when a line was actually invalidated.
        """
        idx = self.index_of(addr)
        if self.tags[idx] == self.tag_of(addr):
            self.tags[idx] = -1
            self.dirty[idx] = 0
            self.invalidations += 1
            return True
        return False

    def displace_random(self, n_lines, rng):
        """Evict ``n_lines`` randomly chosen lines (scheduler interference).

        The paper models OS scheduler pollution "by issuing the number of
        memory requests given in the table to random addresses"; evicting
        random sets has the same first-order effect on the workload.
        """
        n = self.params.n_lines
        for _ in range(min(n_lines, n)):
            idx = rng.randrange(n)
            self.tags[idx] = -1
            self.dirty[idx] = 0

    def flush(self):
        """Invalidate everything (used between simulations)."""
        for i in range(len(self.tags)):
            self.tags[i] = -1
        self.dirty = bytearray(self.params.n_lines)

    @property
    def miss_rate(self):
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
