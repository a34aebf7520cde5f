"""Miss status holding registers.

The lockup-free primary data cache (Kroft-style, paper Section 4.1) keeps
one MSHR per outstanding line miss.  A second request to a line already in
flight merges with the existing entry; a request that finds all MSHRs full
suffers a structural stall and must retry.
"""


#: :attr:`MSHRFile.earliest` of an empty file: no fill completes.
NO_FILL = 1 << 62


class MSHRFile:
    """Outstanding-miss tracking for a lockup-free cache.

    :attr:`entries` changes only through :meth:`allocate`,
    :meth:`purge` and :meth:`clear`, which keep :attr:`earliest` equal
    to its earliest completion cycle.
    """

    __slots__ = ("capacity", "entries", "earliest", "merges",
                 "allocations", "structural_stalls")

    def __init__(self, capacity):
        self.capacity = capacity
        #: line address -> completion cycle of the in-flight fill
        self.entries = {}
        #: The earliest completion cycle in ``entries`` (NO_FILL when
        #: empty): nothing is due for a purge before it.
        self.earliest = NO_FILL
        self.merges = 0
        self.allocations = 0
        self.structural_stalls = 0

    def purge(self, now):
        """Retire entries whose fills have completed."""
        if now < self.earliest:
            return
        entries = self.entries
        for line in [line for line, t in entries.items() if t <= now]:
            del entries[line]
        self.earliest = min(entries.values(), default=NO_FILL)

    def clear(self):
        """Drop every entry (cold start)."""
        self.entries.clear()
        self.earliest = NO_FILL

    def pending(self, line_addr):
        """Completion cycle of an in-flight fill for this line, or None."""
        return self.entries.get(line_addr)

    def merge(self, line_addr):
        """Record a merged secondary miss; returns the completion cycle."""
        self.merges += 1
        return self.entries[line_addr]

    def allocate(self, line_addr, completion):
        """Allocate an entry; returns False on structural hazard (full)."""
        if len(self.entries) >= self.capacity:
            self.structural_stalls += 1
            return False
        self.entries[line_addr] = completion
        if completion < self.earliest:
            self.earliest = completion
        self.allocations += 1
        return True

    def earliest_completion(self):
        """Completion cycle of the oldest outstanding fill (or None)."""
        return self.earliest if self.entries else None

    def __len__(self):
        return len(self.entries)
