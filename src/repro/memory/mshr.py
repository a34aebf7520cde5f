"""Miss status holding registers.

The lockup-free primary data cache (Kroft-style, paper Section 4.1) keeps
one MSHR per outstanding line miss.  A second request to a line already in
flight merges with the existing entry; a request that finds all MSHRs full
suffers a structural stall and must retry.
"""


class MSHRFile:
    """Outstanding-miss tracking for a lockup-free cache."""

    __slots__ = ("capacity", "entries", "merges", "allocations",
                 "structural_stalls")

    def __init__(self, capacity):
        self.capacity = capacity
        #: line address -> completion cycle of the in-flight fill
        self.entries = {}
        self.merges = 0
        self.allocations = 0
        self.structural_stalls = 0

    def purge(self, now):
        """Retire entries whose fills have completed."""
        if not self.entries:
            return
        done = [line for line, t in self.entries.items() if t <= now]
        for line in done:
            del self.entries[line]

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
        self.allocations += 1
        return True

    def earliest_completion(self):
        """Completion cycle of the oldest outstanding fill (or None)."""
        return min(self.entries.values()) if self.entries else None

    def __len__(self):
        return len(self.entries)
