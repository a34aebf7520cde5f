"""Data TLB model.

The DT workload of the paper exists specifically to stress the data TLB,
so the TLB must be a real structure with capacity misses.  We model a
fully-associative TLB with LRU replacement and a fixed software-refill
penalty; the refill is charged as part of the "data cache/TLB" stall
category, matching the paper's accounting.

The machine uses identity virtual-to-physical mapping (each process owns a
disjoint region of the 2^28-byte physical space), so the TLB affects
timing only.
"""

from collections import OrderedDict


class TLB:
    """Fully-associative, LRU translation buffer."""

    __slots__ = ("entries", "page_bits", "pages", "hits", "misses")

    def __init__(self, params):
        self.entries = params.entries
        page = params.page_size
        bits = page.bit_length() - 1
        if 1 << bits != page:
            raise ValueError("page size must be a power of two")
        self.page_bits = bits
        self.pages = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, addr):
        """Translate; returns True on hit, False on miss (entry refilled)."""
        page = addr >> self.page_bits
        pages = self.pages
        if page in pages:
            pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        if len(pages) >= self.entries:
            # LRU eviction: popitem(last=False) pops the least-recently
            # used entry in insertion/move_to_end order — deterministic.
            # lint: allow(L302) -- explicit LRU policy on an OrderedDict
            pages.popitem(last=False)
        pages[page] = True
        return False

    def flush(self):
        self.pages.clear()

    @property
    def miss_rate(self):
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
