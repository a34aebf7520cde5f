"""Cycle accounting for the utilisation/execution-time breakdowns.

Every processor issue slot lands in exactly one :class:`Stall` bucket;
the figures of the paper are different groupings of these buckets
(see :mod:`repro.pipeline.stalls`).
"""

from repro.pipeline.stalls import Stall, UNIPROCESSOR_CATEGORIES

#: Length of ``CycleStats.counts``: one slot per Stall value.
_N_STALLS = max(Stall) + 1


class CycleStats:
    """Per-processor cycle and instruction accounting."""

    #: The one declaration of the record's fields: ``counts`` (issue
    #: slots per Stall bucket) and the scalar counters, among them the
    #: runlength statistics (instructions between unavailability
    #: events; paper Section 5.1).  Every copier below and the result
    #: cache's (de)serialisers iterate over it.
    __slots__ = ("counts", "retired", "issued", "squashed",
                 "context_switches", "backoffs", "run_count",
                 "run_inst_sum", "run_max")

    def __init__(self):
        self.counts = [0] * _N_STALLS
        for name in SCALARS:
            setattr(self, name, 0)

    # -- recording -----------------------------------------------------------

    def add(self, stall, n=1):
        self.counts[stall] += n

    def end_run(self, length):
        """Record one runlength (instructions until unavailability)."""
        self.run_count += 1
        self.run_inst_sum += length
        if length > self.run_max:
            self.run_max = length

    def mean_runlength(self):
        return (self.run_inst_sum / self.run_count
                if self.run_count else 0.0)

    # -- reading -------------------------------------------------------------

    @property
    def total_cycles(self):
        return sum(self.counts)

    @property
    def busy(self):
        return self.counts[Stall.BUSY]

    def utilization(self):
        total = self.total_cycles
        return self.busy / total if total else 0.0

    def ipc(self):
        total = self.total_cycles
        return self.retired / total if total else 0.0

    def breakdown(self, categories=UNIPROCESSOR_CATEGORIES):
        """Cycle counts grouped into the requested figure's categories."""
        return {name: sum(self.counts[s] for s in stalls)
                for name, stalls in categories}

    def breakdown_fractions(self, categories=UNIPROCESSOR_CATEGORIES):
        total = self.total_cycles
        if not total:
            return {name: 0.0 for name, _ in categories}
        return {name: count / total
                for name, count in self.breakdown(categories).items()}

    def snapshot(self):
        """A copy, for warmup-subtraction by the experiment harness."""
        s = CycleStats()
        s.counts = list(self.counts)
        for name in SCALARS:
            setattr(s, name, getattr(self, name))
        return s

    def delta_since(self, earlier):
        """Stats accumulated since ``earlier`` (a snapshot of self)."""
        s = CycleStats()
        s.counts = [a - b for a, b in zip(self.counts, earlier.counts)]
        for name in _ADDITIVE:
            setattr(s, name, getattr(self, name) - getattr(earlier, name))
        # A maximum cannot be subtracted: the window keeps the later one.
        s.run_max = self.run_max
        return s

    def merged_with(self, other):
        """Sum of two stats objects (aggregating processors)."""
        s = CycleStats()
        s.counts = [a + b for a, b in zip(self.counts, other.counts)]
        for name in _ADDITIVE:
            setattr(s, name, getattr(self, name) + getattr(other, name))
        s.run_max = max(self.run_max, other.run_max)
        return s

    def __repr__(self):
        return ("CycleStats(cycles=%d, retired=%d, util=%.3f)"
                % (self.total_cycles, self.retired, self.utilization()))


#: Every scalar field of :class:`CycleStats`, in declaration order.
SCALARS = tuple(name for name in CycleStats.__slots__ if name != "counts")
#: The scalars a window delta subtracts and a merge adds; ``run_max``
#: has its own rule in each.
_ADDITIVE = tuple(name for name in SCALARS if name != "run_max")
