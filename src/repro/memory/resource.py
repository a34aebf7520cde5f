"""Contention modelling for shared hardware resources.

Cache ports, the split-transaction bus, and the interleaved memory banks
are all "one customer at a time" resources; queuing delay is the only
contention effect the paper models ("cache and memory contention are
modeled, and can add to these latencies").
"""


class Resource:
    """A resource that serves one request at a time.

    ``acquire`` reserves the resource for ``occupancy`` cycles starting no
    earlier than ``now`` and returns the actual start cycle, so the caller
    can add ``start - now`` of queuing delay to its latency.
    """

    __slots__ = ("name", "busy_until", "total_busy", "total_requests",
                 "total_queue_delay")

    def __init__(self, name):
        self.name = name
        self.busy_until = 0
        self.total_busy = 0
        self.total_requests = 0
        self.total_queue_delay = 0

    def acquire(self, now, occupancy):
        start = now if now >= self.busy_until else self.busy_until
        self.busy_until = start + occupancy
        self.total_busy += occupancy
        self.total_requests += 1
        self.total_queue_delay += start - now
        return start

    def queue_delay(self, now):
        """Delay a request arriving at ``now`` would see, without queuing."""
        return max(0, self.busy_until - now)

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` cycles this resource was busy."""
        return self.total_busy / elapsed if elapsed else 0.0

    def reset(self):
        self.busy_until = 0
        self.total_busy = 0
        self.total_requests = 0
        self.total_queue_delay = 0
