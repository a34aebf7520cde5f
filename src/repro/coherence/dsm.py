"""The distributed-shared-memory machine and its per-node memory systems.

Each node's :class:`NodeMemory` exposes the same ``data_access``
interface as the uniprocessor hierarchy, so the processor model is
reused unchanged.  Differences from the workstation (paper Section 5.2):

* the instruction cache is ideal (100% hit — shared-data communication
  dominates the multiprocessor miss rate), so the model declares
  ``ideal_icache`` and the processor never probes it;
* a single level of lockup-free data cache per node;
* misses are serviced by the directory protocol with Table 8 latencies;
* a *write* to a shared line is an ownership upgrade — also a
  late-detected long-latency event, so it enters the doomed window like
  any miss.

Data placement: each page has a home node.  Workloads place each thread's
private region on its own node; shared regions default to round-robin
page interleaving (``page % n_nodes``), DASH's default allocation.
"""

import functools

from repro.isa.executor import Memory
from repro.memory.cache import DirectMappedCache
from repro.memory.mshr import MSHRFile
from repro.memory.hierarchy import AccessResult
from repro.coherence.directory import Directory
from repro.coherence.interconnect import LatencyModel

_PAGE_BITS = 12


class NodeMemory:
    """The memory interface one node's processor issues into."""

    __slots__ = ("machine", "node_id", "cache", "mshr", "data_access")

    #: Ideal instruction cache (paper Section 5.2): every fetch hits.
    ideal_icache = True
    #: The machine serves every node's accesses in the loop's cycle
    #: order, so a node's access must not run ahead of the clock: runs
    #: end at memory ops (see :mod:`repro.isa.segments`).
    runs_ahead = False

    def __init__(self, machine, node_id):
        self.machine = machine
        self.node_id = node_id
        self.cache = DirectMappedCache(machine.params.cache)
        self.mshr = MSHRFile(machine.mshr_capacity)
        #: ``data_access(addr, is_write, now)``: this node's accesses go
        #: straight to :meth:`DSMachine.access`, with no frame between.
        self.data_access = functools.partial(machine.access, node_id)


class ProtocolCounters:
    """The directory protocol's traffic counts (paper Section 5.2).

    The one declaration of the counters: :class:`DSMachine` counts into
    them, and the result cache stores, restores and exports exactly
    ``__slots__``, so a counter added here is carried everywhere.
    """

    __slots__ = (
        "read_misses",
        "write_misses",
        "upgrades",
        "invalidations_sent",
        "dirty_remote_services",
        # Fills serviced off-node (home memory on another node, or a
        # 3-hop transfer out of a remote cache) — the communication
        # misses that dominate the multiprocessor's latency budget.
        "remote_fills",
        # MSHR-full NACKs: the request is refused and the processor
        # retries later (each refusal also counts in the refusing
        # node's ``mshr.structural_stalls``).
        "nack_retries",
    )

    def __init__(self):
        for name in ProtocolCounters.__slots__:
            setattr(self, name, 0)


class DSMachine(ProtocolCounters):
    """Caches + directory + interconnect for ``n_nodes`` nodes.

    Slotted, so a protocol counter can only be added in
    :class:`ProtocolCounters`: assigning any other attribute raises.
    """

    __slots__ = ("params", "n_nodes", "mshr_capacity", "latency",
                 "directory", "memory", "nodes", "page_home")

    def __init__(self, params, seed=None, mshr_capacity=8):
        ProtocolCounters.__init__(self)
        self.params = params
        self.n_nodes = params.n_nodes
        self.mshr_capacity = mshr_capacity
        self.latency = LatencyModel(params, seed=seed)
        self.directory = Directory()
        self.memory = Memory()            # functional image, shared
        self.nodes = [NodeMemory(self, i) for i in range(self.n_nodes)]
        self.page_home = {}               # page -> node overrides

    # -- placement ---------------------------------------------------------------

    def place(self, addr, n_words, node):
        """Pin the pages covering [addr, addr + 4*n_words) to ``node``."""
        first = addr >> _PAGE_BITS
        last = (addr + 4 * n_words - 1) >> _PAGE_BITS
        for page in range(first, last + 1):
            self.page_home[page] = node

    def home_of(self, addr):
        page = addr >> _PAGE_BITS
        home = self.page_home.get(page)
        if home is None:
            home = page % self.n_nodes
        return home

    # -- the protocol ------------------------------------------------------------

    def _service_dirty(self, entry, line, requester, now, for_write):
        """Fetch a line that is dirty in another cache (3-hop transfer)."""
        owner = entry.owner
        owner_cache = self.nodes[owner].cache
        self.dirty_remote_services += 1
        latency = self.latency.remote_cache()
        # The transfer occupies the owner's cache port (cache contention
        # is modelled even though the network is not).
        params = owner_cache.params
        owner_cache.port.acquire(now + latency // 2,
                                 params.read_occupancy)
        if for_write:
            owner_cache.invalidate(line)
            self.invalidations_sent += 1
            entry.owner = requester
            entry.sharers = 0
        else:
            # Owner keeps a clean copy; home memory is updated.
            owner_cache.dirty[owner_cache.index_of(line)] = 0
            entry.owner = -1
            entry.sharers = (1 << owner) | (1 << requester)
        return latency

    def _invalidate_sharers(self, entry, line, keep, now):
        """Invalidate every sharer except ``keep``."""
        bits = entry.sharers
        node = 0
        while bits:
            if bits & 1 and node != keep:
                cache = self.nodes[node].cache
                if cache.invalidate(line):
                    cache.port.acquire(
                        now, cache.params.invalidate_occupancy)
                self.invalidations_sent += 1
            bits >>= 1
            node += 1

    def access(self, node_id, addr, is_write, now):
        """One data access from ``node_id``; returns an AccessResult."""
        node = self.nodes[node_id]
        cache = node.cache
        line = cache.line_addr(addr)

        node.mshr.purge(now)
        pending = node.mshr.pending(line)
        if pending is not None:
            node.mshr.merge(line)
            return AccessResult("pending", pending)

        occ = (cache.params.write_occupancy if is_write
               else cache.params.read_occupancy)
        port_start = cache.port.acquire(now, occ)
        entry = self.directory.entry(line)

        if cache.lookup(addr):
            if not is_write:
                return AccessResult("l1", port_start)
            if entry.owner == node_id:
                cache.mark_dirty(addr)
                return AccessResult("l1", port_start)
            # Write hit on a shared line: ownership upgrade through the
            # home — a late-detected long-latency event.
            if len(node.mshr.entries) >= node.mshr.capacity:
                node.mshr.structural_stalls += 1
                self.nack_retries += 1
                return AccessResult(
                    "mshr", node.mshr.earliest_completion() or now + 1)
            self.upgrades += 1
            home = self.home_of(addr)
            latency = self.latency.memory_latency(node_id, home)
            self._invalidate_sharers(entry, line, keep=node_id, now=now)
            entry.owner = node_id
            entry.sharers = 0
            cache.mark_dirty(addr)
            ready = port_start + latency
            node.mshr.allocate(line, ready)
            return AccessResult("upgrade", ready)

        # Miss.  Check MSHR capacity before touching any protocol state so
        # a structural retry replays the full transaction.
        if len(node.mshr.entries) >= node.mshr.capacity:
            node.mshr.structural_stalls += 1
            self.nack_retries += 1
            return AccessResult(
                "mshr", node.mshr.earliest_completion() or now + 1)
        if is_write:
            self.write_misses += 1
        else:
            self.read_misses += 1

        if entry.is_dirty and entry.owner != node_id:
            latency = self._service_dirty(entry, line, node_id, now,
                                          for_write=is_write)
            level = "remote_cache"
        else:
            home = self.home_of(addr)
            if is_write:
                self._invalidate_sharers(entry, line, keep=node_id,
                                         now=now)
                entry.owner = node_id
                entry.sharers = 0
            else:
                entry.owner = -1
                entry.sharers |= 1 << node_id
            latency = self.latency.memory_latency(node_id, home)
            level = "local" if home == node_id else "remote"
        if level != "local":
            self.remote_fills += 1

        evicted = cache.fill(addr)
        if is_write:
            cache.mark_dirty(addr)
        if evicted is not None:
            # Dirty eviction: write back through the home, clearing
            # ownership so the directory stays exact for dirty lines.
            ev_entry = self.directory.entry(cache.line_addr(evicted))
            if ev_entry.owner == node_id:
                ev_entry.owner = -1

        ready = port_start + latency
        node.mshr.allocate(line, ready)
        return AccessResult(level, ready)

    # -- invariant checking (used by property tests) --------------------------------

    def check_coherence_invariants(self):
        """Raise AssertionError when the protocol state is inconsistent.

        Invariants: (1) at most one dirty copy machine-wide, and when a
        cache line is dirty the directory names that cache as owner;
        (2) a dirty line is present in the owner's cache.
        """
        for line, entry in self.directory.entries.items():
            dirty_holders = []
            for node in self.nodes:
                cache = node.cache
                idx = cache.index_of(line)
                if (cache.tags[idx] == cache.tag_of(line)
                        and cache.dirty[idx]):
                    dirty_holders.append(node.node_id)
            if entry.is_dirty:
                assert dirty_holders == [entry.owner], (
                    "line 0x%x: directory owner %d but dirty in %s"
                    % (line, entry.owner, dirty_holders))
            else:
                assert not dirty_holders, (
                    "line 0x%x: dirty in %s but directory says clean"
                    % (line, dirty_holders))
