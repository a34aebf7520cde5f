"""Distributed-shared-memory substrate (paper Section 5.2).

A DASH-like machine: one processor, cache, and memory slice per node,
kept coherent by a distributed invalidation-based directory protocol.
The network and memories are contentionless (as in the paper — "cache
contention is likely to dominate network and memory contention"); cache
port contention *is* modelled.  Unloaded latencies are drawn uniformly
from the Table 8 ranges.
"""

from repro.coherence.directory import Directory, DirEntry
from repro.coherence.interconnect import LatencyModel
from repro.coherence.dsm import DSMachine, NodeMemory, ProtocolCounters

__all__ = ["Directory", "DirEntry", "LatencyModel", "DSMachine",
           "NodeMemory", "ProtocolCounters"]
