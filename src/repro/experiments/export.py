"""Structured (JSON) export of experiment results.

Downstream analysis (plotting, regression tracking) wants numbers, not
rendered tables; this module turns stats objects and experiment results
into plain dictionaries and writes them as JSON.
"""

import json

from repro.coherence.dsm import ProtocolCounters
from repro.experiments.runner import dedicated_rate_of
from repro.pipeline.stalls import Stall

#: The protocol counters whose export key is not their declared name.
_EXPORT_NAMES = {"invalidations_sent": "invalidations",
                 "dirty_remote_services": "cache_to_cache"}


def stats_to_dict(stats):
    """A CycleStats as a plain dictionary."""
    return {
        "cycles": stats.total_cycles,
        "retired": stats.retired,
        "issued": stats.issued,
        "squashed": stats.squashed,
        "context_switches": stats.context_switches,
        "backoffs": stats.backoffs,
        "utilization": stats.utilization(),
        "ipc": stats.ipc(),
        "mean_runlength": stats.mean_runlength(),
        "slots": {Stall(i).name.lower(): count
                  for i, count in enumerate(stats.counts)},
    }


def uniproc_run_to_dict(run):
    """An ExperimentContext PointRun as a plain dictionary."""
    result = run.result
    return {
        "duration": result.duration,
        "per_process": dict(result.per_process),
        "stats": stats_to_dict(result.stats),
    }


def mp_result_to_dict(result):
    """An MPResult as a plain dictionary."""
    machine = result.machine
    return {
        "cycles": result.cycles,
        "nodes": [stats_to_dict(s) for s in result.node_stats],
        "stats": stats_to_dict(result.stats),
        "protocol": {_EXPORT_NAMES.get(name, name): getattr(machine, name)
                     for name in ProtocolCounters.__slots__},
    }


def context_to_dict(ctx):
    """Everything an ExperimentContext has memoised, as a dictionary.

    A generated point is a workstation run, listed under
    ``uniprocessor`` as ``gen:<GenSpec text>/<scheme>/<n_contexts>``.
    """
    out = {"uniprocessor": {}, "dedicated_rates": {}, "multiprocessor": {}}
    for (kind, name, scheme, n_contexts), run in ctx._memo.items():
        label = "%s/%s/%d" % (name, scheme, n_contexts)
        if kind == "mp":
            out["multiprocessor"][label] = mp_result_to_dict(run.result)
        elif kind == "dedicated":
            out["dedicated_rates"][name] = dedicated_rate_of(run.result)
        else:
            prefix = "gen:" if kind == "gen" else ""
            out["uniprocessor"][prefix + label] = uniproc_run_to_dict(run)
    return out


def write_json(path, payload):
    """Serialise ``payload`` (any of the dicts above) to ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path
