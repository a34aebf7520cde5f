"""The naive-engine oracle: per-point digests of the simulated statistics.

A point's digest hashes its serialised result state (the
:class:`~repro.experiments.cache.ResultCache` format: window or
completion cycles, per-process retire counts, every stall bucket and
counter, and for ``mp`` points the DSM protocol counters), less any
``engine`` field.  The committed file holds the digests computed with
``engine="naive"`` at the default seed; any other seed is recomputed
with the naive engine, outside the timed region, and kept under the
work directory keyed by seed and simulator code version.
"""

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

#: The repo's default simulation seed; its digests are committed.
DEFAULT_SEED = 1994

#: Worker processes that compute a naive oracle (the host has 2 CPUs).
WORKERS = 2

COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "oracle_seed%d.json" % DEFAULT_SEED)


def point_id(point):
    kind, name, scheme, n_contexts = point
    return "%s/%s/%s/%d" % (kind, name, scheme, n_contexts)


def digest(state):
    """Stable hash of one point's statistics (``engine`` left out)."""
    body = {k: v for k, v in state.items() if k != "engine"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def naive_state(point, seed):
    """One point's result state, computed with the naive engine."""
    from repro.config import SystemConfig, MultiprocessorParams
    from repro.experiments import runner
    from repro.experiments.cache import SERIALIZERS
    kind, name, scheme, n_contexts = point
    if kind == "uniproc":
        result, _sim = runner.compute_uniproc(
            name, scheme, n_contexts, SystemConfig.fast(), seed,
            runner.UNIPROC_WARMUP, runner.UNIPROC_MEASURE, engine="naive")
    elif kind == "dedicated":
        result = runner.compute_dedicated(
            name, SystemConfig.fast(), seed, runner.UNIPROC_WARMUP,
            runner.UNIPROC_MEASURE, engine="naive")
    else:
        result = runner.compute_mp(name, scheme, n_contexts,
                                   MultiprocessorParams(), seed,
                                   engine="naive")
    return SERIALIZERS[kind][0](result)


def _naive_digest(point, seed):
    return point_id(point), digest(naive_state(point, seed))


def compute(points, seed):
    """{point id: naive digest}, on ``WORKERS`` spawned processes."""
    # Heaviest first (mp, most contexts) keeps the parallel tail short.
    order = sorted(points, key=lambda p: (p[0] == "mp", p[3]), reverse=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        futures = [pool.submit(_naive_digest, tuple(p), seed)
                   for p in order]
        return dict(f.result() for f in futures)


def load_committed(workload):
    with open(COMMITTED) as fh:
        return json.load(fh)["workloads"][workload]


def check(expected, point, state):
    """True when ``state`` matches the oracle digest of ``point``."""
    return expected.get(point_id(point)) == digest(state)
