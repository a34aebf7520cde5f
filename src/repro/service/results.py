"""Rebuilding streamable payloads from cached point states.

Workers send back only the serialised point state (the
:class:`~repro.experiments.cache.ResultCache` format); the manager
derives every streamed ``RunResult.to_json`` payload from that state
with this module — the *same* pure function whether the state came from
a live worker or from a cache hit, so a warm resubmission streams
byte-identical payloads to the cold run.  (The engines' bit-identity
contract makes the recorded ``engine`` the submitting spec's engine,
exactly as a live run under that spec would report.)
"""

from repro.api import build_run_result
from repro.experiments import cache as cache_mod


def result_from_state(point, spec, state):
    """The :class:`repro.api.RunResult` a live run would have returned."""
    if point.kind == "mp":
        mp = cache_mod.mp_from_state(state)
        # compute_mp refuses to cache an unfinished run, so every cached
        # mp state is a completed one.
        return build_run_result(
            "multiprocessor", mp, point.name, point.scheme,
            point.n_contexts, spec.seed, spec.engine, True,
            _mp_per_process(point, spec, mp))
    scheme = "single" if point.kind == "dedicated" else point.scheme
    n_contexts = 1 if point.kind == "dedicated" else point.n_contexts
    window = cache_mod.uniproc_from_state(state)
    return build_run_result(
        "workstation", window, point.name, scheme, n_contexts, spec.seed,
        spec.engine, True, dict(window.per_process))


def _mp_per_process(point, spec, mp_result):
    """Thread name -> retired count, reconstructed from node stats.

    The cached mp state keeps per-node stats, not per-thread retire
    counts; the live payload's ``per_process`` comes from the simulator
    processes.  Per-thread counts are not recoverable from the cache,
    so the payload carries per-node totals under stable names — the
    same convention either way would require persisting them; see
    ``mp_to_state``.
    """
    return {"%s.node%d" % (point.name, i): s.retired
            for i, s in enumerate(mp_result.node_stats)}


def payload_from_state(point, spec, state):
    """The ``RunResult.to_json`` string for a cached point state."""
    return result_from_state(point, spec, state).to_json()


__all__ = ["result_from_state", "payload_from_state"]
