"""Multiprocessor burst engine vs the naive lockstep reference.

Same contract as the workstation side (tests/core/test_burst_engine.py):
``engine="burst"`` must reproduce the naive per-cycle loop bit for bit.
On the multiprocessor another node's lock handoff or barrier release
(a context parked with wake_at pinned to NEVER) can land mid-window, so
these runs exercise the policies' ownership tests — the interleaved
sole-runner veto on such contexts, the blocked scheme's current-context
ownership that no handoff can cut short — on real lock/barrier-heavy
SPLASH stand-ins.
"""

import dataclasses

import pytest

from repro.api import Simulation
from repro.config import MultiprocessorParams

SMALL_PARAMS = MultiprocessorParams(n_nodes=2)


def comparable(result):
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


def run_app(app, scheme, n_contexts, engine, params=SMALL_PARAMS,
            scale=0.25, seed=7):
    simulation = Simulation.from_config(
        params, scheme=scheme, n_contexts=n_contexts, seed=seed,
        engine=engine).load(app, scale=scale)
    return simulation.run()


class TestBitIdentical:
    @pytest.mark.parametrize("app", ("mp3d", "cholesky"))
    def test_splash_interleaved(self, app):
        burst = run_app(app, "interleaved", 2, "burst")
        naive = run_app(app, "interleaved", 2, "naive")
        assert burst.completed and naive.completed
        assert comparable(burst) == comparable(naive)

    def test_mp3d_blocked(self):
        burst = run_app("mp3d", "blocked", 2, "burst")
        naive = run_app("mp3d", "blocked", 2, "naive")
        assert burst.completed and naive.completed
        assert comparable(burst) == comparable(naive)

    def test_mp3d_single_context(self):
        burst = run_app("mp3d", "single", 1, "burst")
        naive = run_app("mp3d", "single", 1, "naive")
        assert burst.completed and naive.completed
        assert comparable(burst) == comparable(naive)

    @pytest.mark.slow
    @pytest.mark.parametrize("app", ("mp3d", "cholesky"))
    @pytest.mark.parametrize("scheme,n_contexts",
                             [("blocked", 1), ("blocked", 2),
                              ("blocked", 4),
                              ("interleaved", 1), ("interleaved", 2),
                              ("interleaved", 4)])
    def test_acceptance_matrix(self, app, scheme, n_contexts):
        """mp3d/cholesky x 1/2/4 contexts x both schemes."""
        burst = run_app(app, scheme, n_contexts, "burst")
        naive = run_app(app, scheme, n_contexts, "naive")
        assert burst.completed and naive.completed
        assert comparable(burst) == comparable(naive)
