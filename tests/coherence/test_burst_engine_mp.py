"""Multiprocessor burst engine vs the naive lockstep reference.

Same contract as the workstation side (tests/core/test_burst_engine.py):
``engine="burst"`` must reproduce the naive per-cycle loop bit for bit.
On the multiprocessor another node's lock handoff or barrier release
(a context parked with wake_at pinned to NEVER) can land mid-window, so
these runs exercise the policies' ownership tests — the interleaved
sole-runner veto on such contexts, the blocked scheme's current-context
ownership that no handoff can cut short — on real lock/barrier-heavy
SPLASH stand-ins.  The keyword-only run API is pinned here too.
"""

import dataclasses

import pytest

from repro.api import Simulation
from repro.config import MultiprocessorParams

SMALL_PARAMS = MultiprocessorParams(n_nodes=2)

#: Memory-latency-bound machine (~4x DASH latencies) where the fast
#: engine's idle fast-forward dominates; mirrors benchmarks.
STRESS_PARAMS = MultiprocessorParams(
    n_nodes=4,
    local_memory=(120, 160),
    remote_memory=(400, 520),
    remote_cache=(520, 640),
)


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

    @pytest.mark.parametrize("app,n_contexts", [("locus", 8), ("pthor", 2)])
    def test_blocked_sync_wake_in_switch_tail(self, app, n_contexts):
        """Sync wakes reaching a node parked in the blocked scheme's
        switch tail, on the default 8-node DSM (locus blocked-8 at seed
        1994 once ended at cycle 18328 under the event loop, 18272 under
        naive).
        """
        fast, naive = (run_app(app, "blocked", n_contexts, engine,
                               params=MultiprocessorParams(), scale=1.0,
                               seed=1994)
                       for engine in ("burst", "naive"))
        assert naive.completed
        assert comparable(fast) == comparable(naive)

    @pytest.mark.slow
    @pytest.mark.parametrize("app", ("mp3d", "cholesky"))
    def test_memory_bound_stress_machine(self, app):
        """The benchmark-gate configuration, where jumps are longest."""
        fast = run_app(app, "interleaved", 2, "burst",
                       params=STRESS_PARAMS, scale=0.5, seed=1994)
        naive = run_app(app, "interleaved", 2, "naive",
                        params=STRESS_PARAMS, scale=0.5, seed=1994)
        assert fast.completed and naive.completed
        assert comparable(fast) == comparable(naive)

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


class TestUnifiedRunAPI:
    def _sim(self, **kwargs):
        return Simulation.from_config(
            SMALL_PARAMS, scheme="interleaved", n_contexts=2, seed=7,
            **kwargs).load("mp3d", scale=0.25).simulator

    def test_positional_cycles_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000)
        assert sim.now == 0

    def test_run_defaults_to_completion(self):
        from repro.api import RunResult
        sim = self._sim()
        result = sim.run()
        assert isinstance(result, RunResult)
        assert result.kind == "multiprocessor"
        assert result.completed
        assert result.cycles == sim.now

    def test_engine_argument_validated(self):
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="warp")
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="events")
