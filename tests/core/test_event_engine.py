"""The fast engine's event loop vs the naive per-cycle reference.

The contract (docs/architecture.md, "The fast engine"): for any
workload and configuration, ``engine="burst"`` — whose advance loop
fast-forwards idle and processor-wide stall windows through the
``next_event_cycle`` protocol — must produce statistics *bit-identical*
to ``engine="naive"``; the fast-forward is an optimisation, never an
approximation.  These tests enforce the contract over every Table 5
uniprocessor workload and across schemes, check the
``next_event_cycle`` protocol property with hypothesis, pin the
deadlock detector the jumping loop needs, and pin the deprecation
shims of the old run APIs.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.config import SystemConfig
from repro.core.context import HardwareContext
from repro.core.simulator import (
    WorkstationSimulator, Process, SimulationDeadlock,
)
from repro.isa import AsmBuilder
from repro.workloads.generator import GenSpec, generate_process
from repro.workloads.uniprocessor import WORKLOAD_ORDER


def comparable(result):
    """Everything in a RunResult except the engine tag and raw object."""
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


def run_workload(workload, scheme, n_contexts, engine,
                 warmup=5_000, measure=20_000):
    simulation = Simulation.from_config(
        SystemConfig.fast(), scheme=scheme, n_contexts=n_contexts,
        seed=1994, engine=engine).load(workload)
    return simulation.run(warmup=warmup, measure=measure)


class TestBitIdentical:
    """Fast == naive, bit for bit, on all seven paper workloads."""

    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_all_workloads_interleaved(self, workload):
        fast = run_workload(workload, "interleaved", 4, "burst")
        naive = run_workload(workload, "interleaved", 4, "naive")
        assert comparable(fast) == comparable(naive)

    @pytest.mark.parametrize("scheme,n_contexts",
                             [("single", 1), ("blocked", 2),
                              ("blocked", 4), ("interleaved", 2)])
    @pytest.mark.parametrize("workload", ("DC", "R1"))
    def test_scheme_matrix(self, workload, scheme, n_contexts):
        fast = run_workload(workload, scheme, n_contexts, "burst")
        naive = run_workload(workload, scheme, n_contexts, "naive")
        assert comparable(fast) == comparable(naive)

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_full_experiment_window(self, workload):
        """The exact window the experiment layer measures."""
        fast = run_workload(workload, "interleaved", 4, "burst",
                            warmup=30_000, measure=120_000)
        naive = run_workload(workload, "interleaved", 4, "naive",
                             warmup=30_000, measure=120_000)
        assert comparable(fast) == comparable(naive)


class TestNextEventProtocol:
    """``next_event_cycle`` never overshoots a wakeup.

    Property: whenever the processor predicts its next issue opportunity
    strictly in the future, stepping the current cycle must not issue or
    retire anything — a prediction that skipped over real work would
    corrupt the fast-forward.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1 << 16),
           scheme=st.sampled_from(["blocked", "interleaved"]),
           n_contexts=st.sampled_from([1, 2, 4]),
           load=st.floats(0.05, 0.35),
           fdiv=st.integers(0, 2),
           distance=st.integers(1, 8))
    def test_never_overshoots(self, seed, scheme, n_contexts, load,
                              fdiv, distance):
        spec = GenSpec(load_fraction=load, fdiv_per_block=fdiv,
                       dependency_distance=distance,
                       footprint_words=4096, seed=seed)
        procs = [generate_process(spec, index=i, verify=False)
                 for i in range(n_contexts)]
        sim = WorkstationSimulator(procs, scheme=scheme,
                                   n_contexts=n_contexts,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine="naive")
        proc = sim.processor
        stats = proc.stats
        for now in range(3_000):
            predicted = proc.next_event_cycle(now)
            assert predicted >= now
            if predicted > now:
                retired, issued = stats.retired, stats.issued
                proc.step(now)
                assert stats.retired == retired, (
                    "retired at %d despite wake predicted at %d"
                    % (now, predicted))
                assert stats.issued == issued, (
                    "issued at %d despite wake predicted at %d"
                    % (now, predicted))
            else:
                proc.step(now)


class TestDeadlockSemantics:
    """The one documented behavioural difference between the engines."""

    def _blocked_sim(self, engine):
        lock_addr = 0x7000
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.li("t0", lock_addr)
        b.lock(0, "t0")
        b.halt()
        sim = WorkstationSimulator([Process("p", b.build())],
                                   scheme="single", n_contexts=1,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine=engine)
        # Pre-hold the lock on behalf of a phantom owner, so the one
        # process blocks on something no one will ever release.
        sim.sync.try_acquire(lock_addr, "phantom", HardwareContext(9))
        return sim

    def test_fast_engine_raises(self):
        sim = self._blocked_sim("burst")
        with pytest.raises(SimulationDeadlock):
            sim.run(until=50_000)

    def test_naive_engine_burns_to_the_bound(self):
        # The reference loop has no deadlock detector: it charges SYNC
        # idle slots until the bound.  The fast engine adds detection
        # because jumping would otherwise spin forever at one cycle.
        sim = self._blocked_sim("naive")
        result = sim.run(until=50_000)
        assert sim.now == 50_000
        assert result.retired <= 2


class TestUnifiedRunAPI:
    """run(until=...) is the one entry point; run(cycles) is shimmed."""

    def _sim(self, **kwargs):
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.label("top")
        b.addi("t0", "t0", 1)
        b.j("top")
        b.halt()
        return WorkstationSimulator([Process("p", b.build())],
                                    scheme="single", n_contexts=1,
                                    config=SystemConfig.fast(), **kwargs)

    def test_positional_cycles_warns_and_is_relative(self):
        sim = self._sim()
        with pytest.warns(DeprecationWarning, match="deprecated"):
            sim.run(1_000)
        assert sim.now == 1_000
        with pytest.warns(DeprecationWarning):
            sim.run(1_000)
        assert sim.now == 2_000

    def test_until_is_absolute_and_does_not_warn(self):
        import warnings
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run(until=1_500)
        assert sim.now == 1_500

    def test_both_forms_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000, until=2_000)

    def test_neither_form_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run()

    def test_run_returns_api_run_result(self):
        from repro.api import RunResult
        sim = self._sim()
        result = sim.run(until=1_000)
        assert isinstance(result, RunResult)
        assert result.kind == "workstation"
        assert result.cycles == 1_000
        assert result.retired > 0

    def test_engine_argument_validated(self):
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="warp")
        # The events loop was folded into the burst engine.
        with pytest.raises(ValueError, match="engine"):
            self._sim(engine="events")
