"""Who owns a fast-path window, and what a failed attempt costs.

The burst engine's two fast paths — dispatching a precompiled burst
(``Processor._try_burst``) and bulk-charging a hazard-stall window
(``Processor._skip_stall_window``) — are legal only while the selected
context owns every issue slot of the window.  The context policy
decides (``ContextPolicy.owns_window``):

* single: the only context always owns it;
* blocked: the context the policy just selected owns it, whatever its
  siblings do, because blocked hands no slot to another context while
  the current one is RUNNING;
* interleaved: only a sole runner owns it.

Under round-robin issue a cycle that starts with two or more selectable
contexts cannot give a window to one of them, so the processor does not
even attempt either fast path then.  These tests pin both rules and
check the statistics stay bit-identical to the naive engine.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.api import Simulation
from repro.config import MultiprocessorParams, SystemConfig
from repro.core.context import Status


def comparable(result):
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


def dc(scheme, n_contexts, engine, width=1):
    config = SystemConfig.fast().with_pipeline(issue_width=width)
    return Simulation.from_config(config, scheme=scheme,
                                  n_contexts=n_contexts, seed=1994,
                                  engine=engine).load("DC")


def run(simulation):
    return simulation.run(warmup=3_000, measure=12_000)


class Spy:
    """Wraps one processor's fast-path methods and records, for every
    call, the selectable-context count its cycle started with and
    whether a sibling of the calling context was RUNNING.

    The count is taken on entry: at issue width 1 nothing between the
    start of the cycle and a fast-path attempt changes a context's
    status, so the RUNNING/DOOMED contexts then are the ones the cycle
    started with."""

    def __init__(self, proc):
        self.proc = proc
        self.calls = {"_try_burst": [], "_skip_stall_window": []}
        for name in self.calls:
            self._wrap(name)

    def _wrap(self, name):
        original = getattr(self.proc, name)
        log = self.calls[name]

        def spy(ctx, now, *args):
            contexts = self.proc.contexts
            ready = sum(c.status in (Status.RUNNING, Status.DOOMED)
                        for c in contexts)
            sibling_running = any(
                c is not ctx and c.status is Status.RUNNING
                for c in contexts)
            taken = original(ctx, now, *args)
            log.append((ready, sibling_running, taken))
            return taken
        setattr(self.proc, name, spy)


@pytest.mark.parametrize("width", (1, 2))
def test_blocked_context_owns_windows_beside_running_siblings(width):
    """DC blocked-2: bursts dispatch and stall windows are charged while
    the other context is RUNNING, and the statistics equal naive's."""
    fast = dc("blocked", 2, "burst", width)
    spy = Spy(fast.simulator.processor)
    result = run(fast)
    for name, log in spy.calls.items():
        beside = [taken for _ready, sibling, taken in log if sibling]
        assert any(beside), (
            "%s never fired beside a RUNNING sibling" % name)
    assert comparable(result) == comparable(run(dc("blocked", 2, "naive",
                                                   width)))


def test_round_robin_skips_attempts_with_two_selectable_contexts():
    """DC interleaved-4: neither fast path is entered in a cycle that
    starts with two or more selectable contexts, yet both still fire
    as a sole runner, and the statistics equal naive's."""
    fast = dc("interleaved", 4, "burst")
    spy = Spy(fast.simulator.processor)
    result = run(fast)
    for name, log in spy.calls.items():
        assert log, "%s was never attempted" % name
        assert all(ready < 2 for ready, _sibling, _taken in log), name
        assert any(taken for _ready, _sibling, taken in log), name
    assert comparable(result) == comparable(run(dc("interleaved", 4,
                                                   "naive")))


#: Regression set for the blocked scheme on the default 8-node DSM:
#: every point once diverged from naive under the parking protocol of
#: the fast engine's event loop, and now also exercises blocked
#: ownership of burst and stall windows.
BLOCKED_MP = [(app, n, seed)
              for app in ("mp3d", "locus", "cholesky", "pthor")
              for n in (2, 4, 8) for seed in (5, 8, 1994)]


@pytest.mark.slow
@pytest.mark.parametrize("app,n_contexts,seed", BLOCKED_MP)
def test_blocked_mp_regression_set(app, n_contexts, seed):
    runs = [Simulation.from_config(MultiprocessorParams(), scheme="blocked",
                                   n_contexts=n_contexts, seed=seed,
                                   engine=engine).load(app).run()
            for engine in ("burst", "naive")]
    assert runs[1].completed
    assert comparable(runs[0]) == comparable(runs[1])


def test_finished_runs_free_without_the_cycle_collector():
    """No halt hook closes a processor -> hook -> simulator -> processor
    cycle, so a dropped simulation is freed by reference counting alone
    instead of piling up until a full garbage collection."""
    gc.collect()
    gc.disable()
    try:
        mp = Simulation.from_config(
            MultiprocessorParams(n_nodes=2), scheme="interleaved",
            n_contexts=2, seed=7).load("mp3d", scale=0.25)
        assert mp.run().completed
        mp_proc = weakref.ref(mp.simulator.processors[0])
        ws = Simulation.from_config(SystemConfig.fast(), scheme="blocked",
                                    n_contexts=2, seed=7).load("DC")
        ws.run(warmup=1_000, measure=4_000)
        ws_proc = weakref.ref(ws.simulator.processor)
        del mp, ws
        assert mp_proc() is None
        assert ws_proc() is None
    finally:
        gc.enable()
