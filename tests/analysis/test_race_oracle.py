"""Dynamic oracle: the static race analysis covers every observed race.

The soundness contract is **static ⊇ dynamic**: replay the
cycle-accurate simulator's shared-access log through the Eraser-style
happens-before checker (:func:`repro.analysis.dynamic_races`) and
assert every dynamic race is reported by some static R7xx finding
(:func:`repro.analysis.uncovered_races` empty).  The matrix spans every
generator sharing pattern x both multithreading schemes x both
engines, so the oracle exercises the same program space and execution
paths the differential harness does.

The oracle also has teeth in both directions of expectation: the
``rw`` (racy) pattern must actually *produce* dynamic races under every
scheme/engine, and the race-free patterns (private, read, lock,
``rw, racy=False``) must replay clean — otherwise a silent recorder or
a dead pattern would vacuously satisfy the contract.
"""

import pytest

from repro.analysis import dynamic_races, race_findings, uncovered_races
from repro.core.simulator import WorkstationSimulator
from repro.workloads.generator import GenSpec, generate_processes

_WINDOW = 4000
_SMALL = dict(block_size=12, loop_iterations=4, footprint_words=64)

SHARINGS = ("private", "read", "rw", "lock", "rw-locked")
SCHEMES = ("blocked", "interleaved")
ENGINES = ("naive", "burst")


def _spec(sharing):
    if sharing == "rw-locked":
        return GenSpec(name="orc", seed=11, sharing="rw", racy=False,
                       **_SMALL)
    return GenSpec(name="orc", seed=11, sharing=sharing, **_SMALL)


def _run(sharing, scheme, engine, bursts=None):
    """Run one recorded window; ``bursts``, when given, collects the
    outcome of every burst-dispatch attempt."""
    procs = generate_processes(_spec(sharing), 2, verify=False)
    sim = WorkstationSimulator(procs, scheme=scheme, n_contexts=2,
                               engine=engine)
    recorder = sim.trace_shared_accesses()
    if bursts is not None:
        proc = sim.processor
        try_burst = proc._try_burst

        def spy(ctx, now):
            taken = try_burst(ctx, now)
            bursts.append(taken)
            return taken
        proc._try_burst = spy
    result = sim.run(until=_WINDOW)
    assert len(recorder) > 0, "recorder saw no accesses"
    # The JSON-ready log rides on the core window (result.raw).
    assert len(result.raw.shared_accesses) == len(recorder)
    return procs, recorder


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("sharing", SHARINGS)
def test_static_covers_dynamic(sharing, scheme, engine):
    procs, recorder = _run(sharing, scheme, engine)
    observed = dynamic_races(recorder.records)
    findings = race_findings([p.program for p in procs])
    assert not uncovered_races(findings, observed), (
        "dynamic races not covered by any static finding")
    if sharing == "rw":
        assert observed, "racy rw pattern produced no dynamic race"
    else:
        assert not observed, (
            "%s pattern should replay race-free" % sharing)


@pytest.mark.parametrize("sharing", SHARINGS)
def test_recorder_keeps_burst_dispatch(sharing):
    """The recorder observes the path the default engine really takes:
    bursts still dispatch under blocked-2 with it installed, and the
    log equals naive's record for record (a burst holds no load or
    store, so it has nothing to log)."""
    bursts = []
    _procs, fast = _run(sharing, "blocked", "burst", bursts)
    assert any(bursts), "no burst dispatched with the recorder installed"
    _procs, naive = _run(sharing, "blocked", "naive")
    assert fast.records == naive.records


@pytest.mark.parametrize("engine", ENGINES)
def test_payload_round_trips_record_fields(engine):
    _procs, recorder = _run("rw", "interleaved", engine)
    payload = recorder.to_payload()
    rec, entry = recorder.records[0], payload[0]
    assert entry == {"cycle": rec.cycle, "ctx": rec.ctx, "pc": rec.pc,
                     "addr": rec.addr, "w": int(rec.is_write),
                     "locks": sorted(rec.locks), "phase": rec.phase}
    # Both contexts appear in the log and every address is a word.
    assert {e["ctx"] for e in payload} == {0, 1}
    assert all(e["addr"] % 4 == 0 for e in payload)


def test_lock_pattern_records_held_locks():
    _procs, recorder = _run("lock", "interleaved", "burst")
    locked = [r for r in recorder.records if r.locks]
    assert locked, "no access was recorded inside a critical section"
    from repro.workloads.generator import SHARED_LOCK
    assert all(r.locks == frozenset((SHARED_LOCK,)) for r in locked)


def test_recorder_is_opt_in():
    procs = generate_processes(_spec("rw"), 2, verify=False)
    sim = WorkstationSimulator(procs, scheme="interleaved", n_contexts=2)
    result = sim.run(until=500)
    assert not hasattr(result.raw, "shared_accesses")
