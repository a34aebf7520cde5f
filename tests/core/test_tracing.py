"""TimelineRecorder: per-slot traces."""

from repro.core.tracing import TimelineRecorder
from repro.experiments.microbench import (
    build_four_thread_processor, run_to_halt,
)


def record(scheme):
    recorder = TimelineRecorder()
    proc = build_four_thread_processor(scheme, trace=recorder)
    cycles = run_to_halt(proc)
    return recorder, proc, cycles


class TestRecording:
    def test_one_event_per_slot(self):
        recorder, proc, cycles = record("interleaved")
        assert len(recorder) == cycles      # issue_width == 1

    def test_lane_characters(self):
        recorder, _, _ = record("interleaved")
        lane = recorder.lane()
        assert set(lane) <= set("ABCDabcd.")
        assert lane.startswith("ABCD")

    def test_squash_slots_marked_lowercase(self):
        recorder, proc, _ = record("blocked")
        counts = recorder.slot_counts()
        assert counts["squash"] == proc.stats.squashed == 28

    def test_busy_slots_match_retired(self):
        recorder, proc, _ = record("interleaved")
        assert recorder.slot_counts()["busy"] == proc.stats.retired

    def test_per_context_lanes(self):
        recorder, _, _ = record("interleaved")
        lanes = recorder.per_context_lanes()
        assert set(lanes) == {"A", "B", "C", "D"}
        lengths = {len(l) for l in lanes.values()}
        assert len(lengths) == 1            # all lanes equal length
        # Context A issues in slot 0 and its lane contains only A/a/.
        assert lanes["A"][0] == "A"
        assert set(lanes["A"]) <= {"A", "a", "."}

    def test_attach_returns_self(self):
        recorder = TimelineRecorder()
        proc = build_four_thread_processor("interleaved")
        assert recorder.attach(proc) is recorder
        assert proc.trace is recorder


def _traced_run(engine, until=20_000):
    from repro.api import Simulation
    from repro.config import SystemConfig
    sim = Simulation.from_config(SystemConfig.fast(), scheme="blocked",
                                 n_contexts=2, seed=1994,
                                 engine=engine).load("DC")
    recorder = TimelineRecorder().attach(sim.simulator.processor)
    sim.simulator.run(until=until)
    return recorder


def test_burst_engine_trace_equals_naive_slot_for_slot():
    # A traced processor takes no fast path, parks included, so the
    # burst engine reports every slot, each as naive stepping does.
    naive = _traced_run("naive")
    burst = _traced_run("burst")
    assert len(naive) == 20_000
    assert burst.events == naive.events
