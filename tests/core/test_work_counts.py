"""Exact work gate: the engine work of every ledger point, pinned.

The end-to-end ledger (``perfbench``) times two grids: the DC mix of
Table 7 / Figures 6-7 with its dedicated calibration runs (``ws_grid``)
and the single and interleaved Table 10 / Figure 9 runs of mp3d, locus,
cholesky and pthor (``mp_grid``).  Wall time on a shared host moves by
tens of percent from run to run; the work the engine does to produce a
point does not.  For each of the 25 points this gate counts

* ``Processor.step`` calls (``steps``);
* burst attempts and dispatches (``Processor._try_burst`` calls and
  True returns: ``burst_attempts``, ``bursts``);
* stall-window attempts and charges (``Processor._skip_stall_window``
  calls and True returns: ``stall_window_attempts``, ``stall_windows``);
* park attempts and parks (``Processor.park`` calls and True returns:
  ``park_attempts``, ``parks``);
* functional executions (calls of ``execute`` through the name the
  processor module calls it by: ``executes``), which pins "each
  instruction the processor commits executes exactly once": a fast path
  that executed a prefix and then executed it again would change it;
* the point's cycles (the measured window of a uniprocessor or
  dedicated point, the run to completion of an mp point) and retired
  instructions,

and compares them exactly with ``golden/work_counts.json``.  A change
that turns a fast path off, makes it fire less often, or steps a
processor through a window it used to skip changes a count here on any
host.  Each point runs as the sweep runs it (``compute_point_state``,
seed 1994, the ``fast`` profile, ``point_window`` windows, the default
engine); the counters are test-side wrappers, so the engine carries no
counting code.

If a change *intentionally* alters the engine's work, regenerate the
golden from the repository root and say so; any other diff here is a
regression::

    PYTHONPATH=src python -c "
    import json
    from tests.core.test_work_counts import GOLDEN_PATH, POINTS, measure
    GOLDEN_PATH.write_text(json.dumps(measure(POINTS), indent=1,
                                      sort_keys=True) + '\\n')"
"""

import json
import pathlib

import pytest

from repro.config import MultiprocessorParams, SystemConfig
from repro.core import processor as processor_module
from repro.core.policies import (
    BlockedPolicy, InterleavedPolicy, SinglePolicy,
)
from repro.core.processor import Processor
from repro.experiments import runner
from repro.isa.executor import ArchState

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / (
    "work_counts.json")

SEED = 1994

#: The ledger's ``ws_grid`` points, then its ``mp_grid`` points.
POINTS = (
    ("uniproc", "DC", "single", 1),
    ("uniproc", "DC", "interleaved", 2),
    ("uniproc", "DC", "blocked", 2),
    ("uniproc", "DC", "interleaved", 4),
    ("uniproc", "DC", "blocked", 4),
    ("dedicated", "cfft2d", "single", 1),
    ("dedicated", "gmtry", "single", 1),
    ("dedicated", "tomcatv", "single", 1),
    ("dedicated", "vpenta", "single", 1),
) + tuple(("mp", app, scheme, n)
          for app in ("mp3d", "locus", "cholesky", "pthor")
          for scheme, n in (("single", 1), ("interleaved", 2),
                            ("interleaved", 4), ("interleaved", 8)))

#: Processor method -> (call counter, True-return counter or None).
_WRAPPED = {
    "step": ("steps", None),
    "_try_burst": ("burst_attempts", "bursts"),
    "_skip_stall_window": ("stall_window_attempts", "stall_windows"),
    "park": ("park_attempts", "parks"),
}

COUNTERS = tuple(sorted(
    [name for pair in _WRAPPED.values() for name in pair if name]
    + ["cycles", "executes", "retired"]))


def point_id(point):
    return "%s/%s/%s/%d" % point


def _install_counters(monkeypatch, counts):
    """Wrap the counted :class:`Processor` methods so every call (and
    every True return) bumps ``counts``, and the processor module's
    ``execute`` so every functional execution bumps ``executes``."""
    execute = processor_module.execute

    def counted_execute(state, inst, memory):
        counts["executes"] += 1
        execute(state, inst, memory)
    monkeypatch.setattr(processor_module, "execute", counted_execute)
    for method, (calls, successes) in _WRAPPED.items():
        original = getattr(Processor, method)

        def wrapper(self, *args, _original=original, _calls=calls,
                    _successes=successes):
            counts[_calls] += 1
            result = _original(self, *args)
            if _successes is not None and result:
                counts[_successes] += 1
            return result
        monkeypatch.setattr(Processor, method, wrapper)


def _run_point(point):
    """The point's serialised state, computed as the sweep computes it."""
    kind, name, scheme, n_contexts = point
    warmup, measure_ = runner.point_window(kind, runner.UNIPROC_WARMUP,
                                           runner.UNIPROC_MEASURE)
    return runner.compute_point_state(
        kind, name, scheme, n_contexts, SystemConfig.fast(),
        MultiprocessorParams(), SEED, warmup, measure_)


def measure(points):
    """point id -> work counts, one fresh set of counters per point.

    The counters wrap whatever :class:`Processor` methods are installed
    when it is called, so a test can patch one first.
    """
    observed = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = {}
        _install_counters(monkeypatch, counts)
        for point in points:
            counts.clear()
            counts.update(dict.fromkeys(COUNTERS, 0))
            state = _run_point(point)
            if point[0] == "mp":
                counts["cycles"] = state["cycles"]
                counts["retired"] = sum(s["retired"]
                                        for s in state["node_stats"])
            else:
                counts["cycles"] = state["duration"]
                counts["retired"] = state["stats"]["retired"]
            observed[point_id(point)] = dict(counts)
    return observed


def mismatches(golden, observed):
    """One line per (point, counter) whose count is not the golden's."""
    lines = []
    for pid, counts in observed.items():
        want = golden.get(pid)
        if want is None:
            lines.append("%s: no golden entry" % pid)
            continue
        for counter in COUNTERS:
            if counts[counter] != want.get(counter):
                lines.append("%s: %s %d, golden %s"
                             % (pid, counter, counts[counter],
                                want.get(counter)))
    return lines


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_exactly_the_ledger_points(golden):
    assert sorted(golden) == sorted(point_id(p) for p in POINTS)
    for pid, counts in golden.items():
        assert sorted(counts) == sorted(COUNTERS), pid


@pytest.mark.parametrize("point", POINTS, ids=point_id)
def test_work_counts_match_golden(golden, point):
    lines = mismatches(golden, measure([point]))
    assert not lines, "\n".join(lines)


#: The blocked-2 DC point: both fast paths and parking fire on it.
SEEDED_POINT = ("uniproc", "DC", "blocked", 2)


def _assert_gate_names_point_and_counter(golden):
    pid = point_id(SEEDED_POINT)
    lines = mismatches(golden, measure([SEEDED_POINT]))
    assert lines
    assert all(line.startswith(pid + ": ") for line in lines)
    named = {line.split(": ", 1)[1].split()[0] for line in lines}
    assert named <= set(COUNTERS)
    return named


def test_gate_catches_burst_dispatch_switched_off(golden, monkeypatch):
    """Seeded regression: no burst ever dispatches."""
    monkeypatch.setattr(Processor, "_try_burst",
                        lambda self, ctx, now: False)
    assert "bursts" in _assert_gate_names_point_and_counter(golden)


def test_gate_catches_window_ownership_refused(golden, monkeypatch):
    """Seeded regression: no context ever owns a fast-path window, so
    neither bursts nor stall windows fire."""
    for policy in (SinglePolicy, BlockedPolicy, InterleavedPolicy):
        monkeypatch.setattr(policy, "owns_window",
                            lambda self, ctx, contexts, end, extern: False)
    named = _assert_gate_names_point_and_counter(golden)
    assert {"bursts", "stall_windows", "steps"} <= named


def test_gate_catches_double_execute(golden, monkeypatch):
    """Seeded regression: ``_retire`` executes every instruction twice,
    once on a scratch copy of the context's registers.  The functional
    results are unchanged (a store writes the same word twice), so only
    the execution count can tell."""
    retire = Processor._retire

    def retire_twice(self, ctx, inst, now):
        scratch = ArchState(entry=ctx.state.pc)
        scratch.regs[:] = ctx.state.regs
        processor_module.execute(scratch, inst, self.memory)
        retire(self, ctx, inst, now)
    monkeypatch.setattr(Processor, "_retire", retire_twice)
    assert "executes" in _assert_gate_names_point_and_counter(golden)
