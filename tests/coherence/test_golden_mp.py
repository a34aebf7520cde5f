"""Golden-stats pins for the multiprocessor: Table 10 / Figure 9 runs.

The naive and burst engines share ``Processor.step``, so the
differential matrix cannot see a change that shifts both engines the
same way.  These pins can: they hold the numbers of whole
run-to-completion runs on the default 8-node DSM
(``MultiprocessorParams()``, seed 1994), under both engines.

The values were generated with the snippet below and hardcoded.  If a
change *intentionally* alters the timing model, regenerate them and
say so; any other diff here is a regression::

    PYTHONPATH=src python -c "
    from tests.coherence.test_golden_mp import observe, POINTS
    for point in POINTS:
        print(point, observe(*point, 'naive'))"
"""

import pytest

from repro.api import Simulation
from repro.config import MultiprocessorParams

ENGINES = ("naive", "burst")

#: (app, scheme, n_contexts): the locus context sweep of both schemes,
#: plus the widest mp3d point.
POINTS = (
    ("locus", "single", 1),
    ("locus", "interleaved", 2),
    ("locus", "interleaved", 8),
    ("locus", "blocked", 4),
    ("mp3d", "interleaved", 8),
)


def observe(app, scheme, n_contexts, engine):
    """The pinned numbers of one run to completion."""
    run = Simulation.from_config(MultiprocessorParams(), scheme=scheme,
                                 n_contexts=n_contexts, seed=1994,
                                 engine=engine).load(app).run()
    assert run.completed
    machine = run.raw.machine
    return dict(
        cycles=run.cycles,
        retired=[s.retired for s in run.raw.node_stats],
        counts={name: n for name, n in run.counts.items() if n},
        context_switches=run.context_switches,
        remote_fills=machine.remote_fills,
        invalidations_sent=machine.invalidations_sent,
        nack_retries=machine.nack_retries,
    )


GOLDEN = {
    ("locus", "single", 1): dict(
        cycles=29701, retired=[2760] * 8,
        counts={"BUSY": 22080, "INST_SHORT": 6448, "DCACHE": 188168,
                "SYNC": 20893, "IDLE": 19},
        context_switches=0, remote_fills=897, invalidations_sent=858,
        nack_retries=0),
    ("locus", "interleaved", 2): dict(
        cycles=16522, retired=[2768] * 8,
        counts={"BUSY": 22144, "INST_SHORT": 7141, "DCACHE": 90019,
                "SYNC": 3822, "SWITCH": 9049, "IDLE": 1},
        context_switches=1434, remote_fills=916, invalidations_sent=874,
        nack_retries=0),
    ("locus", "interleaved", 8): dict(
        cycles=17501, retired=[2816] * 8,
        counts={"BUSY": 22528, "INST_SHORT": 5343, "DCACHE": 60677,
                "SYNC": 42582, "SWITCH": 8877, "IDLE": 1},
        context_switches=1642, remote_fills=1103,
        invalidations_sent=1065, nack_retries=0),
    ("locus", "blocked", 4): dict(
        cycles=16848, retired=[2784] * 8,
        counts={"BUSY": 22272, "INST_SHORT": 8640, "DCACHE": 71505,
                "SYNC": 20794, "SWITCH": 11572, "IDLE": 1},
        context_switches=1550, remote_fills=1059,
        invalidations_sent=1017, nack_retries=0),
    ("mp3d", "interleaved", 8): dict(
        cycles=19212,
        retired=[7162, 7224, 7146, 7218, 7168, 7158, 7232, 7142],
        counts={"BUSY": 57450, "INST_SHORT": 5164, "DCACHE": 62414,
                "SYNC": 4948, "SWITCH": 23717, "IDLE": 3},
        context_switches=6842, remote_fills=2777,
        invalidations_sent=2528, nack_retries=0),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", POINTS,
                         ids=["%s-%s-%d" % p for p in POINTS])
def test_golden_mp_run(point, engine):
    assert observe(*point, engine) == GOLDEN[point]
