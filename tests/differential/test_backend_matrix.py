"""Scoreboard-backend identity matrix (the vectorisation acceptance grid).

The numpy scoreboard backend claims to be a drop-in replacement for the
pure-python one: same machine, same bits.  The grid extends the engine
matrix with the backend axis — every Table 5 workload mix x engine x
backend must produce bit-identical stats, with the naive engine on the
python backend as the global reference.  A scheme x context x width
sweep on one representative mix covers the remaining axes, and an mp
spot check covers the multiprocessor's shared-scoreboard paths.

Every numpy-backed case skips cleanly when numpy is not installed (the
no-numpy CI lane); the python-only columns still run there, so the
matrix file itself never goes dark.
"""

import pytest

from repro.pipeline.scoreboard import HAVE_NUMPY
from repro.workloads.uniprocessor import WORKLOAD_ORDER

from .harness import assert_identical, run_mp, run_workstation

ENGINES = ("naive", "burst")

#: Backend axis; the numpy column skips when the extra is absent.
BACKENDS = ("python", "numpy")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed "
                                        "(repro[fast] extra)")


def _matrix(workload, scheme, n_contexts, width=1):
    """engine x backend -> RunResult, reference first."""
    results = {}
    for engine in ENGINES:
        for backend in BACKENDS:
            if backend == "numpy" and not HAVE_NUMPY:
                continue
            results["%s/%s" % (engine, backend)] = run_workstation(
                workload, scheme, n_contexts, engine, width=width,
                backend=backend)
    return results


def _assert_grid_identical(results, context):
    reference = results.pop("naive/python")
    assert_identical({"naive": reference, **results}, context=context)


@pytest.mark.parametrize("workload", WORKLOAD_ORDER)
class TestWorkloadBackendMatrix:
    @needs_numpy
    def test_backends_bit_identical(self, workload):
        """All seven workloads x both engines x both backends."""
        _assert_grid_identical(
            _matrix(workload, "interleaved", 4),
            context="%s interleaved x4 backend grid" % workload)


@pytest.mark.parametrize("width", (2, 4))
@pytest.mark.parametrize("scheme,n_contexts",
                         [("single", 1), ("blocked", 4),
                          ("interleaved", 2)])
class TestSchemeBackendSweep:
    @needs_numpy
    def test_backends_bit_identical(self, scheme, n_contexts, width):
        """Scheme x context x width sweep on the DC mix."""
        _assert_grid_identical(
            _matrix("DC", scheme, n_contexts, width=width),
            context="DC %s x%d width=%d backend grid"
                    % (scheme, n_contexts, width))


@needs_numpy
def test_multiprocessor_backends_bit_identical():
    """mp3d on the 2-node machine: both backends, burst vs naive."""
    results = {"naive": run_mp("mp3d", "interleaved", 2, "naive",
                               backend="python")}
    for backend in BACKENDS:
        results["burst/%s" % backend] = run_mp(
            "mp3d", "interleaved", 2, "burst", backend=backend)
    assert_identical(results, context="mp3d interleaved x2 backend grid")


def test_python_backend_explicit_matches_default():
    """backend='python' is exactly the default path (no numpy needed)."""
    default = run_workstation("IC", "interleaved", 2, "burst")
    explicit = run_workstation("IC", "interleaved", 2, "burst",
                               backend="python")
    assert_identical({"naive": default, "explicit": explicit},
                     context="IC python-backend default vs explicit")
