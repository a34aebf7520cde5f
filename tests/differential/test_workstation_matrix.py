"""Workstation engine-identity matrix (the acceptance grid).

Every Table 5 workload mix x issue width 1/2/4 must produce
bit-identical stats on both engines; a scheme x context sweep on
one representative mix covers the scheduling-policy axis.  The naive
per-cycle loop is the reference (see harness.py).
"""

import pytest

from repro.workloads.uniprocessor import WORKLOAD_ORDER

from .harness import WIDTHS, assert_identical, run_workstation

ENGINES = ("naive", "burst")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("workload", WORKLOAD_ORDER)
class TestWorkloadMatrix:
    def test_engines_bit_identical(self, workload, width):
        """All seven workloads x widths 1/2/4, interleaved x 4."""
        results = {
            engine: run_workstation(workload, "interleaved", 4, engine,
                                    width=width)
            for engine in ENGINES
        }
        assert_identical(results,
                         context="%s interleaved x4 width=%d"
                                 % (workload, width))


@pytest.mark.parametrize("width", (2, 4))
@pytest.mark.parametrize("scheme,n_contexts",
                         [("single", 1),
                          ("blocked", 2), ("blocked", 4),
                          ("interleaved", 1), ("interleaved", 2)])
class TestSchemeContextSweep:
    def test_engines_bit_identical(self, scheme, n_contexts, width):
        """Scheme x context sweep at the new widths (DC mix)."""
        results = {
            engine: run_workstation("DC", scheme, n_contexts, engine,
                                    width=width)
            for engine in ENGINES
        }
        assert_identical(results,
                         context="DC %s x%d width=%d"
                                 % (scheme, n_contexts, width))
