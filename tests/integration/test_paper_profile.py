"""The full-size (paper) machine profile works end to end.

These runs use short windows — the point is that the Table 1/2 machine
is exercised as configured, not to regenerate results at paper scale
(that is a CLI flag: ``repro-experiments table7 --profile paper``).
"""

import pytest

from repro.config import SystemConfig
from repro.core.simulator import WorkstationSimulator
from repro.workloads import build_workload

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def paper_run():
    cfg = SystemConfig.paper()
    procs, instances, barriers = build_workload(
        "R1", scale=cfg.workload_scale)
    sim = WorkstationSimulator(procs, scheme="interleaved", n_contexts=4,
                               config=cfg, app_instances=instances,
                               barriers=barriers)
    result = sim.measure(40_000, warmup=10_000)
    return cfg, sim, result


class TestPaperProfileRuns:
    def test_makes_progress(self, paper_run):
        _, _, result = paper_run
        assert result.stats.retired > 5_000

    def test_full_size_caches_instantiated(self, paper_run):
        cfg, sim, _ = paper_run
        assert sim.memsys.l1d.params.n_lines == 2048    # 64 KB / 32 B
        assert sim.memsys.l2.params.n_lines == 32768    # 1 MB / 32 B

    def test_scaled_footprints_fit_differently(self, paper_run):
        """Paper-profile footprints are 8x the fast profile's."""
        cfg, _, _ = paper_run
        fast_procs, _, _ = build_workload(
            "R1", scale=SystemConfig.fast().workload_scale)
        paper_procs, _, _ = build_workload("R1",
                                           scale=cfg.workload_scale)
        for fast_p, paper_p in zip(fast_procs, paper_procs):
            assert paper_p.program.data.size_bytes > \
                4 * fast_p.program.data.size_bytes

    def test_lower_miss_rate_than_fast_profile(self, paper_run):
        """Sanity: the big machine's TLB covers more of the footprint."""
        cfg, sim, _ = paper_run
        # 64 entries x 4 KB = 256 KB reach: far beyond one process.
        assert sim.memsys.dtlb.entries == 64
