"""ExperimentContext: memoisation and the fair-share throughput metric.

Uses short measurement windows so this stays test-suite fast; the full
windows live in benchmarks/.
"""

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.runner import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        config=SystemConfig.fast(),
        mp_params=MultiprocessorParams(n_nodes=2),
        warmup=4_000, measure=20_000)


class TestMemoisation:
    def test_uniproc_run_cached(self, ctx):
        r1 = ctx.uniproc_run("R1", "single", 1)
        r2 = ctx.uniproc_run("R1", "single", 1)
        assert r1 is r2

    def test_dedicated_rate_cached_and_positive(self, ctx):
        rate = ctx.dedicated_rate("mxm")
        assert 0 < rate <= 1.0
        assert ctx.dedicated_rate("mxm") == rate

    def test_mp_run_cached(self, ctx):
        r1 = ctx.mp_run("cholesky", "single", 1)
        assert ctx.mp_run("cholesky", "single", 1) is r1


class TestThroughputMetric:
    def test_single_context_near_unity(self, ctx):
        """Timesliced single-context throughput ~ 1.0 by construction."""
        tp = ctx.normalized_throughput("R1", "single", 1)
        assert 0.5 < tp < 1.3

    def test_interleaving_beats_single(self, ctx):
        single = ctx.normalized_throughput("R1", "single", 1)
        multi = ctx.normalized_throughput("R1", "interleaved", 4)
        assert multi > single

    def test_throughput_bounded_by_issue_width(self, ctx):
        tp = ctx.normalized_throughput("R1", "interleaved", 4)
        assert tp < 4.0


class TestMPSpeedup:
    def test_speedup_reports_optimum(self, ctx):
        """Like Table 10: never below 1.0 (fewer contexts always allowed)."""
        s = ctx.mp_speedup("cholesky", "interleaved", 4)
        assert s >= 1.0

    def test_base_speedup_is_one(self, ctx):
        assert ctx.mp_speedup("cholesky", "interleaved", 1) == 1.0


def test_compute_mp_raises_when_the_run_does_not_finish():
    """The unfinished-run check the sweep and the service share."""
    from repro.experiments.runner import compute_mp
    with pytest.raises(RuntimeError, match="did not finish"):
        compute_mp("cholesky", "single", 1,
                   MultiprocessorParams(n_nodes=2), 1994, max_cycles=10)
