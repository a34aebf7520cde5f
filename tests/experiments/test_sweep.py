"""The parallel sweep engine: determinism, caching, point enumeration.

Small windows and a 2-node machine keep this fast-lane quick; the
engine's value is orchestration, which these sizes exercise fully.
"""

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentContext
from repro.experiments.sweep import (
    SweepEngine,
    SweepPoint,
    dedupe,
    default_points,
)

POINTS = [
    SweepPoint("uniproc", "R1", "single", 1),
    SweepPoint("uniproc", "R1", "interleaved", 2),
    SweepPoint("dedicated", "mxm", "single", 1),
    SweepPoint("mp", "cholesky", "single", 1),
    SweepPoint("mp", "cholesky", "interleaved", 2),
]


def make_ctx(cache=None):
    return ExperimentContext(
        config=SystemConfig.fast(),
        mp_params=MultiprocessorParams(n_nodes=2),
        warmup=1_000, measure=6_000, cache=cache)


@pytest.fixture(scope="module")
def serial_ctx():
    """Reference results computed through the plain serial path."""
    ctx = make_ctx()
    for p in POINTS:
        if p.kind == "uniproc":
            ctx.uniproc_run(p.name, p.scheme, p.n_contexts)
        elif p.kind == "dedicated":
            ctx.dedicated_rate(p.name)
        else:
            ctx.mp_run(p.name, p.scheme, p.n_contexts)
    return ctx


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def parallel_ctx(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        ctx = make_ctx(cache)
        report = SweepEngine(ctx, jobs=2).run(POINTS)
        assert report.count("computed") == len(POINTS)
        return ctx

    def test_uniproc_bit_identical(self, serial_ctx, parallel_ctx):
        for scheme, n in (("single", 1), ("interleaved", 2)):
            a = serial_ctx.uniproc_run("R1", scheme, n).result
            b = parallel_ctx.uniproc_run("R1", scheme, n).result
            assert a.duration == b.duration
            assert a.per_process == b.per_process
            assert list(a.stats.counts) == list(b.stats.counts)
            assert a.stats.retired == b.stats.retired

    def test_mp_bit_identical(self, serial_ctx, parallel_ctx):
        for scheme, n in (("single", 1), ("interleaved", 2)):
            a = serial_ctx.mp_run("cholesky", scheme, n)
            b = parallel_ctx.mp_run("cholesky", scheme, n)
            assert a.cycles == b.cycles
            assert list(a.stats.counts) == list(b.stats.counts)
            assert a.machine.read_misses == b.machine.read_misses

    def test_dedicated_rate_identical(self, serial_ctx, parallel_ctx):
        assert (serial_ctx.dedicated_rate("mxm")
                == parallel_ctx.dedicated_rate("mxm"))

    def test_derived_metric_identical(self, serial_ctx, parallel_ctx):
        assert (serial_ctx.normalized_throughput("R1", "interleaved", 2)
                == parallel_ctx.normalized_throughput(
                    "R1", "interleaved", 2))


class TestCacheBehaviour:
    def test_warm_rerun_skips_all_simulation(self, tmp_path):
        """The serial path probes the cache once per point: a cold
        point is one miss and one store, a warm one a single hit."""
        n = len(POINTS)
        cache_dir = tmp_path / "cache"
        cold = make_ctx(ResultCache(cache_dir))
        report = SweepEngine(cold, jobs=1).run(POINTS)
        assert cold.sim_count == n
        assert report.count("computed") == n
        stats = cold.cache.session_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, n, n)

        warm = make_ctx(ResultCache(cache_dir))
        report = SweepEngine(warm, jobs=1).run(POINTS)
        assert warm.sim_count == 0
        assert report.count("cache") == n
        stats = warm.cache.session_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (n, 0, 0)

    def test_parallel_single_miss_probes_once(self, tmp_path):
        """The parallel path's pre-probe is a point's only lookup, even
        when a single point is missing."""
        cache_dir = tmp_path / "cache"
        SweepEngine(make_ctx(ResultCache(cache_dir)), jobs=1).run(POINTS[:2])
        ctx = make_ctx(ResultCache(cache_dir))
        report = SweepEngine(ctx, jobs=2).run(POINTS[:3])
        assert ([o.source for o in report.outcomes]
                == ["cache", "cache", "computed"])
        stats = ctx.cache.session_stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (2, 1, 1)

    def test_context_reads_through_cache(self, tmp_path):
        """Plain ExperimentContext accessors hit the same cache the
        sweep engine fills — no re-simulation, identical numbers."""
        cache_dir = tmp_path / "cache"
        cold = make_ctx(ResultCache(cache_dir))
        run = cold.uniproc_run("R1", "interleaved", 2)

        warm = make_ctx(ResultCache(cache_dir))
        cached = warm.uniproc_run("R1", "interleaved", 2)
        assert warm.sim_count == 0
        assert cached.simulator is None      # loaded, not simulated
        assert cached.result.per_process == run.result.per_process

    def test_need_simulator_forces_live_run(self, tmp_path):
        cache_dir = tmp_path / "cache"
        make_ctx(ResultCache(cache_dir)).uniproc_run("R1", "single", 1)
        warm = make_ctx(ResultCache(cache_dir))
        run = warm.uniproc_run("R1", "single", 1, need_simulator=True)
        assert run.simulator is not None
        assert warm.sim_count == 1

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = make_ctx(ResultCache(cache_dir))
        reference = cold.mp_run("cholesky", "single", 1).cycles
        key = cold.point_cache_key("mp", "cholesky", "single", 1)
        path = cold.cache._path(key)
        path.write_text("garbage")

        warm = make_ctx(ResultCache(cache_dir))
        result = warm.mp_run("cholesky", "single", 1)
        assert warm.sim_count == 1           # recomputed, not served
        assert warm.cache.corrupt == 1
        assert result.cycles == reference    # deterministic recompute
        # and the recompute repaired the entry on disk
        fresh = make_ctx(ResultCache(cache_dir))
        assert fresh.mp_run("cholesky", "single", 1).cycles == reference
        assert fresh.sim_count == 0

    def test_partial_sweep_resumes(self, tmp_path):
        """A sweep over a superset only computes the missing points."""
        cache_dir = tmp_path / "cache"
        SweepEngine(make_ctx(ResultCache(cache_dir)),
                    jobs=1).run(POINTS[:3])
        ctx = make_ctx(ResultCache(cache_dir))
        report = SweepEngine(ctx, jobs=1).run(POINTS)
        assert report.count("cache") == 3
        assert report.count("computed") == 2
        assert ctx.sim_count == 2


class TestPointEnumeration:
    def test_default_points_deduplicated(self):
        points = default_points()
        assert len(points) == len(set(points))

    def test_default_points_cover_tables_and_figures(self):
        from repro.workloads.uniprocessor import WORKLOAD_ORDER, WORKLOADS
        from repro.workloads.splash import SPLASH_ORDER
        points = set(default_points())
        for w in WORKLOAD_ORDER:
            assert SweepPoint("uniproc", w, "single", 1) in points
            for scheme in ("blocked", "interleaved"):
                for n in (2, 4):
                    assert SweepPoint("uniproc", w, scheme, n) in points
            for kernel in WORKLOADS[w]:
                assert SweepPoint("dedicated", kernel, "single",
                                  1) in points
        for app in SPLASH_ORDER:
            assert SweepPoint("mp", app, "single", 1) in points
            for scheme in ("blocked", "interleaved"):
                for n in (2, 4, 8):
                    assert SweepPoint("mp", app, scheme, n) in points

    def test_subset_selection(self):
        points = default_points(workloads=("R1",), apps=("cholesky",))
        names = {p.name for p in points if p.kind == "uniproc"}
        assert names == {"R1"}
        assert {p.name for p in points if p.kind == "mp"} == {"cholesky"}

    def test_dedupe_preserves_order(self):
        pts = [POINTS[0], POINTS[1], POINTS[0], POINTS[2]]
        assert dedupe(pts) == [POINTS[0], POINTS[1], POINTS[2]]


class TestReport:
    def test_report_shapes(self, tmp_path):
        ctx = make_ctx(ResultCache(tmp_path / "cache"))
        report = SweepEngine(ctx, jobs=1).run(POINTS[:2])
        d = report.to_dict()
        assert d["computed"] == 2 and d["jobs"] == 1
        assert len(d["points"]) == 2
        assert "computed" in report.summary()
        # a second run over the same engine is pure memo
        report2 = SweepEngine(ctx, jobs=1).run(POINTS[:2])
        assert report2.count("memo") == 2
