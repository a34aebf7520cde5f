"""JSON export of experiment results."""

import json

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.runner import ExperimentContext
from repro.experiments.export import (
    stats_to_dict, uniproc_run_to_dict, mp_result_to_dict,
    context_to_dict, write_json,
)
from repro.core.stats import CycleStats
from repro.pipeline.stalls import Stall

import pytest


@pytest.fixture(scope="module")
def ctx():
    c = ExperimentContext(config=SystemConfig.fast(),
                          mp_params=MultiprocessorParams(n_nodes=2),
                          warmup=2_000, measure=10_000)
    c.uniproc_run("R1", "single", 1)
    c.mp_run("cholesky", "single", 1)
    return c


class TestStatsDict:
    def test_fields_present(self):
        s = CycleStats()
        s.add(Stall.BUSY, 4)
        s.retired = 4
        s.end_run(4)
        d = stats_to_dict(s)
        assert d["cycles"] == 4
        assert d["ipc"] == 1.0
        assert d["slots"]["busy"] == 4
        assert d["mean_runlength"] == 4

    def test_json_serialisable(self):
        json.dumps(stats_to_dict(CycleStats()))


class TestRunDicts:
    def test_uniproc_run(self, ctx):
        run = ctx.uniproc_run("R1", "single", 1)
        d = uniproc_run_to_dict(run)
        assert d["duration"] == 10_000
        assert sum(d["per_process"].values()) == d["stats"]["retired"]
        json.dumps(d)

    def test_mp_result(self, ctx):
        res = ctx.mp_run("cholesky", "single", 1)
        d = mp_result_to_dict(res)
        assert d["cycles"] == res.cycles
        assert len(d["nodes"]) == 2
        assert "upgrades" in d["protocol"]
        json.dumps(d)


class TestContextExport:
    def test_whole_context(self, ctx):
        d = context_to_dict(ctx)
        assert "R1/single/1" in d["uniprocessor"]
        assert "cholesky/single/1" in d["multiprocessor"]
        json.dumps(d)

    def test_write_json(self, ctx, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), context_to_dict(ctx))
        loaded = json.loads(path.read_text())
        assert "uniprocessor" in loaded

    def test_generated_point_is_a_workstation_run(self):
        spec = "block_size=16;footprint_words=64;loop_iterations=8;seed=3"
        c = ExperimentContext(config=SystemConfig.fast(),
                              mp_params=MultiprocessorParams(n_nodes=2),
                              warmup=1_000, measure=4_000)
        c.point_run(("gen", spec, "interleaved", 2))
        d = context_to_dict(c)
        assert d["multiprocessor"] == {} and d["dedicated_rates"] == {}
        run = d["uniprocessor"]["gen:%s/interleaved/2" % spec]
        assert run["duration"] == 4_000
