"""The repro-experiments command-line interface."""

import pytest

from repro.experiments.cli import main, EXPERIMENTS


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_experiment_registry_names(self):
        for name in ("figure2", "figure3", "table4", "table7",
                     "table10", "figure6", "figure7", "figure8",
                     "figure9", "configs"):
            assert name in EXPERIMENTS

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestLightExperiments:
    def test_figure3_prints_timeline(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out and "interleaved" in out

    def test_table4_prints_costs(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "cache miss" in out

    def test_configs_prints_all_tables(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 9" in out

    def test_seed_option_accepted(self, capsys):
        assert main(["figure2", "--seed", "3"]) == 0

    def test_measurement_options(self, capsys):
        # A tiny table7 run through the full uniprocessor path.
        assert main(["table7", "--measure", "8000", "--warmup",
                     "2000"]) == 0
        out = capsys.readouterr().out
        assert "Mean" in out


class TestSweepAndCacheVerbs:
    def test_sweep_renders_everything_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--jobs", "1", "--nodes", "2",
                "--measure", "5000", "--warmup", "1000",
                "--workloads", "R1", "--apps", "cholesky",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "Table 10" in out
        assert "Figure 6" in out and "Figure 9" in out

        # warm rerun is served from the on-disk cache
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "0 computed" in err

    def test_sweep_unknown_name_exits_before_simulating(self, monkeypatch,
                                                        tmp_path):
        from repro.experiments import sweep

        def no_engine(*args, **kwargs):
            raise AssertionError("the sweep started despite a bad name")
        monkeypatch.setattr(sweep, "SweepEngine", no_engine)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workloads", "nope",
                  "--cache-dir", str(tmp_path / "cache")])
        assert "nope" in str(exc.value.code)

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 0" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 0" in capsys.readouterr().out

    def test_no_cache_flag(self, capsys, tmp_path):
        # --no-cache suppresses the cache a --cache-dir would enable;
        # the wiring is shared by every verb, so a static one suffices.
        cache_dir = tmp_path / "cache"
        assert main(["table4", "--cache-dir", str(cache_dir),
                     "--no-cache"]) == 0
        assert not cache_dir.exists()
