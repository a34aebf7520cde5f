"""Self-tests of the benchmark itself.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py

They check that the printed metric names and units match BENCHMARK.json,
that the seed changes the inputs, that a perturbed oracle digest is
caught as a failed point, and that the layer split charges stdlib time
to the nearest calling repro layer.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_repro()

import grids   # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import wire    # noqa: E402

WORK_DIR = os.path.join(run.WORK, "selftest")

#: A cheap ws_grid point (dedicated calibration run, about half a second).
CHEAP = ("dedicated", "tomcatv", "single", 1)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class MetricNames(unittest.TestCase):

    def test_tables_match_benchmark_json(self):
        spec = benchmark_json()
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_printed_metrics_match_benchmark_json(self):
        spec = benchmark_json()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, run.RUN_PY, "--workload", "service_warm",
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[section]})


class Seeds(unittest.TestCase):

    def test_service_jobs_follow_the_seed(self):
        def jobs(seed):
            return [spec.points for spec in wire.job_specs(seed)]
        self.assertEqual(jobs(1), jobs(1))
        self.assertNotEqual(jobs(1), jobs(2))

    def test_simulation_seed_changes_the_statistics(self):
        for point in (("uniproc", "DC", "single", 1),
                      ("mp", "locus", "single", 1)):
            self.assertNotEqual(oracle.digest(oracle.naive_state(point, 1)),
                                oracle.digest(oracle.naive_state(point, 2)))


class OracleCheck(unittest.TestCase):

    def tearDown(self):
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    def test_perturbed_digest_fails_the_point(self):
        expected = oracle.load_committed("ws_grid")
        pid = oracle.point_id(CHEAP)
        perturbed = dict(expected)
        perturbed[pid] = ("1" if expected[pid][0] == "0" else "0") \
            + expected[pid][1:]
        grid_pass = grids.GridPass([CHEAP], oracle.DEFAULT_SEED, WORK_DIR)
        self.assertIsNone(grid_pass.error)
        self.assertEqual(grid_pass.verify(expected), [])
        self.assertEqual(grid_pass.verify(perturbed), [pid])

    def test_committed_oracle_covers_every_grid_point(self):
        for workload in ("ws_grid", "mp_grid"):
            self.assertEqual(
                set(oracle.load_committed(workload)),
                {oracle.point_id(p) for p in grids.points(workload)})


class LayerSplit(unittest.TestCase):

    def test_stdlib_time_goes_to_the_calling_layer(self):
        core = (os.path.join(run.SRC, "repro", "core", "x.py"), 1, "step")
        svc = (os.path.join(run.SRC, "repro", "service", "y.py"), 1, "send")
        dumps = ("/usr/lib/python3/json/__init__.py", 1, "dumps")
        encode = ("/usr/lib/python3/json/encoder.py", 1, "encode")
        sleep = ("~", 0, "<built-in method time.sleep>")
        orphan = ("/usr/lib/python3/threading.py", 1, "_bootstrap")
        stats = {
            core: (1, 1, 1.0, 4.0, {}),
            svc: (1, 1, 0.5, 3.5, {}),
            # dumps: 3 s from core, 1 s from service (inclusive time).
            dumps: (2, 2, 0.4, 4.0, {core: (1, 1, 0.3, 3.0),
                                     svc: (1, 1, 0.1, 1.0)}),
            encode: (2, 2, 3.6, 3.6, {dumps: (2, 2, 3.6, 3.6)}),
            sleep: (1, 1, 5.0, 5.0, {core: (1, 1, 5.0, 5.0)}),
            orphan: (1, 1, 0.25, 0.25, {}),
        }
        split, wait = layers.split_by_layer(stats, run.SRC, run.BENCH_DIR)
        self.assertAlmostEqual(wait, 5.0)
        self.assertAlmostEqual(split["unattributed"], 0.25)
        self.assertAlmostEqual(split["core"], 1.0 + 0.3 + 3.6 * 0.75)
        self.assertAlmostEqual(split["service"], 0.5 + 0.1 + 3.6 * 0.25)


if __name__ == "__main__":
    unittest.main()
