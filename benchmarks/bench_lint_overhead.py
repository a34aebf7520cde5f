"""Race-analysis overhead: ``lint --races`` must ride along cheaply.

The race-analysis case gates :func:`repro.analysis.analyze_races` on
the seven multi-context uniprocessor workload groups: the whole-group
interval + lockset pass must stay under 10% of the groups' full-verify
(V1xx + B2xx at widths 1/2/4) time, so ``lint --races`` rides along
with program verification at marginal cost.

Run directly to refresh the checked-in record::

    PYTHONPATH=src python benchmarks/bench_lint_overhead.py \
        --write benchmarks/BENCH_lint_baseline.json
"""

import json
import pathlib
import time

from repro.analysis import verify_program
from repro.workloads.uniprocessor import WORKLOAD_ORDER, build_workload

BASELINE_PATH = (pathlib.Path(__file__).resolve().parent /
                 "BENCH_lint_baseline.json")

#: Race-analysis budget as a fraction of full-verify time.
MAX_RACE_FRACTION = 0.10

_REPEATS = 3


def measure_races(scale=1.0):
    """Best-of-N full-verify vs whole-group race-analysis times."""
    from repro.analysis import analyze_races
    from repro.config import PipelineParams
    threshold = PipelineParams().short_stall_threshold
    cases = {}
    for name in WORKLOAD_ORDER:
        procs, _instances, _barriers = build_workload(name, scale)
        group = [p.program for p in procs]
        programs = {id(p): p for p in group}
        verify_s = races_s = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            for program in programs.values():
                verify_program(program, threshold=threshold,
                               widths=(1, 2, 4))
            verify_s = min(verify_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            analyze_races(group)
            races_s = min(races_s, time.perf_counter() - t0)
        cases[name] = {
            "verify_full_ms": round(verify_s * 1e3, 3),
            "races_ms": round(races_s * 1e3, 3),
            "fraction": round(races_s / verify_s, 4),
            "contexts": len(group),
        }
    total_verify = sum(c["verify_full_ms"] for c in cases.values())
    total_races = sum(c["races_ms"] for c in cases.values())
    return {
        "max_race_fraction": MAX_RACE_FRACTION,
        "cases": cases,
        "aggregate": {
            "verify_full_ms": round(total_verify, 3),
            "races_ms": round(total_races, 3),
            "fraction": round(total_races / total_verify, 4),
        },
    }


def test_race_analysis_overhead_under_budget():
    payload = measure_races()
    agg = payload["aggregate"]
    assert agg["fraction"] < MAX_RACE_FRACTION, (
        "race analysis costs %.1f%% of full-verify time "
        "(budget %.0f%%): %s"
        % (agg["fraction"] * 100, MAX_RACE_FRACTION * 100,
           json.dumps(payload["cases"], indent=2)))


def test_baseline_record_matches_schema():
    recorded = json.loads(BASELINE_PATH.read_text())
    assert recorded["benchmark"] == "lint_overhead"
    races = recorded["races"]
    assert set(races["cases"]) == set(WORKLOAD_ORDER)
    assert (races["aggregate"]["fraction"]
            < races["max_race_fraction"])


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", metavar="PATH", default=None,
                        help="record the measurement as JSON")
    args = parser.parse_args(argv)
    payload = {"benchmark": "lint_overhead", "races": measure_races()}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.write:
        pathlib.Path(args.write).write_text(text + "\n")
    ok = payload["races"]["aggregate"]["fraction"] < MAX_RACE_FRACTION
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
