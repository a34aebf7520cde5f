"""Nightly soak: concurrent jobs under injected and real worker kills.

The PR lane runs only the quick variants in test_manager.py; these are
marked slow and exercise N concurrent jobs with fault injection plus a
live ``Process.kill`` from outside, asserting every point is retried
and none is lost.
"""

import json
import time

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.service import JobManager, JobSpec, JobStatus

pytestmark = pytest.mark.slow

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)


def _spec(points, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    kwargs.setdefault("warmup", 1_000)
    kwargs.setdefault("measure", 6_000)
    return JobSpec(points=points, **kwargs)


def test_soak_concurrent_jobs_with_injected_kills(tmp_path):
    """Three concurrent jobs, every worker attempt dying once, must all
    complete with zero lost points and bit-identical payloads to an
    undisturbed run."""
    cache = ResultCache(tmp_path / "rc")
    specs = [
        _spec((("uniproc", "R1", "single", 1),
               ("uniproc", "R1", "interleaved", 2)), max_retries=3),
        _spec((("dedicated", "mxm", "single", 1),
               ("uniproc", "DC", "single", 1)), max_retries=3),
        _spec((("mp", "cholesky", "single", 1),
               ("mp", "cholesky", "interleaved", 2)), max_retries=3),
    ]
    with JobManager(workers=4, cache=cache, backoff=0.02) as mgr:
        job_ids = [mgr.submit(s, fail_times=1) for s in specs]
        outcomes = [mgr.results(j, timeout=480) for j in job_ids]
        statuses = [mgr.status(j) for j in job_ids]

    for spec, status, payloads in zip(specs, statuses, outcomes):
        assert status["status"] == JobStatus.COMPLETED
        assert status["completed"] == len(spec.points)   # no lost points
        assert len(payloads) == len(spec.points)
        for ps in status["points"]:
            assert ps["attempts"] == 2      # died once, retried once

    # Bit-identity: a clean (no-kill) run of the same specs, against a
    # separate cache so every point recomputes, streams identical bytes.
    with JobManager(workers=4, cache=ResultCache(tmp_path / "rc2")) as mgr:
        clean = [mgr.results(mgr.submit(s), timeout=480) for s in specs]
    for disturbed, undisturbed in zip(outcomes, clean):
        assert sorted(disturbed) == sorted(undisturbed)


def test_soak_external_worker_kill_is_retried(tmp_path):
    """Kill a live worker process from outside mid-run; the manager
    must observe the death and retry the point."""
    spec = _spec((("mp", "mp3d", "interleaved", 2),), max_retries=2)
    with JobManager(workers=1, backoff=0.02) as mgr:
        job_id = mgr.submit(spec)
        # Wait for the worker process to appear, then kill it.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with mgr._lock:
                slots = list(mgr._slots)
            if slots:
                slots[0].process.kill()
                break
            time.sleep(0.01)
        else:
            pytest.fail("worker never started")
        payloads = mgr.results(job_id, timeout=480)
        status = mgr.status(job_id)
    assert status["status"] == JobStatus.COMPLETED
    assert status["points"][0]["attempts"] >= 2
    assert len(payloads) == 1
    assert json.loads(payloads[0])["completed"] is True

