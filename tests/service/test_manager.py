"""JobManager end-to-end: bit-identity with the serial path, cache
read-through, retry/timeout/cancel robustness, and streaming."""

import dataclasses
import itertools
import json

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.service import JobManager, JobSpec, JobStatus
from repro.service.manager import ServiceError

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)

UNIPROC_2PT = (("uniproc", "R1", "single", 1),
               ("uniproc", "R1", "interleaved", 2))


def _spec(points=UNIPROC_2PT, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    kwargs.setdefault("warmup", 1_000)
    kwargs.setdefault("measure", 6_000)
    return JobSpec(points=points, **kwargs)


def _by_point(payloads):
    out = {}
    for p in payloads:
        d = json.loads(p)
        out[(d["workload"], d["scheme"], d["n_contexts"])] = p
    return out


def test_smoke_bit_identical_to_serial_sweep(tmp_path):
    """Submit a 2-point sweep; results must be bit-identical to the
    serial SweepEngine/facade computation of the same points."""
    from repro.api import Simulation
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        job_id = mgr.submit(_spec())
        payloads = mgr.results(job_id, timeout=240)
        status = mgr.status(job_id)
    assert status["status"] == JobStatus.COMPLETED
    assert status["completed"] == 2

    serial = {}
    for scheme, n in (("single", 1), ("interleaved", 2)):
        result = Simulation.from_config(
            FAST, scheme=scheme, n_contexts=n, seed=1994,
            engine="burst").load("R1").run(warmup=1_000, measure=6_000)
        serial[("R1", scheme, n)] = result.to_json()
    assert _by_point(payloads) == serial


def test_gen_point_matches_the_batch_dispatcher():
    """A worker serves a ``gen`` point through the batch path's own
    dispatcher, so its stream equals the payload built from it."""
    from repro.experiments.runner import compute_point_state
    from repro.service.results import payload_from_state
    spec = _spec(points=(("gen", "block_size=16;footprint_words=64;"
                          "loop_iterations=8;seed=3", "interleaved", 2),),
                 measure=4_000)
    with JobManager(workers=1) as mgr:
        payloads = mgr.results(mgr.submit(spec), timeout=240)
    (point,) = spec.points
    state = compute_point_state(*point, FAST, MPP, spec.seed,
                                *spec.point_window(point))
    assert payloads == [payload_from_state(point, spec, state)]
    assert json.loads(payloads[0])["retired"] > 0


def test_cache_read_through_and_warm_resubmit(tmp_path):
    cache = ResultCache(tmp_path / "rc")
    spec = _spec()
    with JobManager(workers=2, cache=cache) as mgr:
        first = mgr.results(mgr.submit(spec), timeout=240)
    assert cache.stores == 2

    with JobManager(workers=2, cache=cache) as mgr:
        job_id = mgr.submit(spec)
        second = mgr.results(job_id, timeout=60)
        status = mgr.status(job_id)
        # A hit is read and validated, never written back.
        assert mgr.flush_completed() == 0
    # All points satisfied from cache, byte-identical payload stream.
    assert status["cache_hits"] == 2
    assert {p["source"] for p in status["points"]} == {"cache"}
    assert sorted(second) == sorted(first)
    assert cache.stores == 2


def test_service_entries_readable_by_batch_cache_get(tmp_path):
    """What the service writes, ExperimentContext-style reads accept."""
    cache = ResultCache(tmp_path / "rc")
    spec = _spec(points=(("uniproc", "R1", "single", 1),))
    with JobManager(workers=1, cache=cache) as mgr:
        mgr.results(mgr.submit(spec), timeout=240)
    point = spec.points[0]
    result = cache.get(spec.cache_key(point), point.kind)
    assert result is not None
    assert result.duration == 6_000


def test_default_timeout_keeps_every_spec_field(tmp_path):
    spec = _spec(points=(("uniproc", "R1", "single", 1),),
                 engine="naive", seed=7, max_retries=4)
    with JobManager(workers=1, default_timeout=120.0) as mgr:
        job_id = mgr.submit(spec)
        admitted = mgr._record(job_id).spec
        mgr.cancel(job_id)
    assert admitted == dataclasses.replace(spec, timeout=120.0)


def test_worker_death_is_retried(tmp_path):
    spec = _spec(points=(("uniproc", "R1", "single", 1),), max_retries=3)
    with JobManager(workers=1, backoff=0.02) as mgr:
        job_id = mgr.submit(spec, fail_times=2)
        payloads = mgr.results(job_id, timeout=240)
        status = mgr.status(job_id)
    assert status["status"] == JobStatus.COMPLETED
    assert status["points"][0]["attempts"] == 3
    assert len(payloads) == 1


def test_retries_exhausted_fails_the_job(tmp_path):
    spec = _spec(points=(("uniproc", "R1", "single", 1),), max_retries=1)
    with JobManager(workers=1, backoff=0.02) as mgr:
        job_id = mgr.submit(spec, fail_times=99)
        with pytest.raises(ServiceError):
            mgr.results(job_id, timeout=120)
        status = mgr.status(job_id)
    assert status["status"] == JobStatus.FAILED
    assert "died" in status["error"]


def test_simulation_error_fails_without_retry(tmp_path):
    # An unknown workload name raises inside the worker — a
    # deterministic error, so exactly one attempt must be made.
    spec = JobSpec(points=(("uniproc", "no-such-workload", "single", 1),),
                   config=FAST, mp_params=MPP, warmup=100, measure=500,
                   max_retries=5)
    with JobManager(workers=1, backoff=0.02) as mgr:
        job_id = mgr.submit(spec)
        with pytest.raises(ServiceError):
            mgr.results(job_id, timeout=120)
        status = mgr.status(job_id)
    assert status["status"] == JobStatus.FAILED
    assert status["points"][0]["attempts"] == 1


def test_job_timeout(tmp_path):
    # Barnes runs for seconds, far past the timeout on any host.
    spec = _spec(points=(("mp", "barnes", "interleaved", 2),),
                 timeout=0.15)
    with JobManager(workers=1) as mgr:
        job_id = mgr.submit(spec)
        with pytest.raises(ServiceError):
            mgr.results(job_id, timeout=60)
        assert mgr.status(job_id)["status"] == JobStatus.TIMEOUT


def test_cancel(tmp_path):
    with JobManager(workers=1) as mgr:
        job_id = mgr.submit(_spec(points=(("mp", "mp3d", "single", 1),)))
        assert mgr.cancel(job_id)
        assert mgr.status(job_id)["status"] == JobStatus.CANCELLED
        assert not mgr.cancel(job_id)      # idempotent


def test_unknown_job_id():
    with JobManager(workers=1) as mgr:
        with pytest.raises(KeyError):
            mgr.status("job-9999")


def test_iter_results_streams_in_completion_order(tmp_path):
    with JobManager(workers=1, cache=ResultCache(tmp_path / "rc")) as mgr:
        job_id = mgr.submit(_spec())
        streamed = list(mgr.iter_results(job_id, timeout=240))
        final = mgr.results(job_id, timeout=10)
    assert streamed == final


def test_shutdown_flushes_completed_points(tmp_path):
    """Completed points reach the on-disk cache even when the manager
    is shut down (flush-on-shutdown is part of graceful stop)."""
    cache = ResultCache(tmp_path / "rc")
    with JobManager(workers=2, cache=cache) as mgr:
        job_id = mgr.submit(_spec())
        mgr.results(job_id, timeout=240)
    # context exit ran shutdown(); both points must be on disk
    assert cache.disk_stats()["entries"] == 2


def test_corrupt_cache_entry_recovered_through_manager(tmp_path):
    """Corruption recovery end-to-end: a corrupted entry is detected,
    discarded, recomputed by a worker, and rewritten."""
    cache = ResultCache(tmp_path / "rc")
    spec = _spec(points=(("uniproc", "R1", "single", 1),))
    with JobManager(workers=1, cache=cache) as mgr:
        first = mgr.results(mgr.submit(spec), timeout=240)
    point = spec.points[0]
    entry = cache._path(spec.cache_key(point))
    entry.write_text(entry.read_text()[:40] + "GARBAGE")

    cache2 = ResultCache(tmp_path / "rc")
    with JobManager(workers=1, cache=cache2) as mgr:
        job_id = mgr.submit(spec)
        second = mgr.results(job_id, timeout=240)
        status = mgr.status(job_id)
    assert cache2.corrupt == 1
    assert status["cache_hits"] == 0
    assert status["points"][0]["source"] == "computed"
    assert second == first                  # recomputed bit-identically
    # and the entry is valid again on disk
    cache3 = ResultCache(tmp_path / "rc")
    assert cache3.get_state(spec.cache_key(point), point.kind) is not None


def test_two_jobs_run_concurrently(tmp_path):
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        a = mgr.submit(_spec(points=(("uniproc", "R1", "single", 1),)))
        b = mgr.submit(_spec(points=(("dedicated", "mxm", "single", 1),)))
        ra = mgr.results(a, timeout=240)
        rb = mgr.results(b, timeout=240)
        listing = mgr.jobs()
    assert len(ra) == 1 and len(rb) == 1
    assert [j["job_id"] for j in listing] == [a, b]
    assert all(j["status"] == JobStatus.COMPLETED for j in listing)


def test_jobs_lists_newest_last_past_four_digit_ids():
    """``jobs()`` keeps submission order once ids outgrow ``%04d``
    (a string sort would put job-10000 before job-9999)."""
    spec = _spec(points=(("uniproc", "R1", "single", 1),),
                 warmup=0, measure=500)
    with JobManager(workers=2) as mgr:
        mgr._ids = itertools.count(9999)
        ids = [mgr.submit(spec), mgr.submit(spec)]
        for job_id in ids:
            mgr.results(job_id, timeout=240)
        listing = [j["job_id"] for j in mgr.jobs()]
    assert ids == ["job-9999", "job-10000"]
    assert listing == ids


def test_burst_and_naive_jobs_agree(tmp_path):
    """Service-level restatement of the engines' bit-identity contract:
    a burst-engine job and a naive-engine job finish on the same
    cycles."""
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        burst = mgr.results(mgr.submit(_spec(engine="burst")), timeout=240)
    with JobManager(workers=2) as mgr:      # no cache: naive computes
        naive = mgr.results(mgr.submit(_spec(engine="naive")), timeout=240)
    assert sorted(json.loads(p)["cycles"] for p in burst) \
        == sorted(json.loads(p)["cycles"] for p in naive)
