"""Spool transport and the serve/submit/jobs CLI verbs."""

import json

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as cli_main
from repro.service import JobManager, JobSpec
from repro.service.spool import Spool, serve_forever

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)


def _spec(points=(("uniproc", "R1", "single", 1),), **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    kwargs.setdefault("warmup", 1_000)
    kwargs.setdefault("measure", 6_000)
    return JobSpec(points=points, **kwargs)


def test_submit_claim_round_trip(tmp_path):
    spool = Spool(tmp_path)
    spec = _spec()
    job_id = spool.submit(spec)
    assert job_id == "sj-00001"
    pending = spool.pending()
    assert [jid for jid, _ in pending] == [job_id]
    claimed = spool.claim(*pending[0])
    assert claimed.points == spec.points
    assert spool.pending() == []
    assert (spool.jobs_dir / job_id / "spec.json").exists()


def test_ids_are_unique_and_ordered(tmp_path):
    spool = Spool(tmp_path)
    ids = [spool.submit(_spec()) for _ in range(3)]
    assert ids == ["sj-00001", "sj-00002", "sj-00003"]


def test_bad_spec_is_parked_not_fatal(tmp_path):
    spool = Spool(tmp_path)
    spool.queue_dir.mkdir(parents=True, exist_ok=True)
    (spool.queue_dir / "sj-00001.json").write_text("{ bad json")
    job_id, path = spool.pending()[0]
    assert spool.claim(job_id, path) is None
    assert spool.pending() == []
    status = spool.read_status(job_id)
    assert status["status"] == "failed"
    assert "unreadable" in status["error"]


def test_serve_once_runs_queued_jobs(tmp_path):
    spool = Spool(tmp_path / "sp")
    job_id = spool.submit(_spec(points=(
        ("uniproc", "R1", "single", 1),
        ("uniproc", "R1", "interleaved", 2))))
    manager = JobManager(workers=2, cache=ResultCache(tmp_path / "rc"))
    served = serve_forever(spool, manager, once=True, poll=0.02)
    assert served == 1
    status = spool.read_status(job_id)
    assert status["status"] == "completed"
    assert status["completed"] == 2
    results = spool.read_results(job_id)
    assert len(results) == 2
    assert {json.loads(r)["scheme"] for r in results} == {"single",
                                                          "interleaved"}


def test_serve_once_runs_an_old_format_queue_file(tmp_path):
    """A queue file written before the scoreboard knob was removed
    still carries a ``backend`` key; it is served to completion."""
    spool = Spool(tmp_path / "sp")
    spool.queue_dir.mkdir(parents=True)
    old = _spec().to_dict()
    old["backend"] = "numpy"
    (spool.queue_dir / "sj-00001.json").write_text(json.dumps(old))
    manager = JobManager(workers=1, cache=ResultCache(tmp_path / "rc"))
    assert serve_forever(spool, manager, once=True, poll=0.02) == 1
    status = spool.read_status("sj-00001")
    assert status["status"] == "completed"
    assert status["completed"] == 1
    (payload,) = spool.read_results("sj-00001")
    assert json.loads(payload)["workload"] == "R1"


def test_cli_submit_serve_jobs_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spool_dir = str(tmp_path / "sp")
    rc = cli_main(["submit", "--spool", spool_dir,
                   "--warmup", "1000", "--measure", "6000",
                   "--points",
                   "uniproc:R1:single:1,uniproc:R1:interleaved:2"])
    assert rc == 0
    job_id = capsys.readouterr().out.strip()
    assert job_id == "sj-00001"

    rc = cli_main(["serve", "--spool", spool_dir, "--once",
                   "--workers", "2",
                   "--cache-dir", str(tmp_path / "rc")])
    assert rc == 0
    assert "served 1 job(s)" in capsys.readouterr().err
    # serve writes only where it is told: no hidden directory in cwd
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rc", "sp"]

    rc = cli_main(["jobs", "--spool", spool_dir])
    assert rc == 0
    listing = capsys.readouterr().out
    assert job_id in listing and "completed" in listing

    rc = cli_main(["jobs", job_id, "--spool", spool_dir])
    assert rc == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "completed"
    assert status["results"] == 2


def test_cli_submit_rejects_bad_point(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--spool", str(tmp_path / "sp"),
                  "--points", "uniproc:R1:single"])
    with pytest.raises(SystemExit):
        cli_main(["submit", "--spool", str(tmp_path / "sp"),
                  "--points", "uniproc:NOPE:single:1"])


def test_cli_jobs_unknown_id_errors(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["jobs", "sj-99999", "--spool", str(tmp_path / "sp")])


# -- stale claim markers (a submitter killed mid-submit) -------------------

def _age(path, seconds):
    import os
    old = path.stat().st_mtime - seconds
    os.utime(str(path), (old, old))


def test_killed_submit_strands_claim_and_retires_the_id(tmp_path):
    """Regression setup: a submitter dying between the O_EXCL claim and
    the spec write leaves a marker that retires the id forever."""
    import repro.service.spool as spool_mod
    spool = Spool(tmp_path / "sp")
    real_write = spool_mod._write_json

    def killed_write(path, payload):     # dies before the spec lands
        raise KeyboardInterrupt("submitter killed mid-submit")

    spool_mod._write_json = killed_write
    try:
        with pytest.raises(KeyboardInterrupt):
            spool.submit(_spec())
    finally:
        spool_mod._write_json = real_write
    assert list(spool.queue_dir.glob("*.claim")) == [
        spool.queue_dir / "sj-00001.claim"]
    # the orphaned marker retires sj-00001: the next submit skips it
    assert spool.submit(_spec()) == "sj-00002"


def test_sweep_stale_claims_recovers_the_id(tmp_path):
    spool = Spool(tmp_path / "sp")
    marker = spool.queue_dir / "sj-00001.claim"
    spool.queue_dir.mkdir(parents=True)
    marker.touch()
    # a fresh marker is a live submit in flight: never swept
    assert spool.sweep_stale_claims(max_age=60.0) == 0
    _age(marker, 120.0)
    assert spool.sweep_stale_claims(max_age=60.0) == 1
    assert not marker.exists()
    # the allocator hands the recovered id out again
    assert spool.submit(_spec()) == "sj-00001"


def test_serve_forever_sweeps_stale_claims(tmp_path):
    """The serving loop itself clears orphans, so a long-lived server
    heals a spool no matter which client died into it."""
    spool = Spool(tmp_path / "sp")
    job_id = spool.submit(_spec())
    stale = spool.queue_dir / "sj-09999.claim"
    stale.touch()
    _age(stale, 120.0)
    manager = JobManager(workers=1, cache=ResultCache(tmp_path / "rc"))
    serve_forever(spool, manager, once=True, poll=0.02)
    assert not stale.exists()
    assert spool.read_status(job_id)["status"] == "completed"


def test_completed_job_claim_leftover_is_safe_to_sweep(tmp_path):
    """A marker whose spec DID land (then got claimed by a server) is
    also swept without disturbing the job's directory."""
    spool = Spool(tmp_path / "sp")
    job_id = spool.submit(_spec())
    # simulate the unlink in submit() having been lost (e.g. ENOSPC)
    leftover = spool.queue_dir / (job_id + ".claim")
    leftover.touch()
    _age(leftover, 120.0)
    manager = JobManager(workers=1, cache=ResultCache(tmp_path / "rc"))
    serve_forever(spool, manager, once=True, poll=0.02)
    assert not leftover.exists()
    assert spool.read_status(job_id)["status"] == "completed"
    assert len(spool.read_results(job_id)) == 1
