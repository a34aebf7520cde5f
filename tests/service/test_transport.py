"""The client API and the CLI over the service's one wire (TCP).

Pins the stable ``repro.service`` public surface and the ``connect``
factory; ``schema_version`` on serialized specs, statuses and payloads;
and the CLI's handling of its service addresses: a missing, malformed
or positional address exits 2 before any manager, worker or socket
exists, and a port already in use or a server that is not running
exits 1 with a one-line error, never a traceback.  Against a live
``serve --listen`` server (the ``cli_server`` fixture): the
submit/jobs round trip, an unknown job id, a job id as ``jobs``'s
positional argument, and ``--idempotency-key``.
"""

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
import repro.service as service
from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as cli_main
from repro.service import JobManager, JobSpec, ServiceError, connect
from repro.service.client import ServiceClient

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)

POINTS = (("uniproc", "R1", "single", 1),
          ("uniproc", "R1", "interleaved", 2))


def _spec(points=POINTS, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    kwargs.setdefault("warmup", 1_000)
    kwargs.setdefault("measure", 6_000)
    return JobSpec(points=points, **kwargs)


# -- public surface -------------------------------------------------------

def test_stable_public_surface():
    for name in ("JobSpec", "JobStatus", "connect", "JobManager",
                 "ServiceError"):
        assert name in service.__all__, name
    # everything promised in __all__ actually resolves
    for name in service.__all__:
        assert hasattr(service, name), name
    # TCP is the one wire: no second transport, no protocol over both
    for name in ("Transport", "open_spool"):
        assert name not in service.__all__, name
        assert not hasattr(service, name), name
    with pytest.raises(ModuleNotFoundError):
        import repro.service.spool  # noqa: F401


def test_service_and_cli_load_no_event_loop():
    """The server and its clients are plain threads and sockets: a fresh
    interpreter importing the service and the CLI never loads asyncio."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys, repro.service, repro.service.net, "
              "repro.service.client, repro.experiments.cli; "
              "assert 'asyncio' not in sys.modules, 'asyncio loaded'")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_factories_return_transports():
    client = connect("127.0.0.1:1")       # no connection made yet
    assert isinstance(client, ServiceClient)
    assert (client.host, client.port) == ("127.0.0.1", 1)
    client2 = connect("127.0.0.1", 2)
    assert (client2.host, client2.port) == ("127.0.0.1", 2)
    with pytest.raises(ValueError, match="bad address"):
        connect("127.0.0.1:notaport")


# -- schema versions ------------------------------------------------------

def test_spec_dict_carries_schema_version():
    payload = _spec().to_dict()
    assert payload["schema_version"] == 1
    assert "schema" not in payload
    assert JobSpec.from_dict(payload).points == _spec().points


def test_spec_rejects_mismatched_schema_fields():
    payload = _spec().to_dict()
    payload["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        JobSpec.from_dict(payload)
    legacy_only = _spec().to_dict()
    del legacy_only["schema_version"]      # a pre-versioning spec
    legacy_only["schema"] = 1
    with pytest.raises(ValueError, match="schema_version"):
        JobSpec.from_dict(legacy_only)


def test_status_and_payload_carry_schema_version(tmp_path):
    with JobManager(workers=2,
                    cache=ResultCache(tmp_path / "rc")) as mgr:
        job_id = mgr.submit(_spec(points=POINTS[:1]))
        payloads = mgr.results(job_id, timeout=240)
        status = mgr.status(job_id)
    assert status["schema_version"] == 1
    assert json.loads(payloads[0])["schema_version"] == 1


# -- CLI: the service addresses -------------------------------------------

def _unused_port():
    """A port nothing listens on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _forbid_service_state(monkeypatch):
    """Make building a manager or a client fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("service state built before the address "
                             "was checked")
    monkeypatch.setattr(service, "JobManager", forbidden)
    monkeypatch.setattr(service, "connect", forbidden)


POINT_FLAGS = ["--warmup", "1000", "--measure", "6000",
               "--points", "uniproc:R1:single:1"]


@pytest.mark.parametrize("argv, named", [
    (["serve"], "--listen"),
    (["submit"] + POINT_FLAGS, "--connect"),
    (["jobs"], "--connect"),
    (["serve", "--listen", "127.0.0.1:notaport"], "--listen"),
    (["submit", "--connect", "127.0.0.1:notaport"] + POINT_FLAGS,
     "--connect"),
    (["jobs", "--connect", "127.0.0.1:70000"], "--connect"),
    (["jobs", "--connect", "[::1:7994"], "--connect"),
    (["serve", "sp", "--listen", "127.0.0.1:0"], "--listen"),
    (["submit", "sp", "--connect", "127.0.0.1:1"] + POINT_FLAGS,
     "--connect"),
    (["serve", "--spool", "sp"], "--spool"),
    (["serve", "--listen", "127.0.0.1:0", "--once"], "--once"),
], ids=["serve-no-listen", "submit-no-connect", "jobs-no-connect",
        "serve-bad-listen", "submit-bad-connect", "jobs-port-range",
        "jobs-unclosed-bracket",
        "serve-positional", "submit-positional", "spool-unknown",
        "once-unknown"])
def test_cli_service_address_checked_up_front(argv, named, tmp_path,
                                              monkeypatch, capsys):
    """A missing, malformed or positional address (and the deleted
    ``--spool``/``--once`` flags) exits 2 through the argument parser,
    naming the flag, before any manager, worker or socket exists."""
    monkeypatch.chdir(tmp_path)
    _forbid_service_state(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_submit_rejects_bad_point(tmp_path, monkeypatch):
    """A bad ``--points`` value is refused, naming it, before the
    client connects (nothing listens on port 1)."""
    _forbid_service_state(monkeypatch)
    for bad, named in (("uniproc:R1:single", "uniproc:R1:single"),
                       ("uniproc:NOPE:single:1", "NOPE"),
                       ("uniproc:R1:single:many", "single:many"),
                       ("dedicated:DC:single:1", "name(s): DC ")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["submit", "--connect", "127.0.0.1:1",
                      "--points", bad])
        assert named in str(exc.value.code)


@pytest.mark.parametrize("point", ["dedicated:mxm:single:1",
                                   "dedicated:mp3d:single:1"])
def test_cli_submit_accepts_dedicated_kernels_and_apps(point, monkeypatch):
    """A dedicated point runs one application alone, a Spec89 kernel or
    a SPLASH app: it passes validation and reaches the client."""
    _forbid_service_state(monkeypatch)
    with pytest.raises(AssertionError, match="service state built"):
        cli_main(["submit", "--connect", "127.0.0.1:1", "--points", point])


def test_cli_serve_on_a_port_in_use_exits_1(monkeypatch, capsys):
    managers = []

    class RecordingManager(JobManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            managers.append(self)

    monkeypatch.setattr(service, "JobManager", RecordingManager)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        rc = cli_main(["serve", "--listen", "127.0.0.1:%d" % port,
                       "--workers", "1", "--no-cache"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot listen on 127.0.0.1:%d" % port)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    # the manager was shut down on the way out
    (manager,) = managers
    with pytest.raises(ServiceError, match="shutting down"):
        manager.submit(_spec())


@pytest.mark.parametrize("argv", [["submit"] + POINT_FLAGS, ["jobs"]],
                         ids=["submit", "jobs"])
def test_cli_client_without_a_server_exits_1(argv, capsys):
    address = "127.0.0.1:%d" % _unused_port()
    assert cli_main(argv + ["--connect", address]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot connect to %s"
                                   % address)
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


# -- CLI: against a live server -------------------------------------------

def test_cli_submit_serve_jobs_round_trip(cli_server, tmp_path, capsys):
    """``submit --connect --stream`` runs both points on the server,
    ``jobs --connect`` lists the job completed and ``jobs <id>
    --connect`` details it; ``serve`` writes nothing in the working
    directory except ``--cache-dir``."""
    addr = cli_server.address
    rc = cli_main(["submit", "--connect", addr, "--stream",
                   "--warmup", "1000", "--measure", "6000",
                   "--points",
                   "uniproc:R1:single:1,uniproc:R1:interleaved:2"])
    assert rc == 0
    job_id, *payloads = capsys.readouterr().out.strip().splitlines()
    assert sorted((d["scheme"], d["n_contexts"])
                  for d in map(json.loads, payloads)) == [
        ("interleaved", 2), ("single", 1)]

    assert cli_main(["jobs", "--connect", addr]) == 0
    listing = capsys.readouterr().out.strip().splitlines()
    assert [row.split()[:2] for row in listing[1:]] == [
        [job_id, "completed"]]

    assert cli_main(["jobs", job_id, "--connect", addr]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "completed"
    assert status["results"] == 2

    assert cli_server.stop() == 0
    assert "served" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["rc"]


def test_cli_jobs_unknown_id_errors(cli_server, capsys):
    assert cli_main(["jobs", "job-9999", "--connect",
                     cli_server.address]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "job-9999" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_jobs_job_id_is_not_mistaken_for_a_spool(cli_server, capsys):
    """The positional argument of ``jobs`` is the id of the job to
    show, never a directory (the CLI once took a spool path there)."""
    assert cli_main(["submit", "--connect", cli_server.address]
                    + POINT_FLAGS) == 0
    job_id = capsys.readouterr().out.strip()
    assert cli_main(["jobs", job_id, "--connect", cli_server.address]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["job_id"] == job_id
    assert status["status"] in ("queued", "running", "completed")


def test_cli_submit_with_idempotency_key(cli_server, capsys):
    """Resubmitting with one ``--idempotency-key`` prints the keyed
    job's id again and admits no second job; the key does not match
    an earlier job submitted without it."""
    addr = cli_server.address
    assert cli_main(["submit", "--connect", addr] + POINT_FLAGS) == 0
    unkeyed = capsys.readouterr().out.strip()
    keyed = (["submit", "--connect", addr] + POINT_FLAGS
             + ["--idempotency-key", "ci-rerun-7"])
    assert cli_main(keyed) == 0
    first = capsys.readouterr().out.strip()
    assert cli_main(list(keyed)) == 0
    assert capsys.readouterr().out.strip() == first != unkeyed

    assert cli_main(["jobs", "--connect", addr]) == 0
    listing = capsys.readouterr().out.strip().splitlines()
    assert [row.split()[0] for row in listing[1:]] == [unkeyed, first]
