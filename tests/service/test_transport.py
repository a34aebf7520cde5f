"""The transport-agnostic client API: one surface, two wires.

Pins the ``Transport`` protocol, implemented by both ``SpoolTransport``
and ``ServiceClient``; the stable ``repro.service`` public surface;
``schema_version`` on serialized specs, statuses and payloads; and the
CLI's rejection of a positional spool directory.
"""

import json
import threading

import pytest

import repro.service as service
from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as cli_main
from repro.service import (JobManager, JobSpec, Transport, connect,
                           open_spool)
from repro.service.client import ServiceClient
from repro.service.net import ServiceServer
from repro.service.spool import Spool, SpoolTransport, serve_forever

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
    for name in ("JobSpec", "JobStatus", "Transport", "connect",
                 "open_spool"):
        assert name in service.__all__, name
        assert hasattr(service, name), name
    # everything promised in __all__ actually resolves
    for name in service.__all__:
        assert hasattr(service, name), name


def test_factories_return_transports(tmp_path):
    spool_t = open_spool(tmp_path / "sp")
    assert isinstance(spool_t, SpoolTransport)
    assert isinstance(spool_t, Transport)
    client = connect("127.0.0.1:1")       # no connection made yet
    assert isinstance(client, ServiceClient)
    assert isinstance(client, Transport)
    assert (client.host, client.port) == ("127.0.0.1", 1)
    client2 = connect("127.0.0.1", 2)
    assert (client2.host, client2.port) == ("127.0.0.1", 2)


def test_transport_protocol_method_set():
    for method in ("submit", "status", "results", "payloads", "stream",
                   "cancel", "jobs", "close"):
        assert callable(getattr(SpoolTransport, method)), method
        assert callable(getattr(ServiceClient, method)), method


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
    del legacy_only["schema_version"]      # a pre-network spool file
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


# -- spool transport over a live server -----------------------------------

def test_spool_transport_round_trip(tmp_path):
    spool = Spool(tmp_path / "sp")
    transport = open_spool(tmp_path / "sp")
    job_id = transport.submit(_spec(), idempotency_key="key-1")
    assert transport.submit(_spec(), idempotency_key="key-1") == job_id
    assert transport.status(job_id)["status"] == "queued"

    manager = JobManager(workers=2, cache=ResultCache(tmp_path / "rc"))
    server = threading.Thread(
        target=serve_forever, args=(spool, manager),
        kwargs={"once": True, "poll": 0.02})
    server.start()
    payloads = list(transport.stream(job_id))
    server.join(timeout=120)
    assert len(payloads) == 2
    assert transport.results(job_id, timeout=10) == payloads
    assert transport.payloads(job_id, from_index=1) == payloads[1:]
    statuses = transport.jobs()
    assert [s["job_id"] for s in statuses] == [job_id]
    assert statuses[0]["status"] == "completed"


def test_spool_and_socket_stream_identical_bytes(tmp_path):
    """The transport-agnosticism contract: the same spec through both
    transports yields byte-identical payload sets."""
    spec = _spec()
    # spool side
    spool = Spool(tmp_path / "sp")
    spool_t = open_spool(tmp_path / "sp")
    sid = spool_t.submit(spec)
    manager = JobManager(workers=2, cache=ResultCache(tmp_path / "rc1"))
    serve_forever(spool, manager, once=True, poll=0.02)
    spool_payloads = spool_t.results(sid, timeout=10)
    # socket side (fresh cache: genuinely recomputed)
    with JobManager(workers=2,
                    cache=ResultCache(tmp_path / "rc2")) as mgr:
        with ServiceServer(mgr) as server:
            with connect(server.host, server.port) as client:
                nid = client.submit(spec)
                net_payloads = list(client.stream(nid))
    assert sorted(spool_payloads) == sorted(net_payloads)


def test_spool_transport_cancel_queued_job(tmp_path):
    transport = open_spool(tmp_path / "sp")
    job_id = transport.submit(_spec())
    assert transport.cancel(job_id) is True
    assert transport.status(job_id)["status"] == "cancelled"
    # nothing left for a server to claim
    assert Spool(tmp_path / "sp").pending() == []


def test_spool_transport_cancel_claimed_job(tmp_path):
    spool = Spool(tmp_path / "sp")
    transport = open_spool(tmp_path / "sp")
    # a job big enough to still be running when the cancel lands
    job_id = transport.submit(_spec(
        points=(("uniproc", "R1", "single", 1),),
        measure=4_000_000, warmup=0))
    manager = JobManager(workers=1)
    server = threading.Thread(
        target=serve_forever, args=(spool, manager),
        kwargs={"once": True, "poll": 0.02})
    server.start()
    try:
        cancelled = transport.cancel(job_id, timeout=60.0)
    finally:
        server.join(timeout=120)
    assert cancelled is True
    assert transport.status(job_id)["status"] == "cancelled"


def test_unknown_job_id_raises_key_error(tmp_path):
    transport = open_spool(tmp_path / "sp")
    with pytest.raises(KeyError):
        transport.status("sj-99999")


# -- CLI: transports and the spool directory ------------------------------

@pytest.mark.parametrize("verb", ["submit", "serve"])
def test_cli_positional_spool_rejected(verb, tmp_path, monkeypatch, capsys):
    """``submit <dir>`` would otherwise queue into the default spool."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
    with pytest.raises(SystemExit) as exc:
        cli_main([verb, "sp", "--warmup", "1000", "--measure", "6000",
                  "--points", "uniproc:R1:single:1"])
    assert exc.value.code == 2
    assert "--spool" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_jobs_job_id_is_not_mistaken_for_a_spool(tmp_path, capsys):
    spool_dir = str(tmp_path / "sp")
    cli_main(["submit", "--spool", spool_dir,
              "--warmup", "1000", "--measure", "6000",
              "--points", "uniproc:R1:single:1"])
    job_id = capsys.readouterr().out.strip()
    assert cli_main(["jobs", job_id, "--spool", spool_dir]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "queued"


def test_cli_submit_with_idempotency_key(tmp_path, capsys):
    spool_dir = str(tmp_path / "sp")
    argv = ["submit", "--spool", spool_dir,
            "--warmup", "1000", "--measure", "6000",
            "--points", "uniproc:R1:single:1",
            "--idempotency-key", "ci-rerun-7"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out.strip()
    assert cli_main(list(argv)) == 0
    assert capsys.readouterr().out.strip() == first
    assert len(Spool(spool_dir).pending()) == 1
