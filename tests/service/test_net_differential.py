"""Network differential: the TCP transport must be invisible.

Submits the full 7-workload uniprocessor matrix over a real socket and
asserts the streamed payloads are byte-identical to the serial
``Simulation`` facade computing the same points — the interleaving-
independence argument extended across a network hop.  Also drives the
CLI end-to-end: a ``serve --listen`` server in one thread, ``submit
--connect --stream`` as a filesystem-free client in another.
"""

import json

import pytest

from repro.api import Simulation
from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as cli_main
from repro.service import JobManager, JobSpec, connect
from repro.service.net import ServiceServer
from repro.workloads.uniprocessor import WORKLOAD_ORDER

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)
WARMUP, MEASURE = 1_000, 6_000

#: One point per workload: the full 7-workload matrix, alternating
#: schemes/context counts so both code paths are exercised.
MATRIX = tuple(
    ("uniproc", name, ("interleaved" if i % 2 else "single"),
     (2 if i % 2 else 1))
    for i, name in enumerate(WORKLOAD_ORDER))


def _serial_payloads(points):
    out = {}
    for _, name, scheme, n in points:
        result = Simulation.from_config(
            FAST, scheme=scheme, n_contexts=n, seed=1994,
            engine="burst").load(name).run(warmup=WARMUP,
                                           measure=MEASURE)
        out[(name, scheme, n)] = result.to_json()
    return out


def _by_point(payloads):
    out = {}
    for p in payloads:
        d = json.loads(p)
        out[(d["workload"], d["scheme"], d["n_contexts"])] = p
    return out


def test_full_matrix_over_socket_matches_serial(tmp_path):
    spec = JobSpec(points=MATRIX, config=FAST, mp_params=MPP,
                   warmup=WARMUP, measure=MEASURE)
    with JobManager(workers=4, cache=ResultCache(tmp_path / "rc")) as mgr:
        with ServiceServer(mgr) as server:
            with connect(server.host, server.port) as client:
                job_id = client.submit(spec)
                streamed = list(client.stream(job_id))
                status = client.status(job_id)
    assert status["status"] == "completed"
    assert status["completed"] == len(MATRIX)
    assert _by_point(streamed) == _serial_payloads(MATRIX)


def test_stream_resume_midway_is_byte_identical(tmp_path):
    """Disconnect after a prefix, resume with ``from_index``; the
    stitched stream equals the uninterrupted one byte for byte."""
    spec = JobSpec(points=MATRIX[:4], config=FAST, mp_params=MPP,
                   warmup=WARMUP, measure=MEASURE)
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        with ServiceServer(mgr) as server:
            with connect(server.host, server.port) as first:
                job_id = first.submit(spec)
                stream = first.stream(job_id)
                prefix = [next(stream), next(stream)]
                first.close()              # drop mid-stream, on purpose
            with connect(server.host, server.port) as second:
                suffix = list(second.stream(job_id, from_index=2))
            whole = mgr.results(job_id, timeout=240)
    assert prefix + suffix == whole
    assert len(set(prefix + suffix)) == len(MATRIX[:4])


def test_cli_socket_round_trip(cli_server, capsys):
    """``submit --connect --stream`` against a ``serve --listen``
    server streams payloads byte-identical to the serial facade, with
    the client forbidden filesystem access to the server's state; a
    bad ``--points`` value is refused before the client connects."""
    addr = cli_server.address
    rc = cli_main(["submit", "--connect", addr, "--stream",
                   "--warmup", str(WARMUP), "--measure", str(MEASURE),
                   "--points",
                   "uniproc:R1:single:1,uniproc:R1:interleaved:2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = lines[1:]
    assert len(payloads) == 2
    serial = _serial_payloads((("uniproc", "R1", "single", 1),
                               ("uniproc", "R1", "interleaved", 2)))
    assert _by_point(payloads) == serial

    with connect(addr) as probe:
        before = probe.stats()["connections"]
        with pytest.raises(SystemExit) as exc:
            cli_main(["submit", "--connect", addr,
                      "--points", "uniproc:R1:single"])
        assert "uniproc:R1:single" in str(exc.value.code)
        assert probe.stats()["connections"] == before
