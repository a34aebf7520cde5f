"""The TCP transport: protocol, robustness, resume, and concurrency.

Covers the wire layer end to end against a live ``ServiceServer`` on
an ephemeral port: handshake versioning, every verb, idempotent
submits, resumable streams (including a server-injected mid-stream
connection drop), protocol fuzzing (garbage JSON, truncated and
oversized frames, wrong schema versions — the server must park the
request and stay up), per-connection read timeouts, and the metrics
the ``stats`` verb exposes.
"""

import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.cache import ResultCache
from repro.service import (JobManager, JobSpec, JobStatus, ServiceError,
                           connect)
from repro.service import manager as manager_mod
from repro.service.net import (PROTO_VERSION, ServiceServer,
                               encode_frame, parse_address)

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)

UNIPROC_2PT = (("uniproc", "R1", "single", 1),
               ("uniproc", "R1", "interleaved", 2))
UNIPROC_3PT = UNIPROC_2PT + (("uniproc", "R1", "interleaved", 4),)


def _spec(points=UNIPROC_2PT, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    kwargs.setdefault("warmup", 1_000)
    kwargs.setdefault("measure", 6_000)
    return JobSpec(points=points, **kwargs)


@pytest.fixture
def manager(tmp_path):
    with JobManager(workers=2,
                    cache=ResultCache(tmp_path / "rc")) as mgr:
        yield mgr


@pytest.fixture
def server(manager):
    with ServiceServer(manager) as srv:
        yield srv


@pytest.fixture
def client(server):
    with connect(server.host, server.port, backoff=0.05) as c:
        yield c


def _raw_connection(server, do_hello=True):
    """A bare socket past (or up to) the handshake, plus its reader."""
    sock = socket.create_connection((server.host, server.port),
                                    timeout=10.0)
    file = sock.makefile("rb")
    hello = json.loads(file.readline())
    if do_hello:
        sock.sendall(encode_frame({"type": "hello",
                                   "proto": PROTO_VERSION}))
    return sock, file, hello


# -- handshake ------------------------------------------------------------

def test_server_greets_with_versioned_hello(server):
    sock, file, hello = _raw_connection(server, do_hello=False)
    assert hello["type"] == "hello"
    assert hello["proto"] == PROTO_VERSION
    assert hello["server"] == "repro-service"
    assert hello["spec_schema"] == 1
    sock.close()


def test_wrong_proto_hello_is_rejected(server):
    sock, file, _hello = _raw_connection(server, do_hello=False)
    sock.sendall(encode_frame({"type": "hello", "proto": 999}))
    response = json.loads(file.readline())
    assert response["ok"] is False
    assert "hello" in response["error"]
    assert file.readline() == b""      # server hung up
    sock.close()


def test_request_before_hello_is_rejected(server):
    sock, file, _hello = _raw_connection(server, do_hello=False)
    sock.sendall(encode_frame({"id": 1, "verb": "jobs"}))
    response = json.loads(file.readline())
    assert response["ok"] is False
    sock.close()


def test_client_rejects_non_service_server():
    # A server that speaks the wrong protocol version entirely.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    probe.listen(1)
    host, port = probe.getsockname()

    def fake_server():
        conn, _ = probe.accept()
        conn.sendall(b'{"type":"hello","proto":999}\n')
        conn.recv(4096)
        conn.close()

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    with connect(host, port, retries=0) as c:
        with pytest.raises(Exception):
            c.jobs()
    probe.close()


# -- verbs ----------------------------------------------------------------

def test_submit_stream_results_round_trip(client):
    job_id = client.submit(_spec())
    payloads = list(client.stream(job_id))
    assert len(payloads) == 2
    status = client.status(job_id)
    assert status["status"] == JobStatus.COMPLETED
    assert status["schema_version"] == 1
    # results (blocking) returns the identical list
    assert client.results(job_id, timeout=120) == payloads
    # non-blocking suffix fetch
    assert client.payloads(job_id, from_index=1) == payloads[1:]
    jobs = client.jobs()
    assert [j["job_id"] for j in jobs] == [job_id]


def test_submit_is_idempotent_under_retry_key(client):
    job_id = client.submit(_spec(), idempotency_key="retry-1")
    again = client.submit(_spec(), idempotency_key="retry-1")
    assert again == job_id
    assert len(client.jobs()) == 1
    # a different key queues fresh work
    other = client.submit(_spec(), idempotency_key="retry-2")
    assert other != job_id
    stats = client.stats()
    assert stats["idempotent_hits"] == 1
    assert stats["submits"] == 3


def test_overlapping_submits_with_one_key_admit_one_job(manager, server,
                                                        monkeypatch):
    """Two submits carrying one key, the second arriving while the first
    is still being admitted, get one job id and one job."""
    real_submit = manager.submit

    def slow_submit(spec, **kwargs):
        time.sleep(0.3)
        return real_submit(spec, **kwargs)

    monkeypatch.setattr(manager, "submit", slow_submit)
    barrier = threading.Barrier(2)
    job_ids = []

    def submit():
        with connect(server.host, server.port) as client:
            client.stats()             # connected before the race starts
            barrier.wait(timeout=30)
            job_ids.append(client.submit(_spec(),
                                         idempotency_key="same-key"))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(job_ids) == 2 and job_ids[0] == job_ids[1]
    assert len(manager.jobs()) == 1


def test_failed_admission_frees_its_key(manager, server, monkeypatch):
    real_submit = manager.submit
    refusals = [ServiceError("admission refused")]

    def flaky_submit(spec, **kwargs):
        if refusals:
            raise refusals.pop()
        return real_submit(spec, **kwargs)

    monkeypatch.setattr(manager, "submit", flaky_submit)
    with connect(server.host, server.port) as client:
        with pytest.raises(ServiceError, match="admission refused"):
            client.submit(_spec(), idempotency_key="retry-me")
        job_id = client.submit(_spec(), idempotency_key="retry-me")
    assert [job["job_id"] for job in manager.jobs()] == [job_id]


def test_forgotten_job_frees_its_key(manager, server, monkeypatch):
    """Once the manager forgets a finished job, the server forgets its
    idempotency key: the key submits a new job, served from the cache."""
    monkeypatch.setattr(manager_mod, "MAX_FINISHED_JOBS", 2)
    with connect(server.host, server.port) as client:
        first = client.submit(_spec(), idempotency_key="key-0")
        client.results(first, timeout=240)
        for i in range(1, 7):
            last = client.submit(_spec(), idempotency_key="key-%d" % i)
            client.results(last, timeout=60)
            assert len(manager._jobs) <= 2
            assert len(server._idempotency) <= 2 * 2 + 1
        with pytest.raises(ServiceError, match="unknown job id"):
            client.status(first)
        assert client.submit(_spec(), idempotency_key="key-6") == last
        again = client.submit(_spec(), idempotency_key="key-0")
        assert again != first
        client.results(again, timeout=60)
        status = client.status(again)
    assert status["status"] == JobStatus.COMPLETED
    assert status["cache_hits"] == status["n_points"] == 2


def test_unknown_job_raises_service_error(client):
    with pytest.raises(ServiceError):
        client.status("job-9999")
    with pytest.raises(ServiceError):
        list(client.stream("job-9999"))
    with pytest.raises(ServiceError):
        client.cancel("job-9999")


def test_cancelled_job_stream_raises(manager, server):
    spec = _spec(points=(("uniproc", "R1", "single", 1),),
                 measure=4_000_000, warmup=0)
    with connect(server.host, server.port) as client:
        job_id = client.submit(spec)
        assert client.cancel(job_id) is True
        with pytest.raises(ServiceError, match="cancelled"):
            list(client.stream(job_id))


# -- resumable streaming --------------------------------------------------

def test_stream_from_index_replays_exact_suffix(client):
    job_id = client.submit(_spec(UNIPROC_3PT))
    payloads = list(client.stream(job_id))
    assert len(payloads) == 3
    assert list(client.stream(job_id, from_index=2)) == payloads[2:]
    assert list(client.stream(job_id, from_index=0)) == payloads


def test_stream_of_finished_job_writes_ready_frames_in_one_batch(
        manager, server, monkeypatch):
    """Payloads that already exist go out in one write: a stream of a
    finished job reads once for its points and once for its end."""
    job_id = manager.submit(_spec(UNIPROC_3PT))
    payloads = manager.results(job_id, timeout=240)
    reads = []
    real_read = manager.wait_payloads

    def spy(job, start=0, timeout=None):
        reads.append(start)
        return real_read(job, start, timeout=timeout)
    monkeypatch.setattr(manager, "wait_payloads", spy)
    sock, file, _hello = _raw_connection(server)
    sock.sendall(encode_frame({"id": 1, "verb": "stream",
                               "job_id": job_id}))
    frames = [json.loads(file.readline()) for _ in range(4)]
    sock.close()
    assert [f["type"] for f in frames] == ["point"] * 3 + ["end"]
    assert [f["index"] for f in frames[:3]] == [0, 1, 2]
    assert [f["payload"] for f in frames[:3]] == payloads
    assert frames[3]["ok"] is True
    assert reads == [0, 3]


def test_injected_drop_resumes_without_loss_or_duplication(tmp_path):
    """A mid-stream connection drop must replay exactly the missing
    suffix: every point once, bytes identical to an undropped stream."""
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        with ServiceServer(mgr, _stream_drop_after=1,
                           _stream_drop_times=1) as server:
            with connect(server.host, server.port,
                         backoff=0.05) as client:
                job_id = client.submit(_spec(UNIPROC_3PT))
                dropped = list(client.stream(job_id))
                stats = client.stats()
                clean = list(client.stream(job_id))
    assert dropped == clean
    assert len(dropped) == len(set(dropped)) == 3
    assert stats["resumes"] >= 1


def test_stream_gives_up_after_retry_budget(tmp_path):
    """Drops with zero progress burn the retry budget; the client must
    surface a ServiceError instead of spinning forever."""
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        with ServiceServer(mgr, _stream_drop_after=0,
                           _stream_drop_times=99) as server:
            with connect(server.host, server.port, retries=2,
                         backoff=0.01) as client:
                job_id = client.submit(_spec())
                client.results(job_id, timeout=240)
                with pytest.raises(ServiceError, match="dropped"):
                    list(client.stream(job_id))


# -- concurrency ----------------------------------------------------------

def test_two_concurrent_clients_stream_identical_results(tmp_path):
    """The CI socket smoke: two clients, one job each, interleaved
    streams; payload sets must match a third client's view and carry
    no duplicates."""
    results = {}
    errors = []
    with JobManager(workers=2, cache=ResultCache(tmp_path / "rc")) as mgr:
        with ServiceServer(mgr) as server:
            def run(name):
                try:
                    with connect(server.host, server.port) as c:
                        job = c.submit(_spec())
                        results[name] = (job, list(c.stream(job)))
                except Exception as exc:       # pragma: no cover
                    errors.append((name, exc))
            threads = [threading.Thread(target=run, args=("c%d" % i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors
            (job_a, pay_a), (job_b, pay_b) = (results["c0"],
                                              results["c1"])
            stats = server.stats.snapshot()
    assert job_a != job_b
    # both ran the same points: payload *sets* agree byte-for-byte
    assert sorted(pay_a) == sorted(pay_b)
    assert len(pay_a) == len(set(pay_a)) == 2
    assert stats["connections"] >= 2
    assert stats["streams"] >= 2


@pytest.mark.parametrize("ending", ["stop", "max_seconds"])
def test_server_ends_while_a_stream_waits(ending):
    """``stop()`` and ``serve(max_seconds=...)`` end the server on time
    while a client streams a job whose next point is still computing:
    the connection waiting on the manager does not hold the serving
    thread."""
    children = set(multiprocessing.active_children())
    spec = _spec(points=(("uniproc", "R1", "single", 1),), warmup=0,
                 measure=10 ** 9)
    with JobManager(workers=1) as mgr:
        server = ServiceServer(mgr)
        bound = threading.Event()
        max_seconds = 2.0 if ending == "max_seconds" else None
        serving = threading.Thread(
            target=server.serve, daemon=True,
            kwargs={"max_seconds": max_seconds,
                    "ready": lambda _srv: bound.set()})
        started = time.monotonic()
        serving.start()
        assert bound.wait(timeout=10)
        job_id = mgr.submit(spec)
        try:
            def stream():
                try:
                    with connect(server.host, server.port,
                                 retries=0) as client:
                        list(client.stream(job_id))
                except ServiceError:
                    pass
            threading.Thread(target=stream, daemon=True).start()
            while server.stats.snapshot()["requests"] < 1:
                assert time.monotonic() - started < 30
                time.sleep(0.01)
            time.sleep(0.2)            # the request reaches its wait
            assert mgr.status(job_id)["completed"] == 0
            if ending == "stop":
                due = time.monotonic()
                server.stop()
            else:
                due = started + max_seconds
            serving.join(timeout=10)
            assert not serving.is_alive()
            assert time.monotonic() - due < 2
        finally:
            mgr.cancel(job_id)
    assert set(multiprocessing.active_children()) <= children


# -- protocol fuzzing -----------------------------------------------------

def test_garbage_json_is_parked_and_connection_survives(server):
    sock, file, _hello = _raw_connection(server)
    sock.sendall(b"this is not json at all\n")
    response = json.loads(file.readline())
    assert response["ok"] is False
    assert "bad frame" in response["error"]
    # connection still usable
    sock.sendall(encode_frame({"id": 7, "verb": "jobs"}))
    response = json.loads(file.readline())
    assert response == {"id": 7, "jobs": [], "ok": True}
    sock.close()


def test_non_object_frame_is_parked(server):
    sock, file, _hello = _raw_connection(server)
    sock.sendall(b"[1,2,3]\n")
    response = json.loads(file.readline())
    assert response["ok"] is False
    assert "object" in response["error"]
    sock.close()


def test_unknown_verb_is_parked(server):
    sock, file, _hello = _raw_connection(server)
    sock.sendall(encode_frame({"id": 1, "verb": "explode"}))
    response = json.loads(file.readline())
    assert response["ok"] is False and response["id"] == 1
    assert "unknown verb" in response["error"]
    sock.close()


def test_wrong_spec_schema_version_is_parked(server):
    sock, file, _hello = _raw_connection(server)
    spec = _spec().to_dict()
    spec["schema_version"] = 999
    sock.sendall(encode_frame({"id": 1, "verb": "submit",
                               "spec": spec}))
    response = json.loads(file.readline())
    assert response["ok"] is False
    assert "schema_version" in response["error"]
    # the server is still up and serving this same connection
    sock.sendall(encode_frame({"id": 2, "verb": "stats"}))
    assert json.loads(file.readline())["ok"] is True
    sock.close()


def test_truncated_frame_then_disconnect_leaves_server_up(server):
    sock, _file, _hello = _raw_connection(server)
    sock.sendall(b'{"id": 1, "verb": "sub')    # no newline, then gone
    sock.close()
    # a fresh connection works fine
    sock2, file2, _ = _raw_connection(server)
    sock2.sendall(encode_frame({"id": 1, "verb": "jobs"}))
    assert json.loads(file2.readline())["ok"] is True
    sock2.close()


def test_oversized_frame_is_refused(manager):
    with ServiceServer(manager, max_frame=4096) as server:
        sock, file, _hello = _raw_connection(server)
        sock.sendall(b'{"pad": "' + b"x" * 8192 + b'"}\n')
        response = json.loads(file.readline())
        assert response["ok"] is False
        assert "exceeds" in response["error"]
        assert file.readline() == b""  # frame boundary lost: hang up
        sock.close()
        # server itself is unharmed
        sock2, file2, _ = _raw_connection(server)
        sock2.sendall(encode_frame({"id": 1, "verb": "stats"}))
        assert json.loads(file2.readline())["ok"] is True
        sock2.close()


def test_idle_connection_is_closed_after_read_timeout(manager):
    with ServiceServer(manager, read_timeout=0.2) as server:
        sock, file, _hello = _raw_connection(server)
        response = json.loads(file.readline())   # no request sent
        assert response["ok"] is False
        assert "timeout" in response["error"]
        assert file.readline() == b""
        sock.close()


# -- metrics --------------------------------------------------------------

def test_stats_verb_counts_traffic(client, server):
    job_id = client.submit(_spec())
    list(client.stream(job_id))
    stats = client.stats()
    assert stats["proto"] == PROTO_VERSION
    assert stats["connections"] >= 1
    assert stats["connections_open"] >= 1
    assert stats["requests"] >= 3
    assert stats["submits"] == 1
    assert stats["streams"] == 1
    assert stats["resumes"] == 0
    assert stats["bytes_in"] > 0
    assert stats["bytes_out"] > stats["bytes_in"]
    assert stats["jobs"] == 1
    assert server.stats.snapshot()["errors"] == 0


# -- addresses ------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("127.0.0.1:7994", ("127.0.0.1", 7994)),
    ("localhost:0", ("localhost", 0)),
    (":7994", ("127.0.0.1", 7994)),
    ("7994", ("127.0.0.1", 7994)),
    ("[::1]:7994", ("::1", 7994)),
    ("[fe80::1%eth0]:65535", ("fe80::1%eth0", 65535)),
])
def test_parse_address(text, expected):
    assert parse_address(text) == expected


@pytest.mark.parametrize("text", [
    "127.0.0.1:notaport", "127.0.0.1:70000", "127.0.0.1:", "[::1]",
    "[::1:7994", "::1]:7994", "[]:7994", "[[::1]]:7994",
])
def test_parse_address_rejects(text):
    with pytest.raises(ValueError, match="bad address"):
        parse_address(text)


def _has_ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _has_ipv6_loopback(),
                    reason="the host has no IPv6 loopback")
def test_bracketed_ipv6_literal_serves_and_connects(manager):
    host, port = parse_address("[::1]:0")
    with ServiceServer(manager, host=host, port=port) as srv:
        with connect("[::1]:%d" % srv.port, backoff=0.05) as client:
            job_id = client.submit(_spec(points=UNIPROC_2PT[:1]))
            payloads = list(client.stream(job_id))
    assert len(payloads) == 1
