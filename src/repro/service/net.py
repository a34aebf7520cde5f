"""The service wire: a threaded TCP front end over the job manager.

The paper hides long memory latencies behind ready contexts; the
service layer does the same at the job level.  A :class:`ServiceServer`
listens on a TCP socket and fronts one
:class:`~repro.service.manager.JobManager` with a newline-delimited
JSON protocol (a spec travels in its
:meth:`~repro.service.jobs.JobSpec.to_dict` form):

* **Framing** — one JSON object per ``\\n``-terminated line, UTF-8,
  at most :data:`MAX_FRAME` bytes.  An overlong line cannot be resynced
  (the frame boundary is lost), so the server answers with an error
  frame and closes that connection; a syntactically bad line inside an
  intact frame is *parked* — the server answers ``ok: false`` and keeps
  the connection, so one garbage request cannot wedge a client's
  pipeline.
* **Handshake** — the server greets with a versioned ``hello`` frame;
  the client must answer with its own ``hello`` carrying a matching
  ``proto`` before any request is accepted.
* **Verbs** — ``submit`` / ``status`` / ``results`` / ``stream`` /
  ``cancel`` / ``jobs`` / ``stats``.  Responses echo the request's
  ``id``.  ``stream`` is the only multi-frame response: one ``point``
  frame per payload (in completion order, each tagged with its index)
  followed by a terminal ``end`` frame carrying the job's final status.
  ``from_index`` starts the stream mid-job, so a reconnecting client
  replays exactly the missing suffix — the interleaving-independence
  contract (payloads derive from point *states* via one pure function)
  makes the replayed bytes identical no matter how deliveries
  interleave.
* **Idempotency** — a ``submit`` may carry a client-chosen
  ``idempotency_key``; retrying the same submit (e.g. after a dropped
  connection swallowed the response) returns the existing job id
  instead of duplicating the work, even while the first submit is
  still being admitted.  A key lives as long as the manager keeps its
  job's record; after that, the same key submits a new job, which the
  result cache serves.
* **Threads** — one thread accepts, and each connection gets a daemon
  thread that calls the manager's blocking API directly; a stream
  waits in :meth:`~repro.service.manager.JobManager.wait_payloads`.
* **Robustness** — per-connection read timeouts bound half-open peers;
  every failure path increments a counter in :class:`ServerStats`,
  which the ``stats`` verb (and ``benchmarks/bench_service.py``)
  exposes.
"""

import json
import socket
import threading
import time

from repro.service import jobs as jobs_mod
from repro.service.jobs import JobSpec, COMPLETED
from repro.service import manager as manager_mod
from repro.service.manager import ServiceError

#: Wire protocol version, carried in both hello frames.
PROTO_VERSION = 1

#: Hard per-frame byte bound (a full sweep spec is ~2 KiB; the largest
#: payload frame is a few KiB — 1 MiB is paranoia, not headroom).
MAX_FRAME = 1 << 20

#: Default per-connection read timeout (seconds): how long the server
#: waits for the next complete request line before hanging up.
DEFAULT_READ_TIMEOUT = 600.0

#: Longest a closing connection reads what its peer still sends.
_DRAIN_SECONDS = 1.0

#: The verbs a connection may use after its hello.
VERBS = ("submit", "status", "results", "stream", "cancel", "jobs",
         "stats")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (bad JSON, bad verb, ...)."""


def encode_frame(obj):
    """One wire frame: compact JSON + newline, as bytes."""
    return (json.dumps(obj, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line):
    """Parse one received line; raises ProtocolError on garbage."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad frame: %s" % exc)
    if not isinstance(obj, dict):
        raise ProtocolError("bad frame: expected a JSON object, got %s"
                            % type(obj).__name__)
    return obj


class ServerStats:
    """Monotonic server counters, exposed through the ``stats`` verb."""

    FIELDS = ("connections", "connections_open", "requests", "errors",
              "bytes_in", "bytes_out", "streams", "resumes",
              "submits", "idempotent_hits", "frames_out")

    def __init__(self):
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add(self, name, n=1):
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def snapshot(self):
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


class ServiceServer:
    """TCP front end for one :class:`JobManager`.

    ``read_timeout`` bounds how long a connection may sit idle between
    requests; ``max_frame`` bounds one line.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`port` after ``start``).

    ``_stream_drop_after`` is fault injection for the resume tests: the
    first ``_stream_drop_times`` stream requests abort their connection
    after that many point frames, exactly what a mid-stream network
    drop looks like from the client's side.
    """

    def __init__(self, manager, host="127.0.0.1", port=0,
                 read_timeout=DEFAULT_READ_TIMEOUT, max_frame=MAX_FRAME,
                 _stream_drop_after=None, _stream_drop_times=0):
        self.manager = manager
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_frame = max_frame
        self.stats = ServerStats()
        self._idempotency = {}         # key -> job id; None while admitted
        self._keys = threading.Condition()     # guards _idempotency
        self._listener = None
        self._thread = None
        self._lock = threading.Lock()  # guards _conns
        self._conns = set()            # open connection sockets
        self._stream_drop_after = _stream_drop_after
        self._stream_drop_times = _stream_drop_times

    # -- lifecycle ---------------------------------------------------------

    def serve(self, max_seconds=None, ready=None):
        """Blocking entry point (the ``serve --listen`` CLI verb).

        ``ready``, if given, is called with the server once the socket
        is bound (so callers can report the resolved port).  Returns
        after ``max_seconds`` or once :meth:`stop` is called, with every
        open connection shut down; a connection still waiting in the
        manager (a stream whose next point is computing) ends when that
        wait does.
        """
        family, _type, _proto, _name, address = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        listener = socket.create_server(address, family=family)
        self.port = listener.getsockname()[1]
        self._listener = listener
        deadline = (None if max_seconds is None
                    else time.monotonic() + max_seconds)
        try:
            if ready is not None:      # stop() works from here on
                ready(self)
            while self._listener is listener:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    listener.settimeout(remaining)
                try:
                    conn, _peer = listener.accept()
                except socket.timeout:
                    break
                except OSError:
                    continue           # stop() shut the listener down
                with self._lock:
                    self._conns.add(conn)
                threading.Thread(target=self._serve_connection,
                                 args=(conn,), name="repro-service-conn",
                                 daemon=True).start()
        finally:
            self._listener = None
            listener.close()
            with self._lock:
                for conn in self._conns:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    def start(self):
        """Run the server on a background thread; returns (host, port).

        :meth:`stop` shuts it down.  This is the embedding used by the
        tests, the benchmarks and the context-manager form; ``serve
        --listen`` calls :meth:`serve` directly.
        """
        bound = threading.Event()
        def _ready(_server):
            bound.set()
        self._thread = threading.Thread(
            target=self.serve, kwargs={"ready": _ready},
            name="repro-service-net", daemon=True)
        self._thread.start()
        if not bound.wait(timeout=10.0):
            raise RuntimeError("server failed to bind %s:%s"
                               % (self.host, self.port))
        return self.host, self.port

    def stop(self, timeout=10.0):
        """Stop a :meth:`start`/:meth:`serve` loop from any thread."""
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)    # wakes accept()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- connection handling -----------------------------------------------

    def _serve_connection(self, conn):
        self.stats.add("connections")
        self.stats.add("connections_open")
        # A frame leaves when it is written: a stream's end frame must
        # not wait for the acknowledgement of the batch before it.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(self.read_timeout)
        reader = conn.makefile("rb")
        try:
            self._send(conn, {
                "type": "hello", "server": "repro-service",
                "proto": PROTO_VERSION,
                "spec_schema": jobs_mod.SPEC_SCHEMA,
                "status_schema": jobs_mod.STATUS_SCHEMA,
            })
            if not self._expect_hello(reader, conn):
                return
            while True:
                line = self._read_line(reader, conn)
                if line is None:
                    return
                try:
                    request = decode_frame(line)
                except ProtocolError as exc:
                    # Frame boundary intact: park the request, keep
                    # the connection.
                    self.stats.add("errors")
                    self._send(conn, {"ok": False, "error": str(exc)})
                    continue
                self._dispatch(request, conn)
        except OSError:
            pass                       # the peer went away, or stop()
        finally:
            with self._lock:
                self._conns.discard(conn)
            self.stats.add("connections_open", -1)
            reader.close()
            _hang_up(conn)

    def _read_line(self, reader, conn):
        """One complete line, or None when the connection should end."""
        try:
            line = reader.readline(self.max_frame + 1)
        except socket.timeout:
            self.stats.add("errors")
            self._send(conn, {
                "ok": False, "error": "read timeout: no request within "
                "%.1f s" % self.read_timeout})
            return None
        if len(line) > self.max_frame:
            # The boundary is lost, so the stream cannot be resynced —
            # refuse and hang up.
            self.stats.add("errors")
            self._send(conn, {
                "ok": False,
                "error": "frame exceeds %d bytes" % self.max_frame})
            return None
        if not line:
            return None                # clean EOF
        self.stats.add("bytes_in", len(line))
        return line

    def _expect_hello(self, reader, conn):
        line = self._read_line(reader, conn)
        if line is None:
            return False
        try:
            hello = decode_frame(line)
        except ProtocolError as exc:
            self.stats.add("errors")
            self._send(conn, {"ok": False, "error": str(exc)})
            return False
        if (hello.get("type") != "hello"
                or hello.get("proto") != PROTO_VERSION):
            self.stats.add("errors")
            self._send(conn, {
                "ok": False,
                "error": "handshake must be a hello frame with proto "
                         "%d, got %r" % (PROTO_VERSION, hello)})
            return False
        return True

    def _send(self, conn, obj):
        conn.sendall(self._frame(obj))

    def _frame(self, obj):
        """One encoded frame, counted as sent."""
        data = encode_frame(obj)
        self.stats.add("bytes_out", len(data))
        self.stats.add("frames_out")
        return data

    # -- verbs -------------------------------------------------------------

    def _dispatch(self, request, conn):
        """Handle one request; a refused one gets an error frame."""
        self.stats.add("requests")
        rid = request.get("id")
        verb = request.get("verb")
        try:
            if verb not in VERBS:
                raise ProtocolError("unknown verb %r (expected one of "
                                    "%s)" % (verb, ", ".join(VERBS)))
            getattr(self, "_verb_" + verb)(request, conn, rid)
        except (ProtocolError, ServiceError, KeyError, ValueError,
                TypeError) as exc:
            self.stats.add("errors")
            self._send(conn, {
                "id": rid, "ok": False,
                "error": "%s: %s" % (type(exc).__name__, exc)})

    def _verb_submit(self, request, conn, rid):
        spec = JobSpec.from_dict(request["spec"])
        key = request.get("idempotency_key")
        self.stats.add("submits")
        if key is None:
            job_id, existing = self.manager.submit(spec), False
        else:
            job_id, existing = self._submit_once(key, spec)
        self._send(conn, {"id": rid, "ok": True, "job_id": job_id,
                          "existing": existing})

    def _submit_once(self, key, spec):
        """Submit ``spec`` under ``key``: (job id, whether it existed).

        The key is reserved (mapped to None) before admission, so a
        concurrent submit with the same key waits for this job id
        instead of admitting a second job; a failed admission frees the
        key again.
        """
        with self._keys:
            self._forget_evicted_keys(key)
            while key in self._idempotency:
                existing = self._idempotency[key]
                if existing is not None:
                    self.stats.add("idempotent_hits")
                    return existing, True
                self._keys.wait()
            self._idempotency[key] = None
        job_id = None
        try:
            job_id = self.manager.submit(spec)
        finally:
            with self._keys:
                if job_id is None:
                    del self._idempotency[key]
                else:
                    self._idempotency[key] = job_id
                self._keys.notify_all()
        return job_id, False

    def _forget_evicted_keys(self, key):
        """Drop idempotency keys whose job the manager has forgotten
        (``_keys`` held).

        ``key`` is checked on every submit that carries it.  The whole
        map is swept only once it outgrows twice the manager's bound on
        finished jobs, so the sweeps cost amortised O(1) per submit.
        """
        keys = [key]
        if len(self._idempotency) > 2 * manager_mod.MAX_FINISHED_JOBS:
            keys = list(self._idempotency)
        for k in keys:
            job_id = self._idempotency.get(k)
            if job_id is not None and not self.manager.knows(job_id):
                del self._idempotency[k]

    def _verb_status(self, request, conn, rid):
        self._send(conn, {"id": rid, "ok": True,
                          "status": self.manager.status(request["job_id"])})

    def _verb_results(self, request, conn, rid):
        job_id = request["job_id"]
        if request.get("wait", True):
            payloads = self.manager.results(job_id, request.get("timeout"))
        else:
            payloads = self.manager.wait_payloads(
                job_id, int(request.get("from_index", 0)), timeout=0)
        self._send(conn, {"id": rid, "ok": True, "payloads": payloads})

    def _verb_stream(self, request, conn, rid):
        job_id = request["job_id"]
        index = int(request.get("from_index", 0))
        # An unknown job raises KeyError here, before any frame.
        ready = self.manager.wait_payloads(job_id, index)
        self.stats.add("streams")
        if index > 0:
            self.stats.add("resumes")
        sent = 0
        while ready:
            # Every payload that exists goes out in one write.
            batch = []
            for payload in ready:
                if self._drop_due(sent):
                    conn.sendall(b"".join(batch))
                    raise _InjectedDrop()
                batch.append(self._frame({"id": rid, "type": "point",
                                          "index": index,
                                          "payload": payload}))
                index += 1
                sent += 1
            conn.sendall(b"".join(batch))
            ready = self.manager.wait_payloads(job_id, index)
        status = self.manager.status(job_id)
        self._send(conn, {"id": rid, "type": "end",
                          "ok": status["status"] == COMPLETED,
                          "status": status})

    def _drop_due(self, sent):
        """Fault injection: whether the stream drops its connection now,
        with ``sent`` point frames out (``_stream_drop_after=0`` drops
        before any progress, exercising the client's retry-budget
        exhaustion)."""
        if (self._stream_drop_times > 0
                and self._stream_drop_after is not None
                and sent >= self._stream_drop_after):
            self._stream_drop_times -= 1
            return True
        return False

    def _verb_cancel(self, request, conn, rid):
        self._send(conn, {"id": rid, "ok": True,
                          "cancelled": self.manager.cancel(
                              request["job_id"])})

    def _verb_jobs(self, request, conn, rid):
        self._send(conn, {"id": rid, "ok": True,
                          "jobs": self.manager.jobs()})

    def _verb_stats(self, request, conn, rid):
        snapshot = self.stats.snapshot()
        snapshot["proto"] = PROTO_VERSION
        snapshot["jobs"] = len(self.manager.jobs())
        self._send(conn, {"id": rid, "ok": True, "stats": snapshot})


class _InjectedDrop(ConnectionResetError):
    """Internal: the fault-injection hook aborted a stream."""


def _hang_up(conn):
    """Close ``conn`` without a reset.

    Closing a socket with unread input sends a reset, which can destroy
    the last frame before the peer reads it (the error frame refusing
    an oversized request, say).  So half-close first, and read what the
    peer still sends for at most ``_DRAIN_SECONDS``.
    """
    try:
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(_DRAIN_SECONDS)
        deadline = time.monotonic() + _DRAIN_SECONDS
        while conn.recv(1 << 16) and time.monotonic() < deadline:
            pass
    except OSError:
        pass
    conn.close()


def parse_address(text, default_host="127.0.0.1"):
    """``HOST:PORT`` / ``[HOST]:PORT`` / ``:PORT`` / ``PORT`` -> (host, port).

    One pair of brackets around HOST is stripped, so an IPv6 literal
    reads ``"[::1]:7994"`` -> ``("::1", 7994)``.  Raises ValueError
    unless PORT is an integer in 0-65535 (the socket layer would
    otherwise wrap a larger one silently) and any bracket in HOST is
    one pair around all of it.
    """
    text = str(text).strip()
    if ":" in text:
        host, _, port = text.rpartition(":")
        host = host or default_host
    else:
        host, port = default_host, text
    if not port.isdecimal() or int(port) > 65535:
        raise ValueError("bad address %r (expected HOST:PORT with PORT "
                         "in 0-65535)" % (text,))
    if "[" in host or "]" in host:
        inner = host[1:-1]
        if (host[0] != "[" or host[-1] != "]" or not inner
                or "[" in inner or "]" in inner):
            raise ValueError("bad address %r (expected [HOST]:PORT with "
                             "one pair of brackets)" % (text,))
        host = inner
    return host, int(port)


__all__ = ["ServiceServer", "ServerStats", "ProtocolError",
           "parse_address", "encode_frame", "decode_frame",
           "PROTO_VERSION", "MAX_FRAME", "VERBS"]
