"""The service wire: an asyncio TCP front end over the job manager.

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
  still being admitted.
* **Robustness** — per-connection read timeouts bound half-open peers;
  every failure path increments a counter in :class:`ServerStats`,
  which the ``stats`` verb (and ``benchmarks/bench_service.py``)
  exposes.
"""

import asyncio
import json
import threading

from repro.service import jobs as jobs_mod
from repro.service.jobs import JobSpec, COMPLETED
from repro.service.manager import ServiceError

#: Wire protocol version, carried in both hello frames.
PROTO_VERSION = 1

#: Hard per-frame byte bound (a full sweep spec is ~2 KiB; the largest
#: payload frame is a few KiB — 1 MiB is paranoia, not headroom).
MAX_FRAME = 1 << 20

#: Default per-connection read timeout (seconds): how long the server
#: waits for the next complete request line before hanging up.
DEFAULT_READ_TIMEOUT = 600.0

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
        self._idempotency = {}         # key -> Future(job_id), loop-owned
        self._server = None
        self._loop = None
        self._thread = None
        self._stopped = None           # asyncio.Event, loop-owned
        self._conn_tasks = set()       # live _handle_connection tasks
        self._writers = set()          # their StreamWriters
        self._stream_drop_after = _stream_drop_after
        self._stream_drop_times = _stream_drop_times

    # -- lifecycle ---------------------------------------------------------

    async def aclose(self):
        """Stop listening, then drain the open connections cleanly.

        Aborting each open transport makes every blocked ``readline``
        return EOF, so the handler tasks finish on their own instead of
        being cancelled mid-await when the event loop tears down.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._conn_tasks:
            # A handler parked inside a blocking verb (stream of a
            # never-ending job) won't see the EOF; cancel those after
            # a short grace period — they catch the cancellation and
            # exit cleanly.
            done, pending = await asyncio.wait(list(self._conn_tasks),
                                               timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def serve(self, max_seconds=None, ready=None):
        """Blocking entry point (the ``serve --listen`` CLI verb).

        ``ready``, if given, is called with the server once the socket
        is bound (so callers can report the resolved port).
        """
        async def _main():
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=self.max_frame)
            self.port = self._server.sockets[0].getsockname()[1]
            self._loop = asyncio.get_running_loop()
            self._stopped = asyncio.Event()
            if ready is not None:      # stop() works from here on
                ready(self)
            try:
                if max_seconds is None:
                    await self._stopped.wait()
                else:
                    try:
                        await asyncio.wait_for(self._stopped.wait(),
                                               timeout=max_seconds)
                    except asyncio.TimeoutError:
                        pass
            finally:
                await self.aclose()
        asyncio.run(_main())

    def start(self):
        """Run the server on a background thread; returns (host, port).

        The thread owns a private event loop; :meth:`stop` shuts it
        down.  This is the embedding used by the tests, the benchmarks
        and the context-manager form; ``serve --listen`` calls
        :meth:`serve` directly.
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
        loop, stopped = self._loop, self._stopped
        if loop is not None and stopped is not None:
            try:
                loop.call_soon_threadsafe(stopped.set)
            except RuntimeError:
                pass                   # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer):
        self.stats.add("connections")
        self.stats.add("connections_open")
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            await self._send(writer, {
                "type": "hello", "server": "repro-service",
                "proto": PROTO_VERSION,
                "spec_schema": jobs_mod.SPEC_SCHEMA,
                "status_schema": jobs_mod.STATUS_SCHEMA,
            })
            if not await self._expect_hello(reader, writer):
                return
            while True:
                line = await self._read_line(reader, writer)
                if line is None:
                    return
                try:
                    request = decode_frame(line)
                except ProtocolError as exc:
                    # Frame boundary intact: park the request, keep
                    # the connection.
                    self.stats.add("errors")
                    await self._send(writer, {"ok": False,
                                              "error": str(exc)})
                    continue
                if not await self._dispatch(request, writer):
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass                       # peer went away mid-write
        except asyncio.CancelledError:
            return                     # event loop is tearing down
        finally:
            self._conn_tasks.discard(task)
            self._writers.discard(writer)
            self.stats.add("connections_open", -1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_line(self, reader, writer):
        """One complete line, or None when the connection should end."""
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.read_timeout)
        except asyncio.TimeoutError:
            self.stats.add("errors")
            await self._send(writer, {
                "ok": False, "error": "read timeout: no request within "
                "%.1f s" % self.read_timeout})
            return None
        except ValueError:
            # Line exceeded max_frame: the boundary is lost, so the
            # stream cannot be resynced — refuse and hang up.
            self.stats.add("errors")
            await self._send(writer, {
                "ok": False,
                "error": "frame exceeds %d bytes" % self.max_frame})
            return None
        if not line:
            return None                # clean EOF
        self.stats.add("bytes_in", len(line))
        return line

    async def _expect_hello(self, reader, writer):
        line = await self._read_line(reader, writer)
        if line is None:
            return False
        try:
            hello = decode_frame(line)
        except ProtocolError as exc:
            self.stats.add("errors")
            await self._send(writer, {"ok": False, "error": str(exc)})
            return False
        if (hello.get("type") != "hello"
                or hello.get("proto") != PROTO_VERSION):
            self.stats.add("errors")
            await self._send(writer, {
                "ok": False,
                "error": "handshake must be a hello frame with proto "
                         "%d, got %r" % (PROTO_VERSION, hello)})
            return False
        return True

    async def _send(self, writer, obj):
        self._write(writer, obj)
        await writer.drain()

    def _write(self, writer, obj):
        """Buffer one frame; the caller drains once per batch."""
        data = encode_frame(obj)
        writer.write(data)
        self.stats.add("bytes_out", len(data))
        self.stats.add("frames_out")

    # -- verbs -------------------------------------------------------------

    async def _dispatch(self, request, writer):
        """Handle one request; returns False to close the connection."""
        self.stats.add("requests")
        rid = request.get("id")
        verb = request.get("verb")
        try:
            if verb not in VERBS:
                raise ProtocolError("unknown verb %r (expected one of "
                                    "%s)" % (verb, ", ".join(VERBS)))
            handler = getattr(self, "_verb_" + verb)
            return await handler(request, writer, rid)
        except _InjectedDrop:
            raise ConnectionResetError("injected stream drop")
        except (ProtocolError, ServiceError, KeyError, ValueError,
                TypeError) as exc:
            self.stats.add("errors")
            await self._send(writer, {
                "id": rid, "ok": False,
                "error": "%s: %s" % (type(exc).__name__, exc)})
            return True

    async def _verb_submit(self, request, writer, rid):
        spec = JobSpec.from_dict(request["spec"])
        key = request.get("idempotency_key")
        self.stats.add("submits")
        # The key is reserved before admission yields the loop, so a
        # concurrent submit with the same key waits for this job id
        # instead of admitting a second job.  A reservation resolves to
        # None when its admission failed; the key is free again then.
        while key is not None and key in self._idempotency:
            existing = await asyncio.shield(self._idempotency[key])
            if existing is not None:
                self.stats.add("idempotent_hits")
                await self._send(writer, {"id": rid, "ok": True,
                                          "job_id": existing,
                                          "existing": True})
                return True
        reserved = None
        if key is not None:
            reserved = asyncio.get_running_loop().create_future()
            self._idempotency[key] = reserved
        try:
            job_id = await asyncio.to_thread(self.manager.submit, spec)
        except BaseException:
            if reserved is not None:
                del self._idempotency[key]
                reserved.set_result(None)
            raise
        if reserved is not None:
            reserved.set_result(job_id)
        await self._send(writer, {"id": rid, "ok": True,
                                  "job_id": job_id, "existing": False})
        return True

    async def _verb_status(self, request, writer, rid):
        status = await asyncio.to_thread(self.manager.status,
                                         request["job_id"])
        await self._send(writer, {"id": rid, "ok": True,
                                  "status": status})
        return True

    async def _verb_results(self, request, writer, rid):
        job_id = request["job_id"]
        if request.get("wait", True):
            payloads = await asyncio.to_thread(
                self.manager.results, job_id, request.get("timeout"))
        else:
            payloads = await asyncio.to_thread(
                self.manager.payloads, job_id,
                int(request.get("from_index", 0)))
        await self._send(writer, {"id": rid, "ok": True,
                                  "payloads": payloads})
        return True

    async def _verb_stream(self, request, writer, rid):
        job_id = request["job_id"]
        index = int(request.get("from_index", 0))
        self.manager.status(job_id)    # KeyError now, not mid-stream
        self.stats.add("streams")
        if index > 0:
            self.stats.add("resumes")
        sent = 0
        while True:
            # Every payload that already exists goes out in one batch
            # with one drain; only a payload still to come needs the
            # blocking wait, and so a thread.
            ready = self.manager.payloads(job_id, index)
            if not ready:
                await self._maybe_inject_drop(sent, writer)
                payload = await asyncio.to_thread(
                    self.manager.wait_payload, job_id, index)
                if payload is None:
                    break
                ready = [payload]
            for payload in ready:
                await self._maybe_inject_drop(sent, writer)
                self._write(writer, {"id": rid, "type": "point",
                                     "index": index, "payload": payload})
                index += 1
                sent += 1
            await writer.drain()
        status = self.manager.status(job_id)
        await self._send(writer, {"id": rid, "type": "end",
                                  "ok": status["status"] == COMPLETED,
                                  "status": status})
        return True

    async def _maybe_inject_drop(self, sent, writer):
        """Fault injection: abort the connection once ``sent`` point
        frames have gone out (``_stream_drop_after=0`` drops before any
        progress, exercising the client's retry-budget exhaustion).
        The frames already buffered are drained first, so exactly
        ``sent`` of them leave before the drop."""
        if (self._stream_drop_times > 0
                and self._stream_drop_after is not None
                and sent >= self._stream_drop_after):
            self._stream_drop_times -= 1
            await writer.drain()
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise _InjectedDrop()

    async def _verb_cancel(self, request, writer, rid):
        cancelled = await asyncio.to_thread(self.manager.cancel,
                                            request["job_id"])
        await self._send(writer, {"id": rid, "ok": True,
                                  "cancelled": cancelled})
        return True

    async def _verb_jobs(self, request, writer, rid):
        await self._send(writer, {"id": rid, "ok": True,
                                  "jobs": self.manager.jobs()})
        return True

    async def _verb_stats(self, request, writer, rid):
        snapshot = self.stats.snapshot()
        snapshot["proto"] = PROTO_VERSION
        snapshot["jobs"] = len(self.manager.jobs())
        await self._send(writer, {"id": rid, "ok": True,
                                  "stats": snapshot})
        return True


class _InjectedDrop(Exception):
    """Internal: the fault-injection hook aborted a stream."""


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
