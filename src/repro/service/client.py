"""ServiceClient: the client API of the job service.

A synchronous, reconnecting client for :mod:`repro.service.net`.  It
speaks the newline-delimited JSON protocol over one TCP connection;
the CLI's ``submit --connect`` / ``jobs --connect`` verbs and user code
(through :func:`repro.service.connect`) both drive it:

* **Timeouts** — ``connect_timeout`` bounds each TCP connect plus the
  hello handshake; ``request_timeout`` bounds each request/response
  round trip; ``stream_timeout`` bounds the gap between consecutive
  stream frames (a point may take arbitrarily long to *compute*, so
  this is deliberately the loosest bound).
* **Reconnect** — a failed connect or a dropped connection is retried
  with exponential backoff (``backoff * 2**attempt``), up to
  ``retries`` times per operation.
* **Resumable streaming** — :meth:`stream` tracks the index of the
  next payload it owes the caller; when the connection drops mid-
  stream it reconnects and re-issues the stream with ``from_index`` set
  to that index, so the server replays exactly the missing suffix —
  no lost points, no duplicates, byte-identical bytes.
* **Idempotent submit** — :meth:`submit` attaches a generated
  idempotency key (callers may pass their own), so a retried submit
  whose first response was swallowed by the network returns the
  existing job id instead of queueing the work twice.
"""

import socket
import time
import uuid

from repro.service.jobs import COMPLETED
from repro.service.manager import ServiceError
from repro.service.net import (PROTO_VERSION, MAX_FRAME, ProtocolError,
                               encode_frame, decode_frame)

#: Errors that mean "the connection is gone, reconnect and retry".
_NET_ERRORS = (ConnectionError, BrokenPipeError, socket.timeout,
               TimeoutError, OSError)


class ServiceClient:
    """One server address, one (lazily opened, auto-healing) connection.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, host, port, connect_timeout=5.0,
                 request_timeout=120.0, stream_timeout=600.0,
                 retries=3, backoff=0.2, max_frame=MAX_FRAME):
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.stream_timeout = stream_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_frame = max_frame
        self._sock = None
        self._file = None
        self._ids = 0
        self.server_hello = None

    # -- connection --------------------------------------------------------

    def _connect_once(self):
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        try:
            file = sock.makefile("rb")
            hello = self._read_frame_raw(file)
            if (hello.get("type") != "hello"
                    or hello.get("proto") != PROTO_VERSION):
                raise ProtocolError(
                    "server is not a proto-%d repro service: %r"
                    % (PROTO_VERSION, hello))
            sock.sendall(encode_frame({"type": "hello",
                                       "proto": PROTO_VERSION,
                                       "client": "repro-client"}))
        except BaseException:
            sock.close()
            raise
        self._sock, self._file = sock, file
        self.server_hello = hello

    def _ensure_connection(self):
        if self._sock is not None:
            return
        last = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                self._connect_once()
                return
            except _NET_ERRORS as exc:
                last = exc
        raise ServiceError(
            "cannot connect to %s:%d after %d attempt(s): %s"
            % (self.host, self.port, self.retries + 1, last))

    def _drop_connection(self):
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = self._file = None

    def close(self):
        self._drop_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- framing -----------------------------------------------------------

    def _read_frame_raw(self, file):
        line = file.readline(self.max_frame + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > self.max_frame:
            raise ProtocolError("server frame exceeds %d bytes"
                               % self.max_frame)
        return decode_frame(line)

    def _send_frame(self, obj):
        self._sock.sendall(encode_frame(obj))

    def _read_frame(self, timeout):
        self._sock.settimeout(timeout)
        return self._read_frame_raw(self._file)

    # -- request/response --------------------------------------------------

    def _request(self, verb, _timeout=None, **params):
        """One round trip, with reconnect-and-retry on network failure.

        Only network failures are retried; an ``ok: false`` *response*
        is a server-side verdict (bad spec, unknown job, ...) and
        raises :class:`ServiceError` immediately.  ``_timeout``
        overrides the per-round-trip socket bound (``params`` are the
        wire fields, so the name avoids colliding with a verb's own
        ``timeout`` parameter).
        """
        timeout = self.request_timeout if _timeout is None else _timeout
        last = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                self._ensure_connection()
                self._ids += 1
                rid = self._ids
                request = dict(params)
                request["id"] = rid
                request["verb"] = verb
                self._sock.settimeout(timeout)
                self._send_frame(request)
                response = self._read_frame(timeout)
                if response.get("id") != rid:
                    raise ProtocolError("response id %r != request id %r"
                                        % (response.get("id"), rid))
                if not response.get("ok"):
                    raise ServiceError(response.get("error",
                                                    "request failed"))
                return response
            except _NET_ERRORS as exc:
                last = exc
                self._drop_connection()
            except ServiceError:
                raise
        raise ServiceError("%s request to %s:%d failed after %d "
                           "attempt(s): %s" % (verb, self.host, self.port,
                                               self.retries + 1, last))

    # -- client API --------------------------------------------------------

    def submit(self, spec, idempotency_key=None):
        """Submit a :class:`JobSpec` (or its dict form); returns job id.

        Every submit carries an idempotency key (generated when the
        caller does not supply one), so the request-level retry above
        can never duplicate a job: a retried submit whose original
        reached the server returns the original job id.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
        key = idempotency_key or uuid.uuid4().hex
        response = self._request("submit", spec=payload,
                                 idempotency_key=key)
        return response["job_id"]

    def status(self, job_id):
        return self._request("status", job_id=job_id)["status"]

    def results(self, job_id, timeout=None):
        """Block until the job is terminal; returns its payload list."""
        wire_timeout = (timeout + 10.0 if timeout is not None
                        else max(self.stream_timeout,
                                 self.request_timeout))
        response = self._request("results", _timeout=wire_timeout,
                                 job_id=job_id, wait=True,
                                 **({"timeout": timeout}
                                    if timeout is not None else {}))
        return list(response["payloads"])

    def payloads(self, job_id, from_index=0):
        """Non-blocking: payloads produced so far, from ``from_index``."""
        response = self._request("results", job_id=job_id, wait=False,
                                 from_index=from_index)
        return list(response["payloads"])

    def stream(self, job_id, from_index=0):
        """Yield payloads in completion order, resuming across drops.

        A dropped connection mid-stream reconnects with backoff and
        re-issues the stream from the next index still owed, so the
        caller sees every payload exactly once.  Raises
        :class:`ServiceError` when the job ends in a non-completed
        state (after yielding whatever completed first).
        """
        index = from_index
        attempt = 0
        while True:
            try:
                for frame in self._stream_once(job_id, index):
                    if frame.get("type") == "point":
                        if frame["index"] < index:
                            continue       # replayed overlap: drop dup
                        if frame["index"] > index:
                            raise ProtocolError(
                                "stream gap: expected index %d, got %d"
                                % (index, frame["index"]))
                        index += 1
                        attempt = 0        # progress resets the budget
                        yield frame["payload"]
                    else:                  # "end"
                        status = frame["status"]
                        if status["status"] != COMPLETED:
                            raise ServiceError(
                                "job %s %s%s"
                                % (job_id, status["status"],
                                   ": %s" % status["error"]
                                   if status.get("error") else ""))
                        return
            except _NET_ERRORS as exc:
                self._drop_connection()
                attempt += 1
                if attempt > self.retries:
                    raise ServiceError(
                        "stream of %s dropped %d time(s) without "
                        "progress: %s" % (job_id, attempt, exc))
                time.sleep(self.backoff * (2 ** (attempt - 1)))

    def _stream_once(self, job_id, from_index):
        """One stream attempt on one connection; yields raw frames."""
        self._ensure_connection()
        self._ids += 1
        rid = self._ids
        self._sock.settimeout(self.request_timeout)
        self._send_frame({"id": rid, "verb": "stream", "job_id": job_id,
                          "from_index": from_index})
        while True:
            frame = self._read_frame(self.stream_timeout)
            if frame.get("id") != rid:
                raise ProtocolError("stream frame for id %r, expected %r"
                                    % (frame.get("id"), rid))
            if not frame.get("type") and not frame.get("ok", True):
                raise ServiceError(frame.get("error", "stream refused"))
            yield frame
            if frame.get("type") == "end":
                return

    def cancel(self, job_id):
        return bool(self._request("cancel",
                                  job_id=job_id)["cancelled"])

    def jobs(self):
        return list(self._request("jobs")["jobs"])

    def stats(self):
        """Server-side metrics (connections, requests, bytes, resumes)."""
        return self._request("stats")["stats"]


__all__ = ["ServiceClient"]
