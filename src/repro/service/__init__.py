"""Simulation-as-a-service: an async job front end over the sweep engine.

The batch pieces — :class:`~repro.experiments.sweep.SweepEngine` point
enumeration, the content-addressed
:class:`~repro.experiments.cache.ResultCache`, and the
:class:`~repro.api.Simulation` facade — compose here into a servable
system:

* :class:`JobSpec` describes one simulation/sweep job (points plus the
  exact context parameters the serial path would use, so results are
  bit-identical and cache entries are interchangeable with
  ``repro-experiments sweep``).
* :class:`JobManager` accepts jobs (``submit(spec) -> job_id``), shards
  their points across a pool of worker processes with read-through
  ``ResultCache`` lookups, and exposes ``status(job_id)`` /
  ``results(job_id)`` / ``cancel(job_id)`` plus a synchronous
  ``iter_results`` generator and the per-index ``payloads`` /
  ``wait_payload`` reads of per-point ``RunResult.to_json`` payloads.
  Worker death is retried with exponential backoff; jobs carry a
  wall-clock timeout; shutdown is graceful (computed points are
  flushed to the result cache; a cache hit is read and validated,
  never rewritten).
* **Transports** — clients talk to a serving process through one
  :class:`Transport` surface with two interchangeable implementations:
  :func:`open_spool` returns a
  :class:`~repro.service.spool.SpoolTransport` over a shared directory
  (the ``repro-experiments serve / submit / jobs`` default), and
  :func:`connect` returns a
  :class:`~repro.service.client.ServiceClient` speaking the
  newline-delimited JSON TCP protocol of :mod:`repro.service.net`
  (``serve --listen`` / ``submit --connect``) — no shared filesystem
  required, resumable streaming, idempotent submits.

The stable public surface is ``__all__`` below; everything else in the
submodules is implementation detail.
"""

from typing import Iterator, List, Protocol, runtime_checkable

from repro.service.jobs import (JobSpec, JobStatus, PENDING, RUNNING,
                                COMPLETED, FAILED, CANCELLED, TIMEOUT)
from repro.service.manager import JobManager, ServiceError


@runtime_checkable
class Transport(Protocol):
    """What a job-service client can do, independent of the wire.

    Implemented by :class:`~repro.service.spool.SpoolTransport`
    (shared-directory spool) and
    :class:`~repro.service.client.ServiceClient` (TCP) — CLI verbs and
    user code take any Transport and never name a transport class.

    Payload strings are ``RunResult.to_json`` renderings; the
    interleaving-independence contract says they are byte-identical to
    a serial run of the same points regardless of transport, ordering,
    retries, or resumption.
    """

    def submit(self, spec, idempotency_key=None) -> str:
        """Queue a job; returns its id.  Re-submitting with the same
        ``idempotency_key`` returns the existing id instead of
        duplicating the work."""
        ...

    def status(self, job_id) -> dict:
        """JSON-ready snapshot of one job's progress."""
        ...

    def results(self, job_id, timeout=None) -> List[str]:
        """Block until the job is terminal; returns its payloads.
        Raises :class:`ServiceError` unless it completed."""
        ...

    def payloads(self, job_id, from_index=0) -> List[str]:
        """Non-blocking: payloads produced so far, from ``from_index``."""
        ...

    def stream(self, job_id, from_index=0) -> Iterator[str]:
        """Yield payloads in completion order, starting at
        ``from_index`` (so a resumed stream replays exactly the
        missing suffix)."""
        ...

    def cancel(self, job_id) -> bool:
        """Stop a job; True when this call made it end cancelled."""
        ...

    def jobs(self) -> List[dict]:
        """Status snapshots of every known job."""
        ...

    def close(self) -> None:
        """Release the transport's resources (idempotent)."""
        ...


def connect(address, port=None, **kwargs):
    """A :class:`Transport` over TCP: ``connect("host:1994")`` or
    ``connect("host", 1994)``.  Keyword arguments go to
    :class:`~repro.service.client.ServiceClient` (timeouts, retries,
    backoff)."""
    from repro.service.client import ServiceClient
    if port is None:
        from repro.service.net import parse_address
        host, port = parse_address(address)
    else:
        host = address
    return ServiceClient(host, port, **kwargs)


def open_spool(root=None, **kwargs):
    """A :class:`Transport` over a shared spool directory (defaults to
    ``$REPRO_SPOOL_DIR`` or ``.repro_spool``)."""
    from repro.service.spool import SpoolTransport
    return SpoolTransport(root, **kwargs)


__all__ = [
    # the stable public surface
    "JobSpec", "JobStatus", "Transport", "connect", "open_spool",
    # managers and transports
    "JobManager", "ServiceError",
    # lifecycle states
    "PENDING", "RUNNING", "COMPLETED", "FAILED", "CANCELLED", "TIMEOUT",
]
