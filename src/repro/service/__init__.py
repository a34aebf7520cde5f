"""Simulation-as-a-service: a job front end over the sweep engine.

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
  ``iter_results`` generator and ``wait_payloads``, the blocking batch
  read of per-point ``RunResult.to_json`` payloads.
  Worker death is retried with exponential backoff; jobs carry a
  wall-clock timeout; shutdown is graceful (computed points are
  flushed to the result cache; a cache hit is read and validated,
  never rewritten).
* **The wire** — :func:`connect` returns a
  :class:`~repro.service.client.ServiceClient`, which speaks the
  newline-delimited JSON TCP protocol of :mod:`repro.service.net` to a
  ``repro-experiments serve --listen`` process (``submit --connect`` /
  ``jobs --connect`` on the command line): resumable streaming,
  idempotent submits, no shared filesystem, one thread per
  connection.  Job records live in the
  serving process; completed points persist in the result cache.

The stable public surface is ``__all__`` below; everything else in the
submodules is implementation detail.
"""

from repro.service.jobs import (JobSpec, JobStatus, PENDING, RUNNING,
                                COMPLETED, FAILED, CANCELLED, TIMEOUT)
from repro.service.manager import JobManager, ServiceError


def connect(address, port=None, **kwargs):
    """A :class:`~repro.service.client.ServiceClient` for a ``serve
    --listen`` server: ``connect("host:1994")`` or
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


__all__ = [
    # the stable public surface
    "JobSpec", "JobStatus", "connect",
    # the in-process manager
    "JobManager", "ServiceError",
    # lifecycle states
    "PENDING", "RUNNING", "COMPLETED", "FAILED", "CANCELLED", "TIMEOUT",
]
