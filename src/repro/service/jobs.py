"""Job model: what a submitted job runs and how its lifecycle is tracked.

A :class:`JobSpec` pins every input the serial experiment path uses for
a point — machine configs, seed, measurement window, engine — so a
service-computed point is bit-identical to (and cache-interchangeable
with) the same point computed by :class:`~repro.experiments.sweep.
SweepEngine` or :class:`~repro.experiments.runner.ExperimentContext`.

A :class:`JobRecord` is the manager's mutable, thread-safe view of one
submitted job: per-point outcomes, streamed payloads, and the condition
variable every blocking reader (``results``, ``iter_results``,
``wait_payload``) waits on.
"""

import functools
import threading
from dataclasses import dataclass, field

from repro.config import SystemConfig, MultiprocessorParams
from repro.experiments.runner import (UNIPROC_WARMUP, UNIPROC_MEASURE,
                                      point_window)
from repro.experiments.sweep import SweepPoint, dedupe

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

#: States a job can never leave.
TERMINAL = (COMPLETED, FAILED, CANCELLED, TIMEOUT)

#: JSON schema number of the job specs the wire protocol carries.
SPEC_SCHEMA = 1

#: JSON schema number of the status snapshots (the wire protocol's
#: ``status``, ``jobs`` and stream ``end`` frames).
STATUS_SCHEMA = 1

#: The machine configs a wire spec names.  :meth:`JobSpec.from_dict`
#: hands out these very objects, so every wire job keys its points from
#: configs whose canonical text is already encoded.
_PROFILES = {"fast": SystemConfig.fast(), "paper": SystemConfig.paper()}


@functools.lru_cache(maxsize=16)
def _wire_mp_params(n_nodes):
    """The shared ``MultiprocessorParams(n_nodes=n_nodes)`` of wire specs."""
    return MultiprocessorParams(n_nodes=n_nodes)


class JobStatus:
    """Constants namespace (importable as ``JobStatus.COMPLETED`` etc.)."""

    PENDING = PENDING
    RUNNING = RUNNING
    COMPLETED = COMPLETED
    FAILED = FAILED
    CANCELLED = CANCELLED
    TIMEOUT = TIMEOUT
    TERMINAL = TERMINAL


@dataclass
class JobSpec:
    """One submitted job: a set of sweep points plus their exact inputs.

    ``config``/``mp_params``/``seed``/``warmup``/``measure`` mirror
    :class:`~repro.experiments.runner.ExperimentContext` so cache keys
    (and therefore results) are interchangeable with the batch path.
    ``timeout`` is the job's wall-clock budget in seconds (None = no
    bound); ``max_retries`` is the per-point retry budget on worker
    death.
    """

    points: tuple
    config: SystemConfig = field(default_factory=SystemConfig.fast)
    mp_params: MultiprocessorParams = field(
        default_factory=MultiprocessorParams)
    seed: int = 1994
    warmup: int = UNIPROC_WARMUP
    measure: int = UNIPROC_MEASURE
    engine: str = "burst"
    timeout: float = None
    max_retries: int = 2

    def __post_init__(self):
        self.points = tuple(dedupe(SweepPoint(*p) for p in self.points))
        if not self.points:
            raise ValueError("a job needs at least one point")
        if self.engine not in ("naive", "burst"):
            raise ValueError("engine must be 'naive' or 'burst', not %r"
                             % (self.engine,))

    @classmethod
    def sweep(cls, workloads=None, apps=None, **kwargs):
        """A spec covering every figure/table point (optionally subset)."""
        from repro.experiments.sweep import default_points
        return cls(points=default_points(workloads=workloads, apps=apps),
                   **kwargs)

    def point_window(self, point):
        """(warmup, measure) for ``point``, as the batch path uses them."""
        return point_window(point.kind, self.warmup, self.measure)

    def cache_key(self, point):
        """The point's on-disk :class:`ResultCache` key (shared with the
        batch sweep path, so service and batch runs feed one cache)."""
        from repro.experiments import cache as cache_mod
        warmup, measure = self.point_window(point)
        return cache_mod.point_key(
            point.kind, point.name, point.scheme, point.n_contexts,
            self.config, self.mp_params, self.seed, warmup, measure)

    # -- wire (JSON) form -------------------------------------------------

    def to_dict(self):
        """JSON-ready form for the wire protocol.

        The machine configs are carried as a profile name and a node
        count (the wire form is for remote clients and the CLI verbs;
        the Python API can pass arbitrary config objects to
        :meth:`JobManager.submit` directly).
        """
        profile = next((name for name, config in _PROFILES.items()
                        if self.config == config), None)
        if (profile is None or self.mp_params
                != _wire_mp_params(self.mp_params.n_nodes)):
            raise ValueError(
                "only the 'fast'/'paper' profiles and "
                "MultiprocessorParams(n_nodes=...) round-trip through the "
                "wire; submit custom configs through JobManager.submit")
        return {
            "schema_version": SPEC_SCHEMA,
            "profile": profile,
            "nodes": self.mp_params.n_nodes,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "engine": self.engine,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "points": [[p.kind, p.name, p.scheme, p.n_contexts]
                       for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload):
        version = payload.get("schema_version")
        if version != SPEC_SCHEMA:
            raise ValueError("unsupported job spec schema_version %r "
                             "(expected %d)" % (version, SPEC_SCHEMA))
        config = _PROFILES["paper" if payload.get("profile") == "paper"
                           else "fast"]
        mp_params = _wire_mp_params(int(payload.get("nodes", 8)))
        # Unknown keys are ignored (an old spec's "backend" key named a
        # removed knob); __post_init__ rejects an unknown engine.
        return cls(
            points=tuple(SweepPoint(k, n, s, int(c))
                         for k, n, s, c in payload["points"]),
            config=config,
            mp_params=mp_params,
            seed=int(payload.get("seed", 1994)),
            warmup=int(payload.get("warmup", UNIPROC_WARMUP)),
            measure=int(payload.get("measure", UNIPROC_MEASURE)),
            engine=payload.get("engine", "burst"),
            timeout=payload.get("timeout"),
            max_retries=int(payload.get("max_retries", 2)),
        )


class PointState:
    """Progress of one point inside a job."""

    __slots__ = ("point", "status", "source", "attempts", "seconds",
                 "error", "state", "payload", "key", "flushed")

    def __init__(self, point):
        self.point = point
        self.status = PENDING        # pending | running | completed | failed
        self.source = None           # "cache" | "computed"
        self.attempts = 0
        self.seconds = None
        self.error = None
        self.state = None            # computed state awaiting its cache write
        self.payload = None          # RunResult.to_json() string
        self.key = None              # ResultCache key, when there is a cache
        self.flushed = False         # in the ResultCache (read or written)?

    def to_dict(self):
        p = self.point
        return {"kind": p.kind, "name": p.name, "scheme": p.scheme,
                "n_contexts": p.n_contexts, "status": self.status,
                "source": self.source, "attempts": self.attempts,
                "seconds": self.seconds, "error": self.error}


class JobRecord:
    """Thread-safe lifecycle record of one submitted job.

    The manager's scheduler thread mutates it under ``cond``; client
    threads (including the TCP server's stream handlers) read snapshots
    and block on ``cond`` for new payloads.
    """

    def __init__(self, job_id, spec, submitted_at, fail_times=0):
        self.job_id = job_id
        self.spec = spec
        self.submitted_at = submitted_at
        self.deadline = (submitted_at + spec.timeout
                         if spec.timeout is not None else None)
        self.cond = threading.Condition()
        self.status = PENDING
        self.error = None
        self.points = {p: PointState(p) for p in spec.points}
        #: ``RunResult.to_json()`` strings, in completion order.
        self.payloads = []
        self.finished_at = None
        #: Fault injection (soak tests): each point's worker dies this
        #: many times before computing.
        self.fail_times = fail_times
        #: Terminal status a client asked for (``cancel``); the
        #: scheduler thread applies it on its next pass.
        self.kill_requested = None

    # All mutators are called with ``cond`` held by the scheduler.

    def note_terminal(self, status, now, error=None):
        self.status = status
        self.error = error
        self.finished_at = now
        self.cond.notify_all()

    def counts(self):
        done = sum(1 for s in self.points.values()
                   if s.status == COMPLETED)
        failed = sum(1 for s in self.points.values()
                     if s.status == FAILED)
        return done, failed

    def is_terminal(self):
        return self.status in TERMINAL

    def snapshot(self):
        """A JSON-ready status view (taken under ``cond``)."""
        with self.cond:
            done, failed = self.counts()
            return {
                "schema_version": STATUS_SCHEMA,
                "job_id": self.job_id,
                "status": self.status,
                "error": self.error,
                "engine": self.spec.engine,
                "seed": self.spec.seed,
                "n_points": len(self.points),
                "completed": done,
                "failed": failed,
                "cache_hits": sum(1 for s in self.points.values()
                                  if s.source == "cache"),
                "points": [self.points[p].to_dict()
                           for p in self.spec.points],
            }

    def wait_payload(self, index, timeout=None):
        """Block until payload ``index`` exists or the job is terminal.

        Returns the payload string, or None when the job reached a
        terminal state without producing it (or ``timeout`` expired).
        """
        with self.cond:
            def ready():
                return len(self.payloads) > index or self.is_terminal()
            if not self.cond.wait_for(ready, timeout=timeout):
                return None
            if len(self.payloads) > index:
                return self.payloads[index]
            return None


__all__ = ["JobSpec", "JobRecord", "JobStatus", "PointState",
           "PENDING", "RUNNING", "COMPLETED", "FAILED", "CANCELLED",
           "TIMEOUT", "TERMINAL", "SPEC_SCHEMA", "STATUS_SCHEMA"]
