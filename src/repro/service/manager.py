"""The job manager: a job queue in front of sharded worker processes.

``submit(spec) -> job_id`` enumerates the spec's points, satisfies what
it can from the content-addressed :class:`~repro.experiments.cache.
ResultCache` (read-through, exactly like the batch sweep), and shards
the rest across a bounded pool of worker *processes* — one process per
point attempt (see :mod:`repro.service.worker`).  A single scheduler
thread owns all mutable scheduling state: it fills free worker slots,
multiplexes result pipes with :func:`multiprocessing.connection.wait`,
writes computed states through to the result cache (a hit was read and
validated there, so it is never rewritten), and enforces the
robustness rules:

* **worker death** (crash, OOM-kill, injected fault) retries the point
  with exponential backoff, up to the spec's ``max_retries``;
* a **simulation error** fails the point immediately (the computation
  is deterministic — rerunning cannot help) and fails its job;
* a job exceeding its **wall-clock timeout** is terminated (status
  ``timeout``), its workers killed, its queue drained;
* ``cancel(job_id)`` does the same with status ``cancelled``;
* ``shutdown()`` is graceful: in-flight attempts finish and their
  computed points are flushed to the result cache before the
  scheduler exits; never-started jobs are cancelled.

Clients observe jobs through ``status`` snapshots, blocking
``results``, a synchronous ``iter_results`` generator, or
``wait_payloads``, the batch read the TCP server streams through — all
fed from the same per-job record.
"""

import dataclasses
import itertools
import multiprocessing
import threading
import time
from collections import deque
from multiprocessing.connection import wait as conn_wait

from repro.experiments.cache import entry_meta
from repro.service.jobs import (JobRecord, PENDING, RUNNING, COMPLETED,
                                FAILED, CANCELLED, TIMEOUT)
from repro.service.results import payload_from_state
from repro.service.worker import make_task, worker_main


#: Finished job records kept for ``status``/``results``/``jobs``; past
#: this many, the record that finished first is forgotten (a running job
#: never is).  Its computed points stay in the result cache.
MAX_FINISHED_JOBS = 256

#: Longest the scheduler thread sleeps with nothing due (seconds).
POLL_INTERVAL = 0.05


class ServiceError(RuntimeError):
    """A job cannot deliver results (failed, timed out, or cancelled)."""


class _Task:
    """One scheduled attempt at one point."""

    __slots__ = ("record", "point", "attempt", "not_before")

    def __init__(self, record, point, attempt=0, not_before=0.0):
        self.record = record
        self.point = point
        self.attempt = attempt
        self.not_before = not_before


class _Slot:
    """One live worker process and its result pipe."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn, task):
        self.process = process
        self.conn = conn
        self.task = task


class JobManager:
    """Accepts simulation/sweep jobs and runs them on worker processes.

    ``workers`` bounds concurrent worker processes; ``cache`` is an
    optional :class:`~repro.experiments.cache.ResultCache` shared with
    the batch path; ``backoff`` seeds the exponential retry delay
    (``backoff * 2**attempt`` seconds); ``default_timeout`` applies to
    specs that do not carry their own.
    """

    def __init__(self, workers=2, cache=None, default_timeout=None,
                 backoff=0.25):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.default_timeout = default_timeout
        self.backoff = backoff
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._jobs = {}
        self._finished = deque()       # finished job ids, oldest first
        self._queue = deque()          # runnable _Tasks
        self._delayed = []             # _Tasks waiting out a backoff
        self._slots = []               # live _Slots
        self._stopping = False
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._thread = threading.Thread(target=self._scheduler_loop,
                                        name="repro-service-scheduler",
                                        daemon=True)
        self._thread.start()

    # -- client API --------------------------------------------------------

    def submit(self, spec, fail_times=0):
        """Accept a job; returns its id immediately.

        ``spec`` is a :class:`JobSpec`.
        ``fail_times`` is fault injection for the soak tests: each
        point's worker dies that many times before computing.
        """
        if spec.timeout is None and self.default_timeout is not None:
            spec = dataclasses.replace(spec, timeout=self.default_timeout)
        now = time.monotonic()
        with self._lock:
            if self._stopping:
                raise ServiceError("manager is shutting down")
            job_id = "job-%04d" % next(self._ids)
            record = JobRecord(job_id, spec, now, fail_times=fail_times)
            self._jobs[job_id] = record
        self._admit(record)
        return job_id

    def _admit(self, record):
        """Resolve cache hits, queue the rest (client thread)."""
        spec = record.spec
        pending = []
        with record.cond:
            for point in spec.points:
                state = None
                if self.cache is not None:
                    key = record.points[point].key = spec.cache_key(point)
                    state = self.cache.get_state(key, point.kind)
                if state is not None:
                    self._complete_point(record, point, state,
                                         source="cache", seconds=0.0)
                else:
                    pending.append(point)
            if not pending:
                self._terminate(record, COMPLETED)
            else:
                record.status = RUNNING
        with self._lock:
            for point in pending:
                self._queue.append(_Task(record, point))
        self._wake()

    def status(self, job_id):
        """A JSON-ready snapshot of the job's progress."""
        return self._record(job_id).snapshot()

    def results(self, job_id, timeout=None):
        """Block until the job completes; returns its payload list.

        Payloads are ``RunResult.to_json`` strings in completion order.
        Raises :class:`ServiceError` when the job failed, timed out,
        was cancelled, or ``timeout`` elapsed first.
        """
        record = self._record(job_id)
        with record.cond:
            if not record.cond.wait_for(record.is_terminal,
                                        timeout=timeout):
                raise ServiceError("job %s still %s after %.1f s"
                                   % (job_id, record.status, timeout))
            if record.status != COMPLETED:
                raise ServiceError(
                    "job %s %s%s" % (job_id, record.status,
                                     ": %s" % record.error
                                     if record.error else ""))
            return list(record.payloads)

    def iter_results(self, job_id, timeout=None):
        """Yield payloads as points complete (synchronous generator)."""
        index = 0
        while True:
            batch = self.wait_payloads(job_id, index, timeout=timeout)
            if not batch:
                return
            yield from batch
            index += len(batch)

    def wait_payloads(self, job_id, start=0, timeout=None):
        """Every payload from index ``start``, once one exists.

        Blocks until payload ``start`` exists or the job is terminal,
        for at most ``timeout`` seconds (``timeout=0`` does not block).
        An empty list means the job ended (or the wait timed out)
        without producing payload ``start``.  Payload indices are
        completion order and never change, so a resumed stream restarts
        from any index without replaying or losing a point.
        """
        record = self._record(job_id)
        with record.cond:
            record.cond.wait_for(
                lambda: len(record.payloads) > start
                or record.is_terminal(), timeout=timeout)
            return record.payloads[start:]

    def cancel(self, job_id):
        """Stop a job (idempotent); True when this call stopped it."""
        record = self._record(job_id)
        with record.cond:
            if record.is_terminal():
                return False
            record.kill_requested = CANCELLED
        self._wake()
        with record.cond:
            record.cond.wait_for(record.is_terminal, timeout=30.0)
        return record.status == CANCELLED

    def knows(self, job_id):
        """Whether ``job_id`` is still on record (not yet forgotten)."""
        with self._lock:
            return job_id in self._jobs

    def jobs(self):
        """Snapshot list of every known job, newest last."""
        with self._lock:
            records = list(self._jobs.values())    # insertion order
        return [r.snapshot() for r in records]

    def flush_completed(self):
        """Write any computed-but-unflushed point states to the cache."""
        if self.cache is None:
            return 0
        with self._lock:
            records = list(self._jobs.values())
        flushed = 0
        for record in records:
            with record.cond:
                for ps in record.points.values():
                    if (ps.status == COMPLETED and not ps.flushed
                            and ps.state is not None):
                        self._cache_put(record.spec, ps)
                        flushed += 1
        return flushed

    def shutdown(self, wait=True, timeout=30.0):
        """Graceful stop: finish in-flight attempts, flush, cancel rest."""
        with self._lock:
            self._stopping = True
        self._wake()
        if wait:
            self._thread.join(timeout=timeout)
        self.flush_completed()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown(wait=True)

    # -- scheduler thread --------------------------------------------------

    def _record(self, job_id):
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise KeyError("unknown job id %r" % (job_id,))
        return record

    def _wake(self):
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    def _scheduler_loop(self):
        while True:
            self._promote_delayed()
            stopping = self._fill_slots()
            if stopping and not self._slots:
                self._cancel_leftovers()
                return
            self._poll(self._next_wait())
            self._reap()
            self._enforce_deadlines()

    def _promote_delayed(self):
        now = time.monotonic()
        due = [t for t in self._delayed if t.not_before <= now]
        if due:
            self._delayed = [t for t in self._delayed
                             if t.not_before > now]
            with self._lock:
                self._queue.extend(due)

    def _fill_slots(self):
        """Start queued tasks while slots are free; returns stopping."""
        while True:
            with self._lock:
                stopping = self._stopping
                if (stopping or not self._queue
                        or len(self._slots) >= self.workers):
                    if stopping:
                        self._queue.clear()
                    return stopping
                task = self._queue.popleft()
            record = task.record
            if record.is_terminal():
                continue
            self._spawn(task)

    def _spawn(self, task):
        record = task.record
        payload = make_task(record.spec, task.point, attempt=task.attempt,
                            fail_times=record.fail_times)
        recv, send = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(target=worker_main,
                                          args=(send, payload), daemon=True)
        with record.cond:
            ps = record.points[task.point]
            ps.status = RUNNING
            ps.attempts = task.attempt + 1
        process.start()
        send.close()
        with self._lock:
            self._slots.append(_Slot(process, recv, task))

    def _next_wait(self):
        """How long the scheduler may sleep before something is due."""
        horizon = time.monotonic() + POLL_INTERVAL
        for t in self._delayed:
            horizon = min(horizon, t.not_before)
        with self._lock:
            records = list(self._jobs.values())
        for record in records:
            if record.deadline is not None and not record.is_terminal():
                horizon = min(horizon, record.deadline)
        return max(0.0, horizon - time.monotonic())

    def _poll(self, timeout):
        conns = [self._wake_r] + [s.conn for s in self._slots]
        for conn in conn_wait(conns, timeout=timeout):
            if conn is self._wake_r:
                try:
                    self._wake_r.recv()
                except (EOFError, OSError):
                    pass
                continue
            slot = next(s for s in self._slots if s.conn is conn)
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None        # worker died before reporting
            self._retire_slot(slot, message)

    def _retire_slot(self, slot, message):
        with self._lock:
            self._slots.remove(slot)
        slot.conn.close()
        slot.process.join(timeout=5.0)
        if slot.process.is_alive():
            slot.process.kill()
        record, point = slot.task.record, slot.task.point
        if record.is_terminal():
            return
        if message is None:
            self._handle_death(slot.task)
        elif message.get("ok"):
            with record.cond:
                self._complete_point(
                    record, point, message["state"], source="computed",
                    seconds=message.get("seconds"))
                done, _failed = record.counts()
                if done == len(record.points):
                    self._terminate(record, COMPLETED)
        else:
            self._fail_job(record, FAILED,
                           "point %s/%s/%d failed: %s"
                           % (point.name, point.scheme, point.n_contexts,
                              message.get("error", "unknown error")),
                           failed_point=point)

    def _handle_death(self, task):
        record, point = task.record, task.point
        if task.attempt < record.spec.max_retries:
            delay = self.backoff * (2 ** task.attempt)
            self._delayed.append(_Task(record, point, task.attempt + 1,
                                       time.monotonic() + delay))
            with record.cond:
                record.points[point].status = PENDING
            return
        self._fail_job(record, FAILED,
                       "worker for %s/%s/%d died %d times"
                       % (point.name, point.scheme, point.n_contexts,
                          task.attempt + 1), failed_point=point)

    def _complete_point(self, record, point, state, source, seconds):
        """Record one finished point (record.cond held)."""
        spec = record.spec
        ps = record.points[point]
        ps.status = COMPLETED
        ps.source = source
        ps.seconds = seconds
        ps.payload = payload_from_state(point, spec, state)
        if source == "cache":
            ps.flushed = True          # read and validated: not rewritten
        elif self.cache is not None:
            ps.state = state           # held until the cache has it
            self._cache_put(spec, ps)
        record.payloads.append(ps.payload)
        record.cond.notify_all()

    def _terminate(self, record, status, error=None):
        """Finish ``record`` (its ``cond`` held), then forget the oldest
        finished records past :data:`MAX_FINISHED_JOBS`.

        Lock order: a record's ``cond``, then ``_lock``; nothing takes a
        ``cond`` while holding ``_lock``.
        """
        record.note_terminal(status, time.monotonic(), error=error)
        with self._lock:
            self._finished.append(record.job_id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    def _cache_put(self, spec, ps):
        try:
            self.cache.put_state(
                ps.key, ps.point.kind, ps.state,
                meta=entry_meta(ps.point, spec.seed, via="service"))
        except OSError:
            return                     # cache is best-effort persistence
        ps.flushed = True
        ps.state = None

    def _fail_job(self, record, status, error, failed_point=None):
        """Terminalise a job: mark, drop its queue, kill its workers."""
        with self._lock:
            self._queue = deque(t for t in self._queue
                                if t.record is not record)
        self._delayed = [t for t in self._delayed
                         if t.record is not record]
        victims = [s for s in self._slots if s.task.record is record]
        for slot in victims:
            slot.process.terminate()
        with record.cond:
            if record.is_terminal():
                return
            if failed_point is not None:
                ps = record.points[failed_point]
                ps.status = FAILED
                ps.error = error
            self._terminate(record, status, error)

    def _enforce_deadlines(self):
        now = time.monotonic()
        with self._lock:
            records = list(self._jobs.values())
        for record in records:
            kill = record.kill_requested
            if kill is not None and not record.is_terminal():
                self._fail_job(record, kill, "cancelled by client"
                               if kill == CANCELLED else kill)
                continue
            if (record.deadline is not None and not record.is_terminal()
                    and now > record.deadline):
                self._fail_job(record, TIMEOUT,
                               "job exceeded its %.1f s timeout"
                               % record.spec.timeout)

    def _reap(self):
        """Collect slots whose worker died without its pipe going
        readable first (belt and braces; conn_wait flags EOF, but a
        kill between polls can race the pipe teardown)."""
        dead = [s for s in self._slots
                if not s.process.is_alive() and not s.conn.poll()]
        for slot in dead:
            self._retire_slot(slot, None)

    def _cancel_leftovers(self):
        """On shutdown, terminalise whatever never finished."""
        with self._lock:
            records = list(self._jobs.values())
        for record in records:
            with record.cond:
                if not record.is_terminal():
                    self._terminate(record, CANCELLED, "manager shut down")


__all__ = ["JobManager", "ServiceError", "MAX_FINISHED_JOBS"]
