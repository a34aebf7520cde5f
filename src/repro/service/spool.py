"""File-based job transport behind the serve/submit/jobs CLI verbs.

The spool is a directory two processes share:

* ``<root>/queue/<id>.json`` — submitted specs waiting for a server
  (written atomically by ``repro-experiments submit``);
* ``<root>/jobs/<id>/spec.json`` — the claimed spec (the server moves
  it out of the queue when it accepts the job);
* ``<root>/jobs/<id>/status.json`` — the job's latest status snapshot,
  rewritten as points complete;
* ``<root>/jobs/<id>/results.jsonl`` — one ``RunResult.to_json``
  payload per line, appended in completion order.

``repro-experiments serve`` runs :func:`serve_forever`: a
:class:`~repro.service.manager.JobManager` plus a polling loop that
claims queued specs, mirrors job status back into the spool, and
appends payloads as they stream.  ``--once`` drains the current queue
and exits when every claimed job is terminal (the CI smoke lane).
``repro-experiments jobs`` reads only the spool — it works whether or
not a server is currently up.
"""

import hashlib
import json
import os
import pathlib
import tempfile
import time

from repro.service.jobs import JobSpec, COMPLETED, TERMINAL

#: Default spool location (override with --spool).
SPOOL_DIR_ENV = "REPRO_SPOOL_DIR"
DEFAULT_SPOOL_DIR = ".repro_spool"

#: Claim markers older than this (seconds) are presumed orphaned by a
#: submitter that died between claiming an id and writing its spec;
#: :func:`serve_forever` sweeps them so the id pool self-heals.
CLAIM_MAX_AGE = 60.0


def default_spool_dir():
    return os.environ.get(SPOOL_DIR_ENV, DEFAULT_SPOOL_DIR)


def _write_json(path, payload):
    """Atomic JSON write (temp + rename), like every cache in the repo."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Spool:
    """One spool directory: submit side and serve side."""

    def __init__(self, root=None):
        self.root = pathlib.Path(root if root is not None
                                 else default_spool_dir())
        self.queue_dir = self.root / "queue"
        self.jobs_dir = self.root / "jobs"

    # -- submit side -------------------------------------------------------

    def _new_id(self):
        """Allocate the next free job id (O_EXCL claims it atomically)."""
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        taken = set()
        for d in (self.queue_dir, self.jobs_dir):
            if d.is_dir():
                taken.update(p.stem if p.is_file() else p.name
                             for p in d.iterdir())
        n = len(taken) + 1
        while True:
            job_id = "sj-%05d" % n
            if job_id not in taken:
                # Claim via a separate marker so the server never sees
                # a half-written spec in its *.json scan.
                try:
                    fd = os.open(str(self.queue_dir / (job_id + ".claim")),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    n += 1
                    continue
                os.close(fd)
                return job_id
            n += 1

    def submit(self, spec):
        """Queue a spec for the server; returns the spool job id."""
        job_id = self._new_id()
        _write_json(self.queue_dir / (job_id + ".json"), spec.to_dict())
        try:
            os.unlink(str(self.queue_dir / (job_id + ".claim")))
        except OSError:
            pass
        return job_id

    def sweep_stale_claims(self, max_age=CLAIM_MAX_AGE):
        """Remove orphaned ``*.claim`` markers; returns how many.

        A submitter that dies between ``_new_id``'s O_EXCL claim and
        the spec write (or between the write and the unlink) strands a
        marker, permanently retiring that id from the allocator.  Any
        marker older than ``max_age`` whose spec never appeared is such
        an orphan — a live submit holds its marker for milliseconds.
        """
        if not self.queue_dir.is_dir():
            return 0
        now = time.time()
        swept = 0
        for marker in self.queue_dir.glob("*.claim"):
            try:
                age = now - marker.stat().st_mtime
            except OSError:
                continue               # unlinked under us: not stale
            if age < max_age:
                continue
            # Either the spec was written (the *.json stem keeps the id
            # taken) or the submitter died (the id should return to the
            # pool): the marker is safe to drop in both cases.
            try:
                marker.unlink()
                swept += 1
            except OSError:
                pass
        return swept

    # -- serve side --------------------------------------------------------

    def pending(self):
        """Queued (job_id, path) pairs, oldest id first."""
        if not self.queue_dir.is_dir():
            return []
        return sorted((p.stem, p) for p in self.queue_dir.glob("*.json"))

    def claim(self, job_id, path):
        """Move a queued spec into the job's directory; returns the spec.

        The rename is the one point where the server and a cancelling
        client (:meth:`SpoolTransport.cancel` unlinks the queued file)
        compete for a spec, so it comes first.  Returns None when the
        spec is gone — withdrawn by a client since it was listed, whose
        ``cancelled`` status stands — or unusable (parked as
        ``spec.rejected.json`` with a status explaining why, so a bad
        submission cannot wedge the queue).
        """
        job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        claimed = job_dir / "spec.json"
        try:
            os.replace(path, claimed)
        except FileNotFoundError:
            return None
        try:
            return JobSpec.from_dict(json.loads(claimed.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            # Status first: a reader always finds spec.json or a status.
            self.write_status(job_id, {
                "job_id": job_id, "status": "failed",
                "error": "unreadable job spec: %s" % exc})
            os.replace(claimed, job_dir / "spec.rejected.json")
            return None

    def write_status(self, job_id, snapshot):
        payload = dict(snapshot)
        payload["job_id"] = job_id
        _write_json(self.jobs_dir / job_id / "status.json", payload)

    def append_results(self, job_id, payloads):
        if not payloads:
            return
        path = self.jobs_dir / job_id / "results.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            for payload in payloads:
                fh.write(payload)
                fh.write("\n")

    # -- read side (jobs verb) ---------------------------------------------

    def read_status(self, job_id):
        path = self.jobs_dir / job_id / "status.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            return {"job_id": job_id, "status": "unreadable"}

    def read_results(self, job_id):
        path = self.jobs_dir / job_id / "results.jsonl"
        try:
            lines = path.read_text().splitlines()
        except (FileNotFoundError, OSError):
            return []
        return [line for line in lines if line]

    def list_jobs(self):
        """Status snapshots of every job: queued first, then claimed."""
        out = []
        for job_id, _path in self.pending():
            out.append({"job_id": job_id, "status": "queued"})
        if self.jobs_dir.is_dir():
            for job_dir in sorted(self.jobs_dir.iterdir()):
                status = self.read_status(job_dir.name)
                if status is not None:
                    out.append(status)
        return out

    # -- cancellation markers ----------------------------------------------

    def request_cancel(self, job_id):
        """Ask the serving process to cancel a claimed job."""
        path = self.jobs_dir / job_id / "cancel.request"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()

    def cancel_requested(self, job_id):
        return (self.jobs_dir / job_id / "cancel.request").exists()

    def clear_cancel(self, job_id):
        try:
            os.unlink(str(self.jobs_dir / job_id / "cancel.request"))
        except OSError:
            pass

    # -- idempotency keys --------------------------------------------------

    def _idem_path(self, key):
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.root / "idem" / (digest + ".json")

    def recall_submission(self, key):
        """The job id previously recorded for ``key``, if any."""
        try:
            return json.loads(
                self._idem_path(key).read_text())["job_id"]
        except (OSError, ValueError, KeyError):
            return None

    def record_submission(self, key, job_id):
        _write_json(self._idem_path(key), {"key": key, "job_id": job_id})


def serve_forever(spool, manager, once=False, poll=0.2, max_seconds=None,
                  claim_max_age=CLAIM_MAX_AGE):
    """Claim queued specs, run them, mirror progress into the spool.

    ``once`` exits when the queue is empty and every claimed job is
    terminal (CI smoke lane); ``max_seconds`` is a hard wall-clock stop
    for the loop itself.  Each pass also sweeps orphaned ``*.claim``
    markers older than ``claim_max_age`` (a submitter that died mid-
    submit) and honours client ``cancel.request`` markers.  Returns the
    number of jobs served.
    """
    live = {}        # spool id -> (manager id, payloads written)
    served = 0
    t0 = time.monotonic()
    last_sweep = 0.0
    try:
        while True:
            now = time.monotonic()
            if now - last_sweep >= min(claim_max_age, 5.0):
                spool.sweep_stale_claims(max_age=claim_max_age)
                last_sweep = now
            for job_id, path in spool.pending():
                spec = spool.claim(job_id, path)
                if spec is None:
                    continue
                live[job_id] = [manager.submit(spec), 0]
                served += 1
            for job_id, (mid, n_sent) in list(live.items()):
                if spool.cancel_requested(job_id):
                    manager.cancel(mid)
                    spool.clear_cancel(job_id)
                fresh = manager.payloads(mid, start=n_sent)
                spool.append_results(job_id, fresh)
                live[job_id][1] = n_sent + len(fresh)
                status = manager.status(mid)
                spool.write_status(job_id, status)
                if status["status"] in TERMINAL:
                    del live[job_id]
            if once and not live and not spool.pending():
                return served
            if (max_seconds is not None
                    and time.monotonic() - t0 > max_seconds):
                return served
            time.sleep(poll)
    finally:
        manager.shutdown(wait=True)


class SpoolTransport:
    """The filesystem implementation of the Transport API.

    Wraps a :class:`Spool` so CLI verbs and user code written against
    :class:`repro.service.Transport` run unchanged over a shared
    directory (this class) or a TCP connection
    (:class:`repro.service.client.ServiceClient`).  Blocking calls
    (``results``, ``stream``) poll the spool files a serving process
    rewrites; ``cancel`` drops a marker that :func:`serve_forever`
    honours.
    """

    def __init__(self, root=None, poll=0.1):
        self.spool = root if isinstance(root, Spool) else Spool(root)
        self.poll = poll

    @property
    def root(self):
        return self.spool.root

    def submit(self, spec, idempotency_key=None):
        """Queue a spec; returns its job id.

        With an ``idempotency_key``, a repeated submit returns the job
        id recorded for that key instead of queueing the work again.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if idempotency_key is not None:
            existing = self.spool.recall_submission(idempotency_key)
            if existing is not None:
                return existing
        job_id = self.spool.submit(spec)
        if idempotency_key is not None:
            self.spool.record_submission(idempotency_key, job_id)
        return job_id

    def status(self, job_id):
        status = self.spool.read_status(job_id)
        if status is not None:
            return status
        if any(jid == job_id for jid, _ in self.spool.pending()):
            return {"job_id": job_id, "status": "queued"}
        if (self.spool.jobs_dir / job_id / "spec.json").exists():
            # Claimed but the server has not written status.json yet.
            return {"job_id": job_id, "status": "claimed"}
        raise KeyError("unknown job id %r under %s"
                       % (job_id, self.spool.root))

    def _wait_terminal(self, job_id, timeout):
        from repro.service.manager import ServiceError
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            status = self.status(job_id)
            if status.get("status") in TERMINAL:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    "job %s still %s after %.1f s"
                    % (job_id, status.get("status"), timeout))
            time.sleep(self.poll)

    def results(self, job_id, timeout=None):
        """Block until the job completes; returns its payload list."""
        from repro.service.manager import ServiceError
        status = self._wait_terminal(job_id, timeout)
        if status.get("status") != COMPLETED:
            raise ServiceError(
                "job %s %s%s" % (job_id, status.get("status"),
                                 ": %s" % status["error"]
                                 if status.get("error") else ""))
        return self.spool.read_results(job_id)

    def payloads(self, job_id, from_index=0):
        """Non-blocking: payloads appended so far, from ``from_index``."""
        return self.spool.read_results(job_id)[from_index:]

    def stream(self, job_id, from_index=0):
        """Yield payloads as the serving process appends them."""
        from repro.service.manager import ServiceError
        index = from_index
        while True:
            lines = self.spool.read_results(job_id)
            while index < len(lines):
                yield lines[index]
                index += 1
            status = self.status(job_id)
            if status.get("status") in TERMINAL:
                # Drain the window between the last status write and
                # the last results append.
                for line in self.spool.read_results(job_id)[index:]:
                    yield line
                if status.get("status") != COMPLETED:
                    raise ServiceError("job %s %s"
                                       % (job_id, status.get("status")))
                return
            time.sleep(self.poll)

    def cancel(self, job_id, timeout=30.0):
        """Cancel a queued or claimed job; True when it ends cancelled.

        A still-queued spec is withdrawn directly; a claimed job gets a
        ``cancel.request`` marker and this call waits (bounded by
        ``timeout``) for the serving process to acknowledge it.
        """
        from repro.service.manager import ServiceError
        for jid, path in self.spool.pending():
            if jid == job_id:
                try:
                    os.unlink(str(path))
                except FileNotFoundError:
                    break          # a server claimed it since the listing
                except OSError:
                    return False
                self.spool.write_status(job_id, {
                    "job_id": job_id, "status": "cancelled",
                    "error": "cancelled before a server claimed it"})
                return True
        status = self.status(job_id)
        if status.get("status") in TERMINAL:
            return False
        self.spool.request_cancel(job_id)
        try:
            status = self._wait_terminal(job_id, timeout)
        except ServiceError:
            return False
        return status.get("status") == "cancelled"

    def jobs(self):
        return self.spool.list_jobs()

    def close(self):
        """Nothing to release; exists for Transport symmetry."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


__all__ = ["Spool", "SpoolTransport", "serve_forever",
           "default_spool_dir", "SPOOL_DIR_ENV", "DEFAULT_SPOOL_DIR",
           "CLAIM_MAX_AGE"]
