"""Worker-process side of the job manager.

One worker process computes one point per attempt: the manager spawns
``multiprocessing.Process(target=worker_main, ...)`` with a one-way
pipe, the worker computes the point with the batch path's own
dispatcher, and sends back a single result message.
Process-per-attempt keeps the failure domain small — a dying worker
loses exactly one attempt of one point, which the manager retries with
backoff — and makes the kill injection used by the CI soak test
trivially safe.

Determinism contract: a task carries precisely the arguments
:func:`repro.experiments.runner.point_args` derives for the batch
sweep's process pool (same configs, same per-point seed, same windows),
and the worker hands them to the same
:func:`~repro.experiments.runner.compute_point_state`, so a
service-computed point is bit-identical to a serial
:class:`~repro.experiments.sweep.SweepEngine` one and their cache
entries are interchangeable.  That includes the burst engine's tables:
each worker compiles its own through
:meth:`~repro.isa.program.Program.bursts_for`, exactly as the batch
sweep does.
"""

import os
import time
import traceback

from repro.experiments.runner import compute_point_state, point_args


def make_task(spec, point, attempt=0, fail_times=0):
    """The picklable work order for one attempt at one point."""
    return {
        "args": point_args(spec, point),
        "attempt": attempt,
        #: Fault injection (soak tests): die this many times before
        #: computing, exercising the manager's retry-with-backoff path.
        "fail_times": fail_times,
    }


def worker_main(conn, task):
    """Process entry point: compute, send exactly one message, exit.

    A simulation error is reported as an ``ok: False`` message (the
    manager fails the point without retrying — the computation is
    deterministic, so rerunning cannot help).  Only process *death* —
    the injected kind below, a crash, or an external kill — triggers
    the retry path.  Only the serialised state travels back: the
    manager derives the streamed payload from it
    (:mod:`repro.service.results`), the same pure function it applies
    to cache hits, so cold and warm runs stream byte-identical payloads.
    """
    if task["attempt"] < task.get("fail_times", 0):
        # Injected worker death: exit without sending anything, exactly
        # what a crash/OOM-kill looks like from the manager's side.
        conn.close()
        os._exit(17)
    t0 = time.perf_counter()
    try:
        message = {"ok": True, "state": compute_point_state(*task["args"]),
                   "seconds": time.perf_counter() - t0}
    except BaseException:
        message = {"ok": False, "error": traceback.format_exc(limit=20)}
    try:
        conn.send(message)
    finally:
        conn.close()


__all__ = ["make_task", "worker_main"]
