"""Worker-process side of the job manager.

One worker process computes one point per attempt: the manager spawns
``multiprocessing.Process(target=worker_main, ...)`` with a one-way
pipe, the worker computes the point with the batch path's own
dispatcher, and sends back a single result message.
Process-per-attempt keeps the failure domain small — a dying worker
loses exactly one attempt of one point, which the manager retries with
backoff — and makes the kill injection used by the CI soak test
trivially safe.

Determinism contract: the simulation inputs in a task are precisely the
arguments :func:`repro.experiments.runner.compute_point_state` receives
from the batch sweep's process pool (same configs, same per-point seed,
same windows), and the worker calls that same function, so a
service-computed point is bit-identical to a serial
:class:`~repro.experiments.sweep.SweepEngine` one and their cache
entries are interchangeable.

When the task carries a ``burst_dir`` and the burst engine is selected,
the worker installs the shared :class:`~repro.service.burst_cache.
BurstTableCache` as the :class:`~repro.isa.program.Program` burst-table
provider for the duration of the run: programs whose fingerprints are
already cached skip recompilation (after an ``audit_bursts``
validation), and freshly compiled tables are published for the other
workers.
"""

import os
import time
import traceback

from repro.experiments.runner import compute_point_state
from repro.isa.program import Program


def make_task(spec, point, attempt=0, burst_dir=None, fail_times=0):
    """The picklable work order for one attempt at one point."""
    warmup, measure = spec.point_window(point)
    return {
        "kind": point.kind,
        "name": point.name,
        "scheme": point.scheme,
        "n_contexts": point.n_contexts,
        "config": spec.config,
        "mp_params": spec.mp_params,
        "seed": spec.seed,
        "warmup": warmup,
        "measure": measure,
        "engine": spec.engine,
        "attempt": attempt,
        "burst_dir": burst_dir,
        #: Fault injection (soak tests): die this many times before
        #: computing, exercising the manager's retry-with-backoff path.
        "fail_times": fail_times,
    }


def compute_point(task):
    """Run one point; returns the result message dict.

    Pure function of the task (no shared state): the manager may run it
    in any worker, in any order, any number of times.
    """
    burst_cache = None
    if task.get("burst_dir") is not None and task["engine"] == "burst":
        from repro.service.burst_cache import BurstTableCache
        burst_cache = BurstTableCache(task["burst_dir"])
        Program.burst_provider = burst_cache
    t0 = time.perf_counter()
    try:
        # Only the serialised state travels back: the manager derives
        # the streamed payload from it (repro.service.results), the same
        # pure function it applies to cache hits — so cold and warm runs
        # stream byte-identical payloads.
        state = compute_point_state(
            task["kind"], task["name"], task["scheme"], task["n_contexts"],
            task["config"], task["mp_params"], task["seed"],
            task["warmup"], task["measure"], engine=task["engine"])
    finally:
        if burst_cache is not None:
            Program.burst_provider = None
    return {
        "ok": True,
        "state": state,
        "seconds": time.perf_counter() - t0,
        "burst": (burst_cache.session_stats() if burst_cache is not None
                  else None),
    }


def worker_main(conn, task):
    """Process entry point: compute, send exactly one message, exit.

    A simulation error is reported as an ``ok: False`` message (the
    manager fails the point without retrying — the computation is
    deterministic, so rerunning cannot help).  Only process *death* —
    the injected kind below, a crash, or an external kill — triggers
    the retry path.
    """
    if task["attempt"] < task.get("fail_times", 0):
        # Injected worker death: exit without sending anything, exactly
        # what a crash/OOM-kill looks like from the manager's side.
        conn.close()
        os._exit(17)
    try:
        message = compute_point(task)
    except BaseException:
        message = {"ok": False, "error": traceback.format_exc(limit=20)}
    try:
        conn.send(message)
    finally:
        conn.close()


__all__ = ["make_task", "compute_point", "worker_main"]
