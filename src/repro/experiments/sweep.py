"""Parallel sweep engine: every figure/table point, fanned out over cores.

The paper's result set is an embarrassingly parallel sweep: each
(workload, scheme, n_contexts) / (app, scheme, n_contexts) point is an
independent, deterministic simulation.  :class:`SweepEngine` enumerates
the points the figures and tables declare (their ``points()`` hooks),
skips everything already memoised or in the on-disk cache, and runs the
remainder over a :class:`concurrent.futures.ProcessPoolExecutor`.

Determinism contract: a worker computes a point with the *same*
dispatcher (:func:`~repro.experiments.runner.compute_point`) and the
same arguments (:func:`~repro.experiments.runner.point_args`: the same
configuration objects, per-point seed and window) that the serial
:class:`ExperimentContext` path uses, and no state is shared between
points — so parallel results are bit-identical to serial ones, and
cache entries written by either path are interchangeable.
"""

import os
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.experiments import cache as cache_mod
from repro.experiments import runner as runner_mod
from repro.experiments.runner import ExperimentContext

#: One simulation point.  ``kind`` is "uniproc" (measured workload run),
#: "dedicated" (single-application calibration run), "mp" (SPLASH
#: run-to-completion), or "gen" (measured run of a generated family,
#: ``name`` its GenSpec text).
SweepPoint = namedtuple("SweepPoint", "kind name scheme n_contexts")

#: One finished point: where its result came from and how long it took.
PointOutcome = namedtuple("PointOutcome", "point source seconds")


def default_points(workloads=None, apps=None):
    """Every point behind Table 7, Figures 6/7, Table 10, Figures 8/9.

    Deduplicated in first-need order; the overlap between tables and
    figures (they intentionally share runs) collapses here, which is
    exactly why a shared cache computes each simulation once.
    """
    from repro.experiments import table7, figures6_7, table10, figures8_9
    from repro.workloads.uniprocessor import WORKLOAD_ORDER
    from repro.workloads.splash import SPLASH_ORDER
    workloads = tuple(workloads) if workloads else WORKLOAD_ORDER
    apps = tuple(apps) if apps else SPLASH_ORDER
    raw = []
    raw += table7.points(workloads)
    raw += figures6_7.points("blocked", workloads)
    raw += figures6_7.points("interleaved", workloads)
    raw += table10.points(apps)
    raw += figures8_9.points("blocked", apps)
    raw += figures8_9.points("interleaved", apps)
    return dedupe(SweepPoint(*p) for p in raw)


def dedupe(points):
    seen = set()
    out = []
    for p in points:
        p = SweepPoint(*p)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _cost_rank(point):
    """Schedule heaviest points first to shrink the parallel tail.

    Multiprocessor run-to-completion dominates; within a kind, more
    contexts means more threads and more work.
    """
    return (point.kind == "mp", point.n_contexts)


class SweepReport:
    """What a sweep did: per-point outcomes and aggregate timings."""

    def __init__(self, outcomes, wall_seconds, jobs):
        self.outcomes = outcomes
        self.wall_seconds = wall_seconds
        self.jobs = jobs

    def count(self, source):
        return sum(1 for o in self.outcomes if o.source == source)

    def summary(self):
        return ("%d points in %.1f s with %d jobs "
                "(%d computed, %d cache hits, %d memoised)"
                % (len(self.outcomes), self.wall_seconds, self.jobs,
                   self.count("computed"), self.count("cache"),
                   self.count("memo")))

    def to_dict(self):
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "computed": self.count("computed"),
            "cache_hits": self.count("cache"),
            "memoised": self.count("memo"),
            "points": [
                {"kind": o.point.kind, "name": o.point.name,
                 "scheme": o.point.scheme,
                 "n_contexts": o.point.n_contexts,
                 "source": o.source, "seconds": o.seconds}
                for o in self.outcomes],
        }


class SweepEngine:
    """Fill an :class:`ExperimentContext` with points, in parallel.

    After :meth:`run`, every requested point sits in the context's
    in-process memo (and in its on-disk cache, if one is attached), so
    rendering any table or figure afterwards is pure formatting.
    """

    def __init__(self, ctx=None, jobs=None, progress=None):
        self.ctx = ctx if ctx is not None else ExperimentContext()
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.progress = progress if progress is not None else lambda msg: None

    def _label(self, point):
        return "%-9s %s/%s/%d" % (point.kind, point.name, point.scheme,
                                  point.n_contexts)

    # -- execution -----------------------------------------------------------

    def run(self, points=None):
        """Ensure every point is available; returns a SweepReport."""
        t0 = time.perf_counter()
        points = dedupe(points if points is not None else default_points())
        if self.jobs <= 1:
            outcomes = self._run_serial(points)
        else:
            outcomes = self._run_parallel(points)
        return SweepReport(outcomes, time.perf_counter() - t0, self.jobs)

    def _run_serial(self, points):
        """Ask the context for each point, once.

        The context probes its cache and simulates only on a miss, so
        each point costs one cache lookup.
        """
        out = []
        total = len(points)
        # Heaviest first, as the pool is fed: on a cold 8-node mp grid,
        # computing the small points first left the peak RSS 0.7 MB
        # (1.7%) higher.
        for point in sorted(points, key=_cost_rank, reverse=True):
            start = time.perf_counter()
            _run, source = self.ctx.point_run(point)
            if source == "memo":
                out.append(PointOutcome(point, "memo", 0.0))
                continue
            seconds = time.perf_counter() - start
            out.append(PointOutcome(point, source, seconds))
            if source == "computed":
                self.progress("[%3d/%d] %s  %.2f s" % (
                    len(out), total, self._label(point), seconds))
            else:
                self.progress("[%3d/%d] %s  cache hit" % (
                    len(out), total, self._label(point)))
        return out

    def _run_parallel(self, points):
        """Probe memo and cache first, then fan the misses out."""
        ctx = self.ctx
        out = []
        pending = []
        total = len(points)
        for point in points:
            start = time.perf_counter()
            run, source = ctx.lookup(point)
            if run is None:
                pending.append(point)
            elif source == "memo":
                out.append(PointOutcome(point, "memo", 0.0))
            else:
                out.append(PointOutcome(
                    point, "cache", time.perf_counter() - start))
                self.progress("[%3d/%d] %s  cache hit"
                              % (len(out), total, self._label(point)))
        done = len(out)
        pending.sort(key=_cost_rank, reverse=True)
        if not pending:
            return out
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            submitted = time.perf_counter()
            futures = {pool.submit(runner_mod.compute_point_state,
                                   *runner_mod.point_args(ctx, p)): p
                       for p in pending}
            for future in as_completed(futures):
                point = futures[future]
                ctx.store(point, cache_mod.SERIALIZERS[point.kind][1](
                    future.result()))
                seconds = time.perf_counter() - submitted
                done += 1
                self.progress("[%3d/%d] %s  done at +%.2f s"
                              % (done, total, self._label(point), seconds))
                out.append(PointOutcome(point, "computed", seconds))
        return out
