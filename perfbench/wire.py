"""service_warm: one TCP client runs a closed loop of warm jobs.

Every point a job asks for is already in the server's
:class:`~repro.experiments.cache.ResultCache`, so the worker pool stays
idle and the time goes to the wire, the :class:`JobManager` bookkeeping
and cache reads.  The pool of points is every workstation point of
Table 7 / Figures 6-7 over the seven workload mixes, computed once per
simulator code version through :class:`SweepEngine` (the same cache
layer the grids write).  The benchmark seed picks which points make up
each job and in what order.
"""

import collections
import contextlib
import random
import sys
import time

#: Measurement window and simulation seed of the pool's points.  The
#: window is short because no simulation runs in the timed loop; the
#: payloads have the same shape as at the fast profile's window.
WARMUP = 2_000
MEASURE = 10_000
SIM_SEED = 1994

POINTS_PER_JOB = 28
JOBS_PER_PASS = 20


def pool_points():
    from repro.experiments import figures6_7, table7
    from repro.experiments.sweep import dedupe
    from repro.workloads.uniprocessor import WORKLOAD_ORDER
    raw = (table7.points(WORKLOAD_ORDER)
           + figures6_7.points("blocked", WORKLOAD_ORDER)
           + figures6_7.points("interleaved", WORKLOAD_ORDER))
    return [tuple(p) for p in dedupe(raw)]


def job_specs(seed):
    """The pass's jobs: ``POINTS_PER_JOB`` distinct pool points each."""
    from repro.service import JobSpec
    rng = random.Random(seed)
    pool = pool_points()
    return [JobSpec(points=rng.sample(pool, POINTS_PER_JOB),
                    warmup=WARMUP, measure=MEASURE, seed=SIM_SEED)
            for _ in range(JOBS_PER_PASS)]


def compute_pool(pool_dir):
    """Simulate every pool point into ``pool_dir`` (input generation)."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.sweep import SweepEngine
    ctx = ExperimentContext(seed=SIM_SEED, warmup=WARMUP, measure=MEASURE,
                            cache=ResultCache(pool_dir))
    SweepEngine(ctx, jobs=2).run(pool_points())


class Fixture:
    """A warm cache, a JobManager, a ServiceServer and one connection."""

    def __init__(self, pool_dir, cache_dir):
        from repro.experiments.cache import ResultCache
        from repro.service import JobManager, JobSpec
        from repro.service.client import ServiceClient
        from repro.service.net import ServiceServer
        pool = ResultCache(pool_dir)
        self.cache = ResultCache(cache_dir)
        keys = JobSpec(points=pool_points(), warmup=WARMUP,
                       measure=MEASURE, seed=SIM_SEED)
        self.states = {}
        for point in keys.points:
            key = keys.cache_key(point)
            state = pool.get_state(key, point.kind)
            if state is None:
                raise RuntimeError("pool point %r missing" % (point,))
            self.cache.put_state(key, point.kind, state)
            self.states[tuple(point)] = state
        with contextlib.ExitStack() as stack:
            self.manager = JobManager(cache=self.cache)
            stack.callback(self.manager.shutdown)
            self.server = ServiceServer(self.manager)
            self.server.start()
            stack.callback(self.server.stop)
            self.client = ServiceClient(self.server.host, self.server.port)
            stack.callback(self.client.close)
            self.client.stats()
            self._close = stack.pop_all()

    def close(self):
        self._close.close()


Job = collections.namedtuple("Job", "seconds first_s submit_s points "
                                    "failed insts")


def expected_payloads(fixture, specs):
    """Per job, the payloads its cached states must stream as."""
    from repro.service.results import payload_from_state
    return [[payload_from_state(p, spec, fixture.states[tuple(p)])
             for p in spec.points] for spec in specs]


def run_pass(fixture, specs, expected, tracer=None, after_job=None):
    """Submit and stream every job in turn; returns (seconds, jobs).

    ``after_job`` runs after each job, outside the job's own timing.
    """
    jobs = []
    t_pass = time.perf_counter()
    for spec, want in zip(specs, expected):
        got = []
        first = submitted = None
        span = (tracer.span("job") if tracer is not None
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span as record:
                if tracer is not None:
                    tracer.root = record["id"]
                job_id = fixture.client.submit(spec)
                submitted = time.perf_counter()
                for payload in fixture.client.stream(job_id):
                    if first is None:
                        first = time.perf_counter()
                    got.append(payload)
        except Exception as exc:  # counted as failed points, run goes on
            print("service job failed: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
        t1 = time.perf_counter()
        matched = sum((collections.Counter(got)
                       & collections.Counter(want)).values())
        failed = len(want) - matched if len(got) == len(want) else len(want)
        insts = sum(fixture.states[tuple(p)]["stats"]["retired"]
                    for p in spec.points)
        jobs.append(Job(t1 - t0, (first or t1) - t0,
                        (submitted or t1) - t0, len(want), failed,
                        insts if not failed else 0))
        if after_job is not None:
            after_job()
    return time.perf_counter() - t_pass, jobs
