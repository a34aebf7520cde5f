"""Cross-engine differential harness: one result, two engines.

Both engines (``naive`` per-cycle, ``burst`` fast-forward with
precompiled segments and bulk-charged stall windows) claim to implement
the same machine.  The proof obligation is *bit identity*: for any
workload, scheme, context count, and issue width,
``RunResult.to_json()`` must be byte-for-byte equal across engines.
The naive per-cycle loop is the reference; the burst engine is an
acceleration of it.

The helpers here give the matrix tests and the hypothesis
random-program tests a shared vocabulary:

* :func:`run_workstation` / :func:`run_mp` build and run one simulation
  for an (engine, width) point;
* :func:`assert_identical` compares engine results against the
  reference and fails with a *shrink-friendly* report — the first
  diverging stat path and (when a program is supplied) the offending
  program listing — so a hypothesis shrink prints the minimal
  counterexample, not a wall of JSON;
* :func:`gen_specs` is a hypothesis strategy over the parameterised
  workload generator's :class:`~repro.workloads.generator.GenSpec`,
  spanning stall-prone short dependency distances, FP-divide pressure,
  branches, memory footprints, and — beyond what the deprecated
  ``StreamSpec`` could express — multiply/shift pressure, multi-block
  bodies, loop nests, and cross-context sharing patterns.
"""

import json

from hypothesis import strategies as st

from repro.api import Simulation
from repro.config import MultiprocessorParams, PipelineParams, SystemConfig
from repro.workloads.generator import GenSpec, generate_process

#: Engine whose per-cycle stepping defines the machine.
REFERENCE_ENGINE = "naive"

#: The issue widths of the Section 7 extension study.
WIDTHS = (1, 2, 4)

SMALL_MP_PARAMS = MultiprocessorParams(n_nodes=2)


def comparable(result):
    """The comparison payload: the stable JSON dict (``raw`` excluded,
    ``engine`` kept out so identical runs compare equal)."""
    payload = json.loads(result.to_json())
    payload.pop("engine")
    return payload


def diverging_paths(ref, other, prefix=""):
    """All dotted stat paths where ``other`` differs from ``ref``."""
    paths = []
    if isinstance(ref, dict) and isinstance(other, dict):
        for key in sorted(set(ref) | set(other)):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            if key not in ref:
                paths.append("%s: <missing in reference> != %r"
                             % (path, other[key]))
            elif key not in other:
                paths.append("%s: %r != <missing>" % (path, ref[key]))
            else:
                paths.extend(diverging_paths(ref[key], other[key], path))
    elif ref != other:
        paths.append("%s: %r != %r" % (prefix or "<root>", ref, other))
    return paths


def assert_identical(results, context="", listing=None):
    """Assert every engine's result equals the reference's, bit for bit.

    ``results`` maps engine name -> RunResult and must contain
    :data:`REFERENCE_ENGINE`.  On divergence the error leads with the
    first diverging stat (the shrink-friendly one-liner), then the full
    diff and, when given, the offending program listing.
    """
    ref = comparable(results[REFERENCE_ENGINE])
    for engine, result in results.items():
        if engine == REFERENCE_ENGINE:
            continue
        got = comparable(result)
        if got == ref:
            continue
        paths = diverging_paths(ref, got)
        lines = ["%s diverges from %s%s" % (engine, REFERENCE_ENGINE,
                                            " [%s]" % context if context
                                            else ""),
                 "first diverging stat: %s" % paths[0],
                 "all divergences (%d):" % len(paths)]
        lines.extend("  " + p for p in paths[:20])
        if len(paths) > 20:
            lines.append("  ... %d more" % (len(paths) - 20))
        if listing is not None:
            lines.append("offending program:")
            lines.append(listing)
        raise AssertionError("\n".join(lines))


# -- run helpers ---------------------------------------------------------------

def run_workstation(workload, scheme, n_contexts, engine, width=1,
                    warmup=1_000, measure=5_000, seed=1994):
    """One workstation window for an (engine, width) matrix point."""
    config = SystemConfig.fast().with_pipeline(issue_width=width)
    sim = Simulation.from_config(config, scheme=scheme,
                                 n_contexts=n_contexts, seed=seed,
                                 engine=engine).load(workload)
    return sim.run(warmup=warmup, measure=measure)


def run_mp(app, scheme, n_contexts, engine, width=1,
           params=SMALL_MP_PARAMS, scale=0.25, seed=7):
    """One multiprocessor completion run for an (engine, width) point."""
    sim = Simulation.from_config(
        params, scheme=scheme, n_contexts=n_contexts, seed=seed,
        engine=engine,
        pipeline=PipelineParams(issue_width=width)).load(app, scale=scale)
    return sim.run()


def run_spec(spec, scheme, n_contexts, engine, width=1,
             cycles=6_000, seed=11):
    """Run a generated spec on the workstation simulator.

    Processes are (re)built *inside* this helper: ``Process`` carries
    mutable run state (PC, completion counters), so sharing instances
    across engine runs would leak state from one engine into the next.
    ``restart_halted`` stays on (the simulator default) so short random
    streams keep issuing for the whole window instead of idling after
    their first HALT.  Birth verification is skipped here — the
    property tests that feed this helper cover verification
    separately, and hypothesis re-runs the builder hundreds of times.
    """
    from repro.core.simulator import WorkstationSimulator
    from repro.api import workstation_run_result
    processes = [generate_process(spec, index=i, verify=False)
                 for i in range(n_contexts)]
    config = SystemConfig.fast().with_pipeline(issue_width=width)
    sim = WorkstationSimulator(processes, scheme=scheme,
                               n_contexts=n_contexts, config=config,
                               seed=seed, engine=engine)
    window = sim.measure(cycles)
    return workstation_run_result(sim, window, workload="random")


# -- hypothesis strategies -----------------------------------------------------

@st.composite
def gen_specs(draw, sharing=("private",)):
    """A random generator recipe (always ``validate``-clean).

    Spans the timing-relevant axes: dependency distance (hazard
    density), FP and FP-divide pressure (long pipelined latencies and
    non-pipelined units that break bursts), branch/multiply/shift
    density (burst lengths, non-pipelined integer stalls), memory
    fractions/strides (cache behaviour, burst boundaries), footprints
    crossing the fast-profile L1, and loop structure (nests,
    multi-block bodies).  ``sharing`` widens the strategy to
    cross-context patterns for multi-context matrix points.
    """
    load = draw(st.sampled_from((0.0, 0.05, 0.15, 0.3)))
    store = draw(st.sampled_from((0.0, 0.05, 0.1)))
    fp = draw(st.sampled_from((0.0, 0.1, 0.25)))
    branch = draw(st.sampled_from((0.0, 0.05, 0.1)))
    mul = draw(st.sampled_from((0.0, 0.05)))
    shift = draw(st.sampled_from((0.0, 0.05)))
    return GenSpec(
        name="diff",
        block_size=draw(st.sampled_from((8, 16, 48, 64))),
        loop_iterations=16,
        loop_nest=draw(st.sampled_from((1, 2))),
        blocks_per_iteration=draw(st.sampled_from((1, 2))),
        load_fraction=load,
        store_fraction=store,
        fp_fraction=fp,
        branch_fraction=branch,
        mul_fraction=mul,
        shift_fraction=shift,
        fdiv_per_block=draw(st.sampled_from((0, 1, 3))),
        dependency_distance=draw(st.sampled_from((1, 2, 4, 12))),
        footprint_words=draw(st.sampled_from((64, 2048, 16384))),
        access_stride=draw(st.sampled_from((1, 5))),
        prefetch_distance=draw(st.sampled_from((0, 4))),
        sharing=draw(st.sampled_from(sharing)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    ).validate()


#: Deprecated alias — ported to the generator strategy (same axes plus
#: the new knobs); kept so older callers keep importing.
stream_specs = gen_specs


def listing_for(spec):
    """The assembled listing of a spec's program (failure reports)."""
    return generate_process(spec, index=0, verify=False).program.listing()
