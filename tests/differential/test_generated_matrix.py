"""Generator-driven differential fuzzing: the full acceptance grid.

The parameterised workload generator (repro.workloads.generator) is the
fuzzing front-end for the whole bit-identity contract: every drawn
:class:`~repro.workloads.generator.GenSpec` — including the knobs the
old synthetic streams could not express (multiply/shift pressure,
multi-block loop bodies, loop nests, cross-context sharing and
spin-locks) — must produce byte-identical ``RunResult.to_json()``
payloads across

* both engines (``naive`` per-cycle reference, ``burst``
  fast-forward with precompiled segments), and
* issue widths 1/2/4 (the Section 7 extension study).

The PR lane runs these deterministically through the
``differential-ci`` hypothesis profile (tests/conftest.py); nightly
runs widen the budget with ``differential-deep`` and the
``DIFFERENTIAL_DEEP_EXAMPLES`` environment variable.  Failures lead
with the first diverging stat and the offending program listing, so a
hypothesis shrink prints a minimal counterexample.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from .harness import (
    assert_identical,
    gen_specs,
    listing_for,
    run_spec,
)

ENGINES = ("naive", "burst")

#: All sharing patterns the generator can emit; multi-context points
#: draw from the full set so the lock/CAS paths get fuzzed too.
SHARING = ("private", "read", "rw", "lock")

#: Example budget for the slow deep sweep; the nightly lane raises it.
DEEP_EXAMPLES = int(os.environ.get("DIFFERENTIAL_DEEP_EXAMPLES", "40"))


def _check_engines(spec, scheme, n_contexts, width):
    """All engines at one (scheme, contexts, width) point."""
    results = {
        engine: run_spec(spec, scheme, n_contexts, engine, width=width)
        for engine in ENGINES
    }
    assert_identical(
        results,
        context="%s x%d width=%d spec=%r"
                % (scheme, n_contexts, width, spec),
        listing=listing_for(spec))


@given(spec=gen_specs(sharing=SHARING),
       scheme=st.sampled_from(("single", "blocked", "interleaved")),
       n_contexts=st.sampled_from((1, 2, 4)),
       width=st.sampled_from((1, 2, 4)))
@settings(max_examples=15, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
def test_generated_programs_bit_identical(spec, scheme, n_contexts,
                                          width):
    """Engine identity over the generator's full knob space."""
    if scheme == "single":
        n_contexts = 1
    _check_engines(spec, scheme, n_contexts, width)


@given(spec=gen_specs(sharing=("lock",)))
@settings(max_examples=8, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
def test_generated_lock_contention_bit_identical(spec):
    """Spin-lock contention point: 4 contexts hammering one lock word.

    The sharing="lock" pattern is the hardest case for the accelerated
    engines (backoff timing, CAS failure paths), so it gets a dedicated
    always-contended probe beyond its share of the main sweep.
    """
    results = {engine: run_spec(spec, "interleaved", 4, engine)
               for engine in ENGINES}
    assert_identical(results,
                     context="lock contention spec=%r" % (spec,),
                     listing=listing_for(spec))


@pytest.mark.slow
@given(spec=gen_specs(sharing=SHARING),
       scheme=st.sampled_from(("blocked", "interleaved")),
       n_contexts=st.sampled_from((2, 4)),
       width=st.sampled_from((2, 4)))
@settings(max_examples=DEEP_EXAMPLES, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
def test_generated_programs_deep(spec, scheme, n_contexts, width):
    """Deep sweep over the full grid, multi-issue multi-context corner."""
    _check_engines(spec, scheme, n_contexts, width)
