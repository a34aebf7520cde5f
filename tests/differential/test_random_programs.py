"""Random-program differential fuzzing across engines and widths.

Hypothesis drives the synthetic stream generator (the machinery behind
the Table 5 R0/R1 workloads) across the timing-relevant axes —
dependency distance, FP/divide pressure, branch density, memory
footprint and stride — and every drawn program must produce
bit-identical stats on both engines at the drawn scheme, context
count, and issue width.  Failures report the first diverging stat and
the offending program listing (see harness.assert_identical), so
hypothesis shrinking yields a minimal counterexample.

The CI PR lane runs this deterministically via the ``differential-ci``
profile (see tests/conftest.py); the nightly lane raises the example
budget with ``differential-deep`` and the ``DIFFERENTIAL_DEEP_EXAMPLES``
environment variable.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from .harness import (
    assert_identical,
    listing_for,
    run_spec,
    stream_specs,
)

ENGINES = ("naive", "burst")

#: Example budget for the slow deep sweep; the nightly lane raises it.
DEEP_EXAMPLES = int(os.environ.get("DIFFERENTIAL_DEEP_EXAMPLES", "40"))


def _check(spec, scheme, n_contexts, width):
    results = {
        engine: run_spec(spec, scheme, n_contexts, engine, width=width)
        for engine in ENGINES
    }
    assert_identical(
        results,
        context="%s x%d width=%d spec=%r" % (scheme, n_contexts, width,
                                             spec),
        listing=listing_for(spec))


@settings(max_examples=15, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
@given(spec=stream_specs(),
       scheme=st.sampled_from(("single", "blocked", "interleaved")),
       n_contexts=st.sampled_from((1, 2, 4)),
       width=st.sampled_from((1, 2, 4)))
def test_random_streams_bit_identical(spec, scheme, n_contexts, width):
    if scheme == "single":
        n_contexts = 1
    _check(spec, scheme, n_contexts, width)


@pytest.mark.slow
@settings(max_examples=DEEP_EXAMPLES, deadline=None,
          suppress_health_check=(HealthCheck.too_slow,))
@given(spec=stream_specs(),
       scheme=st.sampled_from(("blocked", "interleaved")),
       n_contexts=st.sampled_from((2, 4)),
       width=st.sampled_from((2, 4)))
def test_random_streams_deep(spec, scheme, n_contexts, width):
    """Deep sweep pinned to the multi-issue, multi-context corner."""
    _check(spec, scheme, n_contexts, width)
