"""Suite-wide pytest/hypothesis configuration.

Hypothesis profiles for the differential CI lanes (selected with the
plugin's own ``--hypothesis-profile`` option; a reproducing seed can be
forced the same way with ``--hypothesis-seed=<n>``, which the plugin
wires through — no extra plumbing needed here):

* ``differential-ci`` — the PR lane: derandomised (the fixed seed makes
  runs byte-reproducible across machines) with a small example budget,
  so the whole differential job fits in about a minute.
* ``differential-deep`` — the nightly lane: many more examples and
  failure blobs printed for replay.  Tests that pin their own
  ``max_examples`` (the deep sweep reads the
  ``DIFFERENTIAL_DEEP_EXAMPLES`` environment variable) keep their pins;
  the profile governs everything else.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "differential-ci",
    derandomize=True,
    max_examples=15,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)

settings.register_profile(
    "differential-deep",
    max_examples=300,
    deadline=None,
    print_blob=True,
    suppress_health_check=(HealthCheck.too_slow,),
)
