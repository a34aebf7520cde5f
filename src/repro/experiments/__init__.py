"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning a structured result and
``render(result)`` returning the table/figure as text; the CLI
(``repro-experiments``) and the benchmark suite drive these.
"""

from repro.experiments import (
    figure2,
    figure3,
    table4,
    table7,
    figures6_7,
    table10,
    figures8_9,
    configs,
)
from repro.experiments.runner import ExperimentContext

__all__ = [
    "figure2",
    "figure3",
    "table4",
    "table7",
    "figures6_7",
    "table10",
    "figures8_9",
    "configs",
    "ExperimentContext",
]
