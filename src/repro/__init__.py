"""Reproduction of Laudon, Gupta & Horowitz, "Interleaving: A
Multithreading Technique Targeting Multiprocessors and Workstations"
(ASPLOS-VI, 1994).

Top-level convenience imports cover the most common entry points; see
README.md for a tour and DESIGN.md for the system inventory.

    >>> from repro import Simulation, SystemConfig
    >>> result = (Simulation.from_config(SystemConfig.fast(),
    ...                                  scheme="interleaved", n_contexts=4)
    ...           .load("DC")
    ...           .run(warmup=30_000, measure=120_000))

(:class:`repro.api.Simulation` is the supported construction API; the
simulator classes below remain importable for microarchitectural work.)
"""

__version__ = "1.7.0"

from repro.api import Simulation, RunResult

from repro.config import (
    SystemConfig,
    MultiprocessorParams,
    PipelineParams,
    SCHEMES,
)
from repro.core import (
    Processor,
    Process,
    WorkstationSimulator,
    MultiprocessorSimulator,
    TimelineRecorder,
)
from repro.workloads import build_workload, build_app

__all__ = [
    "__version__",
    "Simulation",
    "RunResult",
    "SystemConfig",
    "MultiprocessorParams",
    "PipelineParams",
    "SCHEMES",
    "Processor",
    "Process",
    "WorkstationSimulator",
    "MultiprocessorSimulator",
    "TimelineRecorder",
    "build_workload",
    "build_app",
]
