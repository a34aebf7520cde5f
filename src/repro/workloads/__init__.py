"""Workloads: Spec89 stand-ins, Table 5 mixes, and SPLASH stand-ins.

The paper drives its uniprocessor study with Spec89 programs compiled by
the MIPS compilers and its multiprocessor study with the SPLASH suite.
Neither is available (nor runnable on this ISA), so each program is
replaced by a *stand-in kernel*: a small program written for our ISA whose
instruction mix, dependency structure, memory footprint, and sharing
pattern stress the same resources the original stresses.  DESIGN.md
documents the substitution per program.
"""

from repro.workloads.uniprocessor import (
    WORKLOADS,
    build_workload,
    build_process,
    kernel_names,
)
from repro.workloads.splash import SPLASH_APPS, build_app
from repro.workloads.generator import (
    GenSpec,
    GenerationError,
    generate_program,
    generate_process,
    generate_processes,
    generate_family,
    verify_generated,
)
from repro.workloads.characterize import (
    profile_program,
    profile_kernel,
    characterization_table,
)

__all__ = [
    "WORKLOADS",
    "build_workload",
    "build_process",
    "kernel_names",
    "SPLASH_APPS",
    "build_app",
    "GenSpec",
    "GenerationError",
    "generate_program",
    "generate_process",
    "generate_processes",
    "generate_family",
    "verify_generated",
    "profile_program",
    "profile_kernel",
    "characterization_table",
]
