"""Static analysis layer: program verifier, burst audit, codebase lint.

Two halves (see ``docs/static-analysis.md`` for the rule catalog):

* Program-side — :func:`verify_program` checks a decoded
  :class:`~repro.isa.program.Program` (CFG structure, dataflow,
  lock/barrier balance) and :func:`audit_bursts` re-derives the burst
  engine's slot-packing invariants statically.  The generator verifies
  every program at birth, and ``lint`` verifies the committed ones.
* Codebase-side — :func:`lint_codebase` runs the determinism and
  stats-parity rules over ``src/repro`` itself.

CLI: ``repro-experiments lint`` (``--codebase`` for the codebase half
alone).
"""

from repro.analysis.diagnostics import (Diagnostic, CATALOG, ERROR,
                                        WARNING, has_errors,
                                        render_report)
from repro.analysis.cfg import ProgramCFG, EXIT
from repro.analysis.verifier import verify_program, program_fingerprint
from repro.analysis.burst_audit import (audit_bursts, maximal_runs,
                                        DEFAULT_WIDTHS)
from repro.analysis.lint import lint_codebase, lint_file, parse_allowlist

_RACE_EXPORTS = ("analyze_races", "race_findings", "collect_accesses",
                 "dynamic_races", "uncovered_races", "AccessRecord",
                 "DynamicRace", "SharedAccess", "RaceFinding",
                 "findings_to_diagnostics", "split_sanctioned",
                 "sanction_at")


def __getattr__(name):
    # Lazy: the race pass and its abstract interpreter load only for
    # the callers that use them.
    if name in _RACE_EXPORTS:
        from repro.analysis import races
        return getattr(races, name)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))

__all__ = [
    "Diagnostic", "CATALOG", "ERROR", "WARNING", "has_errors",
    "render_report", "ProgramCFG", "EXIT", "verify_program",
    "program_fingerprint", "audit_bursts",
    "maximal_runs", "DEFAULT_WIDTHS", "lint_codebase", "lint_file",
    "parse_allowlist", "analyze_races", "race_findings",
    "collect_accesses", "dynamic_races", "uncovered_races",
    "AccessRecord", "DynamicRace", "SharedAccess", "RaceFinding",
    "findings_to_diagnostics", "split_sanctioned", "sanction_at",
]
