"""Rule registry for the codebase linter.

Two rule families:

* **File rules** — ``fn(relpath, tree, lines) -> list[Diagnostic]`` run
  once per source file with its parsed AST; each rule decides its own
  scope from ``relpath`` (path relative to the ``repro`` package, posix
  separators).
* **Project rules** — ``fn(root) -> list[Diagnostic]`` run once per
  lint invocation against the package root; these are the cross-file
  proofs (stats parity, counter registration) that need to relate
  several modules.

Adding a rule: implement it in a module here, register its diagnostic
code in :data:`repro.analysis.diagnostics.CATALOG`, append the function
to the right list below, and add one triggering and one passing test
under ``tests/analysis/`` (see ``docs/static-analysis.md``).
"""

from repro.analysis.rules import determinism, stats_parity

#: fn(relpath, tree, lines) -> list[Diagnostic]
FILE_RULES = (determinism.check_determinism,)

#: fn(root) -> list[Diagnostic]
PROJECT_RULES = (stats_parity.check_stats_parity,
                 stats_parity.check_counter_registration)

__all__ = ["FILE_RULES", "PROJECT_RULES"]
