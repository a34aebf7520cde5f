"""Codebase linter driver: file walk, allowlist, reporting.

Runs the registered rule families (:mod:`repro.analysis.rules`) over
every ``*.py`` under the ``repro`` package — deterministically: files
are visited in sorted order and findings are reported in a stable sort,
so two runs over the same tree produce byte-identical output.

Allowlist format (checked by its own rules):

    some_call()   # lint: allow(L302) -- why this one is fine
    # lint: allow(L301, L305) -- justification covering the next line
    offending_line()

A directive suppresses the named codes on its own line, or — when the
directive is a comment-only line — on the following line.  A directive
*must* carry a ``-- justification`` (L501, and an unjustified directive
suppresses nothing); naming a code that does not exist is L502.

``repro-experiments lint --codebase`` runs it and exits nonzero on
error-severity findings (the pre-commit hook entry point).
"""

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, CATALOG
from repro.analysis.rules import FILE_RULES, PROJECT_RULES

#: Default lint root: the installed ``repro`` package directory.
SRC_ROOT = Path(__file__).resolve().parents[1]

_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\s*\)"
    r"(?:\s*--\s*(.*))?")


def parse_allowlist(relpath, lines):
    """Scan for allowlist directives.

    Returns ``(allows, diags)`` where ``allows`` maps a 1-based line
    number to the set of codes suppressed on that line.
    """
    allows = {}
    diags = []
    for lineno, line in enumerate(lines, start=1):
        m = _ALLOW_RE.search(line)
        if m is None:
            continue
        justification = m.group(2)
        if justification is None or not justification.strip():
            diags.append(Diagnostic(
                "L501", "allowlist directive has no justification — "
                "use '# lint: allow(CODE) -- why'; nothing suppressed",
                path=relpath, line=lineno))
            continue
        codes = set()
        for code in m.group(1).split(","):
            code = code.strip()
            if code in CATALOG:
                codes.add(code)
            else:
                diags.append(Diagnostic(
                    "L502", "allowlist names unknown diagnostic code %r"
                    % code, path=relpath, line=lineno))
        target = lineno
        if line.lstrip().startswith("#"):
            # Comment-only directive covers the next line.
            target = lineno + 1
        allows.setdefault(target, set()).update(codes)
    return allows, diags


def lint_file(path, relpath):
    """Lint one file; returns ``(diagnostics, suppressed)``."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        # Not this linter's finding: ruff/pytest own syntax errors.
        return [], []
    allows, diags = parse_allowlist(relpath, lines)
    kept = []
    suppressed = []
    for rule in FILE_RULES:
        for finding in rule(relpath, tree, lines):
            if finding.code in allows.get(finding.line, ()):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept + diags, suppressed


def lint_codebase(root=None):
    """Lint every ``*.py`` under ``root`` plus the project rules.

    Returns ``(diagnostics, summary)``; ``summary`` is a JSON-ready
    dict with counts (files scanned, errors, warnings, suppressed).
    """
    root = Path(root) if root is not None else SRC_ROOT
    diags = []
    suppressed = []
    files = 0
    for path in sorted(root.rglob("*.py")):
        files += 1
        relpath = path.relative_to(root).as_posix()
        kept, supp = lint_file(path, relpath)
        diags.extend(kept)
        suppressed.extend(supp)
    for rule in PROJECT_RULES:
        diags.extend(rule(root))
    summary = {
        "files": files,
        "errors": sum(1 for d in diags if d.is_error),
        "warnings": sum(1 for d in diags if not d.is_error),
        "suppressed": len(suppressed),
    }
    return diags, summary
