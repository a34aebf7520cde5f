"""Diagnostic objects and the code catalog for the static-analysis layer.

Every finding — from the program verifier, the burst-schedule audit, or
the codebase linter — is one :class:`Diagnostic` with a stable code.
Codes are the contract: tests, CI gates, and allowlist entries refer to
them, so a code is never reused for a different defect class and its
meaning is documented in :data:`CATALOG` (and ``docs/static-analysis.md``).

Numbering convention::

    V1xx  program verifier, structural and dataflow checks
    B2xx  burst-schedule audit (static slot-packing invariants)
    L3xx  codebase lint, determinism pass
    L4xx  codebase lint, stats-parity and counter-registration passes
    L5xx  codebase lint, allowlist hygiene
    R7xx  cross-context data-race analysis (lockset + barrier phase)
"""

import hashlib
from dataclasses import dataclass

#: Severity levels.  ``ERROR`` findings reject a program (the
#: generator's birth verification raises, the CLI exits nonzero);
#: ``WARNING`` findings are reported but do not gate.
ERROR = "error"
WARNING = "warning"

#: code -> (default severity, one-line description).  The description is
#: the catalog entry; the message on an individual Diagnostic carries
#: the specifics (register, pc, line).
CATALOG = {
    # -- program verifier -------------------------------------------------
    "V100": (ERROR, "program entry point outside the instruction list"),
    "V101": (ERROR, "static control-transfer target out of range or "
                    "unresolved"),
    "V102": (ERROR, "execution can fall off the end of the program"),
    "V103": (WARNING, "unreachable code (never executed from the entry "
                      "point; trailing HALT epilogues are exempt)"),
    "V104": (WARNING, "register read with no prior write on any path "
                      "from the entry point"),
    "V106": (ERROR, "UNLOCK executed while definitely holding no lock"),
    "V107": (ERROR, "a held lock is never released on any path to HALT"),
    "V108": (WARNING, "lock depth inconsistent across paths (possible "
                      "leak or unlock-without-lock)"),
    "V109": (WARNING, "BARRIER arrival while definitely holding a lock "
                      "(deadlock-prone)"),
    # -- burst-schedule audit ---------------------------------------------
    "B201": (ERROR, "burst slot conservation violated "
                    "(n + short + long != duration * width)"),
    "B202": (ERROR, "burst duration below the issue-bandwidth bound "
                    "(duration < ceil(n / width))"),
    "B203": (ERROR, "guard slack not monotone in issue width"),
    "B204": (ERROR, "suffix-burst coverage hole: an entry PC of a "
                    "maximal straight-line run has no (or a wrong) "
                    "burst"),
    "B205": (ERROR, "burst metadata out of bounds (guard/write-out "
                    "register, slack, or delta invalid)"),
    # -- determinism lint -------------------------------------------------
    "L301": (ERROR, "iteration over an unordered set (order is "
                    "hash-seed dependent)"),
    "L302": (ERROR, "dict/OrderedDict .popitem() in simulator state "
                    "(eviction order must be explicit)"),
    "L303": (ERROR, "module-level random API or unseeded random.Random "
                    "(simulator randomness must be seeded and owned)"),
    "L304": (ERROR, "wall-clock time in the simulator core (results "
                    "must not depend on host timing)"),
    "L305": (ERROR, "id() in the simulator core (allocation-dependent "
                    "values must not order or key anything)"),
    # -- stats-parity / registration lint ---------------------------------
    "L401": (ERROR, "stats-parity: a counter mutated on the naive "
                    "per-cycle retire path is not covered by the burst "
                    "bulk-add path"),
    "L402": (ERROR, "stats-parity: a stall category charged by the "
                    "naive hazard branch is not covered by the bulk "
                    "stall/burst path"),
    "L403": (ERROR, "unregistered counter: a mutated Stats attribute or "
                    "Stall member is not declared in core/stats.py / "
                    "pipeline/stalls.py"),
    # -- allowlist hygiene ------------------------------------------------
    "L501": (ERROR, "allowlist directive without a justification "
                    "(use '# lint: allow(CODE) -- why')"),
    "L502": (WARNING, "allowlist directive names an unknown diagnostic "
                      "code"),
    # -- cross-context data races ------------------------------------------
    "R701": (ERROR, "write/write data race: overlapping shared writes "
                    "from different contexts with disjoint locksets and "
                    "compatible barrier phases"),
    "R702": (ERROR, "read/write data race: a shared read overlaps "
                    "another context's write with disjoint locksets and "
                    "compatible barrier phases"),
    "R703": (WARNING, "unlock-protected read of lock-protected data: the "
                      "writer consistently holds a lock the reader never "
                      "acquires"),
    "R704": (WARNING, "shared access with a widening-unbounded address "
                      "interval (excluded from the pairwise race join; "
                      "audit manually)"),
}

#: code prefix -> stable machine-readable category for JSON consumers.
RULE_CATEGORIES = {
    "V1": "verifier",
    "B2": "burst-audit",
    "L3": "determinism",
    "L4": "stats-parity",
    "L5": "allowlist",
    "R7": "races",
}


def rule_category(code):
    """Stable category slug for a diagnostic code (JSON schema field)."""
    return RULE_CATEGORIES.get(code[:2], "other")


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Exactly one of the two location families is populated: program
    findings carry ``program``/``pc``, codebase findings carry
    ``path``/``line``.
    """

    code: str
    message: str
    severity: str = ""
    #: Program-side location.
    program: str = ""
    pc: int = -1
    #: Codebase-side location.
    path: str = ""
    line: int = -1
    #: Lock words definitely held at the finding site (sorted addresses;
    #: populated by the lock-balance and race analyses).
    held_locks: tuple = ()

    def __post_init__(self):
        if self.code not in CATALOG:
            raise ValueError("unknown diagnostic code %r" % (self.code,))
        if not self.severity:
            object.__setattr__(self, "severity", CATALOG[self.code][0])

    @property
    def is_error(self):
        return self.severity == ERROR

    @property
    def location(self):
        if self.path:
            return ("%s:%d" % (self.path, self.line) if self.line >= 0
                    else self.path)
        if self.program:
            return ("%s@pc=%d" % (self.program, self.pc) if self.pc >= 0
                    else self.program)
        return "<unlocated>"

    def render(self):
        return "%s %-7s %s: %s" % (self.code, self.severity,
                                   self.location, self.message)

    @property
    def fingerprint(self):
        """Stable identity of this finding across runs (12 hex chars).

        Hashes code + location + message, so re-running the analyzer on
        an unchanged input reproduces the same fingerprint and CI/service
        consumers can diff finding sets without scraping text.
        """
        key = "%s|%s|%s|%d|%s|%d" % (self.code, self.message, self.path,
                                     self.line, self.program, self.pc)
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def to_dict(self):
        d = {"code": self.code, "severity": self.severity,
             "message": self.message,
             "fingerprint": self.fingerprint,
             "rule_category": rule_category(self.code)}
        if self.path:
            d["path"] = self.path
            if self.line >= 0:
                d["line"] = self.line
        if self.program:
            d["program"] = self.program
            if self.pc >= 0:
                d["pc"] = self.pc
        if self.held_locks:
            d["held_locks"] = list(self.held_locks)
        return d


def has_errors(diagnostics):
    """True when any finding is error-severity."""
    return any(d.is_error for d in diagnostics)


def sort_key(diag):
    """Stable presentation order: errors first, then by location/code."""
    return (0 if d_is_error(diag) else 1, diag.path, diag.line,
            diag.program, diag.pc, diag.code)


def d_is_error(diag):
    return diag.severity == ERROR


def render_report(diagnostics):
    """Human-readable multi-line report (sorted, stable)."""
    return "\n".join(d.render() for d in sorted(diagnostics, key=sort_key))
