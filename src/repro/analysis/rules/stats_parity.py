"""Stats-parity and counter-registration lint passes (L4xx).

The burst engine's claim to bit-identity rests on two cross-file
invariants that no unit test can pin as directly as the source itself:

* **L401 / L402 — stats parity.**  Every counter the naive per-cycle
  retire path (``Processor._retire``) mutates must also be mutated by
  the burst bulk-add path (``_try_burst``); every stall category the
  naive hazard branch of ``_try_issue`` can charge must be charged by
  the bulk window/burst paths (``_skip_stall_window`` / ``_try_burst``).
  The burst path is ``_try_burst`` together with the processor methods
  it calls (``self.name(...)``, one level deep, so its bulk-charge
  helper counts) — never ``_retire`` itself, which a block calls for
  the ops it issues one by one: crediting it would let the bulk charge
  vanish unseen.  A counter added to one path and forgotten on the
  other diverges the engines on the first burst dispatch — exactly the
  bug class the differential harness only catches dynamically.
* **L403 — counter registration.**  Every ``Stall.X`` referenced in
  ``core/`` must be a declared :class:`~repro.pipeline.stalls.Stall`
  member, and every mutated ``stats.*`` attribute (or called ``stats``
  method) must be declared by ``CycleStats`` in ``core/stats.py`` —
  with ``__slots__`` this would raise at runtime, but only on the path
  that actually executes; the lint rejects it on every path.

These are *project* rules: they parse several modules under a package
root.  ``root`` defaults to the installed ``repro`` package and is
overridable so tests can point the rules at doctored source trees.

The extraction is deliberately shape-based (receivers literally named
``stats``/``ctx``/``process``, ``Stall.X`` attribute references or
module-level ``NAME = Stall.X`` aliases of them): if a
refactor renames those locals, the rules fail loudly with a
"could not locate" diagnostic rather than silently proving nothing.
"""

import ast
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic

_PARITY_FILE = "core/processor.py"


def _package_root(root):
    if root is not None:
        return Path(root)
    return Path(__file__).resolve().parents[2]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _find_func(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _attr_base(node):
    """Penultimate identifier of an attribute chain: ``a.b.c`` -> 'b',
    ``a.b`` -> 'a'."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _stall_member(node, aliases):
    """The Stall member ``node`` names, as ``Stall.X`` or through a
    module-level alias; None for anything else."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "Stall"):
        return node.attr
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _stall_aliases(tree):
    """Module-level ``NAME = Stall.X`` bindings, as {NAME: X}.

    The per-cycle paths charge categories through such aliases (an enum
    attribute load is slow on CPython 3.11), so the proofs must read
    ``stats.add(BUSY)`` as the BUSY category, not a computed one.
    """
    aliases = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            member = _stall_member(stmt.value, {})
            if member is not None:
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        aliases[t.id] = member
    return aliases


def _mutations(func, aliases):
    """Counter-mutation labels of one function body.

    ``('stats', attr)`` for ``stats.attr += ...``; ``('ctx', ...)`` /
    ``('process', ...)`` for the per-context/per-process counters; and
    ``('stall', X)`` for ``stats.add(Stall.X, ...)`` or an alias of it
    (``'<dynamic>'`` when the category is computed).
    """
    muts = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)):
            base = _attr_base(node.target)
            if base in ("stats", "ctx", "process"):
                muts.add((base, node.target.attr))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and _attr_base(node.func) == "stats"):
            member = (_stall_member(node.args[0], aliases)
                      if node.args else None)
            muts.add(("stall", member or "<dynamic>"))
    return muts


def _stall_refs(node, aliases):
    refs = {_stall_member(n, aliases) for n in ast.walk(node)}
    refs.discard(None)
    return refs


def _burst_path(tree, burst):
    """``_try_burst`` and the methods it calls as ``self.name(...)``
    (one level deep), leaving out ``_retire``."""
    funcs = [burst]
    for node in ast.walk(burst):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr not in ("_retire", "_try_burst")):
            helper = _find_func(tree, node.func.attr)
            if helper is not None and helper not in funcs:
                funcs.append(helper)
    return funcs


def _find_hazard_branch(func):
    """The ``if until > now:`` hazard branch of ``_try_issue``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "until"
                and len(test.ops) == 1 and isinstance(test.ops[0], ast.Gt)
                and isinstance(test.comparators[0], ast.Name)
                and test.comparators[0].id == "now"):
            return node
    return None


def check_stats_parity(root=None):
    """L401/L402 over ``core/processor.py`` under ``root``."""
    root = _package_root(root)
    path = root / "core" / "processor.py"
    if not path.exists():
        return [Diagnostic("L401", "no core/processor.py under %s — "
                           "stats-parity proof has nothing to check"
                           % root, path=_PARITY_FILE)]
    tree = _parse(path)
    aliases = _stall_aliases(tree)
    diags = []

    retire = _find_func(tree, "_retire")
    burst = _find_func(tree, "_try_burst")
    if retire is None or burst is None:
        diags.append(Diagnostic(
            "L401", "could not locate _retire/_try_burst — the "
            "stats-parity extraction no longer matches processor.py",
            path=_PARITY_FILE))
    else:
        bulk = set()
        for func in _burst_path(tree, burst):
            bulk |= _mutations(func, aliases)
        missing = _mutations(retire, aliases) - bulk
        for kind, name in sorted(missing):
            diags.append(Diagnostic(
                "L401", "naive retire path mutates %s counter %r but "
                "the burst bulk-add path (_try_burst) does not"
                % (kind, name), path=_PARITY_FILE, line=retire.lineno))

    try_issue = _find_func(tree, "_try_issue")
    skip = _find_func(tree, "_skip_stall_window")
    if try_issue is None or skip is None or burst is None:
        diags.append(Diagnostic(
            "L402", "could not locate _try_issue/_skip_stall_window — "
            "the hazard-path parity extraction no longer matches "
            "processor.py", path=_PARITY_FILE))
        return diags
    hazard = _find_hazard_branch(try_issue)
    if hazard is None:
        diags.append(Diagnostic(
            "L402", "hazard branch (if until > now) not found in "
            "_try_issue — the parity extraction no longer matches",
            path=_PARITY_FILE, line=try_issue.lineno))
        return diags
    charged = set()
    for stmt in hazard.body:
        charged |= _stall_refs(stmt, aliases)
    covered = _stall_refs(skip, aliases)
    for func in _burst_path(tree, burst):
        covered |= _stall_refs(func, aliases)
    for name in sorted(charged - covered):
        diags.append(Diagnostic(
            "L402", "naive hazard branch charges Stall.%s but neither "
            "_skip_stall_window nor _try_burst covers it" % name,
            path=_PARITY_FILE, line=hazard.lineno))
    return diags


def _enum_members(path, class_name):
    if not path.exists():
        return None
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            members.add(t.id)
                elif (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    members.add(stmt.target.id)
            return members
    return None


def _stats_declarations(path):
    """(slots, method names) declared by CycleStats, or None."""
    if not path.exists():
        return None
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ClassDef) and node.name == "CycleStats":
            slots = set()
            methods = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    methods.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if (isinstance(t, ast.Name)
                                and t.id == "__slots__"):
                            for elt in stmt.value.elts:
                                if isinstance(elt, ast.Constant):
                                    slots.add(elt.value)
            return slots, methods
    return None


def check_counter_registration(root=None):
    """L403 over every ``core/*.py`` under ``root``."""
    root = _package_root(root)
    diags = []
    stall_members = _enum_members(root / "pipeline" / "stalls.py", "Stall")
    decl = _stats_declarations(root / "core" / "stats.py")
    if stall_members is None or decl is None:
        diags.append(Diagnostic(
            "L403", "could not parse Stall members or CycleStats "
            "declarations under %s — registration pass has no ground "
            "truth" % root, path="core/stats.py"))
        return diags
    slots, methods = decl

    for path in sorted((root / "core").glob("*.py")):
        relpath = "core/" + path.name
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Stall"):
                if node.attr not in stall_members:
                    diags.append(Diagnostic(
                        "L403", "Stall.%s is not declared in "
                        "pipeline/stalls.py" % node.attr,
                        path=relpath, line=node.lineno))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Subscript):
                        t = t.value
                    if (isinstance(t, ast.Attribute)
                            and _attr_base(t) == "stats"
                            and t.attr not in slots):
                        diags.append(Diagnostic(
                            "L403", "stats.%s is mutated but not "
                            "declared in CycleStats.__slots__"
                            % t.attr, path=relpath, line=node.lineno))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and _attr_base(node.func) == "stats"
                    and node.func.attr not in methods
                    and node.func.attr not in slots):
                diags.append(Diagnostic(
                    "L403", "stats.%s() is not a CycleStats method"
                    % node.func.attr, path=relpath,
                    line=node.lineno))
    return diags


__all__ = ["check_stats_parity", "check_counter_registration"]
