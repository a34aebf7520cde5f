"""The per-cycle and per-instruction paths read no enum attributes.

On CPython 3.11 an ``Op.X``/``Stall.X``/``Status.X`` load costs about
ten times a module-global load, so these functions read the members
through module-level names bound once at import (the same objects, so
every statistic is unchanged), and the executor dispatches through its
opcode-keyed handler table.  This test fails if an enum attribute load
reappears in any of them.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.isa import executor

_ENUMS = ("Op", "Stall", "Status")
_SRC = Path(repro.__file__).resolve().parent

#: Module (relative to the package) -> its per-cycle functions.  Every
#: function of that name in the module is checked.
HOT_PATHS = {
    "isa/executor.py": {"execute"} | {
        fn.__name__ for fn in executor._HANDLERS.values()},
    "core/processor.py": {
        "step", "idle_until", "park", "_set_parked_due", "unpark",
        "context_woken", "_update_contexts", "_detect_miss", "_retire",
        "_try_burst", "_retire_bulk", "_skip_stall_window",
        "_skip_doomed_window", "_try_issue", "_access_satisfied"},
    "core/policies.py": {"select", "owns_window", "idle_wake_info"},
    "core/simulator.py": {"_restart_process", "_advance_naive",
                          "_advance_burst"},
    "core/mpsimulator.py": {"__call__", "_advance_naive", "_advance_burst"},
}


def _enum_loads(func):
    """``Enum.MEMBER`` loads in the body of ``func``.  Decorator
    arguments and defaults run once, at import, so they do not count."""
    return ["line %d: %s.%s" % (node.lineno, node.value.id, node.attr)
            for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in _ENUMS]


@pytest.mark.parametrize("relpath", sorted(HOT_PATHS))
def test_no_enum_attribute_loads_on_hot_paths(relpath):
    tree = ast.parse((_SRC / relpath).read_text(encoding="utf-8"))
    names = HOT_PATHS[relpath]
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in names]
    # A renamed function must fail here, not silently drop out.
    assert {f.name for f in funcs} == names
    offenders = {f.name: _enum_loads(f) for f in funcs if _enum_loads(f)}
    assert offenders == {}
