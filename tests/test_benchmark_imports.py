"""Every benchmark module imports cleanly.

Module-level helpers, spec tables and default arguments are evaluated
here, so a benchmark that grew an import-time dependency on a removed
API, or on one that warns (the pytest configuration turns
``DeprecationWarning`` into an error), fails this test rather than the
nightly benchmark job.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(p for p in BENCH_DIR.glob("*.py")
                 if p.name != "conftest.py")


def test_benchmark_modules_exist():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_import_without_deprecation_warnings(path):
    name = "bench_import_check_%s" % path.stem
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    # Benchmark modules import their shared helpers as ``from conftest
    # import ...``, which resolves relative to the benchmarks dir.
    sys.path.insert(0, str(BENCH_DIR))
    had_conftest = sys.modules.pop("conftest", None)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
        sys.modules.pop("conftest", None)
        if had_conftest is not None:
            sys.modules["conftest"] = had_conftest
        sys.path.remove(str(BENCH_DIR))
