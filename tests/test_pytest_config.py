"""The suite's warning filters, run through the repository's own config.

``pyproject.toml`` turns every DeprecationWarning into a test failure.
When a hypothesis property fails, hypothesis imports libcst to report
it, and libcst warns about its own ``mypy_extensions.TypedDict`` use on
import; one ``ignore`` entry for that message keeps the report intact.
Each case runs pytest in a subprocess on a throwaway test file with
``pyproject.toml`` as its only config.
"""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _pytest(tmp_path, source):
    test_file = tmp_path / "test_sample.py"
    test_file.write_text(textwrap.dedent(source))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_property_prints_its_falsifying_example(tmp_path):
    proc = _pytest(tmp_path, """
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_always_fails(x):
            assert x != x
    """)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output     # 3 would be an INTERNALERROR
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output


def test_deprecation_warning_still_fails_a_test(tmp_path):
    proc = _pytest(tmp_path, """
        import warnings


        def test_calls_a_deprecated_path():
            warnings.warn("old call path", DeprecationWarning)
    """)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed" in output, output
