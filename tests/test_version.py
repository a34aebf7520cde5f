"""The package reports the version its project metadata declares."""

import pathlib
import re

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # Read as text: tomllib is 3.11+, and the package supports 3.9.
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert match is not None, "no version line in pyproject.toml"
    assert repro.__version__ == match.group(1)
