"""The 'repro-experiments lint' verb."""

import json

import pytest

from repro.experiments.cli import main


def test_lint_codebase_exits_clean(capsys):
    assert main(["lint", "--codebase"]) == 0
    out = capsys.readouterr().out
    assert "codebase" in out


def test_lint_codebase_json(capsys):
    assert main(["lint", "--codebase", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["codebase"]["errors"] == 0
    assert payload["diagnostics"] == []


@pytest.mark.slow
def test_lint_all_verifies_programs(capsys):
    assert main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["programs"]["errors"] == 0
    assert payload["programs"]["verified"] >= 50


@pytest.mark.slow
def test_races_verb_json(capsys):
    """The race report CI uploads: 'lint --races' is the race pass's
    only entry point."""
    assert main(["lint", "--codebase", "--races", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # Every committed multi-context group is covered; the only R-errors
    # (mp3d's deliberate scatter) are sanctioned, so none stay active.
    assert payload["races"]["groups"] >= 14
    assert "R701" not in payload["races"]
    assert "R702" not in payload["races"]
    assert payload["races"]["suppressed"] >= 1
    assert any(s["code"] == "R701" and s["rationale"]
               for s in payload["suppressed_races"])
    # The codebase lints clean, so every diagnostic is a race audit.
    assert payload["diagnostics"], "expected R704 audit diagnostics"
    for diag in payload["diagnostics"]:
        assert diag["rule_category"] == "races"
        assert len(diag["fingerprint"]) == 12


@pytest.mark.slow
def test_races_verb_text_summarises_audits(capsys):
    assert main(["lint", "--codebase", "--races"]) == 0
    out = capsys.readouterr().out
    assert "R704 unbounded-access audits" in out
    assert "suppressed R701" in out
    assert "races:" in out


@pytest.mark.slow
def test_lint_races_flag(capsys):
    assert main(["lint", "--codebase", "--races", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "races" in payload
    assert payload["suppressed_races"]


def test_diagnostic_json_schema_fields(capsys):
    # Stable machine-readable schema: every diagnostic payload carries
    # the content fingerprint and its rule category (see
    # docs/static-analysis.md).
    from repro.analysis import analyze_races
    from repro.isa.builder import AsmBuilder

    def writer(name):
        b = AsmBuilder(name, data_base=0x1000)
        b.li("t0", 0x5000)
        b.sw("t1", 0, "t0")
        b.halt()
        return b.build()

    diags = analyze_races([writer("a"), writer("b")])
    payload = diags[0].to_dict()
    assert payload["code"] == "R701"
    assert payload["rule_category"] == "races"
    assert len(payload["fingerprint"]) == 12
    # The fingerprint is a pure content hash: same finding, same value.
    again = analyze_races([writer("a"), writer("b")])[0].to_dict()
    assert again["fingerprint"] == payload["fingerprint"]
