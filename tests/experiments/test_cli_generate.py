"""The 'generate' CLI verb: deterministic families from the terminal.

``repro-experiments generate`` is the human entry point to the
parameterised workload generator — the contract mirrors the library's:
deterministic per seed, verified at birth by default, and the emitted
assembly re-assembles bit-identically.
"""

import re

import pytest

from repro.analysis.verifier import program_fingerprint
from repro.experiments.cli import main
from repro.isa.assembler import assemble

#: A compact spec so verified generation stays fast in the PR lane.
SMALL = "block_size=16;footprint_words=64;loop_iterations=8"

_MEMBER_RE = re.compile(
    r"^(\S+)\s+seed=(\d+)\s+(\d+) insts\s+([0-9a-f]{16,})", re.M)


def _members(out):
    """[(name, seed, n_insts, fingerprint), ...] from generate output."""
    return [(m.group(1), int(m.group(2)), int(m.group(3)), m.group(4))
            for m in _MEMBER_RE.finditer(out)]


class TestGenerateVerb:
    def test_default_invocation(self, capsys):
        assert main(["generate", "--spec", SMALL]) == 0
        out = capsys.readouterr().out
        assert "spec fingerprint:" in out
        members = _members(out)
        assert len(members) == 1
        assert "verified" in out

    def test_family_seeds_increment(self, capsys):
        assert main(["generate", "--spec", SMALL, "--seed", "100",
                     "--count", "3", "--no-verify"]) == 0
        members = _members(capsys.readouterr().out)
        assert [m[1] for m in members] == [100, 101, 102]
        assert [m[0] for m in members] == \
            ["gen-0000", "gen-0001", "gen-0002"]

    def test_deterministic_across_invocations(self, capsys):
        argv = ["generate", "--spec", SMALL, "--seed", "7",
                "--count", "2", "--no-verify"]
        assert main(argv) == 0
        first = _members(capsys.readouterr().out)
        assert main(argv) == 0
        second = _members(capsys.readouterr().out)
        assert first == second

    def test_spec_seed_beats_seed_flag(self, capsys):
        assert main(["generate", "--spec", SMALL + ";seed=55",
                     "--seed", "7", "--no-verify"]) == 0
        assert _members(capsys.readouterr().out)[0][1] == 55

    def test_emit_asm_reassembles_identically(self, capsys, tmp_path):
        out_dir = tmp_path / "asm"
        assert main(["generate", "--spec", SMALL, "--seed", "3",
                     "--emit-asm", str(out_dir)]) == 0
        name, _, n_insts, fp = _members(capsys.readouterr().out)[0]
        source = (out_dir / ("%s.s" % name)).read_text()
        # Family members sit at staggered bases; the emitted header
        # comment records them for exactly this round trip.
        bases = re.search(r"# code_base: (0x[0-9A-Fa-f]+)\s+"
                          r"data_base: (0x[0-9A-Fa-f]+)", source)
        program = assemble(source, name=name,
                           code_base=int(bases.group(1), 16),
                           data_base=int(bases.group(2), 16))
        assert program_fingerprint(program) == fp
        assert len(program.instructions) == n_insts

    def test_bad_spec_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--spec", "warp_factor=9"])

    def test_bad_gen_point_rejected_up_front(self):
        # Refused before connecting: nothing listens on port 1.
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--connect", "127.0.0.1:1",
                  "--points", "gen:warp_factor=9:interleaved:2"])
        assert "warp_factor" in str(exc.value.code)
