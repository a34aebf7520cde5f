"""Stats-parity (L401/L402) and counter-registration (L403) rules.

Passing cases run against the real tree (these double as the proof that
the current processor keeps the naive and burst accounting in sync);
triggering cases point the project rules at doctored miniature trees.
"""

import textwrap

from repro.analysis.rules.stats_parity import (
    check_stats_parity, check_counter_registration)

_STALLS = """
class Stall:
    BUSY = 0
    INST_SHORT = 1
    INST_LONG = 2
    DCACHE = 3
    SYNC = 4
"""

_STATS = """
class CycleStats:
    __slots__ = ("counts", "retired", "issued")

    def add(self, stall, n=1):
        self.counts[stall] += n

    def end_run(self, length):
        pass
"""

_PROCESSOR_OK = """
class Processor:
    def _retire(self, ctx, inst, now):
        stats = self.stats
        stats.add(Stall.BUSY)
        stats.issued += 1
        stats.retired += 1
        ctx.run_instructions += 1

    def _try_burst(self, ctx, now):
        stats = self.stats
        stats.add(Stall.BUSY, n)
        stats.add(Stall.INST_SHORT, burst.short_stalls)
        stats.issued += n
        stats.retired += n
        ctx.run_instructions += n

    def _skip_stall_window(self, ctx, now, until, kind, slots_left):
        stats = self.stats
        stats.add(Stall.DCACHE, 5)
        stats.add(Stall.INST_SHORT, 2)
        stats.add(Stall.INST_LONG, 2)

    def _try_issue(self, ctx, now):
        stats = self.stats
        until, kind = self.scoreboard.hazard_until(ctx.cid, inst, now)
        if until > now:
            stats.add(Stall.DCACHE)
            stats.add(Stall.INST_SHORT)
            stats.add(Stall.INST_LONG)
            return
"""


def _tree(tmp_path, processor=_PROCESSOR_OK, stalls=_STALLS,
          stats=_STATS, extra_core=None):
    (tmp_path / "core").mkdir()
    (tmp_path / "pipeline").mkdir()
    (tmp_path / "core" / "processor.py").write_text(
        textwrap.dedent(processor))
    (tmp_path / "core" / "stats.py").write_text(textwrap.dedent(stats))
    (tmp_path / "pipeline" / "stalls.py").write_text(
        textwrap.dedent(stalls))
    if extra_core:
        (tmp_path / "core" / "extra.py").write_text(
            textwrap.dedent(extra_core))
    return tmp_path


def _codes(diags):
    return {d.code for d in diags}


# -- passing: the real tree ------------------------------------------------

def test_real_tree_stats_parity_holds():
    assert check_stats_parity() == []


def test_real_tree_counters_registered():
    assert check_counter_registration() == []


def test_doctored_tree_consistent_passes(tmp_path):
    root = _tree(tmp_path)
    assert check_stats_parity(root) == []
    assert check_counter_registration(root) == []


# -- L401: retire-path counter missing from the burst path -----------------

def test_l401_burst_path_missing_counter(tmp_path):
    broken = _PROCESSOR_OK.replace("        stats.issued += n\n", "")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert _codes(diags) == {"L401"}
    assert any("issued" in d.message for d in diags)


def test_l401_burst_path_missing_ctx_counter(tmp_path):
    broken = _PROCESSOR_OK.replace(
        "        ctx.run_instructions += n\n", "")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L401" and "run_instructions" in d.message
               for d in diags)


def test_l401_extraction_failure_is_loud(tmp_path):
    no_retire = _PROCESSOR_OK.replace("_retire", "_retire_renamed")
    diags = check_stats_parity(_tree(tmp_path, processor=no_retire))
    assert "L401" in _codes(diags)
    assert any("could not locate" in d.message for d in diags)


# -- L402: hazard-branch stall category not covered ------------------------

def test_l402_uncovered_stall_category(tmp_path):
    broken = _PROCESSOR_OK.replace(
        "stats.add(Stall.DCACHE)\n", "stats.add(Stall.SYNC)\n")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L402" and "SYNC" in d.message for d in diags)


def test_l402_missing_hazard_branch_is_loud(tmp_path):
    broken = _PROCESSOR_OK.replace("if until > now:", "if until >= now:")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L402" and "not found" in d.message
               for d in diags)


# -- categories spelled through module-level aliases -----------------------

_PROCESSOR_ALIASED = """
BUSY = Stall.BUSY
INST_SHORT = Stall.INST_SHORT
INST_LONG = Stall.INST_LONG
DCACHE = Stall.DCACHE
""" + _PROCESSOR_OK.replace("Stall.", "")


def test_aliased_tree_passes(tmp_path):
    root = _tree(tmp_path, processor=_PROCESSOR_ALIASED)
    assert check_stats_parity(root) == []
    assert check_counter_registration(root) == []


def test_l401_dropped_aliased_category(tmp_path):
    broken = _PROCESSOR_ALIASED.replace("        stats.add(BUSY, n)\n", "")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L401" and "BUSY" in d.message for d in diags)


def test_l402_dropped_aliased_category(tmp_path):
    broken = _PROCESSOR_ALIASED.replace(
        "        stats.add(INST_LONG, 2)\n", "")
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L402" and "INST_LONG" in d.message
               for d in diags)


def test_real_tree_dropped_burst_busy_charge_fires_l401(tmp_path):
    """The real processor charges through aliases; the proof must still
    see each category, not read every charge as computed."""
    import repro
    from pathlib import Path
    real = (Path(repro.__file__).parent / "core" / "processor.py") \
        .read_text(encoding="utf-8")
    assert "        stats.add(BUSY, n)\n" in real
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "processor.py").write_text(
        real.replace("        stats.add(BUSY, n)\n", ""))
    diags = check_stats_parity(tmp_path)
    assert any(d.code == "L401" and "BUSY" in d.message for d in diags)


# -- the burst path through its helpers ------------------------------------

_BULK_INLINE = """    def _try_burst(self, ctx, now):
        stats = self.stats
        stats.add(Stall.BUSY, n)
        stats.add(Stall.INST_SHORT, burst.short_stalls)
        stats.issued += n
        stats.retired += n
        ctx.run_instructions += n
"""

_BULK_HELPER = """    def _retire_bulk(self, ctx, n, short):
        stats = self.stats
        stats.add(Stall.BUSY, n)
        stats.add(Stall.INST_SHORT, short)
        stats.issued += n
        stats.retired += n
        ctx.run_instructions += n

    def _try_burst(self, ctx, now):
        self._retire_bulk(ctx, n, burst.short_stalls)
        self._retire(ctx, branch, now)
"""

_PROCESSOR_HELPER = _PROCESSOR_OK.replace(_BULK_INLINE, _BULK_HELPER)


def test_bulk_charge_in_a_helper_passes(tmp_path):
    """A block dispatch charges its bulk through a helper and retires
    its closing branch through ``_retire``: the rule follows the
    helper."""
    assert _PROCESSOR_HELPER != _PROCESSOR_OK
    assert check_stats_parity(_tree(tmp_path,
                                    processor=_PROCESSOR_HELPER)) == []


def test_l401_retire_call_does_not_cover_a_dropped_bulk_charge(tmp_path):
    """``_try_burst`` calling ``_retire`` for one op must not vouch for
    the bulk charge: dropping the helper's BUSY add still fires."""
    broken = _PROCESSOR_HELPER.replace(
        "        stats.add(Stall.BUSY, n)\n", "")
    assert broken != _PROCESSOR_HELPER
    diags = check_stats_parity(_tree(tmp_path, processor=broken))
    assert any(d.code == "L401" and "BUSY" in d.message for d in diags)


# -- L403: unregistered counters -------------------------------------------

def test_l403_unregistered_stats_attribute(tmp_path):
    root = _tree(tmp_path, extra_core="""
    def bump(stats):
        stats.bogus_counter += 1
    """)
    diags = check_counter_registration(root)
    assert any(d.code == "L403" and "bogus_counter" in d.message
               for d in diags)


def test_l403_unknown_stall_member(tmp_path):
    root = _tree(tmp_path, extra_core="""
    def charge(stats):
        stats.add(Stall.NO_SUCH_BUCKET)
    """)
    diags = check_counter_registration(root)
    assert any(d.code == "L403" and "NO_SUCH_BUCKET" in d.message
               for d in diags)


def test_l403_unknown_stats_method(tmp_path):
    root = _tree(tmp_path, extra_core="""
    def finish(stats):
        stats.finalise()
    """)
    diags = check_counter_registration(root)
    assert any(d.code == "L403" and "finalise" in d.message
               for d in diags)


def test_l403_pass_registered_use(tmp_path):
    root = _tree(tmp_path, extra_core="""
    def ok(stats):
        stats.add(Stall.BUSY)
        stats.retired += 1
        stats.end_run(3)
        stats.counts[0] += 1
    """)
    assert check_counter_registration(root) == []


def test_l403_missing_ground_truth_is_loud(tmp_path):
    (tmp_path / "core").mkdir()
    diags = check_counter_registration(tmp_path)
    assert "L403" in _codes(diags)
    assert any("ground truth" in d.message for d in diags)
