"""Program verifier rule classes: one trigger and one pass per code."""

from repro.analysis import verify_program, has_errors, program_fingerprint
from repro.isa.builder import AsmBuilder
from repro.isa.program import Program


def _build(fn, name="prog"):
    b = AsmBuilder(name, data_base=0x1000)
    fn(b)
    return b.build()


def _codes(diags):
    return {d.code for d in diags}


def _verify(fn, **kwargs):
    return verify_program(_build(fn), **kwargs)


# -- V100: entry range -----------------------------------------------------

def test_v100_entry_out_of_range():
    p = _build(lambda b: b.halt())
    bad = Program("bad", p.instructions, p.labels, p.data, entry=99)
    diags = verify_program(bad)
    assert _codes(diags) == {"V100"} and has_errors(diags)


def test_v100_pass_default_entry():
    assert not _verify(lambda b: b.halt())


# -- V101: static target range ---------------------------------------------

def test_v101_branch_target_out_of_range():
    def build(b):
        b.addi("t1", "zero", 1)
        b.beq("t1", "zero", 99)
        b.halt()
    diags = _verify(build)
    assert "V101" in _codes(diags) and has_errors(diags)


def test_v101_unresolved_target():
    def build(b):
        b.j("end")
        b.label("end")
        b.halt()
    p = _build(build)
    p.instructions[0].imm = object()   # a label that never resolved
    diags = verify_program(p)
    assert "V101" in _codes(diags)


def test_v101_pass_in_range_branch():
    def build(b):
        b.addi("t1", "zero", 1)
        b.beq("t1", "zero", "end")
        b.label("end")
        b.halt()
    assert "V101" not in _codes(_verify(build))


# -- V102: fall off the end ------------------------------------------------

def test_v102_fall_through_end():
    diags = _verify(lambda b: b.addi("t1", "zero", 1))
    assert "V102" in _codes(diags) and has_errors(diags)


def test_v102_pass_halted():
    def build(b):
        b.addi("t1", "zero", 1)
        b.halt()
    assert "V102" not in _codes(_verify(build))


# -- V103: unreachable code ------------------------------------------------

def test_v103_unreachable_code_warns():
    def build(b):
        b.j("end")
        b.addi("t1", "t1", 1)      # dead
        b.label("end")
        b.halt()
    diags = _verify(build)
    assert "V103" in _codes(diags)
    assert not has_errors(diags)   # warning only


def test_v103_trailing_halt_epilogue_exempt():
    def build(b):
        b.label("top")
        b.addi("t1", "t1", 1)
        b.j("top")
        b.halt()                   # conventional infinite-loop epilogue
    assert "V103" not in _codes(_verify(build))


# -- V104: read before any write -------------------------------------------

def test_v104_read_never_written():
    def build(b):
        b.add("t1", "t2", "t3")    # t2, t3 never written anywhere
        b.halt()
    diags = _verify(build)
    assert "V104" in _codes(diags)
    assert not has_errors(diags)   # warning: registers reset to zero


def test_v104_pass_written_on_some_path():
    def build(b):
        b.beq("zero", "zero", "skip")
        b.addi("t2", "zero", 5)
        b.label("skip")
        b.add("t1", "t2", "zero")  # t2 maybe-written -> fine
        b.halt()
    assert "V104" not in _codes(_verify(build))


# -- V106..V109: lock/barrier balance --------------------------------------

def _locked(b):
    addr = b.space("m", 1)
    b.li("t1", addr)
    return addr


def test_v106_unlock_without_lock():
    def build(b):
        _locked(b)
        b.unlock(0, "t1")
        b.halt()
    diags = _verify(build)
    assert "V106" in _codes(diags) and has_errors(diags)


def test_v107_lock_never_released():
    def build(b):
        _locked(b)
        b.lock(0, "t1")
        b.addi("t2", "zero", 1)
        b.halt()
    diags = _verify(build)
    assert "V107" in _codes(diags) and has_errors(diags)


def test_v108_inconsistent_depth_warns():
    def build(b):
        _locked(b)
        b.beq("zero", "zero", "skip")
        b.lock(0, "t1")
        b.label("skip")
        b.unlock(0, "t1")          # reachable at depth 0 and 1
        b.halt()
    diags = _verify(build)
    assert "V108" in _codes(diags)
    assert "V106" not in _codes(diags)


def test_v109_barrier_while_locked():
    def build(b):
        _locked(b)
        b.lock(0, "t1")
        b.barrier(0)
        b.unlock(0, "t1")
        b.halt()
    assert "V109" in _codes(_verify(build))


def test_sync_pass_balanced_pairs():
    def build(b):
        _locked(b)
        b.lock(0, "t1")
        b.addi("t2", "zero", 1)
        b.unlock(0, "t1")
        b.barrier(0)
        b.halt()
    diags = _verify(build)
    assert not {"V106", "V107", "V108", "V109"} & _codes(diags)
    # The same pair with the unlock dropped leaks the lock at HALT.
    def bad(b):
        _locked(b)
        b.lock(0, "t1")
        b.halt()
    assert "V107" in _codes(_verify(bad))


# -- fingerprint -----------------------------------------------------------

def test_fingerprint_stable_and_code_sensitive():
    def build(b):
        b.addi("t1", "zero", 1)
        b.halt()
    a1, a2 = _build(build, "a"), _build(build, "b")
    assert program_fingerprint(a1) == program_fingerprint(a2)  # name-free

    def build2(b):
        b.addi("t1", "zero", 2)
        b.halt()
    assert (program_fingerprint(a1)
            != program_fingerprint(_build(build2)))
