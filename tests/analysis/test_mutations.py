"""Property tests: generated programs verify; injected defects do not.

Three single-instruction mutation classes, each expected to surface a
specific diagnostic code that the unmutated program does not carry:

* retargeting a branch outside the program       -> V101 (error)
* dropping a register's only write               -> V104 (warning;
  registers reset to zero, so execution stays defined — the code
  must still appear)
* dropping an unlock                             -> V107 (error)

All inputs come from the parameterised workload generator
(:mod:`repro.workloads.generator`), so the mutation suite covers the
same program space the differential fuzzers draw from — including the
lock-protected sharing pattern, whose generated critical sections give
the dropped-unlock mutation real targets.
"""

import dataclasses

from hypothesis import given, settings

from repro.analysis import verify_program, has_errors
from repro.analysis.cfg import _static_target
from repro.config import PipelineParams
from repro.isa.builder import AsmBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.workloads.generator import GenSpec, generate_program
from tests.differential.harness import gen_specs

THRESHOLD = PipelineParams().short_stall_threshold
F0 = 32                                   # flat index of f0

_NOP = lambda: Instruction(Op.ADD, rd=0, rs1=0, rs2=0)  # noqa: E731

#: A compact lock-protected spec for the unlock-mutation tests (small
#: body so the suite stays fast; the critical section is per-iteration
#: regardless of the mix).
_LOCK_SPEC = GenSpec(name="mut-lock", sharing="lock", block_size=12,
                     footprint_words=64, loop_iterations=8)


def _build(spec, iterations=None):
    """A program to mutate: verification intentionally skipped so the
    tests assert on the verifier's behaviour, not the generator's.

    The unlock tests pass a finite ``iterations``: V107 fires at a
    *reachable* HALT, and the throughput-mode programs loop forever.
    """
    return generate_program(spec, iterations=iterations, verify=False)


def _codes(diags):
    return {d.code for d in diags}


def _verify(program):
    return verify_program(program, threshold=THRESHOLD, widths=(1, 2))


# -- generated programs are verifier-clean ---------------------------------

@settings(max_examples=15, derandomize=True, deadline=None)
@given(gen_specs(sharing=("private", "read", "rw", "lock")))
def test_generated_programs_pass_verifier(spec):
    diags = _verify(_build(spec))
    assert not has_errors(diags)
    # Streams read scratch-pool registers they never wrote (defined by
    # the zero-reset architectural state) — V104 is the only warning
    # class they are allowed to carry.
    assert _codes(diags) <= {"V104"}


# -- mutation: branch retarget out of range --------------------------------

@settings(max_examples=10, derandomize=True, deadline=None)
@given(gen_specs())
def test_branch_retarget_rejected(spec):
    p = _build(spec)
    pc = next(i for i, inst in enumerate(p.instructions)
              if inst.is_control and _static_target(inst) is not None)
    p.instructions[pc].imm = len(p.instructions) + 7
    diags = _verify(p)
    assert "V101" in _codes(diags) and has_errors(diags)


# -- mutation: dropped register write --------------------------------------

@settings(max_examples=10, derandomize=True, deadline=None)
@given(gen_specs())
def test_dropped_write_detected(spec):
    # Force at least one FP divide so f0 is read inside the loop body.
    spec = dataclasses.replace(
        spec, fdiv_per_block=max(1, spec.fdiv_per_block))
    p = _build(spec)

    def f0_diags(diags):
        return [d for d in diags
                if d.code == "V104" and "reads f0 " in d.message]

    assert not f0_diags(_verify(p))
    # Mutate a fresh build: the first _verify memoised burst tables for
    # the unmutated instructions, and the audit would (correctly) flag
    # the stale tables rather than the dropped write.
    p = _build(spec)
    writers = [i for i, inst in enumerate(p.instructions)
               if inst.writes == F0]
    assert writers, "generator prologue always initialises f0"
    for pc in writers:
        p.instructions[pc] = _NOP()
    diags = _verify(p)
    assert f0_diags(diags)
    assert not has_errors(diags)          # warning severity by design


# -- mutation: dropped unlock ----------------------------------------------

def test_generated_lock_spec_is_clean():
    """The lock-sharing pattern itself is verifier-clean (balanced
    critical sections) — the baseline the mutation below perturbs."""
    p = _build(_LOCK_SPEC, iterations=2)
    diags = _verify(p)
    assert not has_errors(diags)
    assert _codes(diags) <= {"V104"}


def test_dropped_unlock_rejected_generated():
    """NOP-ing the generated critical section's unlock must fire V107."""
    p = _build(_LOCK_SPEC, iterations=2)
    unlock_pc = next(i for i, inst in enumerate(p.instructions)
                     if inst.op is Op.UNLOCK)
    p.instructions[unlock_pc] = _NOP()
    diags = verify_program(p)
    assert "V107" in _codes(diags) and has_errors(diags)


def test_dropped_unlock_rejected_handwritten():
    b = AsmBuilder("mutant", data_base=0x1000)
    addr = b.space("m", 1)
    b.li("t1", addr)
    b.lock(0, "t1")
    b.addi("t2", "zero", 1)
    b.unlock(0, "t1")
    b.halt()
    p = b.build()
    assert not {"V106", "V107"} & _codes(verify_program(p))

    unlock_pc = next(i for i, inst in enumerate(p.instructions)
                     if inst.op is Op.UNLOCK)
    p.instructions[unlock_pc] = _NOP()
    diags = verify_program(p)
    assert "V107" in _codes(diags) and has_errors(diags)
