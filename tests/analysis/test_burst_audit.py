"""Burst-schedule audit: passes on real tables, catches forged ones.

Triggers are built by planting a doctored :class:`Burst` into a fresh
program's memoised table — the audit recomputes runs independently from
``burstable()``, so it cannot be fooled by the table it is checking.
"""

from repro.analysis.burst_audit import audit_bursts, maximal_runs
from repro.isa.builder import AsmBuilder
from repro.isa.segments import Burst, MIN_BURST

THRESHOLD = 4


def _program():
    b = AsmBuilder("audit", data_base=0x1000)
    # Independent pairs, so multi-issue widths pack cycle-aligned
    # bursts at entry 0 too.
    b.addi("t1", "zero", 1)
    b.addi("t2", "zero", 2)
    b.addi("t3", "zero", 3)
    b.addi("t4", "zero", 4)
    b.add("t5", "t1", "t2")
    b.add("t6", "t3", "t4")
    b.halt()
    return b.build()


def _codes(diags):
    return {d.code for d in diags}


def _clone(b, **overrides):
    kwargs = dict(start=b.start, instructions=b.instructions,
                  duration=b.duration, short_stalls=b.short_stalls,
                  long_stalls=b.long_stalls, guard=b.guard,
                  writes_out=b.writes_out, width=b.width)
    kwargs.update(overrides)
    clone = Burst(kwargs["start"], kwargs["instructions"],
                  kwargs["duration"], kwargs["short_stalls"],
                  kwargs["long_stalls"], kwargs["guard"],
                  kwargs["writes_out"], kwargs["width"])
    return clone


def test_pass_on_real_tables():
    assert audit_bursts(_program(), THRESHOLD, widths=(1, 2, 4)) == []


def test_runs_recomputed_independently():
    p = _program()
    (start, end), = maximal_runs(p)
    assert start == 0 and end == 6    # HALT is not burstable


def _tamper(width, **overrides):
    """Fresh program with entry-0 burst of ``width`` doctored."""
    p = _program()
    table = list(p.bursts_for(THRESHOLD, width))
    table[0] = _clone(table[0], **overrides)
    p._burst_tables[(THRESHOLD, width, False)] = table
    return p


def test_b201_slot_conservation():
    p = _tamper(1, short_stalls=_program().bursts_for(THRESHOLD, 1)[0]
                .short_stalls + 1)
    assert "B201" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b202_duration_below_bandwidth_bound():
    real = _program().bursts_for(THRESHOLD, 2)[0]
    wanted = (real.n + 1) // 2 - 1
    p = _tamper(2, duration=wanted)
    codes = _codes(audit_bursts(p, THRESHOLD, widths=(2,)))
    assert "B202" in codes


def test_b203_guard_slack_monotonicity():
    p = _program()
    w2 = p.bursts_for(THRESHOLD, 2)
    w1 = p.bursts_for(THRESHOLD, 1)
    # Find an entry with a shared guard register across widths.
    pc = next(i for i in range(len(w1))
              if w1[i] is not None and w2[i] is not None
              and set(dict(w1[i].guard)) & set(dict(w2[i].guard)))
    shared = sorted(set(dict(w1[pc].guard)) & set(dict(w2[pc].guard)))[0]
    bumped = tuple((r, s + (10 if r == shared else 0))
                   for r, s in w2[pc].guard)
    table = list(w2)
    table[pc] = _clone(w2[pc], guard=bumped,
                       duration=w2[pc].duration + 10,
                       short_stalls=w2[pc].short_stalls + 20)
    p._burst_tables[(THRESHOLD, 2, False)] = table
    assert "B203" in _codes(audit_bursts(p, THRESHOLD, widths=(1, 2)))


def test_b204_missing_suffix_burst():
    p = _program()
    table = list(p.bursts_for(THRESHOLD, 1))
    table[1] = None                    # hole at an eligible entry pc
    p._burst_tables[(THRESHOLD, 1, False)] = table
    assert "B204" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b204_burst_at_ineligible_pc():
    p = _program()
    table = list(p.bursts_for(THRESHOLD, 1))
    halt_pc = len(p.instructions) - 1
    table[halt_pc] = _clone(table[0], start=halt_pc)
    p._burst_tables[(THRESHOLD, 1, False)] = table
    assert "B204" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b204_truncated_width1_suffix():
    p = _program()
    real = p.bursts_for(THRESHOLD, 1)[0]
    table = list(p.bursts_for(THRESHOLD, 1))
    table[0] = _clone(real, instructions=real.instructions[:-1])
    p._burst_tables[(THRESHOLD, 1, False)] = table
    assert "B204" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b205_guard_out_of_window():
    real = _program().bursts_for(THRESHOLD, 1)[0]
    bad_guard = tuple((r, real.duration + 5) for r, _ in real.guard) \
        or ((1, real.duration + 5),)
    p = _tamper(1, guard=bad_guard)
    assert "B205" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b205_unsorted_writes_out():
    real = _program().bursts_for(THRESHOLD, 1)[0]
    assert len(real.writes_out) >= 2
    p = _tamper(1, writes_out=tuple(reversed(real.writes_out)))
    assert "B205" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b205_hardwired_register_in_writes_out():
    real = _program().bursts_for(THRESHOLD, 1)[0]
    p = _tamper(1, writes_out=((0, 3),) + real.writes_out[1:])
    assert "B205" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_min_burst_respected_by_real_tables():
    p = _program()
    for width in (1, 2, 4):
        for burst in p.bursts_for(THRESHOLD, width):
            if burst is not None:
                assert burst.n >= MIN_BURST


# -- blocks: runs through loads and stores to their closing branch ---------

def _block_program():
    b = AsmBuilder("blocks", data_base=0x1000)
    arr = b.space("arr", 8)
    b.li("t0", arr)
    b.label("top")
    b.lw("t1", 0, "t0")
    b.addi("t2", "t1", 1)
    b.sw("t2", 4, "t0")
    b.sll("t3", "t2", 2)
    b.lw("t4", 8, "t0")
    b.add("t5", "t3", "t4")
    b.bne("t5", "zero", "top")
    b.halt()
    return b.build()


def _real_block():
    return _block_program().bursts_for(THRESHOLD, 1, True)[1]


def _tamper_block(**overrides):
    """Fresh block program with the block entered at pc 1 doctored."""
    p = _block_program()
    table = list(p.bursts_for(THRESHOLD, 1, True))
    clone = _clone(table[1])
    clone.ops = table[1].ops
    for name, value in overrides.items():
        setattr(clone, name, value)
    table[1] = clone
    p._burst_tables[(THRESHOLD, 1, True)] = table
    return p


def test_block_tables_pass_and_span_memory_ops():
    p = _block_program()
    assert audit_bursts(p, THRESHOLD, widths=(1, 2, 4)) == []
    assert maximal_runs(p, memory_ops=True) == [(0, 8)]
    block = p.bursts_for(THRESHOLD, 1, True)[1]
    assert block.n == 7
    assert [op[0] for op in block.ops] == [0, 2, 4, 6]
    # The plain tables never hold a load, a store or a branch.
    assert all(not b.ops for b in p.bursts_for(THRESHOLD, 1)
               if b is not None)


def test_b201_block_op_at_the_wrong_cycle():
    real = _real_block()
    index, cycle, short, long_, writes = real.ops[1]
    ops = list(real.ops)
    ops[1] = (index, cycle + 1, short, long_, writes)
    p = _tamper_block(ops=tuple(ops))
    assert "B201" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b201_closing_branch_not_in_the_last_cycle():
    real = _real_block()
    p = _tamper_block(duration=real.duration + 1,
                      short_stalls=real.short_stalls + 1)
    assert "B201" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b205_block_missing_an_op():
    real = _real_block()
    p = _tamper_block(ops=real.ops[:1] + real.ops[2:])
    assert "B205" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b205_block_write_outs_include_the_branch_writes():
    p = _tamper_block(writes_out=_real_block().writes_out + ((31, 9),))
    assert "B205" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))


def test_b204_plain_table_holding_a_block():
    p = _block_program()
    block = p.bursts_for(THRESHOLD, 1, True)[1]
    table = list(p.bursts_for(THRESHOLD, 1))
    table[1] = block
    p._burst_tables[(THRESHOLD, 1, False)] = table
    assert "B204" in _codes(audit_bursts(p, THRESHOLD, widths=(1,)))
