"""HardwareContext state machine."""

from repro.isa import AsmBuilder
from repro.core.context import HardwareContext, Status, NEVER
from repro.core.simulator import Process
from repro.pipeline.stalls import Stall


def make_process(name="p"):
    b = AsmBuilder(name)
    b.nop()
    b.halt()
    return Process(name, b.build())


class TestLifecycle:
    def test_starts_empty(self):
        ctx = HardwareContext(0)
        assert ctx.status is Status.EMPTY
        assert ctx.process is None

    def test_load_runs(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        assert ctx.status is Status.RUNNING
        assert ctx.state is ctx.process.state

    def test_load_halted_process(self):
        ctx = HardwareContext(0)
        p = make_process()
        p.state.halted = True
        ctx.load(p)
        assert ctx.status is Status.HALTED

    def test_unload(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.unload()
        assert ctx.status is Status.EMPTY
        assert ctx.program is None

    def test_load_clears_stale_machinery(self):
        ctx = HardwareContext(0)
        ctx.load(make_process("a"))
        ctx.satisfied_pc = 5
        ctx.next_issue_min = 100
        ctx.fetch_valid = True
        ctx.load(make_process("b"))
        assert ctx.satisfied_pc == -1
        assert ctx.next_issue_min == 0
        assert not ctx.fetch_valid


class TestWaiting:
    def test_wait_until(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.wait_until(50, Stall.DCACHE)
        assert ctx.status is Status.WAITING
        assert ctx.wake_at == 50
        assert ctx.wake_reason is Stall.DCACHE

    def test_wait_on_lock_never_self_wakes(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.wait_on_lock()
        assert ctx.wake_at == NEVER
        assert ctx.wake_reason is Stall.SYNC

    def test_wake_immediately(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.wait_on_lock()
        ctx.wake()
        assert ctx.status is Status.RUNNING

    def test_wake_at_future_cycle(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.wait_on_lock()
        ctx.wake(cycle=77)
        assert ctx.status is Status.WAITING
        assert ctx.wake_at == 77


class TestDoomed:
    def test_enter_doomed(self):
        ctx = HardwareContext(0)
        ctx.load(make_process())
        ctx.enter_doomed(detect_at=17, completion=40)
        assert ctx.status is Status.DOOMED
        assert ctx.doomed_detect == 17
        assert ctx.doomed_completion == 40

    def test_repr_mentions_state(self):
        ctx = HardwareContext(3)
        assert "EMPTY" in repr(ctx)
        ctx.load(make_process("myproc"))
        assert "myproc" in repr(ctx)
