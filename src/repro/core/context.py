"""Hardware contexts.

A hardware context is the replicated per-process state of the paper's
Section 6: program counter, register file, and the availability machinery
(EPC/NPC in hardware; here a status field and wake times).
"""

import enum

from repro.isa.executor import ArchState
from repro.pipeline.stalls import Stall


class Status(enum.IntEnum):
    EMPTY = 0      # no process loaded
    RUNNING = 1    # available for issue
    DOOMED = 2     # issued a late-detected miss; issuing slots that will
                   # be squashed until the WB-stage detection point
    WAITING = 3    # unavailable until wake_at (memory, backoff, sync)
    HALTED = 4     # process executed HALT


class HardwareContext:
    """One hardware context of a multiple-context processor."""

    __slots__ = ("cid", "status", "state", "program", "process",
                 "wake_at", "wake_reason", "doomed_detect",
                 "doomed_completion", "next_issue_min", "fetch_pc",
                 "fetch_valid", "satisfied_pc", "run_instructions",
                 "burst_table")

    def __init__(self, cid):
        self.cid = cid
        self.status = Status.EMPTY
        self.state = None        # ArchState of the loaded process
        self.program = None
        self.process = None      # owning software process/thread
        self.wake_at = 0
        self.wake_reason = Stall.DCACHE
        self.doomed_detect = 0
        self.doomed_completion = 0
        #: Redirect bubble after a branch mispredict: no issue before this.
        self.next_issue_min = 0
        #: Instruction-fetch tracking: the I-cache is probed once per
        #: instruction, not once per (possibly stalled) issue attempt.
        self.fetch_pc = -1
        self.fetch_valid = False
        #: PC whose memory access was satisfied by an MSHR fill while the
        #: context was unavailable: the re-issued instruction takes its
        #: data from the fill without re-probing the cache (so a line
        #: evicted during the wait cannot livelock the retry).
        self.satisfied_pc = -1
        #: Instructions retired since the context last became available
        #: (the paper's "runlength"; Section 5.1 relates it to the share
        #: of the processor an application receives).
        self.run_instructions = 0
        #: Burst-per-entry-PC table of the loaded program (burst engine
        #: only; None under the naive engine).
        self.burst_table = None

    def load(self, process):
        """Load a software process onto this hardware context."""
        self.process = process
        self.state = process.state
        self.program = process.program
        self.status = Status.HALTED if process.state.halted else Status.RUNNING
        self.wake_at = 0
        self.next_issue_min = 0
        self.fetch_valid = False
        self.satisfied_pc = -1
        self.run_instructions = 0
        self.burst_table = None

    def unload(self):
        """Remove the current process (its ArchState persists with it)."""
        self.process = None
        self.state = None
        self.program = None
        self.status = Status.EMPTY
        self.burst_table = None

    def wait_until(self, cycle, reason):
        self.status = Status.WAITING
        self.wake_at = cycle
        self.wake_reason = reason

    def wait_on_lock(self):
        """Block on synchronisation until an explicit wake (lock
        release / barrier)."""
        self.status = Status.WAITING
        self.wake_at = _NEVER
        self.wake_reason = Stall.SYNC

    def wake(self, cycle=None):
        """Make the context available again (at ``cycle`` if given)."""
        if cycle is None or cycle <= 0:
            self.status = Status.RUNNING
            self.next_issue_min = 0
        else:
            self.status = Status.WAITING
            self.wake_at = cycle

    def enter_doomed(self, detect_at, completion):
        self.status = Status.DOOMED
        self.doomed_detect = detect_at
        self.doomed_completion = completion

    def __repr__(self):
        return ("<ctx%d %s %s>"
                % (self.cid, self.status.name,
                   self.process.name if self.process else "-"))


#: Sentinel wake time for "woken explicitly, not by the clock".
_NEVER = 1 << 62
NEVER = _NEVER
