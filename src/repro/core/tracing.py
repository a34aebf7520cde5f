"""Issue-slot trace and shared-access recording.

The processor's ``trace`` hook fires once per issue slot with
``(cycle, context_or_None, kind)``; :class:`TimelineRecorder` collects
those events into the paper's Figure 3 notation — one character per
slot: the context's letter for an issued instruction, the lowercase
letter for a squashed slot, ``.`` for a stall or idle slot.

The ``access_log`` hook fires once per retired load/store, at its
issue cycle, whichever path issues it;
:class:`SharedAccessRecorder` stamps each access with the lock words
its context held and the global barrier episode, producing the replay
log the dynamic race oracle (:func:`repro.analysis.dynamic_races`)
checks the static analysis against.
"""


class TimelineRecorder:
    """Collects per-slot events into a printable timeline."""

    def __init__(self):
        self.events = []          # (cycle, ctx_name_or_None, kind)

    def __call__(self, cycle, ctx, kind):
        name = ctx.process.name if (ctx is not None
                                    and ctx.process is not None) else None
        self.events.append((cycle, name, kind))

    def attach(self, processor):
        """Install on a processor; returns self for chaining."""
        processor.trace = self
        return self

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _cell(name, kind):
        if kind == "busy" and name:
            return name[0].upper()
        if kind == "squash" and name:
            return name[0].lower()
        return "."

    def lane(self):
        """One character per slot, in event order."""
        return "".join(self._cell(name, kind)
                       for _, name, kind in self.events)

    def per_context_lanes(self):
        """{context_letter: lane} with '.' where others own the slot."""
        names = sorted({n[0].upper() for _, n, _ in self.events if n})
        lanes = {n: [] for n in names}
        for _, name, kind in self.events:
            cell = self._cell(name, kind)
            for n in names:
                lanes[n].append(cell if cell.upper() == n else ".")
        return {n: "".join(cells) for n, cells in lanes.items()}

    def slot_counts(self):
        """{kind: count} over all recorded slots."""
        counts = {}
        for _, _, kind in self.events:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def __len__(self):
        return len(self.events)


class SharedAccessRecorder:
    """Collects every retired data access with its synchronisation
    context (the ``trace_shared_accesses`` hook).

    The hook fires for every load/store the per-instruction path
    retires and for every one a block issues, at the op's issue cycle;
    a bulk-charged stall or doomed window holds none.  So the burst
    engine keeps its fast paths while the recorder is installed and
    logs what naive stepping logs.  Each record carries
    the context id (``Process.pid``), the cycle, pc, byte address,
    direction, the lock words the context held at that instant, and the
    global barrier episode — exactly the tuple
    :func:`repro.analysis.dynamic_races` replays for the
    static-⊇-dynamic soundness check.
    """

    def __init__(self, sync):
        self.sync = sync
        self.processor = None
        self.records = []

    def attach(self, processor):
        """Install on a processor; returns self for chaining."""
        self.processor = processor
        processor.access_log = self
        return self

    def _held_locks(self, ctx):
        held = [addr for addr, lock in self.sync.locks.items()
                if lock.holder == (self.processor, ctx)]
        return frozenset(held)

    def __call__(self, cycle, ctx, pc, addr, is_write):
        from repro.analysis.races import AccessRecord
        pid = ctx.process.pid if ctx.process is not None else -1
        self.records.append(AccessRecord(
            cycle=cycle, ctx=pid, pc=pc, addr=addr,
            is_write=bool(is_write), locks=self._held_locks(ctx),
            phase=self.sync.barrier_episodes))

    def to_payload(self):
        """JSON-serialisable access log for the stats payload."""
        return [{"cycle": r.cycle, "ctx": r.ctx, "pc": r.pc,
                 "addr": r.addr, "w": int(r.is_write),
                 "locks": sorted(r.locks), "phase": r.phase}
                for r in self.records]

    def __len__(self):
        return len(self.records)
