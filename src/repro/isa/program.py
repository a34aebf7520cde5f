"""Program container: instructions, labels, and a data segment.

A :class:`Program` is position-dependent: its code and data base addresses
are fixed when it is built (the workload composer assigns each process a
region of the physical address space before assembling its kernel, which is
how we sidestep a relocating linker).  Program counters are instruction
*indices*; the byte address of instruction ``i`` is ``code_base + 4 * i``
and is what the instruction cache and BTB see.
"""


class DataSegment:
    """Initialised data for one program.

    ``symbols`` maps label names to byte offsets from ``base``; ``words``
    holds the initial word values for the whole segment (uninitialised
    space is zero-filled).
    """

    def __init__(self, base):
        self.base = base
        self.symbols = {}
        self.words = []
        #: Directive kind each symbol was defined with ("word", "space",
        #: "string") — presentation metadata only, used by
        #: :meth:`Program.to_source` to round-trip readable directives.
        self.kinds = {}

    @property
    def size_bytes(self):
        return 4 * len(self.words)

    def define(self, name, n_words, init=None, kind=None):
        """Reserve ``n_words`` words under ``name``; returns the address."""
        if name in self.symbols:
            raise ValueError("duplicate data symbol %r" % (name,))
        offset = 4 * len(self.words)
        self.symbols[name] = offset
        self.kinds[name] = kind or ("space" if init is None else "word")
        if init is None:
            self.words.extend([0] * n_words)
        else:
            if len(init) != n_words:
                raise ValueError("init length %d != size %d for %r"
                                 % (len(init), n_words, name))
            self.words.extend(init)
        return self.base + offset

    def extend(self, n_words, init=None):
        """Append words to the segment without defining a new symbol
        (label-less ``.word``/``.space`` continuation lines)."""
        if init is None:
            self.words.extend([0] * n_words)
        else:
            self.words.extend(init)

    def address_of(self, name):
        """Absolute byte address of a data symbol."""
        return self.base + self.symbols[name]

    def load(self, memory):
        """Write the initial data image into functional memory."""
        memory.store_words(self.base, self.words)


class Program:
    """An assembled program: code, labels, and data."""

    def __init__(self, name, instructions, labels, data, code_base=0,
                 entry=0, strict=False, annotations=None, equs=None):
        self.name = name
        self.instructions = instructions
        self.labels = labels
        self.data = data
        self.code_base = code_base
        self.entry = entry
        #: Named ``.equ`` constants the program was assembled with —
        #: immediates are already resolved in the instruction stream, so
        #: these exist to name well-known slots (e.g. a shared lock
        #: word) in :meth:`to_source` output and diagnostics.
        self.equs = dict(equs) if equs else {}
        #: Optional instruction-index -> comment map (builder ``note=``
        #: annotations); purely presentational — rendered by
        #: :meth:`to_source`, never part of the fingerprint.
        self.annotations = dict(annotations) if annotations else {}
        # Burst tables (repro.isa.segments), memoised per
        # (stall threshold, issue width); built on demand so
        # naive-engine runs never pay the segmentation cost.
        self._burst_tables = {}
        # Static-analysis memos (repro.analysis.absint fixpoint, race
        # access lists), same contract as the burst tables: the
        # instruction stream is treated as immutable once analysed.
        self._analysis_cache = {}
        for i, inst in enumerate(instructions):
            inst.index = i
        if strict:
            # Opt-in verify-at-load: reject structurally broken programs
            # (out-of-range targets, falling off the end, unbalanced
            # locks) before any cycle is simulated.  The load-level
            # checks are a single cheap pass (see repro.analysis).
            from repro.analysis.verifier import (verify_program,
                                                 ProgramVerificationError)
            errors = [d for d in verify_program(self, level="load")
                      if d.is_error]
            if errors:
                raise ProgramVerificationError(name, errors)

    def __len__(self):
        return len(self.instructions)

    def bursts_for(self, short_stall_threshold, issue_width=1):
        """Burst-per-entry-PC table for the burst engine (memoised).

        The schedule depends only on the static Table 3 latencies, the
        pipeline's short/long stall split, and the slot packing of its
        issue width, so one table per ``(threshold, width)`` serves
        every processor and context running this program.  The width
        *must* key the memo: a width-2 schedule packs two slots per
        cycle and its durations, stall splits, and write-out deltas are
        all different from the width-1 schedule of the same run.
        """
        key = (short_stall_threshold, issue_width)
        table = self._burst_tables.get(key)
        if table is None:
            from repro.isa.segments import build_burst_table
            table = build_burst_table(self, short_stall_threshold,
                                      issue_width)
            self._burst_tables[key] = table
        return table

    def pc_address(self, index):
        """Byte address of the instruction at ``index``."""
        return self.code_base + 4 * index

    def load(self, memory):
        """Install the program's data segment into functional memory."""
        if self.data is not None:
            self.data.load(memory)

    def listing(self):
        """Human-readable disassembly listing with labels."""
        by_index = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        lines = []
        for i, inst in enumerate(self.instructions):
            for label in sorted(by_index.get(i, ())):
                lines.append("%s:" % label)
            lines.append("    %s" % inst.disassemble())
        return "\n".join(lines)

    def to_source(self):
        """Full re-assemblable source: data directives plus code.

        ``assemble(program.to_source(), code_base=..., data_base=...)``
        with this program's bases reproduces it bit-identically — same
        :func:`~repro.analysis.program_fingerprint`, same data image
        (property- and golden-tested).  Branch targets are emitted as
        the literal instruction indices the assembler accepts, so the
        rendered labels are purely for the human reader, as are the
        header comments and any builder ``note=`` annotations.
        """
        lines = ["# program: %s" % self.name,
                 "# code_base: 0x%X  data_base: 0x%X  entry: %d"
                 % (self.code_base,
                    self.data.base if self.data is not None else 0,
                    self.entry)]
        for cname, value in self.equs.items():
            lines.append("    .equ %s, %s"
                         % (cname, "0x%X" % value if value >= 0
                            else str(value)))
        if self.data is not None and self.data.words:
            lines.append("    .data")
            lines.extend(_render_data(self.data))
        lines.append("    .text")
        by_index = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        for i, inst in enumerate(self.instructions):
            for label in sorted(by_index.get(i, ())):
                lines.append("%s:" % label)
            note = self.annotations.get(i)
            text = "    %s" % inst.disassemble()
            lines.append("%s%s" % (text, "    # %s" % note if note
                                   else ""))
        return "\n".join(lines) + "\n"


def _render_data(data):
    """Data-segment directives for :meth:`Program.to_source`."""
    lines = []
    symbols = sorted(data.symbols.items(), key=lambda kv: kv[1])
    for n, (name, offset) in enumerate(symbols):
        start = offset // 4
        end = (symbols[n + 1][1] // 4 if n + 1 < len(symbols)
               else len(data.words))
        words = data.words[start:end]
        kind = data.kinds.get(name, "word")
        if kind == "string" and _is_string_image(words):
            text = "".join(chr(w) for w in words[:-1])
            lines.append('%s: .string "%s"' % (name, _escape(text)))
        elif not any(words):
            lines.append("%s: .space %d" % (name, len(words)))
        else:
            lines.append("%s:" % name)
            for i in range(0, len(words), 8):
                lines.append("    .word %s" % ", ".join(
                    str(w) for w in words[i:i + 8]))
    return lines


def _is_string_image(words):
    return (len(words) >= 1 and words[-1] == 0
            and all(1 <= w < 127 for w in words[:-1]))


def _escape(text):
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))
