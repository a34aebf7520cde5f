"""Parameterised workload generator.

All 56 committed programs are hand-written; this module generates
unbounded *families* of programs with controlled statistical properties
along exactly the axes the paper's results hinge on (Tables 7/10,
Figures 6-9): instruction mix, dependency distance, memory footprint,
branch/loop structure, integer multiply/shift pressure, multi-block
loop bodies (instruction-cache footprint), two-deep loop nests, and a
multi-context *sharing pattern* (private / shared-read /
shared-read-write / lock-protected counter).

Design contract:

* **Deterministic**: every byte of a generated program is a pure
  function of its :class:`GenSpec` — all randomness is drawn from one
  seeded generator at build time, so the same spec always produces the
  same :func:`~repro.analysis.program_fingerprint`.
* **Canonical**: a ``GenSpec`` round-trips through
  :func:`repro.config.to_canonical` / :meth:`GenSpec.from_dict` and the
  colon-free text form of :meth:`GenSpec.to_text` /
  :meth:`GenSpec.from_text`, so generated programs are cacheable (the
  result cache keys on the canonical text) and service-submittable
  (``--points gen:block_size=32;fp_fraction=0.2:interleaved:4``) like
  committed ones.
* **Verified at birth**: every generated program is passed through the
  :mod:`repro.analysis` verifier — V1xx structural/dataflow checks and
  the B2xx burst-schedule audit — and the generator *raises* on any
  error-level finding, making the static analyzer the generator's
  oracle.  (V104 read-before-write warnings are expected: streams read
  scratch-pool registers defined by the zero-reset architectural
  state.)

The emission machinery here is the single source of truth for random
streams.  Its RNG draw order is pinned by the golden corpus
(``tests/isa/golden/``), whose ``s-*`` members are the historical
synthetic-stream seeds, so old seeds keep producing their exact
programs.
"""

import json
import random
from dataclasses import dataclass, fields, replace

from repro.config import fingerprint as config_fingerprint, to_canonical
from repro.isa.builder import AsmBuilder
from repro.workloads.kernels.util import Loop, OuterLoop, ipattern

#: Sharing patterns a multi-context family can be generated with.
SHARING_PATTERNS = ("private", "read", "rw", "lock")

#: Base address of the cross-context shared region (word 0 is the lock
#: word, the ``shared_words`` data words follow).  Sits below the
#: per-index private data regions at 0x6000000+ and above every code
#: region, so generated families never alias it.
SHARED_BASE = 0x5F00000

#: Address of the cross-context lock word — word 0 of the shared
#: region (the data words start at ``SHARED_BASE + 4``).  Lock-using
#: programs name it with a ``.equ SHARED_LOCK`` directive so the slot
#: is self-describing in emitted source and the race analysis's
#: lockset diagnostics.
SHARED_LOCK = SHARED_BASE

#: Issue widths the verify-at-birth burst audit covers (the Section 7
#: extension grid, matching the differential matrix).
AUDIT_WIDTHS = (1, 2, 4)

#: Per-index base staggering (odd offsets decorrelate direct-mapped
#: cache sets, exactly like the committed workloads' layout).
_CODE_BASE = 0x600000
_CODE_STRIDE = 0x40000 + 0x11E0
_DATA_BASE = 0x6000000
_DATA_STRIDE = 0x200000 + 0x12A0


class GenerationError(ValueError):
    """A spec could not be turned into a verifier-clean program."""


@dataclass(frozen=True)
class GenSpec:
    """Statistical recipe for one generated-program family.

    Mix fractions are of the generated block body; they need not sum to
    one — the remainder is filled with single-cycle integer ALU
    operations.  Every knob is JSON-serialisable and participates in
    the canonical form / fingerprint.
    """

    name: str = "gen"
    seed: int = 42

    # -- instruction-mix weights -----------------------------------------
    load_fraction: float = 0.15
    store_fraction: float = 0.08
    fp_fraction: float = 0.10
    branch_fraction: float = 0.05   # forward data-dependent branches
    mul_fraction: float = 0.0       # non-pipelined integer multiplies
    shift_fraction: float = 0.0     # two-cycle shifter ops
    fdiv_per_block: int = 0         # non-pipelined FP divides per block

    # -- dependency structure --------------------------------------------
    #: average register-dependency distance (instructions between a
    #: producer and its consumer); small = stall-prone code
    dependency_distance: int = 4

    # -- memory footprint (data cache / TLB axes) ------------------------
    footprint_words: int = 2048     # words streamed cyclically
    access_stride: int = 1          # words between accesses (1024 = page)
    prefetch_distance: int = 0      # accesses ahead (0 = none)

    # -- branch/loop structure (instruction-cache axis) ------------------
    block_size: int = 64            # instructions per straight-line block
    blocks_per_iteration: int = 1   # distinct blocks per inner iteration
    loop_iterations: int = 64       # inner trip count (total, nest-split)
    loop_nest: int = 1              # 1 = flat inner loop, 2 = two-deep

    # -- multi-context sharing pattern -----------------------------------
    sharing: str = "private"        # see SHARING_PATTERNS
    shared_words: int = 256         # size of the shared data region
    #: ``sharing="rw"`` only: True (default) emits the historical
    #: unsynchronised read-modify-write — a *deliberate* data race the
    #: race analysis must report (R701/R702).  False wraps the same
    #: access in the shared lock, and the generated group must verify
    #: race-clean (checked at birth by :func:`generate_processes`).
    racy: bool = True

    # -- validation -------------------------------------------------------

    def validate(self):
        total = (self.load_fraction + self.store_fraction
                 + self.fp_fraction + self.branch_fraction
                 + self.mul_fraction + self.shift_fraction)
        if total > 0.9:
            raise ValueError("instruction-mix fractions exceed 90%")
        if self.block_size < 8:
            raise ValueError("block_size must be at least 8")
        if self.footprint_words < 16:
            raise ValueError("footprint_words must be at least 16")
        if self.blocks_per_iteration < 1:
            raise ValueError("blocks_per_iteration must be at least 1")
        if self.loop_nest not in (1, 2):
            raise ValueError("loop_nest must be 1 or 2")
        if self.sharing not in SHARING_PATTERNS:
            raise ValueError("sharing must be one of %s, not %r"
                             % ("/".join(SHARING_PATTERNS), self.sharing))
        if not 4 <= self.shared_words <= 1024:
            # upper bound keeps static shared offsets within the 14-bit
            # immediate range of one load/store
            raise ValueError("shared_words must be within [4, 1024]")
        return self

    # -- canonical form / fingerprint -------------------------------------

    def to_dict(self):
        """JSON-serialisable canonical form (cache keys, service)."""
        return to_canonical(self)

    def fingerprint(self):
        """Stable content hash of the spec (not of a program)."""
        return config_fingerprint(self)

    @classmethod
    def from_dict(cls, payload):
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError("unknown GenSpec field(s): %s"
                             % ", ".join(unknown))
        return cls(**payload).validate()

    def to_text(self):
        """Canonical colon-free text form: ``k=v;k=v`` of every field
        that differs from the default, keys sorted.

        Colon-free so a spec embeds in the service CLI's
        ``kind:name:scheme:n_contexts`` point syntax; canonical (same
        spec -> same text) so it is a stable cache-key component.
        """
        default = GenSpec()
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value != getattr(default, f.name):
                parts.append("%s=%s" % (f.name, value))
        return ";".join(parts)

    @classmethod
    def from_text(cls, text):
        """Parse the ``k=v;k=v`` text form (or a JSON object string)."""
        text = text.strip()
        if not text:
            return cls().validate()
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        types = {f.name: f.type for f in fields(cls)}
        payload = {}
        for part in text.replace(",", ";").split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError("bad GenSpec assignment %r (want k=v)"
                                 % (part,))
            key, value = (t.strip() for t in part.split("=", 1))
            if key not in types:
                raise ValueError("unknown GenSpec field %r" % (key,))
            if types[key] in (bool, "bool"):
                if value.lower() in ("true", "1", "yes"):
                    payload[key] = True
                elif value.lower() in ("false", "0", "no"):
                    payload[key] = False
                else:
                    raise ValueError("bad boolean %r for GenSpec field %r"
                                     % (value, key))
            elif types[key] in (int, "int"):
                payload[key] = int(value, 0)
            elif types[key] in (float, "float"):
                payload[key] = float(value)
            else:
                payload[key] = value
        return cls.from_dict(payload)


# Rotating register pools; destinations round-robin, sources from
# recently written registers to hit the requested dependency distance.
_INT_POOL = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7")
_FP_POOL = ("f2", "f3", "f4", "f5", "f6", "f7", "f8")


class _Emitter:
    """Emits one spec's loop-body blocks into an :class:`AsmBuilder`.

    The draw order is load-bearing and pinned by the golden corpus:
    for the historical stream knob subset (mul/shift fractions 0, one
    block, flat nest, private sharing) it consumes the random sequence
    exactly as the original synthetic-stream generator did, so the
    corpus's ``s-*`` seeds regenerate bit-identically.
    """

    def __init__(self, spec, builder, rng):
        self.spec = spec
        self.b = builder
        self.rng = rng
        self.int_written = list(_INT_POOL)
        self.fp_written = list(_FP_POOL)
        self.counter = 0

    def _dest(self, pool):
        self.counter += 1
        return pool[self.counter % len(pool)]

    def _source(self, written):
        """A recently written register, ~dependency_distance back."""
        d = max(1, int(self.rng.expovariate(
            1.0 / self.spec.dependency_distance)))
        return written[-min(d, len(written))]

    def emit_block(self):
        spec, b, rng = self.spec, self.b, self.rng
        c_load = spec.load_fraction
        c_store = c_load + spec.store_fraction
        c_fp = c_store + spec.fp_fraction
        c_branch = c_fp + spec.branch_fraction
        c_mul = c_branch + spec.mul_fraction
        c_shift = c_mul + spec.shift_fraction
        for _ in range(spec.block_size):
            r = rng.random()
            if r < c_load:
                dest = self._dest(_INT_POOL)
                if spec.prefetch_distance:
                    ahead = (4 * spec.access_stride
                             * spec.prefetch_distance)
                    b.pref(ahead, "s1")
                b.lw(dest, 0, "s1")
                self._advance_pointer()
                self.int_written.append(dest)
            elif r < c_store:
                b.sw(self._source(self.int_written), 0, "s1")
                self._advance_pointer()
            elif r < c_fp:
                dest = self._dest(_FP_POOL)
                b.fadd(dest, self._source(self.fp_written),
                       self._source(self.fp_written))
                self.fp_written.append(dest)
            elif r < c_branch:
                skip = b.fresh_label("syn")
                b.andi("t8", self._source(self.int_written), 1)
                b.beq("t8", "zero", skip)
                b.addi("t9", "t9", 1)
                b.label(skip)
            elif r < c_mul:
                dest = self._dest(_INT_POOL)
                b.mul(dest, self._source(self.int_written),
                      self._source(self.int_written))
                self.int_written.append(dest)
            elif r < c_shift:
                dest = self._dest(_INT_POOL)
                b.sll(dest, self._source(self.int_written),
                      rng.randrange(1, 8))
                self.int_written.append(dest)
            else:
                dest = self._dest(_INT_POOL)
                b.addi(dest, self._source(self.int_written), 1)
                self.int_written.append(dest)
        for _ in range(spec.fdiv_per_block):
            dest = self._dest(_FP_POOL)
            b.fadd("f1", "f1", "f0")         # keep the divisor nonzero
            b.fdiv(dest, "f0", "f1")
            b.backoff(52)
            self.fp_written.append(dest)

    def _advance_pointer(self):
        spec, b = self.spec, self.b
        b.addi("s1", "s1", 4 * spec.access_stride)
        # wrap within the footprint
        wrap = b.fresh_label("wrap")
        b.blt("s1", "s2", wrap)
        b.move("s1", "s0")
        b.label(wrap)

    def emit_sharing_op(self):
        """One cross-context access to the shared region.

        The word touched is drawn at *generation* time (a static
        offset), so no wrap bookkeeping is emitted; ``k0`` holds the
        shared data base and ``k1`` the lock word's address.
        """
        spec, b, rng = self.spec, self.b, self.rng
        off = 4 * rng.randrange(spec.shared_words)
        if spec.sharing == "read":
            b.lw("t8", off, "k0")
        elif spec.sharing == "rw" and spec.racy:
            b.lw("t8", off, "k0")
            b.addi("t8", "t8", 1)
            b.sw("t8", off, "k0")
        elif spec.sharing in ("lock", "rw"):
            # "lock", or the race-free rw variant (racy=False): the
            # read-modify-write rides inside the shared lock.
            b.lock(0, "k1")
            b.lw("t8", off, "k0")
            b.addi("t8", "t8", 1)
            b.sw("t8", off, "k0")
            b.unlock(0, "k1")


def _emit_program(spec, b, rng, iterations):
    """Emit the full program structure for ``spec`` into ``b``."""
    data = b.word("data", ipattern(spec.footprint_words, 3, 63))
    b.li("s0", data, note="s0 = &data (footprint base)")
    b.li("s2", data + 4 * spec.footprint_words,
         note="s2 = footprint end")
    b.fcvtif("f0", "zero")
    b.li("t0", 1)
    b.fcvtif("f1", "t0")                  # f1 = 1.0 (divisor seed)
    if spec.sharing != "private":
        if spec.sharing == "lock" or (spec.sharing == "rw"
                                      and not spec.racy):
            # Lock-using programs carry the lock word's name in their
            # emitted source (its own .equ slot).
            b.equ("SHARED_LOCK", SHARED_LOCK)
        b.li("k1", SHARED_LOCK, note="k1 = &shared lock word")
        b.li("k0", SHARED_BASE + 4, note="k0 = shared data base")
    emitter = _Emitter(spec, b, rng)

    def body():
        for _ in range(spec.blocks_per_iteration):
            emitter.emit_block()
        if spec.sharing != "private":
            emitter.emit_sharing_op()

    with OuterLoop(b, iterations):
        b.move("s1", "s0")
        if spec.loop_nest == 2:
            outer = max(1, int(spec.loop_iterations ** 0.5))
            inner = max(1, spec.loop_iterations // outer)
            with Loop(b, "s6", outer):
                with Loop(b, "s5", inner):
                    body()
        else:
            with Loop(b, "s6", spec.loop_iterations):
                body()


def verify_generated(program, widths=AUDIT_WIDTHS):
    """The generator's oracle: V1xx + B2xx clean or raise.

    Runs the full static verifier (structural, reachability, dataflow,
    lock balance) plus the symbolic burst-schedule audit across
    ``widths``; any *error*-level finding raises
    :class:`GenerationError` carrying the diagnostics.  V104
    read-before-write warnings are tolerated by design (the
    architectural registers reset to zero, so scratch-pool reads are
    defined); any other warning code is reported too, keeping the
    oracle loud.
    """
    from repro.analysis import verify_program
    from repro.config import PipelineParams
    diags = verify_program(
        program, threshold=PipelineParams().short_stall_threshold,
        widths=tuple(widths))
    bad = [d for d in diags if d.is_error or d.code != "V104"]
    if bad:
        raise GenerationError(
            "generated program %r failed its birth verification:\n%s"
            % (program.name, "\n".join("  " + d.render() for d in bad)))
    return program


def generate_program(spec, code_base=0, data_base=0x100000,
                     iterations=None, verify=True):
    """Build one :class:`~repro.isa.program.Program` from a spec.

    ``iterations=None`` (throughput mode) loops forever; an integer
    runs the loop body that many times and falls through to HALT.
    ``verify=True`` (the default) runs :func:`verify_generated` — the
    verifier is the generator's oracle, so birth verification is only
    skipped by explicit request (hot loops that already verified the
    family head).
    """
    spec.validate()
    rng = random.Random(spec.seed)
    b = AsmBuilder(spec.name, code_base, data_base)
    _emit_program(spec, b, rng, iterations)
    program = b.build()
    if verify:
        verify_generated(program)
    return program


def generate_process(spec, index=0, iterations=None, verify=True):
    """A ready-to-schedule Process around a generated program.

    Processes of one family share the spec (identical code) at bases
    staggered by odd offsets, exactly like the committed workloads.
    """
    from repro.core.simulator import Process
    program = generate_program(
        spec,
        code_base=_CODE_BASE + index * _CODE_STRIDE,
        data_base=_DATA_BASE + index * _DATA_STRIDE,
        iterations=iterations, verify=verify)
    return Process("%s.%d" % (spec.name, index), program)


def verify_group_races(spec, programs):
    """Race-check a generated multi-context group against its spec.

    ``sharing="rw", racy=True`` is a *deliberate* race: the static race
    analysis must report it (R701/R702) or the analyzer has lost the
    generator as a ground-truth source.  Every other spec — private,
    read-only, lock-protected, and the ``racy=False`` lock-wrapped rw
    variant — must come back R-clean.  Either violation raises
    :class:`GenerationError`, making the race analysis part of the
    group's birth verification.
    """
    from repro.analysis import analyze_races
    diags = [d for d in analyze_races(programs)
             if d.code in ("R701", "R702")]
    expect_racy = spec.sharing == "rw" and spec.racy
    if expect_racy and not diags:
        raise GenerationError(
            "generated group %r is a deliberate data race "
            "(sharing=rw, racy=True) but the race analysis reported "
            "no R701/R702 finding" % spec.name)
    if not expect_racy and diags:
        raise GenerationError(
            "generated group %r must be race-free but the race "
            "analysis found:\n%s"
            % (spec.name, "\n".join("  " + d.render() for d in diags)))
    return programs


def generate_processes(spec, n_contexts, iterations=None, verify=True):
    """One process per context; index 0 is verified for the family.

    Fingerprints differ only in the staggered code base, so verifying
    the first member covers the family's code (the remaining members
    are the same instruction sequence relocated).  Multi-context groups
    additionally pass :func:`verify_group_races` — the cross-context
    race analysis agrees with the spec's ``racy`` declaration or the
    group is rejected at birth.
    """
    processes = [generate_process(spec, index=i, iterations=iterations,
                                  verify=verify and i == 0)
                 for i in range(n_contexts)]
    if verify and n_contexts >= 2:
        verify_group_races(spec, [p.program for p in processes])
    return processes


def generate_family(spec, count, iterations=None, verify=True):
    """``count`` programs with derived seeds ``spec.seed + i``.

    Returns a list of ``(member_spec, program)`` pairs; each member is
    the base spec with its derived seed and an indexed name, so any
    member regenerates independently from its own spec.
    """
    out = []
    for i in range(count):
        member = replace(spec, seed=spec.seed + i,
                         name="%s-%04d" % (spec.name, i))
        out.append((member, generate_program(
            member,
            code_base=_CODE_BASE + i * _CODE_STRIDE,
            data_base=_DATA_BASE + i * _DATA_STRIDE,
            iterations=iterations, verify=verify)))
    return out
