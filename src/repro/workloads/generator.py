"""Seeded random program generator and differential-fuzzing front-end.

Used by property-based tests (and available to users for fuzzing their own
lifeguards): generates well-formed programs with a configurable instruction
mix whose memory accesses stay inside initialised, allocated buffers, so any
lifeguard report on a generated program indicates a framework bug rather
than a program bug.  Optionally a fraction of the input buffer can be filled
from a ``read`` system call so that taint is present and propagated.

Beyond the original single-threaded :func:`generate_program`, this module
provides the program fuzzer of ``repro.fuzz``:

* an **op-level intermediate representation** (:class:`Op`): each seed is
  first expanded into per-thread tuples of structured operations
  (:class:`FuzzProgramSpec`), then deterministically lowered to
  :class:`~repro.isa.program.Program` objects.  The IR is what the shrinker
  bisects and what repro files serialise -- removing ops and re-lowering
  always yields a well-formed program;
* **structural diversity knobs** (:class:`FuzzConfig`): instruction mix,
  thread count, malloc/free lifetimes, lock-protected cross-thread sharing,
  output system calls and tainted input;
* **bug injection**: a seed may plant exactly one known defect
  (use-after-free, out-of-bounds write, unlocked shared write,
  taint-to-jump, uninitialised read).  :func:`manifest_for` derives the
  machine-checkable ground truth -- which lifeguards must report which
  :class:`~repro.lifeguards.reports.ErrorKind` -- that the differential
  oracle asserts.

Every random decision is drawn from one ``random.Random(seed)`` stream and
lowering iterates only over lists/tuples, so a seed maps to bit-identical
programs on every Python version (pinned by the golden digest test).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Cond, Imm, Mem, Reg, SyscallKind
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import Register
from repro.workloads.patterns import EAX, EBP, EBX, ECX, EDI, EDX, ESI, Patterns

#: registers the generator uses for arithmetic (pointers live in EBP/EDI)
_SCRATCH = (EAX, EBX, ECX, EDX)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random program generator."""

    operations: int = 200
    array_words: int = 64
    #: probability weights of each operation class
    weight_alu_reg: float = 0.25
    weight_alu_imm: float = 0.15
    weight_load: float = 0.2
    weight_store: float = 0.2
    weight_copy: float = 0.1
    weight_branch: float = 0.05
    weight_call: float = 0.05
    #: taint the input array via a read() system call
    with_tainted_input: bool = False

    def weights(self) -> List[float]:
        return [
            self.weight_alu_reg,
            self.weight_alu_imm,
            self.weight_load,
            self.weight_store,
            self.weight_copy,
            self.weight_branch,
            self.weight_call,
        ]


def generate_program(seed: int, config: Optional[GeneratorConfig] = None) -> Program:
    """Generate a deterministic random program for ``seed``."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    b = ProgramBuilder(f"generated_{seed}")
    p = Patterns(b)

    words = config.array_words
    p.alloc(words * 4, EBP)      # array A (input)
    p.alloc(words * 4, EDI)      # array B (output)
    if config.with_tainted_input:
        p.read_input(EBP, words * 4, kind=SyscallKind.READ)
    else:
        p.init_array(EBP, words, start_value=seed % 97 + 1)
    # array B starts initialised as well so stores/loads may interleave freely
    p.init_array(EDI, words, start_value=3)
    # re-point ESI at A for the operation stream (init_array clobbered it)
    b.mov(Reg(ESI), Reg(EBP))
    b.mov(Reg(EDX), Imm(0))

    kinds = ["alu_reg", "alu_imm", "load", "store", "copy", "branch", "call"]
    uses_call = False
    for index in range(config.operations):
        kind = rng.choices(kinds, weights=config.weights())[0]
        offset = rng.randrange(words) * 4
        reg = rng.choice(_SCRATCH)
        other = rng.choice(_SCRATCH)
        if kind == "alu_reg":
            op = rng.choice([b.add, b.sub, b.xor, b.or_, b.and_])
            op(Reg(reg), Reg(other))
        elif kind == "alu_imm":
            op = rng.choice([b.add, b.sub, b.xor, b.and_])
            op(Reg(reg), Imm(rng.randrange(1, 1 << 16)))
        elif kind == "load":
            base = rng.choice([EBP, EDI])
            b.mov(Reg(reg), Mem(base=base, disp=offset))
        elif kind == "store":
            b.mov(Mem(base=EDI, disp=offset), Reg(reg))
        elif kind == "copy":
            src = rng.choice([EBP, EDI])
            b.mov(Reg(reg), Mem(base=src, disp=offset))
            b.mov(Mem(base=EDI, disp=rng.randrange(words) * 4), Reg(reg))
        elif kind == "branch":
            label = p.fresh_label("skip")
            b.cmp(Reg(reg), Imm(rng.randrange(0, 64)))
            b.jcc(rng.choice(list(Cond)), label)
            b.add(Reg(other), Imm(1))
            b.label(label)
        elif kind == "call":
            uses_call = True
            b.push(Reg(ECX))
            b.call("leaf")
            b.pop(Reg(ECX))
    p.free(EBP)
    p.free(EDI)
    b.halt()
    if uses_call:
        p.define_alu_leaf("leaf", alu_ops=6)
    else:
        # keep the label table stable so traces only differ by the op stream
        b.label("leaf")
        b.ret()
    return b.build()


# ============================================================================
# Differential-fuzzing program generator (op IR, lowering, bug injection)
# ============================================================================

#: Per-thread pointer slots in the global data segment.  Lowered code keeps
#: long-lived heap pointers (the syscall buffer) in globals instead of
#: registers so the op stream may clobber every scratch register freely.
FUZZ_SLOT_BASE = 0x0814_0000
#: Lock-protected words shared by every thread of a fuzzed program.
FUZZ_SHARED_BASE = 0x0815_0000
FUZZ_SHARED_WORDS = 4
#: The single lock protecting every shared word (uniform discipline keeps
#: clean seeds race-free by construction).
FUZZ_LOCK = 0x0813_00C0
#: Words in the per-thread syscall (output) buffer.  It is initialised in
#: the prologue and only ever written with immediates afterwards, so it is
#: always fully initialised and never tainted -- the one buffer that can be
#: passed to output system calls without tripping any lifeguard.
FUZZ_SYSCALL_WORDS = 16

#: Injectable defect classes (`FuzzConfig.bug` / seed profiles).
BUG_CLASSES = (
    "use_after_free",
    "overflow",
    "unlocked_shared_write",
    "taint_to_jump",
    "uninitialized_read",
)

#: Op kinds the mixer draws from, with their default weights.
_OP_KINDS = (
    ("alu_reg", 0.16),
    ("alu_imm", 0.10),
    ("load", 0.14),
    ("store", 0.12),
    ("store_imm", 0.06),
    ("copy", 0.10),
    ("block_copy", 0.06),
    ("branch", 0.08),
    ("call", 0.05),
    ("scratch_block", 0.06),
    ("shared_rmw", 0.04),
    ("syscall_out", 0.03),
)


def _syscall_slot(thread_id: int) -> int:
    """Global slot holding thread ``thread_id``'s syscall-buffer pointer."""
    return FUZZ_SLOT_BASE + thread_id * 64


@dataclass(frozen=True)
class Op:
    """One structured operation of the fuzz IR.

    ``kind`` selects the lowering template; ``a``/``b``/``c`` are small
    integer parameters whose meaning depends on the kind (register index,
    word offset, immediate, condition selector).  Keeping the fields plain
    integers makes specs trivially JSON-serialisable for repro files.
    """

    kind: str
    a: int = 0
    b: int = 0
    c: int = 0


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of the fuzz-program generator."""

    operations: int = 40
    array_words: int = 16
    threads: int = 1
    tainted_input: bool = False
    #: defect class to inject ("" = clean seed)
    bug: str = ""
    #: multiplicative jitter applied to the op-mix weights (0 disables)
    weight_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.operations < 0:
            raise ValueError("operations must be >= 0")
        if self.array_words < 4:
            raise ValueError("array_words must be >= 4")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.bug and self.bug not in BUG_CLASSES:
            raise ValueError(f"unknown bug class {self.bug!r}; known: {BUG_CLASSES}")
        if self.bug == "unlocked_shared_write" and self.threads < 2:
            raise ValueError("unlocked_shared_write needs >= 2 threads")
        if self.bug == "taint_to_jump" and not self.tainted_input:
            raise ValueError("taint_to_jump needs tainted_input=True")


@dataclass(frozen=True)
class FuzzProgramSpec:
    """A fully expanded fuzz case: per-thread op tuples plus scenario facts.

    The spec -- not the lowered programs -- is the unit of shrinking and
    repro serialisation: dropping ops from ``ops`` and re-lowering always
    produces a well-formed program with the same prologue/epilogue.
    """

    seed: int
    threads: int
    array_words: int
    tainted_input: bool
    bug: str
    bug_thread: int
    ops: Tuple[Tuple[Op, ...], ...]

    def total_ops(self) -> int:
        """Number of IR ops across all threads (shrinking progress metric)."""
        return sum(len(thread_ops) for thread_ops in self.ops)

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict:
        """JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "threads": self.threads,
            "array_words": self.array_words,
            "tainted_input": self.tainted_input,
            "bug": self.bug,
            "bug_thread": self.bug_thread,
            "ops": [
                [[op.kind, op.a, op.b, op.c] for op in thread_ops]
                for thread_ops in self.ops
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzProgramSpec":
        """Rebuild a spec from :meth:`to_dict` output (repro files)."""
        return cls(
            seed=int(data["seed"]),
            threads=int(data["threads"]),
            array_words=int(data["array_words"]),
            tainted_input=bool(data["tainted_input"]),
            bug=str(data["bug"]),
            bug_thread=int(data["bug_thread"]),
            ops=tuple(
                tuple(Op(kind, int(a), int(b), int(c)) for kind, a, b, c in thread_ops)
                for thread_ops in data["ops"]
            ),
        )


@dataclass(frozen=True)
class BugManifest:
    """Machine-checkable ground truth for one fuzz case.

    ``detectors`` are the lifeguards that must report at least one error of
    a kind in ``kinds``; a clean manifest (``bug == ""``) asserts that
    *every* lifeguard stays completely silent.  On a buggy case the other
    lifeguards' reports are unconstrained: the injected wild jump of
    ``taint_to_jump``, for one, halts the program before its frees, so
    leak reports may follow.
    """

    bug: str = ""
    thread: int = 0
    detectors: Tuple[str, ...] = ()
    kinds: Tuple[str, ...] = ()

    @property
    def is_clean(self) -> bool:
        return not self.bug


#: bug class -> (detecting lifeguards, acceptable ErrorKind values)
_BUG_GROUND_TRUTH = {
    "use_after_free": (("AddrCheck", "MemCheck"), ("invalid_access",)),
    "overflow": (("AddrCheck", "MemCheck"), ("invalid_access",)),
    "unlocked_shared_write": (("LockSet",), ("data_race",)),
    "taint_to_jump": (("TaintCheck", "TaintCheckDetailed"), ("taint_violation",)),
    "uninitialized_read": (("MemCheck",), ("uninitialized_use",)),
}


def manifest_for(spec: FuzzProgramSpec) -> BugManifest:
    """Derive the ground-truth manifest of a spec (pure, shrink-stable)."""
    if not spec.bug:
        return BugManifest()
    detectors, kinds = _BUG_GROUND_TRUTH[spec.bug]
    return BugManifest(bug=spec.bug, thread=spec.bug_thread, detectors=detectors, kinds=kinds)


# ------------------------------------------------------------------ generation


def profile_for_seed(seed: int) -> FuzzConfig:
    """Deterministic seed -> scenario mapping used by the fuzz CLI and CI.

    Every block of eight consecutive seeds covers three clean shapes
    (single-threaded, multithreaded, multithreaded+taint) and all five
    injected bug classes, so any contiguous seed range of length >= 8
    exercises the full detection matrix.
    """
    scenario = seed % 8
    variant = seed // 8
    threads = 2 + variant % 2
    if scenario == 0:
        return FuzzConfig(threads=1)
    if scenario == 1:
        return FuzzConfig(threads=threads)
    if scenario == 2:
        return FuzzConfig(threads=threads, tainted_input=True)
    bug = BUG_CLASSES[scenario - 3]
    return FuzzConfig(
        threads=max(threads, 2) if bug == "unlocked_shared_write" else (1 + variant % 2),
        tainted_input=(bug == "taint_to_jump") or (variant % 3 == 1),
        bug=bug,
    )


def _draw_op(rng: random.Random, kinds: Sequence[str], weights: Sequence[float],
             config: FuzzConfig) -> Op:
    """Draw one IR op; every parameter comes from the seeded stream."""
    kind = rng.choices(kinds, weights=weights)[0]
    words = config.array_words
    if kind == "alu_reg":
        return Op(kind, rng.randrange(4), rng.randrange(4), rng.randrange(5))
    if kind == "alu_imm":
        return Op(kind, rng.randrange(4), rng.randrange(1, 1 << 16), rng.randrange(4))
    if kind == "load":
        return Op(kind, rng.randrange(4), rng.randrange(words), rng.randrange(2))
    if kind == "store":
        return Op(kind, rng.randrange(4), rng.randrange(words))
    if kind == "store_imm":
        return Op(kind, rng.randrange(1, 1 << 16), rng.randrange(words))
    if kind == "copy":
        return Op(kind, rng.randrange(4), rng.randrange(words), rng.randrange(words))
    if kind == "block_copy":
        span = rng.randrange(1, 5)
        return Op(
            kind,
            rng.randrange(max(1, words - span)),
            rng.randrange(max(1, words - span)),
            span,
        )
    if kind == "branch":
        return Op(kind, rng.randrange(4), rng.randrange(64), rng.randrange(len(Cond)))
    if kind == "call":
        return Op(kind)
    if kind == "scratch_block":
        return Op(kind, rng.randrange(4), rng.randrange(1, 50), rng.randrange(8))
    if kind == "shared_rmw":
        return Op(kind, rng.randrange(FUZZ_SHARED_WORDS), rng.randrange(1, 4))
    if kind == "syscall_out":
        return Op(
            kind,
            rng.randrange(FUZZ_SYSCALL_WORDS),
            rng.randrange(1, 1 << 16),
            rng.randrange(FUZZ_SYSCALL_WORDS),
        )
    raise AssertionError(f"unhandled op kind {kind!r}")


def generate_spec(seed: int, config: Optional[FuzzConfig] = None) -> FuzzProgramSpec:
    """Expand ``seed`` into a :class:`FuzzProgramSpec`.

    Without an explicit config the scenario comes from
    :func:`profile_for_seed`.  All randomness -- op mix jitter, op
    parameters, bug placement -- is drawn from one ``random.Random(seed)``
    stream in a fixed order, so the spec is a pure function of
    ``(seed, config)`` on every Python version.
    """
    config = config or profile_for_seed(seed)
    rng = random.Random(seed)
    kinds = [kind for kind, _weight in _OP_KINDS]
    weights = [weight for _kind, weight in _OP_KINDS]
    if config.weight_jitter:
        weights = [
            weight * (1.0 + config.weight_jitter * rng.random()) for weight in weights
        ]
    ops: List[List[Op]] = []
    for _thread in range(config.threads):
        ops.append(
            [_draw_op(rng, kinds, weights, config) for _ in range(config.operations)]
        )
    bug_thread = 0
    if config.bug:
        bug_thread = rng.randrange(config.threads)
        bug_op = Op(f"bug_{config.bug}", rng.randrange(4), rng.randrange(4))
        if config.bug == "taint_to_jump":
            # The wild jump halts the thread: keep the injected op last so
            # the shrunk-to-minimal program is still representative.
            ops[bug_thread].append(bug_op)
        else:
            position = rng.randrange(len(ops[bug_thread]) + 1)
            ops[bug_thread].insert(position, bug_op)
    return FuzzProgramSpec(
        seed=seed,
        threads=config.threads,
        array_words=config.array_words,
        tainted_input=config.tainted_input,
        bug=config.bug,
        bug_thread=bug_thread,
        ops=tuple(tuple(thread_ops) for thread_ops in ops),
    )


# ------------------------------------------------------------------ lowering


def _emit_prologue(b: ProgramBuilder, p: Patterns, spec: FuzzProgramSpec,
                   thread_id: int) -> None:
    words = spec.array_words
    # Touch the shared counter under the lock *first*: every thread
    # establishes its lock-protected access within its first scheduling
    # quantum, so an injected unlocked write later always finds the word
    # already shared (the race fires deterministically).
    _emit_locked_rmw(b, 0)
    p.alloc(words * 4, EBP)                       # array A (input)
    p.alloc(words * 4, EDI)                       # array B (output)
    b.malloc(Imm(FUZZ_SYSCALL_WORDS * 4))         # syscall buffer S
    b.mov(Mem(disp=_syscall_slot(thread_id)), Reg(EAX))
    if spec.tainted_input:
        b.syscall(SyscallKind.READ, Reg(EBP), Imm(words * 4))
    else:
        p.init_array(EBP, words, start_value=spec.seed % 97 + 1)
    p.init_array(EDI, words, start_value=3)
    b.mov(Reg(ESI), Mem(disp=_syscall_slot(thread_id)))
    p.init_array(ESI, FUZZ_SYSCALL_WORDS, start_value=7)


def _emit_epilogue(b: ProgramBuilder, p: Patterns, spec: FuzzProgramSpec,
                   thread_id: int, uses_call: bool) -> None:
    _emit_locked_rmw(b, 0)
    b.mov(Reg(ESI), Mem(disp=_syscall_slot(thread_id)))
    b.free(Reg(ESI))
    p.free(EDI)
    p.free(EBP)
    b.halt()
    if uses_call:
        p.define_alu_leaf("leaf", alu_ops=6)
    else:
        # keep the label table stable so shrinking never invalidates calls
        b.label("leaf")
        b.ret()


def _emit_locked_rmw(b: ProgramBuilder, word_index: int, increment: int = 1) -> None:
    """Lock-protected read-modify-write of a shared global word."""
    word = FUZZ_SHARED_BASE + (word_index % FUZZ_SHARED_WORDS) * 4
    b.lock(Imm(FUZZ_LOCK))
    b.mov(Reg(EBX), Mem(disp=word))
    b.add(Reg(EBX), Imm(increment))
    b.mov(Mem(disp=word), Reg(EBX))
    b.unlock(Imm(FUZZ_LOCK))


def _emit_op(b: ProgramBuilder, p: Patterns, spec: FuzzProgramSpec,
             thread_id: int, op: Op) -> None:
    words = spec.array_words
    if op.kind == "alu_reg":
        alu = (b.add, b.sub, b.xor, b.or_, b.and_)[op.c % 5]
        alu(Reg(_SCRATCH[op.a % 4]), Reg(_SCRATCH[op.b % 4]))
    elif op.kind == "alu_imm":
        alu = (b.add, b.sub, b.xor, b.and_)[op.c % 4]
        alu(Reg(_SCRATCH[op.a % 4]), Imm(op.b))
    elif op.kind == "load":
        base = EBP if op.c % 2 == 0 else EDI
        b.mov(Reg(_SCRATCH[op.a % 4]), Mem(base=base, disp=(op.b % words) * 4))
    elif op.kind == "store":
        b.mov(Mem(base=EDI, disp=(op.b % words) * 4), Reg(_SCRATCH[op.a % 4]))
    elif op.kind == "store_imm":
        b.mov(Mem(base=EDI, disp=(op.b % words) * 4), Imm(op.a))
    elif op.kind == "copy":
        reg = _SCRATCH[op.a % 4]
        b.mov(Reg(reg), Mem(base=EBP, disp=(op.b % words) * 4))
        b.mov(Mem(base=EDI, disp=(op.c % words) * 4), Reg(reg))
    elif op.kind == "block_copy":
        span = max(1, op.c % 5)
        src = min(op.a, max(0, words - span)) * 4
        dst = min(op.b, max(0, words - span)) * 4
        b.push(Reg(EDI))
        b.lea(Reg(ESI), Mem(base=EBP, disp=src))
        b.lea(Reg(EDI), Mem(base=EDI, disp=dst))
        b.movs(span * 4)
        b.pop(Reg(EDI))
    elif op.kind == "branch":
        label = p.fresh_label("skip")
        b.cmp(Reg(_SCRATCH[op.a % 4]), Imm(op.b % 64))
        b.jcc(list(Cond)[op.c % len(Cond)], label)
        b.add(Reg(_SCRATCH[(op.a + 1) % 4]), Imm(1))
        b.label(label)
    elif op.kind == "call":
        b.push(Reg(ECX))
        b.call("leaf")
        b.pop(Reg(ECX))
    elif op.kind == "scratch_block":
        # A full malloc/init/use/free lifetime confined to one op.
        block_words = 4 + (op.a % 4) * 2
        b.malloc(Imm(block_words * 4))
        p.init_array(EAX, block_words, start_value=op.b % 50 + 1)
        b.mov(Reg(EBX), Mem(base=EAX, disp=(op.c % block_words) * 4))
        b.add(Reg(ECX), Reg(EBX))
        b.free(Reg(EAX))
    elif op.kind == "shared_rmw":
        _emit_locked_rmw(b, op.a, increment=max(1, op.b % 4))
    elif op.kind == "syscall_out":
        slot = _syscall_slot(thread_id)
        b.mov(Reg(ESI), Mem(disp=slot))
        b.mov(Mem(base=ESI, disp=(op.a % FUZZ_SYSCALL_WORDS) * 4), Imm(op.b))
        length = ((op.c % FUZZ_SYSCALL_WORDS) + 1) * 4
        b.syscall(SyscallKind.WRITE, Reg(ESI), Imm(length))
    elif op.kind == "bug_use_after_free":
        # The dangling read targets the *tail* word of a 1 MiB block: the
        # first-fit allocator reuses hole starts, so even if another thread
        # mallocs between the free and the read (quantum boundary), the tail
        # stays unallocated and the invalid access fires deterministically.
        b.malloc(Imm(1 << 20))
        b.mov(Reg(ESI), Reg(EAX))
        b.mov(Mem(base=ESI), Imm(1))
        b.free(Reg(ESI))
        b.mov(Reg(EBX), Mem(base=ESI, disp=(1 << 20) - 4))  # dangling read
        b.add(Reg(EBX), Imm(1))
    elif op.kind == "bug_overflow":
        b.malloc(Imm(32))
        p.init_array(EAX, 8, start_value=1)
        b.mov(Mem(base=EAX, disp=32), Imm(0xDEAD))            # one past the end
        b.mov(Mem(base=EAX, disp=32 + (1 << 20)), Imm(0xBEEF))  # far OOB: always unallocated
        b.free(Reg(EAX))
    elif op.kind == "bug_unlocked_shared_write":
        word = FUZZ_SHARED_BASE
        b.mov(Reg(EBX), Mem(disp=word))          # no lock held
        b.add(Reg(EBX), Imm(1))
        b.mov(Mem(disp=word), Reg(EBX))
    elif op.kind == "bug_taint_to_jump":
        b.mov(Reg(EBX), Mem(base=EBP, disp=(op.a % words) * 4))  # tainted load
        b.jmp_indirect(Reg(EBX))                 # tainted control transfer (wild)
    elif op.kind == "bug_uninitialized_read":
        b.malloc(Imm(32))
        b.mov(Reg(ESI), Reg(EAX))
        b.mov(Reg(EBX), Mem(base=ESI, disp=8))   # uninitialised load (no error yet)
        b.add(Reg(ECX), Reg(EBX))                # non-unary use -> error
        b.free(Reg(ESI))
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")


def _lower_thread(spec: FuzzProgramSpec, thread_id: int) -> Program:
    b = ProgramBuilder(f"fuzz_{spec.seed}_t{thread_id}")
    p = Patterns(b)
    _emit_prologue(b, p, spec, thread_id)
    uses_call = False
    for op in spec.ops[thread_id]:
        if op.kind == "call":
            uses_call = True
        _emit_op(b, p, spec, thread_id, op)
    _emit_epilogue(b, p, spec, thread_id, uses_call)
    return b.build()


def build_fuzz_programs(spec: FuzzProgramSpec) -> List[Program]:
    """Lower a spec to one :class:`Program` per thread (deterministic)."""
    return [_lower_thread(spec, thread_id) for thread_id in range(spec.threads)]


# ------------------------------------------------------------------ digests


def program_digest(programs: Sequence[Program]) -> str:
    """SHA-256 over the fully lowered instruction streams.

    The digest covers opcodes, operands, labels and branch targets of every
    thread program, so *any* change to what a seed generates -- from a new
    Python version, a refactor, or an accidental source of nondeterminism --
    changes the digest.  Golden digests for fixed seeds are pinned in the
    test suite.
    """
    h = hashlib.sha256()
    for program in programs:
        h.update(program.name.encode())
        h.update(str(program.code_base).encode())
        for instruction in program.instructions:
            h.update(repr(instruction).encode())
            h.update(b"\n")
    return h.hexdigest()


def spec_digest(spec: FuzzProgramSpec) -> str:
    """SHA-256 of the lowered programs of ``spec``."""
    return program_digest(build_fuzz_programs(spec))
