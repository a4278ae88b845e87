"""Instruction and operand model of the IA32-flavoured ISA.

Instructions are plain data; :class:`repro.isa.machine.Machine` interprets
them and classifies each retirement into the Figure 5 event taxonomy.  The
operand model deliberately mirrors IA32 addressing (base + index*scale +
displacement, access sizes of 1/2/4 bytes, unaligned accesses allowed)
because the Inheritance Tracking conflict detector and the Idempotent
Filter are sensitive to exactly these properties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro.isa.registers import Register


def _check_register(reg: object) -> None:
    """Operands name registers by :class:`Register` member, checked once here.

    The register file indexes its values by register number without
    re-checking on every access, so anything else must fail at build time.
    """
    if not isinstance(reg, Register):
        raise TypeError(f"register operand must be a Register, got {reg!r}")


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    reg: Register

    def __post_init__(self) -> None:
        _check_register(self.reg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"%{self.reg.name.lower()}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"${self.value:#x}"


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``disp + base + index * scale`` with a byte size."""

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    disp: int = 0
    size: int = 4

    def __post_init__(self) -> None:
        if self.base is not None:
            _check_register(self.base)
        if self.index is not None:
            _check_register(self.index)
        if self.scale not in (1, 2, 4, 8):
            raise ValueError("scale must be 1, 2, 4 or 8")
        if self.size not in (1, 2, 4, 8):
            raise ValueError("memory access size must be 1, 2, 4 or 8 bytes")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.disp:#x}"]
        if self.base is not None:
            parts.append(f"%{self.base.name.lower()}")
        if self.index is not None:
            parts.append(f"%{self.index.name.lower()}*{self.scale}")
        return f"[{'+'.join(parts)}]:{self.size}"


Operand = Union[Reg, Imm, Mem]


class Opcode(enum.Enum):
    """Instruction opcodes.

    The first group are ordinary data-movement/ALU/control instructions.
    The ``annotation`` group models the high-level events that the paper
    captures via wrapper libraries (heap calls, locks, system calls); the
    machine executes their functional effect and emits an
    :class:`repro.core.events.AnnotationRecord`.
    """

    MOV = "mov"
    MOVS = "movs"        # memory-to-memory copy (rep movs style)
    LEA = "lea"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MUL = "mul"
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"
    TEST = "test"
    PUSH = "push"
    POP = "pop"
    JMP = "jmp"
    JCC = "jcc"
    JMP_INDIRECT = "jmp_indirect"
    CALL = "call"
    CALL_INDIRECT = "call_indirect"
    RET = "ret"
    XCHG = "xchg"
    NOP = "nop"
    HALT = "halt"

    # -- annotation (rare, high-level) pseudo-instructions --------------------
    MALLOC = "malloc"
    FREE = "free"
    REALLOC = "realloc"
    LOCK = "lock"
    UNLOCK = "unlock"
    SYSCALL = "syscall"
    PRINTF = "printf"

    @property
    def is_binary_alu(self) -> bool:
        """True for two-operand ALU opcodes (``dest op= src``)."""
        return self in _BINARY_ALU_OPCODES


_BINARY_ALU_OPCODES = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL}
)


class Cond(enum.Enum):
    """Branch conditions evaluated against the last compare result."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class SyscallKind(enum.Enum):
    """System call kinds distinguished by the lifeguards.

    ``READ`` and ``RECV`` are taint sources for TAINTCHECK; all kinds have
    their input buffers checked by MEMCHECK/TAINTCHECK.
    """

    READ = "read"
    RECV = "recv"
    WRITE = "write"
    OTHER = "other"


@dataclass(frozen=True)
class Instruction:
    """One instruction of a program.

    Attributes:
        opcode: the operation to perform.
        operands: destination-first operand tuple (IA32 ``dst, src`` order).
        target: branch/call target label, for control-transfer opcodes.
        cond: branch condition for :data:`Opcode.JCC`.
        count: byte count for :data:`Opcode.MOVS` string copies.
        syscall: system call kind for :data:`Opcode.SYSCALL`.
        label: optional symbolic label attached to this instruction.
    """

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    target: Optional[str] = None
    cond: Optional[Cond] = None
    count: int = 0
    syscall: Optional[SyscallKind] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.opcode is Opcode.JCC and self.cond is None:
            raise ValueError("JCC requires a condition")
        if self.opcode in (Opcode.JMP, Opcode.JCC, Opcode.CALL) and self.target is None:
            raise ValueError(f"{self.opcode.value} requires a target label")

    @property
    def dest(self) -> Optional[Operand]:
        """Destination operand (first operand), if any."""
        return self.operands[0] if self.operands else None

    @property
    def src(self) -> Optional[Operand]:
        """Source operand (second operand), if any."""
        return self.operands[1] if len(self.operands) > 1 else None

    def with_label(self, label: str) -> "Instruction":
        """Return a copy of the instruction carrying ``label``."""
        return Instruction(
            opcode=self.opcode,
            operands=self.operands,
            target=self.target,
            cond=self.cond,
            count=self.count,
            syscall=self.syscall,
            label=label,
        )


def mem_operands(instruction: Instruction) -> Sequence[Mem]:
    """Return the memory operands of an instruction (possibly empty)."""
    return [op for op in instruction.operands if isinstance(op, Mem)]
