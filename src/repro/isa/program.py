"""Program container and assembler-style builder.

Workloads construct programs with :class:`ProgramBuilder`, which offers one
method per opcode plus label management, in rough analogy to writing IA32
assembly.  A :class:`Program` is an immutable list of instructions with a
label table and a notional code base address so that every instruction has
a realistic program counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    Cond,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Operand,
    Reg,
    SyscallKind,
)
from repro.isa.registers import Register

#: Notional encoded size of one instruction, used to derive program counters.
INSTRUCTION_BYTES = 4


class Program:
    """An immutable sequence of instructions with labels.

    Attributes:
        name: human-readable program name (used in reports).
        instructions: the instruction sequence.
        code_base: virtual address of the first instruction.
    """

    def __init__(self, name: str, instructions: Sequence[Instruction],
                 code_base: int = 0x0804_8000) -> None:
        self.name = name
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        self.code_base = code_base
        self.labels: Dict[str, int] = {}
        for index, instruction in enumerate(self.instructions):
            if instruction.label is not None:
                if instruction.label in self.labels:
                    raise ValueError(f"duplicate label {instruction.label!r}")
                self.labels[instruction.label] = index
        self._validate_targets()
        #: The handler table :func:`repro.isa.machine.decode` builds when the
        #: first machine is built on this program.
        self._handlers: Optional[tuple] = None

    def _validate_targets(self) -> None:
        for instruction in self.instructions:
            if instruction.target is not None and instruction.target not in self.labels:
                raise ValueError(
                    f"undefined branch target {instruction.target!r} in program {self.name!r}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def index_of_label(self, label: str) -> int:
        """Instruction index of ``label``."""
        return self.labels[label]


class ProgramBuilder:
    """Assembler-style builder for :class:`Program` objects.

    Example::

        b = ProgramBuilder("copy_loop")
        b.label("loop")
        b.mov(Reg(Register.EAX), Mem(base=Register.ESI))
        b.mov(Mem(base=Register.EDI), Reg(Register.EAX))
        b.add(Reg(Register.ESI), Imm(4))
        b.add(Reg(Register.EDI), Imm(4))
        b.sub(Reg(Register.ECX), Imm(1))
        b.jcc(Cond.NE, "loop")
        b.halt()
        program = b.build()
    """

    def __init__(self, name: str, code_base: int = 0x0804_8000) -> None:
        self.name = name
        self.code_base = code_base
        self._instructions: List[Instruction] = []
        self._pending_label: Optional[str] = None

    # -- label handling -------------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Attach ``name`` to the next emitted instruction."""
        if self._pending_label is not None:
            # allow stacked labels by inserting a NOP carrying the first label
            self._emit(Instruction(Opcode.NOP))
        self._pending_label = name
        return self

    def _emit(self, instruction: Instruction) -> "ProgramBuilder":
        if self._pending_label is not None:
            instruction = instruction.with_label(self._pending_label)
            self._pending_label = None
        self._instructions.append(instruction)
        return self

    # -- data movement ----------------------------------------------------------

    def mov(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``mov dst, src``"""
        return self._emit(Instruction(Opcode.MOV, (dst, src)))

    def movs(self, count: int) -> "ProgramBuilder":
        """``movs`` -- copy ``count`` bytes from ``[esi]`` to ``[edi]``."""
        return self._emit(Instruction(Opcode.MOVS, (), count=count))

    def lea(self, dst: Reg, src: Mem) -> "ProgramBuilder":
        """``lea dst, src`` -- address computation without a memory access."""
        return self._emit(Instruction(Opcode.LEA, (dst, src)))

    def xchg(self, a: Operand, b: Operand) -> "ProgramBuilder":
        """``xchg a, b`` -- modelled as an instruction outside the Figure 5 taxonomy."""
        return self._emit(Instruction(Opcode.XCHG, (a, b)))

    def push(self, src: Operand) -> "ProgramBuilder":
        """``push src``"""
        return self._emit(Instruction(Opcode.PUSH, (src,)))

    def pop(self, dst: Reg) -> "ProgramBuilder":
        """``pop dst``"""
        return self._emit(Instruction(Opcode.POP, (dst,)))

    # -- ALU ---------------------------------------------------------------------

    def add(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``add dst, src``"""
        return self._emit(Instruction(Opcode.ADD, (dst, src)))

    def sub(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``sub dst, src``"""
        return self._emit(Instruction(Opcode.SUB, (dst, src)))

    def and_(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``and dst, src``"""
        return self._emit(Instruction(Opcode.AND, (dst, src)))

    def or_(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``or dst, src``"""
        return self._emit(Instruction(Opcode.OR, (dst, src)))

    def xor(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``xor dst, src``"""
        return self._emit(Instruction(Opcode.XOR, (dst, src)))

    def mul(self, dst: Operand, src: Operand) -> "ProgramBuilder":
        """``mul dst, src`` (low 32 bits of the product)."""
        return self._emit(Instruction(Opcode.MUL, (dst, src)))

    def shl(self, dst: Operand, amount: int) -> "ProgramBuilder":
        """``shl dst, $amount``"""
        return self._emit(Instruction(Opcode.SHL, (dst, Imm(amount))))

    def shr(self, dst: Operand, amount: int) -> "ProgramBuilder":
        """``shr dst, $amount``"""
        return self._emit(Instruction(Opcode.SHR, (dst, Imm(amount))))

    # -- compares and control flow ---------------------------------------------------

    def cmp(self, a: Operand, b: Operand) -> "ProgramBuilder":
        """``cmp a, b``"""
        return self._emit(Instruction(Opcode.CMP, (a, b)))

    def test(self, a: Operand, b: Operand) -> "ProgramBuilder":
        """``test a, b``"""
        return self._emit(Instruction(Opcode.TEST, (a, b)))

    def jmp(self, target: str) -> "ProgramBuilder":
        """``jmp target``"""
        return self._emit(Instruction(Opcode.JMP, (), target=target))

    def jcc(self, cond: Cond, target: str) -> "ProgramBuilder":
        """Conditional jump to ``target``."""
        return self._emit(Instruction(Opcode.JCC, (), target=target, cond=cond))

    def jmp_indirect(self, src: Operand) -> "ProgramBuilder":
        """Indirect jump through a register or memory operand."""
        return self._emit(Instruction(Opcode.JMP_INDIRECT, (src,)))

    def call(self, target: str) -> "ProgramBuilder":
        """``call target``"""
        return self._emit(Instruction(Opcode.CALL, (), target=target))

    def call_indirect(self, src: Operand) -> "ProgramBuilder":
        """Indirect call through a register or memory operand."""
        return self._emit(Instruction(Opcode.CALL_INDIRECT, (src,)))

    def ret(self) -> "ProgramBuilder":
        """``ret``"""
        return self._emit(Instruction(Opcode.RET))

    def nop(self) -> "ProgramBuilder":
        """``nop``"""
        return self._emit(Instruction(Opcode.NOP))

    def halt(self) -> "ProgramBuilder":
        """Stop the program."""
        return self._emit(Instruction(Opcode.HALT))

    # -- annotation pseudo-instructions -----------------------------------------------

    def malloc(self, size: Operand) -> "ProgramBuilder":
        """Allocate ``size`` bytes; the block address is returned in ``%eax``."""
        return self._emit(Instruction(Opcode.MALLOC, (size,)))

    def free(self, ptr: Operand) -> "ProgramBuilder":
        """Free the heap block whose address is ``ptr``."""
        return self._emit(Instruction(Opcode.FREE, (ptr,)))

    def realloc(self, ptr: Operand, size: Operand) -> "ProgramBuilder":
        """Reallocate ``ptr`` to ``size`` bytes; new address returned in ``%eax``."""
        return self._emit(Instruction(Opcode.REALLOC, (ptr, size)))

    def lock(self, addr: Operand) -> "ProgramBuilder":
        """Acquire the lock at address ``addr``."""
        return self._emit(Instruction(Opcode.LOCK, (addr,)))

    def unlock(self, addr: Operand) -> "ProgramBuilder":
        """Release the lock at address ``addr``."""
        return self._emit(Instruction(Opcode.UNLOCK, (addr,)))

    def syscall(self, kind: SyscallKind, buf: Operand, length: Operand) -> "ProgramBuilder":
        """Issue a system call over buffer ``buf`` of ``length`` bytes."""
        return self._emit(Instruction(Opcode.SYSCALL, (buf, length), syscall=kind))

    def printf(self, fmt: Operand, *args: Operand) -> "ProgramBuilder":
        """Call a printf-like routine with format string address ``fmt``."""
        return self._emit(Instruction(Opcode.PRINTF, (fmt,) + tuple(args)))

    # -- finishing ------------------------------------------------------------------

    def build(self) -> Program:
        """Build the immutable :class:`Program`."""
        if self._pending_label is not None:
            self._emit(Instruction(Opcode.NOP))
        return Program(self.name, self._instructions, code_base=self.code_base)
