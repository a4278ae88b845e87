"""Functional interpreter for the IA32-flavoured ISA.

The machine executes a :class:`repro.isa.program.Program` against a shared
:class:`repro.memory.address_space.AddressSpace` and
:class:`repro.memory.allocator.HeapAllocator`, and emits one
:class:`repro.core.events.InstructionRecord` per retired instruction (plus
:class:`repro.core.events.AnnotationRecord` objects for the rare high-level
events).  The emitted stream is the input to the LBA log capture layer.

Faulty behaviour of the *monitored program* (double frees, out-of-bounds
accesses to unallocated heap memory, reads of uninitialised data, tainted
jump targets) is deliberately allowed to proceed functionally -- detecting
it is the lifeguard's job, not the machine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
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
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import Register, RegisterFile, WORD_MASK
from repro.memory.address_space import AddressSpace, SegmentLayout
from repro.memory.allocator import AllocationError, HeapAllocator

Record = Union[InstructionRecord, AnnotationRecord]
RecordObserver = Callable[[Record], None]

#: Default heap size given to machines that create their own allocator.
DEFAULT_HEAP_SIZE = 64 * 1024 * 1024
#: Default per-thread stack size.
DEFAULT_STACK_SIZE = 1 * 1024 * 1024


class MachineError(RuntimeError):
    """Base class for machine execution errors."""


class Trap(MachineError):
    """An unrecoverable fault in the monitored program (e.g. heap exhaustion)."""


class ExecutionLimitExceeded(MachineError):
    """Raised when a run exceeds its instruction budget (runaway program)."""


@dataclass
class MachineStats:
    """Aggregate execution statistics for one machine/thread."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    annotations: int = 0
    mallocs: int = 0
    frees: int = 0
    syscalls: int = 0
    branches_taken: int = 0


def _signed32(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x8000_0000 else value


def _default_input_provider(size: int) -> bytes:
    """Deterministic 'network input' used by read/recv system calls."""
    return bytes((0x55 + i) & 0xFF for i in range(size))


class Machine:
    """Executes one thread of a monitored program.

    Args:
        program: the program to execute.
        address_space: shared application memory (created if omitted).
        allocator: shared heap allocator (created if omitted).
        thread_id: identifier carried in every emitted record.
        stack_size: size of this thread's stack.
        lock_manager: optional shared lock table; when provided, ``LOCK``
            instructions block (``self.blocked`` becomes True) instead of
            proceeding while another thread holds the lock.
        input_provider: callable returning the bytes produced by ``read`` /
            ``recv`` system calls.
    """

    def __init__(
        self,
        program: Program,
        address_space: Optional[AddressSpace] = None,
        allocator: Optional[HeapAllocator] = None,
        thread_id: int = 0,
        stack_size: int = DEFAULT_STACK_SIZE,
        lock_manager: Optional["LockManagerProtocol"] = None,
        input_provider: Callable[[int], bytes] = _default_input_provider,
    ) -> None:
        self.program = program
        self.memory = address_space or AddressSpace()
        layout = self.memory.layout
        self.allocator = allocator or HeapAllocator(layout.heap_base, DEFAULT_HEAP_SIZE)
        self.thread_id = thread_id
        self.lock_manager = lock_manager
        self.input_provider = input_provider
        self.registers = RegisterFile()
        self.stats = MachineStats()
        self.halted = False
        self.blocked = False
        self._index = 0
        stack_top = layout.stack_top - thread_id * (stack_size + 4096)
        self.stack_base = stack_top - stack_size
        self.registers.write(Register.ESP, stack_top)
        self.registers.write(Register.EBP, stack_top)

    # ------------------------------------------------------------------ driving

    def run(
        self,
        observer: Optional[RecordObserver] = None,
        max_instructions: int = 5_000_000,
    ) -> MachineStats:
        """Run until the program halts, calling ``observer`` per record.

        Raises:
            ExecutionLimitExceeded: if the instruction budget is exhausted.
        """
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_instructions} instructions"
                )
            for record in self.step():
                if observer is not None:
                    observer(record)
        return self.stats

    def trace(self, max_instructions: int = 5_000_000) -> List[Record]:
        """Run to completion and return the full record trace as a list."""
        records: List[Record] = []
        self.run(records.append, max_instructions=max_instructions)
        return records

    def step(self) -> List[Record]:
        """Execute one instruction and return the records it emitted.

        Returns an empty list without advancing when the thread is blocked on
        a lock held by another thread, or when the program has halted.
        """
        index = self._index
        program = self.program
        if self.halted or index >= len(program.instructions):
            self.halted = True
            return []
        instruction = program.instructions[index]
        pc = program.code_base + index * INSTRUCTION_BYTES
        self.registers.eip = pc
        handler = _REGULAR_DISPATCH.get(instruction.opcode)
        if handler is not None:
            self._index = index + 1
            self.stats.instructions += 1
            return handler(self, instruction, pc)

        if instruction.opcode is Opcode.LOCK and self.lock_manager is not None:
            lock_addr = self._operand_value(instruction.operands[0])
            if not self.lock_manager.try_acquire(lock_addr, self.thread_id):
                self.blocked = True
                return []
            self.blocked = False
            self._index = index + 1
            self.stats.instructions += 1
            self.stats.annotations += 1
            return [
                AnnotationRecord(
                    EventType.LOCK, address=lock_addr, thread_id=self.thread_id, pc=pc
                )
            ]

        self._index = index + 1
        self.stats.instructions += 1
        return self._execute_annotation(instruction, pc)

    # -------------------------------------------------------------- operand access

    def effective_address(self, operand: Mem) -> int:
        """Compute the effective address of a memory operand."""
        address = operand.disp
        if operand.base is not None:
            address += self.registers.read(operand.base)
        if operand.index is not None:
            address += self.registers.read(operand.index) * operand.scale
        return address & WORD_MASK

    def _operand_value(self, operand: Operand) -> int:
        kind = type(operand)
        if kind is Reg:
            return self.registers.read(operand.reg)
        if kind is Imm:
            return operand.value & WORD_MASK
        if kind is Mem:
            return self.memory.read_uint(self.effective_address(operand), operand.size)
        raise MachineError(f"unsupported operand {operand!r}")

    def _write_operand(self, operand: Operand, value: int) -> None:
        kind = type(operand)
        if kind is Reg:
            self.registers.write(operand.reg, value)
        elif kind is Mem:
            self.memory.write_uint(self.effective_address(operand), value, operand.size)
        else:
            raise MachineError(f"cannot write to operand {operand!r}")

    # -------------------------------------------------------------- regular opcodes

    def _record(
        self,
        pc: int,
        event_type: EventType,
        *,
        dest: Optional[Operand] = None,
        src: Optional[Operand] = None,
        dest_addr: Optional[int] = None,
        src_addr: Optional[int] = None,
        size: int = 0,
        is_load: bool = False,
        is_store: bool = False,
        is_cond_test: bool = False,
        is_indirect_jump: bool = False,
        immediate: Optional[int] = None,
    ) -> InstructionRecord:
        # Register ids go into the record as plain ints (``int()`` of a
        # Register member), never as enum members.
        dest_reg = src_reg = base_reg = index_reg = mem_operand = None
        dest_kind = type(dest)
        if dest_kind is Reg:
            dest_reg = int(dest.reg)
        elif dest_kind is Mem:
            mem_operand = dest
        src_kind = type(src)
        if src_kind is Reg:
            src_reg = int(src.reg)
        elif src_kind is Mem and mem_operand is None:
            mem_operand = src
        if mem_operand is not None:
            if mem_operand.base is not None:
                base_reg = int(mem_operand.base)
            if mem_operand.index is not None:
                index_reg = int(mem_operand.index)
        if is_load:
            self.stats.loads += 1
        if is_store:
            self.stats.stores += 1
        return InstructionRecord(
            pc, event_type, dest_reg, src_reg, dest_addr, src_addr, size, is_load,
            is_store, base_reg, index_reg, is_cond_test, is_indirect_jump,
            self.thread_id, immediate,
        )

    def _exec_mov(self, instruction: Instruction, pc: int) -> List[Record]:
        dest, src = instruction.dest, instruction.src
        value = self._operand_value(src)
        self._write_operand(dest, value)
        dest_kind, src_kind = type(dest), type(src)
        if dest_kind is Reg and src_kind is Imm:
            return [self._record(pc, EventType.IMM_TO_REG, dest=dest, immediate=src.value)]
        if dest_kind is Mem and src_kind is Imm:
            addr = self.effective_address(dest)
            return [
                self._record(
                    pc, EventType.IMM_TO_MEM, dest=dest, dest_addr=addr,
                    size=dest.size, is_store=True, immediate=src.value,
                )
            ]
        if dest_kind is Reg and src_kind is Reg:
            return [self._record(pc, EventType.REG_TO_REG, dest=dest, src=src)]
        if dest_kind is Mem and src_kind is Reg:
            addr = self.effective_address(dest)
            return [
                self._record(
                    pc, EventType.REG_TO_MEM, dest=dest, src=src, dest_addr=addr,
                    size=dest.size, is_store=True,
                )
            ]
        if dest_kind is Reg and src_kind is Mem:
            addr = self.effective_address(src)
            return [
                self._record(
                    pc, EventType.MEM_TO_REG, dest=dest, src=src, src_addr=addr,
                    size=src.size, is_load=True,
                )
            ]
        if dest_kind is Mem and src_kind is Mem:
            daddr = self.effective_address(dest)
            saddr = self.effective_address(src)
            return [
                self._record(
                    pc, EventType.MEM_TO_MEM, dest=dest, src=src, dest_addr=daddr,
                    src_addr=saddr, size=dest.size, is_load=True, is_store=True,
                )
            ]
        raise MachineError(f"unsupported mov operands {instruction.operands!r}")

    def _exec_movs(self, instruction: Instruction, pc: int) -> List[Record]:
        count = instruction.count
        src_addr = self.registers.read(Register.ESI)
        dest_addr = self.registers.read(Register.EDI)
        self.memory.copy(dest_addr, src_addr, count)
        self.registers.write(Register.ESI, src_addr + count)
        self.registers.write(Register.EDI, dest_addr + count)
        return [
            self._record(
                pc, EventType.MEM_TO_MEM, dest_addr=dest_addr, src_addr=src_addr,
                size=count, is_load=True, is_store=True,
            )
        ]

    def _exec_lea(self, instruction: Instruction, pc: int) -> List[Record]:
        dest, src = instruction.dest, instruction.src
        assert isinstance(dest, Reg) and isinstance(src, Mem)
        self.registers.write(dest.reg, self.effective_address(src))
        # Address arithmetic produces a "clean" value: model as imm_to_reg.
        return [self._record(pc, EventType.IMM_TO_REG, dest=dest)]

    def _exec_alu(self, instruction: Instruction, pc: int) -> List[Record]:
        dest, src = instruction.dest, instruction.src
        opcode = instruction.opcode
        lhs = self._operand_value(dest)
        rhs = self._operand_value(src)
        result = _ALU_OPS[opcode](lhs, rhs) & WORD_MASK
        self._write_operand(dest, result)
        self.registers.last_compare = _signed32(result)
        dest_kind, src_kind = type(dest), type(src)
        if dest_kind is Reg and src_kind is Imm:
            return [self._record(pc, EventType.REG_SELF, dest=dest, immediate=src.value)]
        if dest_kind is Mem and src_kind is Imm:
            addr = self.effective_address(dest)
            return [
                self._record(
                    pc, EventType.MEM_SELF, dest=dest, dest_addr=addr, size=dest.size,
                    is_load=True, is_store=True, immediate=src.value,
                )
            ]
        if dest_kind is Reg and src_kind is Reg:
            return [self._record(pc, EventType.DEST_REG_OP_REG, dest=dest, src=src)]
        if dest_kind is Reg and src_kind is Mem:
            addr = self.effective_address(src)
            return [
                self._record(
                    pc, EventType.DEST_REG_OP_MEM, dest=dest, src=src, src_addr=addr,
                    size=src.size, is_load=True,
                )
            ]
        if dest_kind is Mem and src_kind is Reg:
            addr = self.effective_address(dest)
            return [
                self._record(
                    pc, EventType.DEST_MEM_OP_REG, dest=dest, src=src, dest_addr=addr,
                    size=dest.size, is_load=True, is_store=True,
                )
            ]
        raise MachineError(f"unsupported ALU operands {instruction.operands!r}")

    def _exec_shift(self, instruction: Instruction, pc: int) -> List[Record]:
        dest, src = instruction.dest, instruction.src
        assert isinstance(src, Imm)
        value = self._operand_value(dest)
        amount = src.value & 31
        result = (value << amount) if instruction.opcode is Opcode.SHL else (value >> amount)
        self._write_operand(dest, result & WORD_MASK)
        if isinstance(dest, Reg):
            return [self._record(pc, EventType.REG_SELF, dest=dest, immediate=src.value)]
        addr = self.effective_address(dest)
        return [
            self._record(
                pc, EventType.MEM_SELF, dest=dest, dest_addr=addr, size=dest.size,
                is_load=True, is_store=True, immediate=src.value,
            )
        ]

    def _exec_compare(self, instruction: Instruction, pc: int) -> List[Record]:
        a, b = instruction.operands
        lhs = self._operand_value(a)
        rhs = self._operand_value(b)
        if instruction.opcode is Opcode.CMP:
            self.registers.last_compare = _signed32(lhs) - _signed32(rhs)
        else:  # TEST
            self.registers.last_compare = _signed32(lhs & rhs)
        src_addr = None
        size = 0
        is_load = False
        mem = a if isinstance(a, Mem) else (b if isinstance(b, Mem) else None)
        if mem is not None:
            src_addr = self.effective_address(mem)
            size = mem.size
            is_load = True
        src = a if isinstance(a, Reg) else (b if isinstance(b, Reg) else None)
        return [
            self._record(
                pc, EventType.COND_TEST, src=src, src_addr=src_addr, size=size,
                is_load=is_load, is_cond_test=True,
            )
        ]

    def _exec_push(self, instruction: Instruction, pc: int) -> List[Record]:
        src = instruction.operands[0]
        value = self._operand_value(src)
        esp = (self.registers.read(Register.ESP) - 4) & WORD_MASK
        self.registers.write(Register.ESP, esp)
        self.memory.write_uint(esp, value, 4)
        if isinstance(src, Reg):
            return [
                self._record(pc, EventType.REG_TO_MEM, src=src, dest_addr=esp, size=4, is_store=True)
            ]
        if isinstance(src, Imm):
            return [
                self._record(
                    pc, EventType.IMM_TO_MEM, dest_addr=esp, size=4, is_store=True,
                    immediate=src.value,
                )
            ]
        saddr = self.effective_address(src)
        return [
            self._record(
                pc, EventType.MEM_TO_MEM, src=src, dest_addr=esp, src_addr=saddr, size=4,
                is_load=True, is_store=True,
            )
        ]

    def _exec_pop(self, instruction: Instruction, pc: int) -> List[Record]:
        dest = instruction.operands[0]
        assert isinstance(dest, Reg)
        esp = self.registers.read(Register.ESP)
        value = self.memory.read_uint(esp, 4)
        self.registers.write(dest.reg, value)
        self.registers.write(Register.ESP, (esp + 4) & WORD_MASK)
        return [
            self._record(pc, EventType.MEM_TO_REG, dest=dest, src_addr=esp, size=4, is_load=True)
        ]

    def _exec_jmp(self, instruction: Instruction, pc: int) -> List[Record]:
        self._index = self.program.index_of_label(instruction.target)
        self.stats.branches_taken += 1
        return [self._record(pc, EventType.CONTROL)]

    def _exec_jcc(self, instruction: Instruction, pc: int) -> List[Record]:
        if self.registers.last_compare is None:
            raise MachineError("conditional jump before any compare")
        if _evaluate_cond(instruction.cond, self.registers.last_compare):
            self._index = self.program.index_of_label(instruction.target)
            self.stats.branches_taken += 1
        return [self._record(pc, EventType.CONTROL)]

    def _exec_jmp_indirect(self, instruction: Instruction, pc: int) -> List[Record]:
        src = instruction.operands[0]
        target = self._operand_value(src)
        self._jump_to_address(target)
        self.stats.branches_taken += 1
        src_addr = self.effective_address(src) if isinstance(src, Mem) else None
        return [
            self._record(
                pc, EventType.INDIRECT_JUMP,
                src=src if isinstance(src, Reg) else None,
                src_addr=src_addr, size=src.size if isinstance(src, Mem) else 0,
                is_load=isinstance(src, Mem), is_indirect_jump=True,
            )
        ]

    def _exec_call(self, instruction: Instruction, pc: int) -> List[Record]:
        esp = (self.registers.read(Register.ESP) - 4) & WORD_MASK
        self.registers.write(Register.ESP, esp)
        return_pc = pc + INSTRUCTION_BYTES
        self.memory.write_uint(esp, return_pc, 4)
        self._index = self.program.index_of_label(instruction.target)
        self.stats.branches_taken += 1
        return [
            self._record(
                pc, EventType.IMM_TO_MEM, dest_addr=esp, size=4, is_store=True,
                immediate=return_pc,
            )
        ]

    def _exec_call_indirect(self, instruction: Instruction, pc: int) -> List[Record]:
        src = instruction.operands[0]
        target = self._operand_value(src)
        esp = (self.registers.read(Register.ESP) - 4) & WORD_MASK
        self.registers.write(Register.ESP, esp)
        self.memory.write_uint(esp, pc + INSTRUCTION_BYTES, 4)
        self._jump_to_address(target)
        self.stats.branches_taken += 1
        src_addr = self.effective_address(src) if isinstance(src, Mem) else None
        return [
            self._record(
                pc, EventType.INDIRECT_JUMP,
                src=src if isinstance(src, Reg) else None,
                src_addr=src_addr, dest_addr=esp, size=4,
                is_load=isinstance(src, Mem), is_store=True, is_indirect_jump=True,
            )
        ]

    def _exec_ret(self, instruction: Instruction, pc: int) -> List[Record]:
        esp = self.registers.read(Register.ESP)
        target = self.memory.read_uint(esp, 4)
        self.registers.write(Register.ESP, (esp + 4) & WORD_MASK)
        self._jump_to_address(target)
        self.stats.branches_taken += 1
        return [
            self._record(
                pc, EventType.INDIRECT_JUMP, src_addr=esp, size=4, is_load=True,
                is_indirect_jump=True,
            )
        ]

    def _exec_xchg(self, instruction: Instruction, pc: int) -> List[Record]:
        a, b = instruction.operands
        va, vb = self._operand_value(a), self._operand_value(b)
        self._write_operand(a, vb)
        self._write_operand(b, va)
        mem = a if isinstance(a, Mem) else (b if isinstance(b, Mem) else None)
        addr = self.effective_address(mem) if mem is not None else None
        return [
            self._record(
                pc, EventType.OTHER,
                dest=a if isinstance(a, Reg) else None,
                src=b if isinstance(b, Reg) else None,
                dest_addr=addr, size=mem.size if mem is not None else 0,
                is_load=mem is not None, is_store=mem is not None,
            )
        ]

    def _exec_nop(self, instruction: Instruction, pc: int) -> List[Record]:
        return [self._record(pc, EventType.CONTROL)]

    def _exec_halt(self, instruction: Instruction, pc: int) -> List[Record]:
        self.halted = True
        return [self._record(pc, EventType.CONTROL)]

    def _jump_to_address(self, target: int) -> None:
        offset = target - self.program.code_base
        index, remainder = divmod(offset, INSTRUCTION_BYTES)
        if remainder or not 0 <= index <= len(self.program):
            # A wild jump (e.g. a corrupted return address in an exploit
            # scenario).  Halt rather than crash: by this point the lifeguard
            # has already had the chance to flag the tainted target.
            self.halted = True
            return
        self._index = index

    # -------------------------------------------------------------- annotations

    def _execute_annotation(self, instruction: Instruction, pc: int) -> List[Record]:
        self.stats.annotations += 1
        opcode = instruction.opcode
        if opcode is Opcode.MALLOC:
            size = self._operand_value(instruction.operands[0])
            try:
                block = self.allocator.malloc(size)
            except AllocationError as exc:
                raise Trap(str(exc)) from exc
            self.registers.write(Register.EAX, block.address)
            self.stats.mallocs += 1
            return [
                AnnotationRecord(
                    EventType.MALLOC, address=block.address, size=size,
                    thread_id=self.thread_id, pc=pc,
                )
            ]
        if opcode is Opcode.FREE:
            address = self._operand_value(instruction.operands[0])
            size = 0
            try:
                block = self.allocator.free(address)
                size = block.size
            except AllocationError:
                # Invalid/double free: the program proceeds; the lifeguard flags it.
                pass
            self.stats.frees += 1
            return [
                AnnotationRecord(
                    EventType.FREE, address=address, size=size,
                    thread_id=self.thread_id, pc=pc,
                )
            ]
        if opcode is Opcode.REALLOC:
            old_address = self._operand_value(instruction.operands[0])
            new_size = self._operand_value(instruction.operands[1])
            try:
                old_block, new_block = self.allocator.realloc(old_address, new_size)
            except AllocationError as exc:
                raise Trap(str(exc)) from exc
            copy_size = min(old_block.size, new_size)
            self.memory.copy(new_block.address, old_address, copy_size)
            self.registers.write(Register.EAX, new_block.address)
            return [
                AnnotationRecord(
                    EventType.REALLOC, address=new_block.address, size=new_size,
                    thread_id=self.thread_id, pc=pc, payload=old_address,
                )
            ]
        if opcode is Opcode.LOCK:
            address = self._operand_value(instruction.operands[0])
            if self.lock_manager is not None:
                self.lock_manager.try_acquire(address, self.thread_id)
            return [
                AnnotationRecord(EventType.LOCK, address=address, thread_id=self.thread_id, pc=pc)
            ]
        if opcode is Opcode.UNLOCK:
            address = self._operand_value(instruction.operands[0])
            if self.lock_manager is not None:
                self.lock_manager.release(address, self.thread_id)
            return [
                AnnotationRecord(EventType.UNLOCK, address=address, thread_id=self.thread_id, pc=pc)
            ]
        if opcode is Opcode.SYSCALL:
            return self._exec_syscall(instruction, pc)
        if opcode is Opcode.PRINTF:
            fmt_operand = instruction.operands[0]
            fmt_address = (
                self.effective_address(fmt_operand)
                if isinstance(fmt_operand, Mem)
                else self._operand_value(fmt_operand)
            )
            return [
                AnnotationRecord(
                    EventType.PRINTF, address=fmt_address, thread_id=self.thread_id, pc=pc,
                )
            ]
        raise MachineError(f"unimplemented annotation opcode {opcode}")

    def _exec_syscall(self, instruction: Instruction, pc: int) -> List[Record]:
        buf = self._operand_value(instruction.operands[0])
        length = self._operand_value(instruction.operands[1])
        kind = instruction.syscall or SyscallKind.OTHER
        self.stats.syscalls += 1
        if kind in (SyscallKind.READ, SyscallKind.RECV):
            data = self.input_provider(length)[:length]
            if data:
                self.memory.write(buf, data)
            event = EventType.SYSCALL_READ if kind is SyscallKind.READ else EventType.SYSCALL_RECV
        elif kind is SyscallKind.WRITE:
            event = EventType.SYSCALL_WRITE
        else:
            event = EventType.SYSCALL_OTHER
        return [
            AnnotationRecord(event, address=buf, size=length, thread_id=self.thread_id, pc=pc)
        ]


class LockManagerProtocol:
    """Interface expected from lock managers (see :mod:`repro.isa.threads`)."""

    def try_acquire(self, address: int, thread_id: int) -> bool:  # pragma: no cover - protocol
        raise NotImplementedError

    def release(self, address: int, thread_id: int) -> None:  # pragma: no cover - protocol
        raise NotImplementedError


def _evaluate_cond(cond: Cond, compare: int) -> bool:
    if cond is Cond.EQ:
        return compare == 0
    if cond is Cond.NE:
        return compare != 0
    if cond is Cond.LT:
        return compare < 0
    if cond is Cond.LE:
        return compare <= 0
    if cond is Cond.GT:
        return compare > 0
    if cond is Cond.GE:
        return compare >= 0
    raise MachineError(f"unknown condition {cond}")


_ALU_OPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.MUL: lambda a, b: a * b,
}

_REGULAR_DISPATCH = {
    Opcode.MOV: Machine._exec_mov,
    Opcode.MOVS: Machine._exec_movs,
    Opcode.LEA: Machine._exec_lea,
    Opcode.ADD: Machine._exec_alu,
    Opcode.SUB: Machine._exec_alu,
    Opcode.AND: Machine._exec_alu,
    Opcode.OR: Machine._exec_alu,
    Opcode.XOR: Machine._exec_alu,
    Opcode.MUL: Machine._exec_alu,
    Opcode.SHL: Machine._exec_shift,
    Opcode.SHR: Machine._exec_shift,
    Opcode.CMP: Machine._exec_compare,
    Opcode.TEST: Machine._exec_compare,
    Opcode.PUSH: Machine._exec_push,
    Opcode.POP: Machine._exec_pop,
    Opcode.JMP: Machine._exec_jmp,
    Opcode.JCC: Machine._exec_jcc,
    Opcode.JMP_INDIRECT: Machine._exec_jmp_indirect,
    Opcode.CALL: Machine._exec_call,
    Opcode.CALL_INDIRECT: Machine._exec_call_indirect,
    Opcode.RET: Machine._exec_ret,
    Opcode.XCHG: Machine._exec_xchg,
    Opcode.NOP: Machine._exec_nop,
    Opcode.HALT: Machine._exec_halt,
}
