"""Functional interpreter for the IA32-flavoured ISA.

The machine executes a :class:`repro.isa.program.Program` against a shared
:class:`repro.memory.address_space.AddressSpace` and
:class:`repro.memory.allocator.HeapAllocator`, and emits one
:class:`repro.core.events.InstructionRecord` per retired instruction (plus
:class:`repro.core.events.AnnotationRecord` objects for the rare high-level
events).  The emitted stream is the input to the LBA log capture layer.

Each program is decoded once, when the first machine is built on it, into a
table with one handler per static instruction (:func:`decode`).  A handler
is specialised for its opcode and operand kinds, with everything static
bound at decode time: register numbers, displacement and scale, access
size, the resolved branch target, the event type and the static record
fields.  This is quickening applied to a fixed program (Brunthaler,
"Efficient Interpretation Using Quickening", DLS 2010).
:meth:`Machine.step` is one indexed call into the table; the handler
executes its instruction, moves the machine to its next instruction,
counts it and returns its records.  A form the machine rejects (say, an
immediate destination) decodes to a handler that raises
:class:`MachineError` when it executes.

Faulty behaviour of the *monitored program* (double frees, out-of-bounds
accesses to unallocated heap memory, reads of uninitialised data, tainted
jump targets) is deliberately allowed to proceed functionally -- detecting
it is the lifeguard's job, not the machine's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.instructions import Cond, Imm, Instruction, Mem, Opcode, Operand, Reg, SyscallKind
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import Register, RegisterFile, WORD_MASK
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import AllocationError, HeapAllocator

Record = Union[InstructionRecord, AnnotationRecord]
RecordObserver = Callable[[Record], None]
#: A decoded instruction: executes it on a machine and returns its records.
Handler = Callable[["Machine"], List[Record]]

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
    """Execution statistics of one machine (or of all threads of one run)."""

    instructions: int = 0


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
        self._regs = self.registers.values
        self._handlers = decode(program)
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
        if self.halted:
            return []
        return self._handlers[self._index](self)

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


class LockManagerProtocol:
    """Interface expected from lock managers (see :mod:`repro.isa.threads`)."""

    def try_acquire(self, address: int, thread_id: int) -> bool:  # pragma: no cover - protocol
        raise NotImplementedError

    def release(self, address: int, thread_id: int) -> None:  # pragma: no cover - protocol
        raise NotImplementedError


# ---------------------------------------------------------------------- decoding
#
# Handlers build their records positionally with ``tuple.__new__``, in
# InstructionRecord's field order: pc, event_type, dest_reg, src_reg,
# dest_addr, src_addr, size, is_load, is_store, base_reg, index_reg,
# is_cond_test, is_indirect_jump, thread_id, immediate.  A record with no
# dynamic field is built once, at decode time, for thread 0.

_new_record = tuple.__new__
_SIGN_BIT = 0x8000_0000
_WRAP = 1 << 32
_ESP = int(Register.ESP)
_ESI = int(Register.ESI)
_EDI = int(Register.EDI)
_EAX = int(Register.EAX)

_ALU_OPS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.MUL: operator.mul,
}
#: Each condition, tested against the last compare result and 0.
_CONDITIONS = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.LE: operator.le,
    Cond.GT: operator.gt,
    Cond.GE: operator.ge,
}
#: The event of each system call kind; any other kind is ``syscall_other``.
_SYSCALL_EVENTS = {
    SyscallKind.READ: EventType.SYSCALL_READ,
    SyscallKind.RECV: EventType.SYSCALL_RECV,
    SyscallKind.WRITE: EventType.SYSCALL_WRITE,
}


def _signed32(value: int) -> int:
    value &= WORD_MASK
    return value - _WRAP if value & _SIGN_BIT else value


def _cmp(lhs: int, rhs: int) -> int:
    return _signed32(lhs) - _signed32(rhs)


def _test(lhs: int, rhs: int) -> int:
    return _signed32(lhs & rhs)


def _for_thread(record: InstructionRecord, thread_id: int) -> InstructionRecord:
    """A decode-time record (built for thread 0) as retired by ``thread_id``."""
    return _new_record(InstructionRecord, (*record[:13], thread_id, record[14]))


def _check_readable(*operands: Optional[Operand]) -> None:
    for operand in operands:
        if type(operand) not in (Reg, Imm, Mem):
            raise MachineError(f"unsupported operand {operand!r}")


def _check_writable(*operands: Optional[Operand]) -> None:
    for operand in operands:
        if type(operand) not in (Reg, Mem):
            raise MachineError(f"cannot write to operand {operand!r}")


def _address_registers(mem: Mem) -> Tuple[Optional[int], Optional[int]]:
    """The ``base_reg`` and ``index_reg`` a record names for ``mem``."""
    base = None if mem.base is None else int(mem.base)
    index = None if mem.index is None else int(mem.index)
    return base, index


def _address(mem: Mem) -> Callable[[List[int]], int]:
    """``mem``'s effective address as a function of the register values,
    specialised for the registers it names."""
    base, index = _address_registers(mem)
    scale, disp = mem.scale, mem.disp
    if index is None:
        if base is None:
            return lambda regs: disp & WORD_MASK
        return lambda regs: (regs[base] + disp) & WORD_MASK
    if base is None:
        return lambda regs: (regs[index] * scale + disp) & WORD_MASK
    return lambda regs: (regs[base] + regs[index] * scale + disp) & WORD_MASK


def _reader(operand: Optional[Operand]) -> Callable[["Machine"], int]:
    """``operand``'s value as a function of the machine, for the rare forms."""
    _check_readable(operand)
    if type(operand) is Reg:
        register = int(operand.reg)
        return lambda m: m._regs[register]
    if type(operand) is Imm:
        value = operand.value & WORD_MASK
        return lambda m: value
    address, size = _address(operand), operand.size
    return lambda m: m.memory.read_uint(address(m._regs), size)


def _moves_address(mem: Mem, register: int) -> bool:
    """Whether writing ``register`` moves ``mem``'s effective address.

    An instruction that writes such a register records the address computed
    after its write, not the one it accessed: the capture defect of ROADMAP
    item 1.  The records stay byte-identical to the goldens that pin it, so
    every form that can hit it decides this here, at decode time, and
    reproduces the defect in one branch marked "capture defect"; the fix
    deletes those branches.
    """
    return register == mem.base or register == mem.index


def _decode_mov(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    dest, src = instruction.dest, instruction.src
    _check_readable(src)
    _check_writable(dest)
    if type(dest) is Reg:
        d = int(dest.reg)
        if type(src) is Imm:
            value = src.value & WORD_MASK
            record = InstructionRecord(pc, EventType.IMM_TO_REG, dest_reg=d, immediate=src.value)

            def mov_reg_imm(m: Machine) -> List[Record]:
                m._regs[d] = value
                m._index = nxt
                m.stats.instructions += 1
                return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

            return mov_reg_imm
        if type(src) is Reg:
            s = int(src.reg)
            record = InstructionRecord(pc, EventType.REG_TO_REG, dest_reg=d, src_reg=s)

            def mov_reg_reg(m: Machine) -> List[Record]:
                regs = m._regs
                regs[d] = regs[s]
                m._index = nxt
                m.stats.instructions += 1
                return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

            return mov_reg_reg
        address_of = _address(src)
        size = src.size
        base_reg, index_reg = _address_registers(src)
        event = EventType.MEM_TO_REG
        moves = _moves_address(src, d)

        def mov_reg_mem(m: Machine) -> List[Record]:
            regs = m._regs
            address = address_of(regs)
            regs[d] = m.memory.read_uint(address, size) & WORD_MASK
            if moves:  # capture defect: the record takes the moved address
                address = address_of(regs)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, d, None, None, address, size, True, False,
                base_reg, index_reg, False, False, m.thread_id, None))]

        return mov_reg_mem

    address_of = _address(dest)
    size = dest.size
    base_reg, index_reg = _address_registers(dest)
    if type(src) is Mem:
        source = _address(src)
        source_size = src.size
        event = EventType.MEM_TO_MEM

        def mov_mem_mem(m: Machine) -> List[Record]:
            regs = m._regs
            memory = m.memory
            src_address = source(regs)
            address = address_of(regs)
            memory.write_uint(address, memory.read_uint(src_address, source_size), size)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, None, None, address, src_address, size, True, True,
                base_reg, index_reg, False, False, m.thread_id, None))]

        return mov_mem_mem
    if type(src) is Reg:
        s = int(src.reg)
        event = EventType.REG_TO_MEM

        def mov_mem_reg(m: Machine) -> List[Record]:
            regs = m._regs
            address = address_of(regs)
            m.memory.write_uint(address, regs[s], size)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, None, s, address, None, size, False, True,
                base_reg, index_reg, False, False, m.thread_id, None))]

        return mov_mem_reg
    value, immediate = src.value & WORD_MASK, src.value
    event = EventType.IMM_TO_MEM

    def mov_mem_imm(m: Machine) -> List[Record]:
        address = address_of(m._regs)
        m.memory.write_uint(address, value, size)
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, None, address, None, size, False, True,
            base_reg, index_reg, False, False, m.thread_id, immediate))]

    return mov_mem_imm


def _decode_lea(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    dest, src = instruction.dest, instruction.src
    if type(dest) is not Reg or type(src) is not Mem:
        raise MachineError(f"lea needs a register and a memory operand, got {instruction.operands!r}")
    d = int(dest.reg)
    address = _address(src)
    # Address arithmetic produces a "clean" value: model as imm_to_reg.
    record = InstructionRecord(pc, EventType.IMM_TO_REG, dest_reg=d)

    def lea(m: Machine) -> List[Record]:
        regs = m._regs
        regs[d] = address(regs)
        m._index = nxt
        m.stats.instructions += 1
        return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

    return lea


def _decode_movs(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    count = instruction.count
    event = EventType.MEM_TO_MEM

    def movs(m: Machine) -> List[Record]:
        regs = m._regs
        src_address, dest_address = regs[_ESI], regs[_EDI]
        m.memory.copy(dest_address, src_address, count)
        regs[_ESI] = (src_address + count) & WORD_MASK
        regs[_EDI] = (dest_address + count) & WORD_MASK
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, None, dest_address, src_address, count, True, True,
            None, None, False, False, m.thread_id, None))]

    return movs


def _decode_alu(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    dest, src = instruction.dest, instruction.src
    _check_readable(dest, src)
    _check_writable(dest)
    op = _ALU_OPS[instruction.opcode]
    if type(dest) is Reg:
        d = int(dest.reg)
        if type(src) is Imm:
            record = InstructionRecord(pc, EventType.REG_SELF, dest_reg=d, immediate=src.value)
            value = src.value & WORD_MASK

            def alu_reg_imm(m: Machine) -> List[Record]:
                regs = m._regs
                result = op(regs[d], value) & WORD_MASK
                regs[d] = result
                m.registers.last_compare = result - _WRAP if result & _SIGN_BIT else result
                m._index = nxt
                m.stats.instructions += 1
                return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

            return alu_reg_imm
        if type(src) is Reg:
            s = int(src.reg)
            record = InstructionRecord(pc, EventType.DEST_REG_OP_REG, dest_reg=d, src_reg=s)

            def alu_reg_reg(m: Machine) -> List[Record]:
                regs = m._regs
                result = op(regs[d], regs[s]) & WORD_MASK
                regs[d] = result
                m.registers.last_compare = result - _WRAP if result & _SIGN_BIT else result
                m._index = nxt
                m.stats.instructions += 1
                return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

            return alu_reg_reg
        address_of = _address(src)
        size = src.size
        base_reg, index_reg = _address_registers(src)
        event = EventType.DEST_REG_OP_MEM
        moves = _moves_address(src, d)

        def alu_reg_mem(m: Machine) -> List[Record]:
            regs = m._regs
            address = address_of(regs)
            result = op(regs[d], m.memory.read_uint(address, size)) & WORD_MASK
            regs[d] = result
            m.registers.last_compare = result - _WRAP if result & _SIGN_BIT else result
            if moves:  # capture defect: the record takes the moved address
                address = address_of(regs)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, d, None, None, address, size, True, False,
                base_reg, index_reg, False, False, m.thread_id, None))]

        return alu_reg_mem
    if type(src) is Mem:
        raise MachineError(f"unsupported ALU operands {instruction.operands!r}")
    # op [m], reg and op [m], imm
    address_of = _address(dest)
    size = dest.size
    base_reg, index_reg = _address_registers(dest)
    read_src = _reader(src)
    if type(src) is Reg:
        event, src_reg, immediate = EventType.DEST_MEM_OP_REG, int(src.reg), None
    else:
        event, src_reg, immediate = EventType.MEM_SELF, None, src.value

    def alu_mem(m: Machine) -> List[Record]:
        memory = m.memory
        address = address_of(m._regs)
        result = op(memory.read_uint(address, size), read_src(m)) & WORD_MASK
        memory.write_uint(address, result, size)
        m.registers.last_compare = result - _WRAP if result & _SIGN_BIT else result
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, src_reg, address, None, size, True, True,
            base_reg, index_reg, False, False, m.thread_id, immediate))]

    return alu_mem


def _decode_shift(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    dest, src = instruction.dest, instruction.src
    if type(src) is not Imm:
        raise MachineError(f"shift amount must be an immediate, got {src!r}")
    _check_readable(dest)
    _check_writable(dest)
    shift = operator.lshift if instruction.opcode is Opcode.SHL else operator.rshift
    amount = src.value & 31
    if type(dest) is Reg:
        d = int(dest.reg)
        record = InstructionRecord(pc, EventType.REG_SELF, dest_reg=d, immediate=src.value)

        def shift_reg(m: Machine) -> List[Record]:
            regs = m._regs
            regs[d] = shift(regs[d], amount) & WORD_MASK
            m._index = nxt
            m.stats.instructions += 1
            return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

        return shift_reg
    address_of = _address(dest)
    size = dest.size
    base_reg, index_reg = _address_registers(dest)
    event, immediate = EventType.MEM_SELF, src.value

    def shift_mem(m: Machine) -> List[Record]:
        memory = m.memory
        address = address_of(m._regs)
        memory.write_uint(address, shift(memory.read_uint(address, size), amount) & WORD_MASK, size)
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, None, address, None, size, True, True,
            base_reg, index_reg, False, False, m.thread_id, immediate))]

    return shift_mem


def _decode_compare(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    a, b = instruction.dest, instruction.src
    _check_readable(a, b)
    src_reg = int(a.reg) if type(a) is Reg else int(b.reg) if type(b) is Reg else None
    is_cmp = instruction.opcode is Opcode.CMP
    if is_cmp and type(a) is Reg and type(b) is Imm:
        register, rhs = int(a.reg), _signed32(b.value)
        record = InstructionRecord(pc, EventType.COND_TEST, src_reg=register, is_cond_test=True)

        def cmp_reg_imm(m: Machine) -> List[Record]:
            lhs = m._regs[register]
            m.registers.last_compare = (lhs - _WRAP if lhs & _SIGN_BIT else lhs) - rhs
            m._index = nxt
            m.stats.instructions += 1
            return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

        return cmp_reg_imm
    read_a, read_b = _reader(a), _reader(b)
    compare = _cmp if is_cmp else _test
    mem = a if type(a) is Mem else b if type(b) is Mem else None
    if mem is None:
        record = InstructionRecord(pc, EventType.COND_TEST, src_reg=src_reg, is_cond_test=True)

        def compare_operands(m: Machine) -> List[Record]:
            m.registers.last_compare = compare(read_a(m), read_b(m))
            m._index = nxt
            m.stats.instructions += 1
            return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

        return compare_operands
    address_of, size = _address(mem), mem.size
    event = EventType.COND_TEST

    def compare_mem(m: Machine) -> List[Record]:
        m.registers.last_compare = compare(read_a(m), read_b(m))
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, src_reg, None, address_of(m._regs), size, True, False,
            None, None, True, False, m.thread_id, None))]

    return compare_mem


def _decode_push(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    src = instruction.dest
    _check_readable(src)
    if type(src) is Mem:
        address_of, size = _address(src), src.size
        base_reg, index_reg = _address_registers(src)
        event = EventType.MEM_TO_MEM
        moves = _moves_address(src, _ESP)

        def push_mem(m: Machine) -> List[Record]:
            regs = m._regs
            src_address = address_of(regs)
            value = m.memory.read_uint(src_address, size)
            esp = (regs[_ESP] - 4) & WORD_MASK
            regs[_ESP] = esp
            m.memory.write_uint(esp, value, 4)
            if moves:  # capture defect: the record takes the moved address
                src_address = address_of(regs)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, None, None, esp, src_address, 4, True, True,
                base_reg, index_reg, False, False, m.thread_id, None))]

        return push_mem
    read = _reader(src)
    if type(src) is Reg:
        event, src_reg, immediate = EventType.REG_TO_MEM, int(src.reg), None
    else:
        event, src_reg, immediate = EventType.IMM_TO_MEM, None, src.value

    def push(m: Machine) -> List[Record]:
        regs = m._regs
        value = read(m)
        esp = (regs[_ESP] - 4) & WORD_MASK
        regs[_ESP] = esp
        m.memory.write_uint(esp, value, 4)
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, src_reg, esp, None, 4, False, True,
            None, None, False, False, m.thread_id, immediate))]

    return push


def _decode_pop(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    dest = instruction.dest
    if type(dest) is not Reg:
        raise MachineError(f"pop needs a register operand, got {dest!r}")
    d = int(dest.reg)
    event = EventType.MEM_TO_REG

    def pop(m: Machine) -> List[Record]:
        regs = m._regs
        esp = regs[_ESP]
        regs[d] = m.memory.read_uint(esp, 4)
        regs[_ESP] = (esp + 4) & WORD_MASK
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, d, None, None, esp, 4, True, False,
            None, None, False, False, m.thread_id, None))]

    return pop


def _decode_jmp(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    target = program.index_of_label(instruction.target)
    record = InstructionRecord(pc, EventType.CONTROL)

    def jmp(m: Machine) -> List[Record]:
        m._index = target
        m.stats.instructions += 1
        return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

    return jmp


def _decode_jcc(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    taken = _CONDITIONS.get(instruction.cond)
    if taken is None:
        raise MachineError(f"unknown condition {instruction.cond}")
    target = program.index_of_label(instruction.target)
    record = InstructionRecord(pc, EventType.CONTROL)

    def jcc(m: Machine) -> List[Record]:
        compare = m.registers.last_compare
        if compare is None:
            raise MachineError("conditional jump before any compare")
        m._index = target if taken(compare, 0) else nxt
        m.stats.instructions += 1
        return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

    return jcc


def _decode_indirect(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    """``jmp_indirect`` and ``call_indirect`` through a register, memory or
    immediate operand."""
    src = instruction.dest
    read = _reader(src)
    src_reg = int(src.reg) if type(src) is Reg else None
    is_mem = type(src) is Mem
    address_of = _address(src) if is_mem else None
    event = EventType.INDIRECT_JUMP
    if instruction.opcode is Opcode.JMP_INDIRECT:
        size = src.size if is_mem else 0

        def jmp_indirect(m: Machine) -> List[Record]:
            m._index = nxt
            m._jump_to_address(read(m))
            m.stats.instructions += 1
            src_address = address_of(m._regs) if is_mem else None
            return [_new_record(InstructionRecord, (
                pc, event, None, src_reg, None, src_address, size, is_mem, False,
                None, None, False, True, m.thread_id, None))]

        return jmp_indirect
    return_pc = pc + INSTRUCTION_BYTES
    moves = is_mem and _moves_address(src, _ESP)

    def call_indirect(m: Machine) -> List[Record]:
        regs = m._regs
        src_address = address_of(regs) if is_mem else None
        target = read(m)
        esp = (regs[_ESP] - 4) & WORD_MASK
        regs[_ESP] = esp
        m.memory.write_uint(esp, return_pc, 4)
        m._index = nxt
        m._jump_to_address(target)
        if moves:  # capture defect: the record takes the moved address
            src_address = address_of(regs)
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, src_reg, esp, src_address, 4, is_mem, True,
            None, None, False, True, m.thread_id, None))]

    return call_indirect


def _decode_call(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    target = program.index_of_label(instruction.target)
    return_pc = pc + INSTRUCTION_BYTES
    event = EventType.IMM_TO_MEM

    def call(m: Machine) -> List[Record]:
        regs = m._regs
        esp = (regs[_ESP] - 4) & WORD_MASK
        regs[_ESP] = esp
        m.memory.write_uint(esp, return_pc, 4)
        m._index = target
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, None, esp, None, 4, False, True,
            None, None, False, False, m.thread_id, return_pc))]

    return call


def _decode_ret(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    event = EventType.INDIRECT_JUMP

    def ret(m: Machine) -> List[Record]:
        regs = m._regs
        esp = regs[_ESP]
        target = m.memory.read_uint(esp, 4)
        regs[_ESP] = (esp + 4) & WORD_MASK
        m._index = nxt
        m._jump_to_address(target)
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, None, None, None, esp, 4, True, False,
            None, None, False, True, m.thread_id, None))]

    return ret


def _decode_xchg(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    a, b = instruction.dest, instruction.src
    _check_readable(a, b)
    _check_writable(a, b)
    dest_reg = int(a.reg) if type(a) is Reg else None
    src_reg = int(b.reg) if type(b) is Reg else None
    event = EventType.OTHER
    if type(a) is Reg and type(b) is Reg:
        record = InstructionRecord(pc, event, dest_reg=dest_reg, src_reg=src_reg)

        def xchg_regs(m: Machine) -> List[Record]:
            regs = m._regs
            regs[dest_reg], regs[src_reg] = regs[src_reg], regs[dest_reg]
            m._index = nxt
            m.stats.instructions += 1
            return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

        return xchg_regs
    mem = a if type(a) is Mem else b
    address_of, size = _address(mem), mem.size
    if type(a) is Mem and type(b) is Mem:
        other_address_of, other_size = _address(b), b.size

        def xchg_mems(m: Machine) -> List[Record]:
            regs = m._regs
            memory = m.memory
            address, other = address_of(regs), other_address_of(regs)
            value, other_value = memory.read_uint(address, size), memory.read_uint(other, other_size)
            memory.write_uint(address, other_value, size)
            memory.write_uint(other, value, other_size)
            m._index = nxt
            m.stats.instructions += 1
            return [_new_record(InstructionRecord, (
                pc, event, None, None, address, None, size, True, True,
                None, None, False, False, m.thread_id, None))]

        return xchg_mems
    r = dest_reg if dest_reg is not None else src_reg
    moves = _moves_address(mem, r)
    register_first = type(a) is Reg

    def xchg_reg_mem(m: Machine) -> List[Record]:
        regs = m._regs
        memory = m.memory
        address = recorded = address_of(regs)
        register_value = regs[r]
        regs[r] = memory.read_uint(address, size) & WORD_MASK
        if moves:
            # Capture defect: the record takes the moved address, and so does
            # the memory write when the register is the first operand.
            recorded = address_of(regs)
            if register_first:
                address = recorded
        memory.write_uint(address, register_value, size)
        m._index = nxt
        m.stats.instructions += 1
        return [_new_record(InstructionRecord, (
            pc, event, dest_reg, src_reg, recorded, None, size, True, True,
            None, None, False, False, m.thread_id, None))]

    return xchg_reg_mem


def _decode_nop(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    record = InstructionRecord(pc, EventType.CONTROL)
    halts = instruction.opcode is Opcode.HALT

    def nop(m: Machine) -> List[Record]:
        m._index = nxt
        m.stats.instructions += 1
        if halts:
            m.halted = True
        return [record] if not m.thread_id else [_for_thread(record, m.thread_id)]

    return nop


# ------------------------------------------------------------------ annotations


def _decode_heap(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    """``malloc``, ``free`` and ``realloc``."""
    opcode = instruction.opcode
    read = _reader(instruction.dest)
    if opcode is Opcode.MALLOC:

        def malloc(m: Machine) -> List[Record]:
            m._index = nxt
            m.stats.instructions += 1
            size = read(m)
            try:
                block = m.allocator.malloc(size)
            except AllocationError as exc:
                raise Trap(str(exc)) from exc
            m._regs[_EAX] = block.address & WORD_MASK
            return [AnnotationRecord(
                EventType.MALLOC, address=block.address, size=size, thread_id=m.thread_id, pc=pc,
            )]

        return malloc
    if opcode is Opcode.FREE:

        def free(m: Machine) -> List[Record]:
            m._index = nxt
            m.stats.instructions += 1
            address = read(m)
            size = 0
            try:
                size = m.allocator.free(address).size
            except AllocationError:
                # Invalid/double free: the program proceeds; the lifeguard flags it.
                pass
            return [AnnotationRecord(
                EventType.FREE, address=address, size=size, thread_id=m.thread_id, pc=pc,
            )]

        return free
    read_size = _reader(instruction.src)

    def realloc(m: Machine) -> List[Record]:
        m._index = nxt
        m.stats.instructions += 1
        old_address, new_size = read(m), read_size(m)
        try:
            old_block, new_block = m.allocator.realloc(old_address, new_size)
        except AllocationError as exc:
            raise Trap(str(exc)) from exc
        m.memory.copy(new_block.address, old_address, min(old_block.size, new_size))
        m._regs[_EAX] = new_block.address & WORD_MASK
        return [AnnotationRecord(
            EventType.REALLOC, address=new_block.address, size=new_size,
            thread_id=m.thread_id, pc=pc, payload=old_address,
        )]

    return realloc


def _decode_lock(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    """``lock`` and ``unlock``.  With a lock manager, a ``lock`` the thread
    cannot take blocks: it neither advances nor counts."""
    read = _reader(instruction.dest)
    if instruction.opcode is Opcode.UNLOCK:

        def unlock(m: Machine) -> List[Record]:
            m._index = nxt
            m.stats.instructions += 1
            address = read(m)
            if m.lock_manager is not None:
                m.lock_manager.release(address, m.thread_id)
            return [AnnotationRecord(EventType.UNLOCK, address=address, thread_id=m.thread_id, pc=pc)]

        return unlock

    def lock(m: Machine) -> List[Record]:
        address = read(m)
        if m.lock_manager is not None:
            if not m.lock_manager.try_acquire(address, m.thread_id):
                m.blocked = True
                return []
            m.blocked = False
        m._index = nxt
        m.stats.instructions += 1
        return [AnnotationRecord(EventType.LOCK, address=address, thread_id=m.thread_id, pc=pc)]

    return lock


def _decode_syscall(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    read_buffer, read_length = _reader(instruction.dest), _reader(instruction.src)
    kind = instruction.syscall
    event = _SYSCALL_EVENTS.get(kind, EventType.SYSCALL_OTHER)
    fills_buffer = kind in (SyscallKind.READ, SyscallKind.RECV)

    def syscall(m: Machine) -> List[Record]:
        m._index = nxt
        m.stats.instructions += 1
        buffer, length = read_buffer(m), read_length(m)
        if fills_buffer:
            data = m.input_provider(length)[:length]
            if data:
                m.memory.write(buffer, data)
        return [AnnotationRecord(event, address=buffer, size=length, thread_id=m.thread_id, pc=pc)]

    return syscall


def _decode_printf(instruction: Instruction, pc: int, nxt: int, program: Program) -> Handler:
    fmt = instruction.dest
    # The format string's address: a memory operand names it, a register or
    # an immediate holds it.
    address_of = _address(fmt) if type(fmt) is Mem else None
    read = None if address_of is not None else _reader(fmt)

    def printf(m: Machine) -> List[Record]:
        m._index = nxt
        m.stats.instructions += 1
        address = address_of(m._regs) if read is None else read(m)
        return [AnnotationRecord(EventType.PRINTF, address=address, thread_id=m.thread_id, pc=pc)]

    return printf


# -------------------------------------------------------------------- the table

_DECODERS: Dict[Opcode, Callable[[Instruction, int, int, Program], Handler]] = {
    Opcode.MOV: _decode_mov,
    Opcode.MOVS: _decode_movs,
    Opcode.LEA: _decode_lea,
    **{opcode: _decode_alu for opcode in _ALU_OPS},
    Opcode.SHL: _decode_shift,
    Opcode.SHR: _decode_shift,
    Opcode.CMP: _decode_compare,
    Opcode.TEST: _decode_compare,
    Opcode.PUSH: _decode_push,
    Opcode.POP: _decode_pop,
    Opcode.JMP: _decode_jmp,
    Opcode.JCC: _decode_jcc,
    Opcode.JMP_INDIRECT: _decode_indirect,
    Opcode.CALL: _decode_call,
    Opcode.CALL_INDIRECT: _decode_indirect,
    Opcode.RET: _decode_ret,
    Opcode.XCHG: _decode_xchg,
    Opcode.NOP: _decode_nop,
    Opcode.HALT: _decode_nop,
    Opcode.MALLOC: _decode_heap,
    Opcode.FREE: _decode_heap,
    Opcode.REALLOC: _decode_heap,
    Opcode.LOCK: _decode_lock,
    Opcode.UNLOCK: _decode_lock,
    Opcode.SYSCALL: _decode_syscall,
    Opcode.PRINTF: _decode_printf,
}


def _rejected(error: MachineError) -> Handler:
    """The handler of a form the machine rejects: it raises when it runs."""

    def rejected(m: Machine) -> List[Record]:
        raise MachineError(*error.args)

    return rejected


def _past_the_end(m: Machine) -> List[Record]:
    """Running off the end of the program halts it without a record."""
    m.halted = True
    return []


def decode(program: Program) -> Tuple[Handler, ...]:
    """``program``'s handler table: one handler per instruction, then one for
    running off its end.  Decoded once per program, on first use, and kept
    on the program."""
    if program._handlers is None:
        handlers = []
        for index, instruction in enumerate(program.instructions):
            pc = program.code_base + index * INSTRUCTION_BYTES
            try:
                handler = _DECODERS[instruction.opcode](instruction, pc, index + 1, program)
            except MachineError as error:
                handler = _rejected(error)
            handlers.append(handler)
        handlers.append(_past_the_end)
        program._handlers = tuple(handlers)
    return program._handlers
