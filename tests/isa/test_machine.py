"""Tests for the ISA substrate: instructions, programs, machine semantics."""

import pytest

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.instructions import Cond, Imm, Instruction, Mem, Opcode, Reg, SyscallKind
import repro.isa.machine as machine_module
from repro.isa.machine import Machine, MachineError, Trap, decode
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import Register, RegisterFile
from repro.isa.threads import DeadlockError, LockManager, ThreadedMachine


def run_program(builder: ProgramBuilder):
    machine = Machine(builder.build())
    trace = machine.trace()
    return machine, trace


class TestRegisterFile:
    def test_values_truncate_to_32_bits(self):
        regs = RegisterFile()
        regs.write(Register.EAX, 0x1_FFFF_FFFF)
        assert regs.read(Register.EAX) == 0xFFFF_FFFF

    def test_snapshot(self):
        regs = RegisterFile()
        regs.write(Register.EBX, 7)
        assert regs.snapshot()["EBX"] == 7
        assert dict(regs.items())[Register.EBX] == 7

    @pytest.mark.parametrize("bad", [0, 7, "eax", None, 1.0])
    def test_operand_naming_anything_but_a_register_raises(self, bad):
        # The register file indexes by number unchecked; operands are
        # checked once, when they are built.
        with pytest.raises(TypeError):
            Reg(bad)
        if bad is not None:                   # None means "no base/index"
            with pytest.raises(TypeError):
                Mem(base=bad)
            with pytest.raises(TypeError):
                Mem(base=Register.ESI, index=bad)
        assert Mem(base=Register.ESI, index=Register.EDI).index is Register.EDI


class TestProgramBuilder:
    def test_labels_resolve(self):
        b = ProgramBuilder("p")
        b.label("start")
        b.nop()
        b.jmp("start")
        program = b.build()
        assert program.index_of_label("start") == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Program("p", [Instruction(Opcode.NOP, label="x"), Instruction(Opcode.NOP, label="x")])

    def test_undefined_target_rejected(self):
        b = ProgramBuilder("p")
        b.jmp("nowhere")
        with pytest.raises(ValueError):
            b.build()

    def test_operand_validation(self):
        with pytest.raises(ValueError):
            Mem(scale=3)
        with pytest.raises(ValueError):
            Mem(size=5)
        with pytest.raises(ValueError):
            Instruction(Opcode.JCC, target="x")


class TestDecode:
    def test_each_program_is_decoded_once(self, monkeypatch):
        decode_alu = machine_module._DECODERS[Opcode.ADD]
        decoded = []

        def counting(instruction, *args):
            decoded.append(instruction)
            return decode_alu(instruction, *args)

        monkeypatch.setitem(machine_module._DECODERS, Opcode.ADD, counting)
        b = ProgramBuilder("p")
        b.add(Reg(Register.EAX), Imm(1))
        b.halt()
        program = b.build()
        assert decoded == []                         # building decodes nothing
        Machine(program).trace()
        ThreadedMachine([program, program], quantum=1).trace()
        assert len(decoded) == 1
        table = decode(program)
        assert decode(program) is table
        assert len(table) == len(program) + 1        # and one for running off the end


class TestDataMovement:
    def test_mov_imm_and_alu(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.EAX), Imm(10))
        b.add(Reg(Register.EAX), Imm(5))
        b.shl(Reg(Register.EAX), 2)
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EAX) == 60
        assert [r.event_type for r in trace[:3]] == [
            EventType.IMM_TO_REG, EventType.REG_SELF, EventType.REG_SELF,
        ]

    def test_memory_store_and_load(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ESI), Imm(0x0810_0000))
        b.mov(Mem(base=Register.ESI, disp=8), Imm(0x1234))
        b.mov(Reg(Register.EBX), Mem(base=Register.ESI, disp=8))
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EBX) == 0x1234
        store, load = trace[1], trace[2]
        assert store.event_type is EventType.IMM_TO_MEM and store.is_store
        assert load.event_type is EventType.MEM_TO_REG and load.is_load
        assert load.src_addr == 0x0810_0008
        assert load.base_reg == Register.ESI.value

    def test_scaled_index_addressing(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ESI), Imm(0x0810_0000))
        b.mov(Reg(Register.ECX), Imm(3))
        b.mov(Mem(base=Register.ESI, index=Register.ECX, scale=4), Imm(9))
        b.halt()
        machine, trace = run_program(b)
        assert trace[2].dest_addr == 0x0810_000C

    def test_movs_copies_block(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ESI), Imm(0x0810_0000))
        b.mov(Mem(base=Register.ESI), Imm(0xAABBCCDD))
        b.mov(Reg(Register.EDI), Imm(0x0810_0100))
        b.movs(4)
        b.halt()
        machine, trace = run_program(b)
        assert machine.memory.read_uint(0x0810_0100, 4) == 0xAABBCCDD
        movs_record = trace[3]
        assert movs_record.event_type is EventType.MEM_TO_MEM
        assert movs_record.size == 4

    def test_byte_sized_access(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ESI), Imm(0x0810_0000))
        b.mov(Mem(base=Register.ESI, size=1), Imm(0x7F))
        b.mov(Reg(Register.EAX), Mem(base=Register.ESI, size=1))
        b.halt()
        machine, _ = run_program(b)
        assert machine.registers.read(Register.EAX) == 0x7F

    def test_xchg_is_other_event(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.EAX), Imm(1))
        b.mov(Reg(Register.EBX), Imm(2))
        b.xchg(Reg(Register.EAX), Reg(Register.EBX))
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EAX) == 2
        assert trace[2].event_type is EventType.OTHER

    def test_lea_computes_address_without_access(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ESI), Imm(0x100))
        b.lea(Reg(Register.EAX), Mem(base=Register.ESI, disp=0x20))
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EAX) == 0x120
        assert not trace[1].is_load and not trace[1].is_store


class TestControlFlow:
    def test_conditional_loop(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.ECX), Imm(5))
        b.mov(Reg(Register.EAX), Imm(0))
        b.label("loop")
        b.add(Reg(Register.EAX), Imm(2))
        b.sub(Reg(Register.ECX), Imm(1))
        b.cmp(Reg(Register.ECX), Imm(0))
        b.jcc(Cond.NE, "loop")
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EAX) == 10
        cond_tests = [r for r in trace if isinstance(r, InstructionRecord) and r.is_cond_test]
        assert len(cond_tests) == 5

    def test_call_and_ret(self):
        b = ProgramBuilder("p")
        b.call("fn")
        b.halt()
        b.label("fn")
        b.mov(Reg(Register.EAX), Imm(99))
        b.ret()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EAX) == 99
        assert any(r.is_indirect_jump for r in trace if isinstance(r, InstructionRecord))

    def test_push_pop(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.EAX), Imm(42))
        b.push(Reg(Register.EAX))
        b.pop(Reg(Register.EBX))
        b.halt()
        machine, trace = run_program(b)
        assert machine.registers.read(Register.EBX) == 42
        assert trace[1].event_type is EventType.REG_TO_MEM
        assert trace[2].event_type is EventType.MEM_TO_REG

    def test_indirect_jump_through_register(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.EAX), Imm(0x0804_8000 + 3 * 4))   # address of the halt
        b.jmp_indirect(Reg(Register.EAX))
        b.nop()
        b.halt()
        machine, trace = run_program(b)
        assert machine.halted
        jump = trace[1]
        assert jump.event_type is EventType.INDIRECT_JUMP and jump.is_indirect_jump

    def test_wild_indirect_jump_halts(self):
        b = ProgramBuilder("p")
        b.mov(Reg(Register.EAX), Imm(0x55555555))
        b.jmp_indirect(Reg(Register.EAX))
        b.halt()
        machine, _ = run_program(b)
        assert machine.halted

    def test_conditions(self):
        for cond, compare, expected in [
            (Cond.EQ, 0, True), (Cond.NE, 1, True), (Cond.LT, -1, True),
            (Cond.GE, 0, True), (Cond.GT, 1, True), (Cond.LE, 1, False),
        ]:
            b = ProgramBuilder("p")
            b.mov(Reg(Register.EAX), Imm(compare & 0xFFFFFFFF))
            b.cmp(Reg(Register.EAX), Imm(0))
            b.jcc(cond, "taken")
            b.mov(Reg(Register.EBX), Imm(1))
            b.halt()
            b.label("taken")
            b.mov(Reg(Register.EBX), Imm(2))
            b.halt()
            machine, _ = run_program(b)
            assert (machine.registers.read(Register.EBX) == 2) is expected, cond


class TestAnnotations:
    def test_malloc_free_annotations(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(64))
        b.free(Reg(Register.EAX))
        b.halt()
        machine, trace = run_program(b)
        malloc, free = trace[0], trace[1]
        assert isinstance(malloc, AnnotationRecord) and malloc.event_type is EventType.MALLOC
        assert malloc.size == 64
        assert free.event_type is EventType.FREE and free.address == malloc.address

    def test_malloc_result_in_eax_is_heap_address(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(16))
        b.halt()
        machine, _ = run_program(b)
        layout = machine.memory.layout
        assert layout.heap_base <= machine.registers.read(Register.EAX) < layout.mmap_base

    def test_double_free_does_not_crash_machine(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(16))
        b.free(Reg(Register.EAX))
        b.free(Reg(Register.EAX))
        b.halt()
        machine, trace = run_program(b)
        assert machine.halted
        assert sum(1 for r in trace if isinstance(r, AnnotationRecord)
                   and r.event_type is EventType.FREE) == 2

    def test_syscall_read_fills_buffer(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(32))
        b.syscall(SyscallKind.READ, Reg(Register.EAX), Imm(8))
        b.halt()
        machine, trace = run_program(b)
        buffer_address = trace[0].address
        assert machine.memory.read(buffer_address, 1) != b"\x00"
        assert trace[1].event_type is EventType.SYSCALL_READ

    def test_realloc_copies_contents(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(16))
        b.mov(Reg(Register.EBP), Reg(Register.EAX))
        b.mov(Mem(base=Register.EBP), Imm(0x77))
        b.realloc(Reg(Register.EBP), Imm(64))
        b.halt()
        machine, _ = run_program(b)
        new_address = machine.registers.read(Register.EAX)
        assert machine.memory.read_uint(new_address, 4) == 0x77

    def test_heap_exhaustion_traps(self):
        b = ProgramBuilder("p")
        b.malloc(Imm(0x7000_0000))
        b.halt()
        machine = Machine(b.build())
        with pytest.raises(Trap):
            machine.trace()


class TestThreads:
    def test_lock_manager_mutual_exclusion(self):
        lm = LockManager()
        assert lm.try_acquire(0x10, 0)
        assert not lm.try_acquire(0x10, 1)
        lm.release(0x10, 0)
        assert lm.try_acquire(0x10, 1)

    def test_threads_interleave_and_tag_records(self):
        def thread_program(tid):
            b = ProgramBuilder(f"t{tid}")
            b.mov(Reg(Register.EAX), Imm(tid))
            for _ in range(10):
                b.add(Reg(Register.EAX), Imm(1))
            b.halt()
            return b.build()

        tm = ThreadedMachine([thread_program(0), thread_program(1)], quantum=3)
        trace = tm.trace()
        thread_ids = {r.thread_id for r in trace if isinstance(r, InstructionRecord)}
        assert thread_ids == {0, 1}
        assert any(isinstance(r, AnnotationRecord) and r.event_type is EventType.THREAD_CREATE
                   for r in trace)

    def test_round_robin_gives_each_live_thread_one_quantum_per_round(self):
        def adds(tid, count):
            b = ProgramBuilder(f"t{tid}")
            for _ in range(count):
                b.add(Reg(Register.EAX), Imm(1))
            b.halt()
            return b.build()

        # 3, 6 and 9 instructions each (HALT included), quantum 3.
        tm = ThreadedMachine([adds(0, 2), adds(1, 5), adds(2, 8)], quantum=3)
        order = [
            r.thread_id if isinstance(r, InstructionRecord) else (r.event_type, r.thread_id)
            for r in tm.trace()
        ]
        create, exit_ = EventType.THREAD_CREATE, EventType.THREAD_EXIT
        assert order == (
            [(create, 1), (create, 2)]
            + [0] * 3 + [(exit_, 0)] + [1] * 3 + [2] * 3   # round 1
            + [1] * 3 + [(exit_, 1)] + [2] * 3             # round 2: thread 0 has left
            + [2] * 3 + [(exit_, 2)]                       # round 3
        )
        assert tm.stats.instructions == 18

    def test_lock_contention_blocks_until_release(self):
        def holder():
            b = ProgramBuilder("holder")
            b.lock(Imm(0x0813_0000))
            for _ in range(20):
                b.nop()
            b.unlock(Imm(0x0813_0000))
            b.halt()
            return b.build()

        def waiter():
            b = ProgramBuilder("waiter")
            b.lock(Imm(0x0813_0000))
            b.unlock(Imm(0x0813_0000))
            b.halt()
            return b.build()

        tm = ThreadedMachine([holder(), waiter()], quantum=5)
        trace = tm.trace()
        lock_events = [r for r in trace if isinstance(r, AnnotationRecord)
                       and r.event_type is EventType.LOCK]
        assert len(lock_events) == 2
        assert lock_events[0].thread_id == 0

    def test_deadlock_detected(self):
        def never_unlocks():
            b = ProgramBuilder("d0")
            b.lock(Imm(0x10))
            b.label("spin")
            b.lock(Imm(0x20))
            b.halt()
            return b.build()

        def other():
            b = ProgramBuilder("d1")
            b.lock(Imm(0x20))
            b.lock(Imm(0x10))
            b.halt()
            return b.build()

        tm = ThreadedMachine([never_unlocks(), other()], quantum=2)
        with pytest.raises(DeadlockError):
            tm.trace()
