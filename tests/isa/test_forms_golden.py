"""Golden digests of every instruction form the ISA machine accepts.

The workloads and the fuzz seeds reach only some of the forms
:class:`repro.isa.machine.Machine` executes, so each form here runs in a
small program of its own: every operand-kind form of ``mov``, the ALU
opcodes, shifts, compares, the stack, control-transfer and annotation
instructions, plus the forms whose memory operand reads a register the
instruction itself writes (``mov esi, [esi]``, ``push [esp + 4]``).  The
records of those last forms carry the address computed after that write
(ROADMAP item 1), and the digests pin that as well.

A digest covers the records (enums by value), the final registers and
compare result, the bytes of every touched page, ``stats.instructions`` and
whether the machine halted.  Hashes go through ``repr`` of plain values, so
they do not depend on Python's ``hash()``.

To print fresh digests after an intentional change to the machine::

    PYTHONPATH=src python tests/isa/test_forms_golden.py
"""

from __future__ import annotations

import enum
import hashlib
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro.isa.instructions import Cond, Imm, Instruction, Mem, Opcode, Reg, SyscallKind
from repro.isa.machine import Machine, MachineError
from repro.isa.program import INSTRUCTION_BYTES, Program, ProgramBuilder
from repro.isa.registers import Register
from repro.isa.threads import LockManager, ThreadedMachine
from repro.memory.address_space import PAGE_SHIFT, PAGE_SIZE

EAX, EBX, ECX, EDX = Register.EAX, Register.EBX, Register.ECX, Register.EDX
ESI, EDI, EBP, ESP = Register.ESI, Register.EDI, Register.EBP, Register.ESP

#: Start of the data the prologue seeds (the default layout's data segment).
DATA = 0x0810_0000
LOCK_ADDRESS = 0x0813_0000

#: Memory operand shapes; every memory form runs with several of them.
MEMS = {
    "base": Mem(base=ESI, disp=8),
    "base_index": Mem(base=ESI, index=ECX, scale=4, disp=4),
    "index": Mem(index=ECX, scale=8, disp=DATA),
    "abs": Mem(disp=DATA + 4),
    "byte": Mem(base=ESI, disp=9, size=1),
    "word": Mem(base=ESI, disp=10, size=2),
    "quad": Mem(base=ESI, disp=8, size=8),
    "cross_page": Mem(base=ESI, disp=PAGE_SIZE - 2),
}
#: The shapes the ALU, shift and compare forms use.
ALU_MEMS = ("base", "base_index", "byte")

ALU_OPCODES = ("add", "sub", "and_", "or_", "xor", "mul")

#: (condition, compare operands that take it, operands that do not).
CONDITIONS = (
    (Cond.EQ, (0, 0), (1, 0)),
    (Cond.NE, (1, 0), (0, 0)),
    (Cond.LT, (-1, 0), (0, 0)),
    (Cond.LE, (0, 0), (1, 0)),
    (Cond.GT, (1, 0), (0, 0)),
    (Cond.GE, (0, 0), (-1, 0)),
)

Body = Callable[[ProgramBuilder, Callable[[str], int]], None]


def prologue(b: ProgramBuilder) -> None:
    """Seed registers and a few data words every form can read."""
    b.mov(Reg(EAX), Imm(0x1234_5678))
    b.mov(Reg(EBX), Imm(0xFFFF_FFF0))
    b.mov(Reg(ECX), Imm(3))
    b.mov(Reg(EDX), Imm(0x8000_0001))
    b.mov(Reg(ESI), Imm(DATA))
    b.mov(Reg(EDI), Imm(DATA + 0x40))
    b.mov(Mem(base=ESI), Imm(DATA + 0x10))            # a pointer for chasing
    b.mov(Mem(base=ESI, disp=4), Imm(7))
    b.mov(Mem(base=ESI, disp=8), Imm(0x8765_4321))
    b.mov(Mem(base=ESI, disp=12), Imm(0x0102_0304))
    b.mov(Mem(base=ESI, disp=0x10), Imm(0x0A0B_0C0D))
    b.mov(Mem(base=ESI, disp=0x18), Imm(0x42))
    b.mov(Mem(base=ESI, disp=0x1C), Imm(0x99))


def build(body: Body) -> Program:
    """The prologue, ``body`` and a final ``halt``.

    ``body`` gets ``address(label)``, the code address of a label
    (``"end"`` is one past the last instruction).  The program is built
    twice so the second pass sees the addresses the first one laid out.
    """
    addresses: Dict[str, int] = {}
    for _ in range(2):
        b = ProgramBuilder("form")
        prologue(b)
        body(b, lambda label: addresses.get(label, 0))
        b.halt()
        program = b.build()
        addresses = {
            label: program.code_base + INSTRUCTION_BYTES * index
            for label, index in program.labels.items()
        }
        addresses["end"] = program.code_base + INSTRUCTION_BYTES * len(program)
    return program


def _alu(b: ProgramBuilder, opcode: str):
    return getattr(b, opcode)


def forms() -> Iterator[Tuple[str, Body]]:
    """``(name, body)`` of every pinned single-thread form."""
    # -- mov: each of the six operand-kind forms ---------------------------
    yield "mov_reg_imm", lambda b, at: b.mov(Reg(EDX), Imm(0x77))
    yield "mov_reg_imm_negative", lambda b, at: b.mov(Reg(EDX), Imm(-2))
    yield "mov_reg_reg", lambda b, at: b.mov(Reg(EDX), Reg(EBX))
    yield "mov_reg_reg_same", lambda b, at: b.mov(Reg(EBX), Reg(EBX))
    for shape, mem in MEMS.items():
        yield f"mov_mem_imm_{shape}", lambda b, at, m=mem: b.mov(m, Imm(0x55AA_33CC))
        yield f"mov_mem_reg_{shape}", lambda b, at, m=mem: b.mov(m, Reg(EDX))
        yield f"mov_reg_mem_{shape}", lambda b, at, m=mem: b.mov(Reg(EDX), m)
        yield f"mov_mem_mem_{shape}", lambda b, at, m=mem: b.mov(Mem(base=EDI, disp=4), m)
    yield "mov_mem_imm_negative", lambda b, at: b.mov(Mem(base=ESI, disp=8), Imm(-3))

    # -- ALU: every opcode in each of its five forms -----------------------
    for op in ALU_OPCODES:
        name = op.rstrip("_")
        yield f"{name}_reg_imm", lambda b, at, op=op: _alu(b, op)(Reg(EDX), Imm(0x1_0000_0005))
        yield f"{name}_reg_imm_negative", lambda b, at, op=op: _alu(b, op)(Reg(EBX), Imm(-7))
        yield f"{name}_reg_reg", lambda b, at, op=op: _alu(b, op)(Reg(EDX), Reg(EBX))
        for shape in ALU_MEMS:
            mem = MEMS[shape]
            yield (f"{name}_mem_imm_{shape}",
                   lambda b, at, op=op, m=mem: _alu(b, op)(m, Imm(0x11)))
            yield (f"{name}_reg_mem_{shape}",
                   lambda b, at, op=op, m=mem: _alu(b, op)(Reg(EDX), m))
            yield (f"{name}_mem_reg_{shape}",
                   lambda b, at, op=op, m=mem: _alu(b, op)(m, Reg(EDX)))

    # -- shifts, on a register and on memory -------------------------------
    for op in ("shl", "shr"):
        yield f"{op}_reg", lambda b, at, op=op: getattr(b, op)(Reg(EBX), 4)
        yield f"{op}_reg_wide_amount", lambda b, at, op=op: getattr(b, op)(Reg(EBX), 33)
        yield f"{op}_mem", lambda b, at, op=op: getattr(b, op)(Mem(base=ESI, disp=8), 3)
        yield f"{op}_mem_byte", lambda b, at, op=op: getattr(b, op)(MEMS["byte"], 1)

    # -- compares: first operand reg, mem or imm; second reg, imm or mem ---
    firsts = {"reg": Reg(EBX), "mem": MEMS["base"], "imm": Imm(0x10)}
    seconds = {"reg": Reg(EDX), "imm": Imm(0x8765_4320), "mem": MEMS["base_index"]}
    for op in ("cmp", "test"):
        for first_name, first in firsts.items():
            for second_name, second in seconds.items():
                yield (f"{op}_{first_name}_{second_name}",
                       lambda b, at, op=op, x=first, y=second: getattr(b, op)(x, y))
        yield f"{op}_mem_byte_imm", lambda b, at, op=op: getattr(b, op)(MEMS["byte"], Imm(1))

    # -- the stack -----------------------------------------------------------
    yield "push_reg", lambda b, at: b.push(Reg(EBX))
    yield "push_imm", lambda b, at: b.push(Imm(-1))
    yield "push_mem", lambda b, at: b.push(MEMS["base_index"])
    yield "push_mem_byte", lambda b, at: b.push(MEMS["byte"])
    yield "push_esp", lambda b, at: b.push(Reg(ESP))

    def pop(b, at):
        b.push(Imm(0x0BAD_F00D))
        b.pop(Reg(EDX))
    yield "pop", pop

    # -- direct control transfer ---------------------------------------------
    def jmp(b, at):
        b.jmp("target")
        b.mov(Reg(EDX), Imm(1))
        b.label("target")
        b.mov(Reg(EDX), Imm(2))
    yield "jmp", jmp

    for cond, taken, not_taken in CONDITIONS:
        for outcome, (lhs, rhs) in (("taken", taken), ("not_taken", not_taken)):
            def jcc(b, at, cond=cond, lhs=lhs, rhs=rhs):
                b.mov(Reg(EAX), Imm(lhs & 0xFFFF_FFFF))
                b.cmp(Reg(EAX), Imm(rhs))
                b.jcc(cond, "target")
                b.mov(Reg(EDX), Imm(1))
                b.halt()
                b.label("target")
                b.mov(Reg(EDX), Imm(2))
            yield f"jcc_{cond.value}_{outcome}", jcc

    def jcc_after_alu(b, at):
        b.sub(Reg(ECX), Imm(3))
        b.jcc(Cond.EQ, "target")
        b.mov(Reg(EDX), Imm(1))
        b.label("target")
        b.nop()
    yield "jcc_after_alu", jcc_after_alu

    def jcc_after_shift(b, at):
        b.cmp(Reg(EAX), Reg(EAX))
        b.shl(Reg(EAX), 1)
        b.jcc(Cond.NE, "target")
        b.mov(Reg(EDX), Imm(1))
        b.label("target")
        b.nop()
    yield "jcc_after_shift_keeps_compare", jcc_after_shift

    def loop(b, at):
        b.label("loop")
        b.add(Reg(EDX), Imm(1))
        b.sub(Reg(ECX), Imm(1))
        b.cmp(Reg(ECX), Imm(0))
        b.jcc(Cond.NE, "loop")
    yield "loop", loop

    def call_ret(b, at):
        b.call("fn")
        b.mov(Reg(EBX), Imm(1))
        b.halt()
        b.label("fn")
        b.mov(Reg(EDX), Imm(9))
        b.ret()
    yield "call_ret", call_ret

    def wild_ret(b, at):
        b.push(Imm(0x5555_5555))
        b.ret()
        b.mov(Reg(EDX), Imm(1))
    yield "ret_wild", wild_ret

    def ret_to_end(b, at):
        b.push(Imm(at("end")))
        b.ret()
    yield "ret_to_end", ret_to_end

    # -- indirect control transfer -------------------------------------------
    def indirect(kind: str, how: str, offset: int = 0) -> Body:
        def body(b, at):
            target = at("target") + offset
            if how == "reg":
                b.mov(Reg(EAX), Imm(target))
                operand = Reg(EAX)
            elif how == "mem":
                b.mov(Mem(base=ESI, disp=0x30), Imm(target))
                operand = Mem(base=ESI, disp=0x30)
            else:
                operand = Imm(target)
            if kind == "jmp":
                b.jmp_indirect(operand)
            else:
                b.call_indirect(operand)
            b.mov(Reg(EDX), Imm(1))
            b.halt()
            b.label("target")
            b.mov(Reg(EDX), Imm(2))
            if kind == "call":
                b.ret()
        return body

    for kind in ("jmp", "call"):
        for how in ("reg", "mem", "imm"):
            yield f"{kind}_indirect_{how}", indirect(kind, how)
        yield f"{kind}_indirect_misaligned", indirect(kind, "reg", offset=1)
        yield f"{kind}_indirect_wild", indirect(kind, "imm", offset=-0x10_0000)
    yield "jmp_indirect_to_end", lambda b, at: b.jmp_indirect(Imm(at("end")))

    # -- xchg, movs, lea, nop, halt ------------------------------------------
    yield "xchg_reg_reg", lambda b, at: b.xchg(Reg(EAX), Reg(EBX))
    yield "xchg_reg_same", lambda b, at: b.xchg(Reg(EAX), Reg(EAX))
    yield "xchg_reg_mem", lambda b, at: b.xchg(Reg(EAX), MEMS["base_index"])
    yield "xchg_mem_reg", lambda b, at: b.xchg(MEMS["base"], Reg(EAX))
    yield "xchg_mem_mem", lambda b, at: b.xchg(MEMS["base"], Mem(base=ESI, disp=4))
    yield "xchg_reg_mem_byte", lambda b, at: b.xchg(Reg(EAX), MEMS["byte"])
    yield "movs", lambda b, at: b.movs(8)
    yield "movs_empty", lambda b, at: b.movs(0)
    yield "lea", lambda b, at: b.lea(Reg(EDX), MEMS["base_index"])
    yield "lea_abs", lambda b, at: b.lea(Reg(EDX), MEMS["abs"])
    yield "lea_self", lambda b, at: b.lea(Reg(ESI), Mem(base=ESI, index=ESI, disp=4))
    yield "nop", lambda b, at: b.nop()

    def halt_early(b, at):
        b.halt()
        b.mov(Reg(EDX), Imm(1))
    yield "halt", halt_early

    # -- the seven annotations -----------------------------------------------
    yield "malloc_imm", lambda b, at: b.malloc(Imm(64))
    yield "malloc_reg", lambda b, at: (b.mov(Reg(EBX), Imm(24)), b.malloc(Reg(EBX)))
    yield "malloc_mem", lambda b, at: b.malloc(Mem(base=ESI, disp=0x18))

    def free(b, at):
        b.malloc(Imm(16))
        b.free(Reg(EAX))
    yield "free", free
    yield "free_invalid", lambda b, at: b.free(Imm(0x1234))

    def double_free(b, at):
        b.malloc(Imm(16))
        b.free(Reg(EAX))
        b.free(Reg(EAX))
    yield "free_double", double_free

    for new_size in (64, 8):
        def realloc(b, at, new_size=new_size):
            b.malloc(Imm(16))
            b.mov(Reg(EBP), Reg(EAX))
            b.mov(Mem(base=EBP), Imm(0x77))
            b.mov(Mem(base=EBP, disp=12), Imm(0x88))
            b.realloc(Reg(EBP), Imm(new_size))
        yield f"realloc_{new_size}", realloc

    yield "lock", lambda b, at: b.lock(Imm(LOCK_ADDRESS))
    yield "unlock", lambda b, at: b.unlock(Mem(base=ESI, disp=4))
    for kind in SyscallKind:
        def syscall(b, at, kind=kind):
            b.malloc(Imm(32))
            b.syscall(kind, Reg(EAX), Imm(8))
        yield f"syscall_{kind.value}", syscall
    yield "syscall_read_empty", lambda b, at: b.syscall(SyscallKind.READ, Reg(EDI), Imm(0))
    yield "printf_mem", lambda b, at: b.printf(Mem(base=ESI, disp=0x10), Reg(EAX))
    yield "printf_reg", lambda b, at: b.printf(Reg(ESI))
    yield "printf_imm", lambda b, at: b.printf(Imm(DATA + 4))

    # -- forms whose memory operand reads a register they write --------------
    yield "self_mov_esi_mem_esi", lambda b, at: b.mov(Reg(ESI), Mem(base=ESI))
    yield "self_mov_index", lambda b, at: b.mov(Reg(ECX), MEMS["base_index"])
    yield "self_add_esi_mem_esi_4", lambda b, at: b.add(Reg(ESI), Mem(base=ESI, disp=4))
    yield "self_sub_index", lambda b, at: b.sub(Reg(ECX), MEMS["base_index"])
    yield "self_xchg_esi_mem_esi", lambda b, at: b.xchg(Reg(ESI), Mem(base=ESI))
    yield "self_xchg_mem_esi_esi", lambda b, at: b.xchg(Mem(base=ESI), Reg(ESI))
    yield "self_push_mem_esp_4", lambda b, at: (b.push(Imm(0x31)), b.push(Imm(0x32)),
                                                b.push(Mem(base=ESP, disp=4)))

    def call_mem_esp(b, at):
        b.push(Imm(at("target")))
        b.push(Imm(0))
        b.call_indirect(Mem(base=ESP, disp=4))
        b.mov(Reg(EDX), Imm(1))
        b.halt()
        b.label("target")
        b.mov(Reg(EDX), Imm(2))
    yield "self_call_mem_esp_4", call_mem_esp

    def pop_esp(b, at):
        b.push(Imm(DATA + 0x80))
        b.pop(Reg(ESP))
    yield "self_pop_esp", pop_esp


FORMS: Dict[str, Body] = dict(forms())


def plain(record) -> tuple:
    """A record as a tuple of plain values: its type name, then its fields."""
    return (type(record).__name__,) + tuple(
        value.value if isinstance(value, enum.Enum) else value for value in record
    )


def memory_state(memory) -> tuple:
    return tuple(
        (page, hashlib.sha256(memory.read(page << PAGE_SHIFT, PAGE_SIZE)).hexdigest())
        for page in memory.touched_pages()
    )


def machine_state(machine: Machine) -> tuple:
    return (
        tuple(machine.registers.snapshot().items()),
        machine.registers.last_compare,
        machine.stats.instructions,
        machine.halted,
    )


def digest(state) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()


def form_digest(name: str) -> str:
    machine = Machine(build(FORMS[name]))
    records = machine.trace()
    return digest((
        tuple(plain(record) for record in records),
        machine_state(machine),
        memory_state(machine.memory),
    ))


def threaded_program(thread_id: int) -> Program:
    b = ProgramBuilder(f"t{thread_id}")
    b.mov(Reg(ESI), Imm(DATA + 0x100 * thread_id))
    b.lock(Imm(LOCK_ADDRESS))
    for step in range(4):
        b.push(Imm(step + thread_id))
        b.pop(Reg(EAX))
        b.add(Mem(base=ESI), Reg(EAX))
    b.unlock(Imm(LOCK_ADDRESS))
    b.mov(Reg(EDX), Mem(base=ESI))
    b.halt()
    return b.build()


def threaded_digest() -> str:
    """Two threads contending for one lock, three instructions a quantum."""
    machine = ThreadedMachine([threaded_program(0), threaded_program(1)], quantum=3)
    records = machine.trace()
    return digest((
        tuple(plain(record) for record in records),
        tuple(machine_state(thread) for thread in machine.threads),
        machine.stats.instructions,
        memory_state(machine.memory),
    ))


GOLDEN = {
    'mov_reg_imm': "557576d3fe68eeed8b9d255b89988634aa75c6074ff5cb172d7d5153a5f88443",
    'mov_reg_imm_negative': "aed9e9da47ab1f650c4aabc01a28f1627f2deb2b12e6a63880cfc990323b9fd8",
    'mov_reg_reg': "bb868b85aac79b800e24260f2f957cb29128c77bafe20c2b7cacd80f821952a1",
    'mov_reg_reg_same': "a370061cc1c2faa584b79bbf3790ffe865c55114a3aed86cea80470dccb225f1",
    'mov_mem_imm_base': "aaa58ae97620047561d1972b2de5204a4d3b72a7c36c2bbff5552a55dafd843f",
    'mov_mem_reg_base': "829234db81569047279bbd0459aa02255d37e9acc2ce3cae4d606ad985523469",
    'mov_reg_mem_base': "029616e1c3378fae2bcbcdb22175030728476113c9c2b1557a44ab046a04c727",
    'mov_mem_mem_base': "896b1ef02899f36f2d246f9d103975d5f7e989ce53305ef9c6a4054799d0a624",
    'mov_mem_imm_base_index': "870846645fa564ea5a454a06e74864bd91330a332de784e5a19d6e2b42c3cfac",
    'mov_mem_reg_base_index': "42e2168201d53d3b0c8e40c1d591b6da741ba597328161b16b73ee721ca634e3",
    'mov_reg_mem_base_index': "0b6a076a59105815bbce4b4a75cc243b7f898276375493827c71f496ce7bf8db",
    'mov_mem_mem_base_index': "d1e6a4ea32b35180ab58a1fc0b1aa0e6c14efdca02b8377684bb479e40a1b0a8",
    'mov_mem_imm_index': "d81d3283e6d657dc0a41470d430c531c10be5a6ed7b3e969953656b4ec9d6c40",
    'mov_mem_reg_index': "85c20b8faded40039b68188d78b5d92f9b0e43ff65b36d60198a9a980161e2d3",
    'mov_reg_mem_index': "96dba5590f7fc37e4d66dbd9d9d47444af0f033902d2a07d6c60b71181fb556a",
    'mov_mem_mem_index': "0d6c2934a5e7e157c451fd51ea199ec8f9556540f9910ae109e7823d8eb16a5e",
    'mov_mem_imm_abs': "0a74e301162eb717cfa691ab00e89c7c13cee21ce50acf7b0fccc60ed08d5ba5",
    'mov_mem_reg_abs': "ddfc27169361f587a79093975b1e88e9556fa03eb2c327b22837da94cb1f61f1",
    'mov_reg_mem_abs': "45d533fde52e809fa150b850dc8aaf564122c8038bb9f06c2f4768a73f713c19",
    'mov_mem_mem_abs': "cd6c36b44e2ce5d3090f7fb48f7ac594a48eda0fe945faf9f36d604a73896ab3",
    'mov_mem_imm_byte': "f0307559b439cb4bf81bf6f301262b710fe12f0d4b8964eee4bb7cb8b516bc3d",
    'mov_mem_reg_byte': "5cff2fde1046716efeba45159d7d6c00c5694f232b57b215432edb0d168b4d1a",
    'mov_reg_mem_byte': "3ffc6c5dd9c63e2a6331b80caeec067c63dd4ef88df62bd88d31beba44b14c91",
    'mov_mem_mem_byte': "a52ec62030799870f70aa3a2cf502f493ca0819326d2bc32440731b9df9dcf54",
    'mov_mem_imm_word': "a2fd5822962c1933d163ed240e116e9a3c65e7b2f918308b379e084c7e9ea00e",
    'mov_mem_reg_word': "0b9d71a63faafe6001071093c7d00f01ef7f178c75bcd069a008505e3223e2ee",
    'mov_reg_mem_word': "836612993a38168f4a121b402178584545fd3c842ad5658f857a44f4b7725244",
    'mov_mem_mem_word': "637846aa583423324a29906d8b2e2d005292af93240e2880d3c9ec8e56a4558e",
    'mov_mem_imm_quad': "2ba037a73881b64a237ec482ee6ee1d831524c07b49283eed5cfc948064a7151",
    'mov_mem_reg_quad': "2e4c81b3ccf2b87eb275ca5a565a91b093090a1954ef904cc7d44d96d42c8eee",
    'mov_reg_mem_quad': "bd011dcf2636512c1c7dfe753ad6c8956adc5489c196c9a419056e29183abb0d",
    'mov_mem_mem_quad': "896b1ef02899f36f2d246f9d103975d5f7e989ce53305ef9c6a4054799d0a624",
    'mov_mem_imm_cross_page': "de090b1431cf2573c8e72d3300b7fbd158061c88bf12282a0b3f14059c6f9104",
    'mov_mem_reg_cross_page': "b4e07de7acbb7da8e82c731e8c6dc82300087449da88fd709ef326bda7164d04",
    'mov_reg_mem_cross_page': "5d93814fc834a820705f66feb9086de66c07adf5d99b433576e560332c0de486",
    'mov_mem_mem_cross_page': "3a28ee6cb0929c083ba493a00151e64aa86b2b0941d818138c262f372260d7a4",
    'mov_mem_imm_negative': "47b4f8916c19b08df1516d15fd2bea2ab09e7e8165b93a2f4fb451e56fec8574",
    'add_reg_imm': "40ce4b626a0ecd7dc5539b248f892ae57f7d534875bde6944f926cb0cd6863d2",
    'add_reg_imm_negative': "5e89e1c7a9600c1b6a70ee4d2d130e98509c663773f99f0f7d4e056d993add7a",
    'add_reg_reg': "8abc52452aa04dea272e1a7b49789d8b4aadc060583ea1d348a1b66757c1980b",
    'add_mem_imm_base': "c112a567754c19c3b81a0a80fd11b78fad3ebdd31120e82e94948046ad1c9ed1",
    'add_reg_mem_base': "6179cc1d3fa33feaa2c676938014d5946982ea98abfea81257a8177a55f1f025",
    'add_mem_reg_base': "b1cbfc6af61b44b7a460ed03a3556b2c809ac17450fce2b1440f8b83996ba780",
    'add_mem_imm_base_index': "ead30d096fdb4a106485f254afae5cde73ce1457a2e376daf4960cfc5e940937",
    'add_reg_mem_base_index': "aed1f47729dda640ce42094d3b9a6f5db67fcc622370461742b0c13e947a2a21",
    'add_mem_reg_base_index': "3040577309c3dfcef878e3d0e3773ce771354ddadb421d37912c6b54d6b7507b",
    'add_mem_imm_byte': "393c2c7c41139e3185063749501abbc33655c85c91cacf460b20c3282cb71241",
    'add_reg_mem_byte': "18d0bd21f5b194be9ed6deb29f2fed07ba36f5988fc113d5ac4c689673c47d40",
    'add_mem_reg_byte': "b17ec11218a1084165126394d81d9b25fd12323ff9862799f684ba9ee6996941",
    'sub_reg_imm': "bbe2d8a25a6ee09297d24aa37ffde8238988906d2e2e85e5882882e61ddf7574",
    'sub_reg_imm_negative': "8a56f2089fd2fae5baab04715c9a7870b5efd24e13907526982ac880f4125516",
    'sub_reg_reg': "fe3be3d36859eaa1f5fa20b900be74f9110146a75c85c1118168e044ac125984",
    'sub_mem_imm_base': "fa64ea1291c6641171819860aac2709f7cd36aef3d05c9a7e2d241a7a1102c46",
    'sub_reg_mem_base': "db151f8b9833894295e5880a749ff1c4fc63259ff2fb947019d183584396c1c8",
    'sub_mem_reg_base': "43089a5a1cf7e5b4c686888f702f74941d87f7fb204d91a90dcfbe06aa79687d",
    'sub_mem_imm_base_index': "5a97ec0ad1556cf22dbd70c2527f5d856389289110b3d65163a2d38e42e082ab",
    'sub_reg_mem_base_index': "939a455e3b754ef8d794f068764f4d501e1b4922c116a66ca6cbdaa411ea6af7",
    'sub_mem_reg_base_index': "f5a3491588e51b9dc23cd25d6dd2831b98c6466ced001cdc3329f65773b45aca",
    'sub_mem_imm_byte': "c8654f15b90794ed811d7e076d17c92203f0bdadffa9a3659278b5ef674bc48d",
    'sub_reg_mem_byte': "d34b58c175d150409ba0b84d37304248863f45e9001e8354468cb73ebca9a395",
    'sub_mem_reg_byte': "6f07b9a3a8074639245b40490f3735f90b3c1b94b816535525851ea651067407",
    'and_reg_imm': "3df729b14322f8f8f6d111361f8793aac2592e1df7d07ddc0b6d925783b3abf5",
    'and_reg_imm_negative': "96cf58e3aa66f0fec39011456c643482fc926ac41510246cf198d252027fe445",
    'and_reg_reg': "3b4e9148eddbd27a1b5117c199d8970e68ea5f597abcef0094ee04f7793d4acb",
    'and_mem_imm_base': "2f95afe3bf99f5fae373626a8a34af51836a5497c770a53c339e5692456a845c",
    'and_reg_mem_base': "a3e5356f9daad9c7aaed914712db2933324fbf73f9c41630978f3933eab9557e",
    'and_mem_reg_base': "2d76cc80360b3f6cb7f2ec7ed4fe6b5f1b12ca90c7615a5a499770186699beed",
    'and_mem_imm_base_index': "719caf068d51ec7f568bcbd4df43324395b6b781d01645ecba2ed6eb7eec622f",
    'and_reg_mem_base_index': "05485198a8e8481180624c01ef6225c9602e7bd8834aa7a7351fad3a8307a8c2",
    'and_mem_reg_base_index': "744f40c08a8e0a794a7761f0cf98718df4fbb7d44974688dcaa3cb5db613872e",
    'and_mem_imm_byte': "02b326e3f20647b063a2a24e87e65ffe078faa4e78f4bd1ad0a996eaf9fbfd0f",
    'and_reg_mem_byte': "60687677733ada05ed4b9ef0778860f3ca3e97689e308e704eb32d4d9763a82a",
    'and_mem_reg_byte': "b3e5bc8a55ff244ebc6fb9230fa2223bfe7b9f60a24d256516c74466ecedcf01",
    'or_reg_imm': "467ad1525fc5ed26cece610367f5a8c129899ab33cbcfa7a252a44d941b34c2a",
    'or_reg_imm_negative': "c4a5523ec2fa0f43ad090bfac2cfb45dbc167111ad7ae97f37b73e2d66245589",
    'or_reg_reg': "c56d33794c97f02aa233ee7256a0890482d94211ecf0648932e5f32bfb282d8b",
    'or_mem_imm_base': "3a68de4ab075d6fe0a750661ba955ef7de8a506c84535d8737da5f3b06f67220",
    'or_reg_mem_base': "54b222d119675d084647436b6cfa59be81383f82641b192fbe4acf1ad4e0a70e",
    'or_mem_reg_base': "34873f4f6196de4bb14fb0a60fae605d9f53bdeb0578356de31cc2f7b1ed105f",
    'or_mem_imm_base_index': "bf6b0fd690618ceffa703cd1550ce1fb88069c739f8ae8a6bbda6fe73257836d",
    'or_reg_mem_base_index': "65cbf6942ffbcc69f48fd82b0e0d2d4b949f19f0de1fb718eae172186c143d72",
    'or_mem_reg_base_index': "680366f9ace83b84e4077ee5810915ceffc7b672163d42fd2ccf39581dadb661",
    'or_mem_imm_byte': "8a75571c4b88508cd2516e614611b0c9fead8afcc0839a62112f944ab1bcec1d",
    'or_reg_mem_byte': "72c7766396448efaf8b23948b7a225b45ab183906715c11b8cc3a94e84325085",
    'or_mem_reg_byte': "72b17570911995966d96e7e6d0713bff65cd0b6eeeb0721f721c422e967e67f6",
    'xor_reg_imm': "7f7e9f13389e2dfc7437ce50a58bcd0059332a3c2b12556f264d92a394dc3340",
    'xor_reg_imm_negative': "01e1d849acf5f2e9c0bb80c4355354509a679ae77cc22ba4926d986b4cf7ebc2",
    'xor_reg_reg': "8abc52452aa04dea272e1a7b49789d8b4aadc060583ea1d348a1b66757c1980b",
    'xor_mem_imm_base': "bc6b28fd29bc6f8571abe585708d0592801859799bbc60bed46f844bbe84f85c",
    'xor_reg_mem_base': "4fd42855fc183c6f5ee474864fedc6900c6a063631b9e31748f6ab5abcbf4bec",
    'xor_mem_reg_base': "43089a5a1cf7e5b4c686888f702f74941d87f7fb204d91a90dcfbe06aa79687d",
    'xor_mem_imm_base_index': "bf732728e5726ddb4b0f11565d50be3c29cf00639e56096328c445eb67976511",
    'xor_reg_mem_base_index': "ceaeaa1dcb0991bcfa94b6d843801f417790670199f69d30ec16c8dd853c8dcf",
    'xor_mem_reg_base_index': "f5a3491588e51b9dc23cd25d6dd2831b98c6466ced001cdc3329f65773b45aca",
    'xor_mem_imm_byte': "3eb4286dcf88264f109161b7ddb2fc47d6d0f516a8fcff393690303a2653dd3f",
    'xor_reg_mem_byte': "13b1e315f8ff65672cf6ac12d19c6bf9dd3ab56a1c99986f60b376aaa20e0257",
    'xor_mem_reg_byte': "6f07b9a3a8074639245b40490f3735f90b3c1b94b816535525851ea651067407",
    'mul_reg_imm': "467ad1525fc5ed26cece610367f5a8c129899ab33cbcfa7a252a44d941b34c2a",
    'mul_reg_imm_negative': "8322de0a1b1e8f9cbb4d831e8b2c6af1ff9ad2d04a53b767ff46634d41c0be99",
    'mul_reg_reg': "c81505d2b5f2e91c759df6c6e6dec03812c1dfb78646d2fa3fc41cfa2f7a84bf",
    'mul_mem_imm_base': "cbabeb505302c7458f48d651f66befbde327006340d6d0381be5357a8922b7e0",
    'mul_reg_mem_base': "7ea101a4bbf92b418290e6e25f20a7757a1f3e946aad33fd15909d153cd27425",
    'mul_mem_reg_base': "0db317fe99293e665086f2dd63f0e9bf76bcf56f638aad056eff6ba64c0b36ed",
    'mul_mem_imm_base_index': "b9781c05792c1482d10e43841a1e137dc5745e84b7c485c16650b7d8ac910e0c",
    'mul_reg_mem_base_index': "65cbf6942ffbcc69f48fd82b0e0d2d4b949f19f0de1fb718eae172186c143d72",
    'mul_mem_reg_base_index': "680366f9ace83b84e4077ee5810915ceffc7b672163d42fd2ccf39581dadb661",
    'mul_mem_imm_byte': "f7db989bed11bf8029d6eda5d2c43f1a31e1a32f8e1092b0350cfd8ec7d58916",
    'mul_reg_mem_byte': "72c7766396448efaf8b23948b7a225b45ab183906715c11b8cc3a94e84325085",
    'mul_mem_reg_byte': "72b17570911995966d96e7e6d0713bff65cd0b6eeeb0721f721c422e967e67f6",
    'shl_reg': "4ccb52b394214bea58cd709942430d7e7bdf3670a27749f61812d4cfa48d1677",
    'shl_reg_wide_amount': "cee98872d37db2a42ff58b7e1832cf49c4ed6ff3ac0d4dc17e5a71d73a8a019a",
    'shl_mem': "b6569025d70241b93b73c6f6d814acb51b03c9b0617dc9c1f09a43ba04e38b1f",
    'shl_mem_byte': "d4cbf4c8cbf86297fc749421614cbb2d0011a47219784c8904dea7a8ae026a1f",
    'shr_reg': "cff6bd1c6bdf85c1ff67824303ce3e83b691da258fc5ae88677ba896a83d0fb6",
    'shr_reg_wide_amount': "7abab6925c2d194a9407244feef792433ba274efcf78a3920d8e7f9c49ac07ea",
    'shr_mem': "da34ed07ae1e14a9faacf020dc8eaa073ac314aa827c357bead3bfc1b67e25d5",
    'shr_mem_byte': "f45e57c68aa3acfb7ccd63db294c48ed7a65028ef717ba78d1d92f66bb2c2007",
    'cmp_reg_reg': "1e95fead9ec6c50c3b3fd06b8781f84c5e147d63587910351811559e1813af82",
    'cmp_reg_imm': "6ad54776a472f676cc5329a69d40182f18c2259763fc45baeeec590efff6f6fa",
    'cmp_reg_mem': "ecc6375d2c1b2b2ef2ad4170deb9ff8d8b5597a33447996e76886cc6c5e16ca5",
    'cmp_mem_reg': "f81450f6eca623f21df2a1c836aea4a98ab6a531b552385a3f970b14f7319649",
    'cmp_mem_imm': "c68383207a8a7bcec6fce1486c9605ebeb4d5f23171c463338fee400e0b10c5f",
    'cmp_mem_mem': "798e906a931a460626766151f0062677454edf673c4a4d61382cc08460aff048",
    'cmp_imm_reg': "3f533d150115649d17281fab453fe15eaa5d6eb9ef2982b66d3821011f032d79",
    'cmp_imm_imm': "bf08278e78c29dfcea2c5bd3e55e065480632cd8bb63ea374e2aa8be8f7a9c84",
    'cmp_imm_mem': "e08f8d717538b2f87f95b3985798237f6d017ecf2deb07c56bda9e68626ae16e",
    'cmp_mem_byte_imm': "82df34af19191568752eb14af2f267bcdbf1dd168062a39dde6db8a80de79f88",
    'test_reg_reg': "5cf868c2a29e60fab7e5588016f2844897f40e2abacfea340ef4bd13d4bfc281",
    'test_reg_imm': "98594a6a8114917d8eadfbc3888b0ac4f87edf2b6336b80ef6b0d764b35b6fb1",
    'test_reg_mem': "656d13d294ec107db27fb67cb1f8aedcc166bf920b33dacb878cfda4db9a321f",
    'test_mem_reg': "0890a6662b59e6fdef6be947b0950362ae3d81fa86efe1a2fa7707db8869133c",
    'test_mem_imm': "cc13a2c6a6e09e636d8c07cde0de95dbc243b3bcbf1a78f01f7980feddb4ff50",
    'test_mem_mem': "3d7ddc533e09ef9e101d292370e377208de1cf0aacc660d74dcd8eb3a938ffa7",
    'test_imm_reg': "7b64185efcab4fa5dde765f72ad2e6d1f0bfc2909f34ff22ab2186da02aafd39",
    'test_imm_imm': "2da3ed890c0e7f924a109e3ee6c3a6eb19643d183607120ead71d4fe9bca9f77",
    'test_imm_mem': "e2dfa06469e80a35207e82343fc19b65508f14d8c971cc8398d34d1218c404db",
    'test_mem_byte_imm': "f3eceeb073cf857251ef0719cb0f0fa19bbf7a66fb493a36bc613b73bfadac8f",
    'push_reg': "09622b15cf9f901528c932815c811e171b67524a20986aa17b05b5b3175e51e0",
    'push_imm': "40b83d233c9aaa5fd6a2f223a0925868c5c03850c9a0557d2b531f3395cbe608",
    'push_mem': "96a446d6aecb1093211b05f479f1318f0e4465e29811888eb858b46e185665cc",
    'push_mem_byte': "41ef6d706b923d397e2e4861af112898760519a1372dda9921161290688ea9ac",
    'push_esp': "a49ed93626d1c2f2069cebdbfb3efa6529fd33fb508d2ceb01ec59009aa0bce6",
    'pop': "13d29f1868a8091ae0cb4f455d17ddd2fb0ea533f8a9de27338e0672f70fb9fd",
    'jmp': "09dccfbc3879fde56a5871239a4efc8b0d0571bad47f16a0339cb07cbd98bfa0",
    'jcc_eq_taken': "ada0993161118afa6da275ed020324fb2bafbe0f232102c92182f580c2ade276",
    'jcc_eq_not_taken': "5ebd9ea3ee7f25a4588c8791496d19bab2f3e2330074001f9caf2c406a19bcdc",
    'jcc_ne_taken': "171ac040d9bcd5bfc68ea85a64af49f9e2f14c2713484eb34b44dc2890f10240",
    'jcc_ne_not_taken': "c4244e6eb571f948691887d7ecf2799cb80114f06ac0bae13a46baea3f106e8d",
    'jcc_lt_taken': "edbe21b43e6b4913cfdbda9912b9f71892837c0145c0122799ca5d559e996230",
    'jcc_lt_not_taken': "c4244e6eb571f948691887d7ecf2799cb80114f06ac0bae13a46baea3f106e8d",
    'jcc_le_taken': "ada0993161118afa6da275ed020324fb2bafbe0f232102c92182f580c2ade276",
    'jcc_le_not_taken': "5ebd9ea3ee7f25a4588c8791496d19bab2f3e2330074001f9caf2c406a19bcdc",
    'jcc_gt_taken': "171ac040d9bcd5bfc68ea85a64af49f9e2f14c2713484eb34b44dc2890f10240",
    'jcc_gt_not_taken': "c4244e6eb571f948691887d7ecf2799cb80114f06ac0bae13a46baea3f106e8d",
    'jcc_ge_taken': "ada0993161118afa6da275ed020324fb2bafbe0f232102c92182f580c2ade276",
    'jcc_ge_not_taken': "439e19c979edb4e24dad8adafd913f9ab42a4b7f0ecd644a569b930d148d8c3b",
    'jcc_after_alu': "3e720e1bfcb66d5d041c8ab61fc352c48dfa95d63240c9a48b857275f9507868",
    'jcc_after_shift_keeps_compare': "e47ea8212903c17ee78c0e3a9ff93b99195dfa73ab75d4ad1bf2d5cf48d60146",
    'loop': "3c31197259022740c1d8ec5be40e387c9b78df5599a10a4cd3ec5c5e6ace1011",
    'call_ret': "b24716d2fce9563202e8e5ec1627c8e983bcf6293951ceb75321ecc918732263",
    'ret_wild': "349ae7b719eb9165848e510edb84bfb73710795b88bedac73207473842cb6fbb",
    'ret_to_end': "5f64ebf6eb73f28b85aac4aa91404fb31a0e6ceff20f3a9dcadc6aa6afa1c942",
    'jmp_indirect_reg': "96fa95bce7e4ef4ca459cc3c521dca1bad1affd09b9f46be943bee41a3574a7c",
    'jmp_indirect_mem': "ec1792b163a117ab09a4c4701907819519b27c53a0d87f83c6802146cdf47a9d",
    'jmp_indirect_imm': "7b9fe40dc48cfc36dfec39e1032728453e7381dba8ad92039178df5660d0dc38",
    'jmp_indirect_misaligned': "a35d16cafd1e6bb1a9e7bc614c5e9248023d25db4e9bb10094f4b73cbdd99721",
    'jmp_indirect_wild': "0b6bd6f2ce81c7d00e35c21154a88405890b27a36780743b10dd11a2a04d2a55",
    'call_indirect_reg': "39cf3fb8719d1a0b4abe6e0da7a1d16aee14efe99450cde7b2565294c6832e54",
    'call_indirect_mem': "41a90cb82a6bb4fc1f21f1768836bfa785517055f876847557ddfe600363a3c8",
    'call_indirect_imm': "006b9f482843b6ebcee26bfd07ed8a853f65e9d33023434c78a9d0e8de9f9acc",
    'call_indirect_misaligned': "ecb8e092a3d4004af76a5b729015d34fff800414ebf379fe593d8a94c4a3b0c9",
    'call_indirect_wild': "efdab5b8c92a98e18c2138ae2c55c6824f6638ab94e711fe76022fc13f30c2ad",
    'jmp_indirect_to_end': "0b6bd6f2ce81c7d00e35c21154a88405890b27a36780743b10dd11a2a04d2a55",
    'xchg_reg_reg': "26fb6eed85373e7585014eda1f2a8c851c09e63ba48113468507b88360ef266d",
    'xchg_reg_same': "820c13c52aaad7cd5931b7be7cf5b870a51f63faad44ab6d03dcea8395e9ef87",
    'xchg_reg_mem': "d353dec43a20e5bb277b389292052d7a6452c0fa578a0af25a5b7174cb3aaeab",
    'xchg_mem_reg': "3e7eb6c4b7f7baaddfee92a2dbbd5b2f8a359a43967ed99fa473f1ba485c4764",
    'xchg_mem_mem': "0fc1acb2ace757bd7dde9111397173cff76c7f33212a3e41c46fa44fd2caaf17",
    'xchg_reg_mem_byte': "701634f52c5507993d0b2ce2cbc8b0a8dd9bc3403e522ed1d3765e6377d43395",
    'movs': "f72be0b8d68d201644008bb7f1fc40c8f0269d06762a01886aee203aa1c0b584",
    'movs_empty': "ebc5d68337d20b05d4f42ca5a662446287a93f8f8413b90f0ae49f2e98fbfde5",
    'lea': "85aba5fe8cec8a5544f755a77ca46598aabe0e8ffd8deb3a4b7edf74aa91a602",
    'lea_abs': "b468c9a72a0105a2dee52ed5a2e48f9245da4895fb3d29ff4e47ec900f644499",
    'lea_self': "f6dedd830afa19e5256f6e29be18e4409ccda0594bd2550d91ab49d4eef6cf63",
    'nop': "038446d6a6762cd768bdca1633466e6195c56d817ccb78fee1c378382e03f5a8",
    'halt': "81668a0d1d24ab369d2d3d7196e43f1c91954f15dd0f23b9e39ae65ac7bed2d8",
    'malloc_imm': "dc40da402397ac8b60bc50a3a1ffb85f359e28019f376d231c8f8cb66517c1db",
    'malloc_reg': "d9448b641dd63fdadd775000de9d13630f7613a3ac868a9cf7cb538775d1e14c",
    'malloc_mem': "eb83ed6e223b38e0badba6695f944aeaaa3fab3cc4e77b77d18046a1e1ce95ba",
    'free': "6ce53cf3d1f546755dcb11309c7ea2444e0dc71e1ef74eb4874f92cc1a3189a7",
    'free_invalid': "91bea8c60809af136799f217c4e630d0ea4513ff72e3c87bfe25284b1221c1e0",
    'free_double': "2bd6a850001f43778da940cfc76115a241e160512806bbda91c90984f5d73a5e",
    'realloc_64': "6e2729992e7f66a6ed88d1e6622a03590a13c3ddfd4914a615f22d824c13c4a9",
    'realloc_8': "a3ec19929209c3c7d22fb2440dc5d05a72f6dd509e82d1dd7b2897a9ea88fce9",
    'lock': "7dbb8f456cad4272200078df9e40dd6ed6708c085f1e5a62dd0745f0465d1045",
    'unlock': "9d31a11aa24e12fba833243ccdf95088e41460f6347eb4ccb5149609862545b9",
    'syscall_read': "16a975393fb427f2a6a9816bb9a55c3d42b9d6a5d68aa7967cc6c6a9be60c62f",
    'syscall_recv': "a791ac6794425a0c34beb4e4df96e07554b723036339061776c1c6e95f9f88d5",
    'syscall_write': "16f155cfb338a4ae98591d15cb4330c3bd84c5c79f7aed63efa5fb4589b1d17a",
    'syscall_other': "a3bdfebebb15473b144fbb549389c3138b74eb290f5b23e204f08a69e92a1c84",
    'syscall_read_empty': "f7b2c1ad4a234820e34192b1a872f4b8eed25251cf9771c01ec9b87c34965af6",
    'printf_mem': "8cff0a2218b0c2b00bb698e5e017325c8a66c11df6893cf1d4de6a2d7abf65f4",
    'printf_reg': "9fa97f62fb9eab02ba40a49ebed8ad826cdabd8e9e70d357f6ef40b7b5220789",
    'printf_imm': "97a9a756b91332ef809a2eeed6f21f4e505021dc10826089f1ed7b87e7377bf3",
    'self_mov_esi_mem_esi': "bb8d271959daf42944ab4d4c79f4837d8735e3029ae1c9fb9717735ed1e7f783",
    'self_mov_index': "b93ccde9ca56734276ed0e525caab9e48ad6ef84963bf64b4357c1e209a15e2d",
    'self_add_esi_mem_esi_4': "dd52e347d0536a2b43c214c29598ec40e4238722e13b2febdcbb01e11a403236",
    'self_sub_index': "05512dbf3db5e397e057411efdc5ad79338dc2a41fe0cd3c961f7fab2b01ec7e",
    'self_xchg_esi_mem_esi': "2ea10e05451f0352562f179ca6f50216f9ad8418dbfcc6e2d79ab290721e57d6",
    'self_xchg_mem_esi_esi': "d1b4190c700b5771dcbba2ce01623c280b52e7346865c338c4c15466782658ef",
    'self_push_mem_esp_4': "02bb13874165d645641080944fdba6fd7783b3dced5010db860c9dbec9b36832",
    'self_call_mem_esp_4': "39608a4fb63bff7c765cd609b52167fb46df9c2d74e7e10501889745afc2d760",
    'self_pop_esp': "ccf432610e45f436096ee311267a7a3ae6b04b9395026888c9ecdb199ff7be0c",
}

THREADED_GOLDEN = "2c5e20c8ad4ff0e0ec0f28515bee7d1d2b4eebd644881f8562d7106c721e1a7b"


def test_every_form_is_pinned():
    assert set(GOLDEN) == set(FORMS)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_matches_golden_digest(name):
    assert form_digest(name) == GOLDEN[name]


def test_threaded_run_matches_golden_digest():
    assert threaded_digest() == THREADED_GOLDEN


def _bad_program(bad: Instruction) -> Program:
    return Program("bad", [Instruction(Opcode.NOP), bad, Instruction(Opcode.HALT, label="x")])


@pytest.mark.parametrize(
    "bad",
    [
        Instruction(Opcode.MOV, (Imm(1), Reg(EAX))),
        Instruction(Opcode.ADD, (Imm(1), Reg(EAX))),
        Instruction(Opcode.ADD, (Mem(disp=DATA), Mem(disp=DATA + 4))),
        Instruction(Opcode.SHL, (Imm(1), Imm(2))),
        Instruction(Opcode.XCHG, (Reg(EAX), Imm(1))),
        Instruction(Opcode.MOV, ()),
        Instruction(Opcode.ADD, (Reg(EAX),)),
        Instruction(Opcode.JCC, (), target="x", cond=Cond.EQ),
    ],
    ids=["mov_imm_dest", "alu_imm_dest", "alu_mem_mem", "shift_imm_dest",
         "xchg_imm", "mov_no_operands", "alu_one_operand", "jcc_before_compare"],
)
def test_rejected_form_raises_only_when_it_executes(bad):
    machine = Machine(_bad_program(bad))
    assert len(machine.step()) == 1              # the nop before it runs
    with pytest.raises(MachineError):
        machine.step()


def test_a_blocked_lock_neither_advances_nor_counts():
    b = ProgramBuilder("locker")
    b.lock(Imm(LOCK_ADDRESS))
    b.halt()
    manager = LockManager()
    assert manager.try_acquire(LOCK_ADDRESS, 1)
    machine = Machine(b.build(), thread_id=0, lock_manager=manager)
    for _ in range(2):
        assert machine.step() == []
        assert machine.blocked and machine.stats.instructions == 0
    manager.release(LOCK_ADDRESS, 1)
    (record,) = machine.step()
    assert record.address == LOCK_ADDRESS and not machine.blocked
    assert manager.holder(LOCK_ADDRESS) == 0
    assert machine.stats.instructions == 1
    machine.step()
    assert machine.halted and machine.step() == []
    assert machine.stats.instructions == 2


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    print("GOLDEN = {")
    for form in FORMS:
        print(f"    {form!r}: \"{form_digest(form)}\",")
    print("}\n")
    print(f"THREADED_GOLDEN = \"{threaded_digest()}\"")
