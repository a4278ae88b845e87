"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.isa.instructions import Cond, Imm, Mem, Reg
from repro.isa.machine import Machine
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import Register


def build_copy_loop(iterations: int = 8) -> Program:
    """A small malloc/init/copy/free program exercising all event classes."""
    b = ProgramBuilder("copy_loop")
    b.malloc(Imm(max(iterations, 1) * 8))
    b.mov(Reg(Register.EBP), Reg(Register.EAX))
    b.mov(Reg(Register.ESI), Reg(Register.EAX))
    b.mov(Reg(Register.ECX), Imm(iterations))
    b.label("init")
    b.mov(Mem(base=Register.ESI), Reg(Register.ECX))
    b.add(Reg(Register.ESI), Imm(4))
    b.sub(Reg(Register.ECX), Imm(1))
    b.cmp(Reg(Register.ECX), Imm(0))
    b.jcc(Cond.NE, "init")
    b.mov(Reg(Register.ESI), Reg(Register.EBP))
    b.mov(Reg(Register.ECX), Imm(iterations))
    b.label("sum")
    b.mov(Reg(Register.EBX), Mem(base=Register.ESI))
    b.add(Reg(Register.EDX), Reg(Register.EBX))
    b.add(Reg(Register.ESI), Imm(4))
    b.sub(Reg(Register.ECX), Imm(1))
    b.cmp(Reg(Register.ECX), Imm(0))
    b.jcc(Cond.NE, "sum")
    b.free(Reg(Register.EBP))
    b.halt()
    return b.build()


@pytest.fixture
def copy_loop_program() -> Program:
    """Small clean program fixture."""
    return build_copy_loop()


@pytest.fixture
def copy_loop_trace(copy_loop_program):
    """Full record trace of the copy-loop program."""
    return Machine(copy_loop_program).trace()
