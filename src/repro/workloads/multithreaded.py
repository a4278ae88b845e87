"""Multithreaded workloads for the LOCKSET study (Table 3 analogues).

Each workload models the sharing pattern of one of the paper's five
multithreaded benchmarks with two worker threads (the paper pins both to
the application core; here they are interleaved deterministically by
:class:`repro.isa.threads.ThreadedMachine`).  Shared data and locks live at
fixed addresses in the global-data segment so that both thread programs can
name them; private working memory is heap-allocated per thread.

All of these programs are data-race-free: shared mutable state is always
accessed under a lock, read-only shared state is never written, and
per-thread partitions are disjoint.  The racy variants used to validate
LOCKSET's detection live in :mod:`repro.workloads.bugs`.
"""

from __future__ import annotations

from typing import List

from repro.isa.instructions import Cond, Imm, Mem, Reg
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import Register
from repro.workloads.base import Workload, register_multithreaded
from repro.workloads.patterns import EAX, EBP, EBX, ECX, EDI, EDX, ESI, Patterns

#: Fixed global-segment addresses shared by both threads.
SHARED_DB_BASE = 0x0810_0000        # read-only shared table
SHARED_COUNTER = 0x0811_0000        # lock-protected shared counter
SHARED_QUEUE_INDEX = 0x0811_0010    # lock-protected work-queue cursor
SHARED_ARRAY_BASE = 0x0812_0000     # partitioned shared array (water)
LOCK_RESULTS = 0x0813_0000
LOCK_QUEUE = 0x0813_0040
LOCK_ENERGY = 0x0813_0080


def _locked_counter_update(p: Patterns, lock_addr: int, counter_addr: int,
                           increment: int = 1) -> None:
    """Emit ``lock; counter += increment; unlock`` on a shared global counter."""
    b = p.b
    b.lock(Imm(lock_addr))
    b.mov(Reg(EBX), Mem(disp=counter_addr))
    b.add(Reg(EBX), Imm(increment))
    b.mov(Mem(disp=counter_addr), Reg(EBX))
    b.unlock(Imm(lock_addr))


@register_multithreaded
class Blast(Workload):
    """blast: parallel database scan -- read-only sharing plus a locked hit count."""

    name = "blast"
    multithreaded = True
    description = "Both threads scan a shared read-only table; hits counted under a lock."

    def _thread_program(self, thread_id: int) -> Program:
        queries = self.iterations(10)
        db_words = 96
        b = ProgramBuilder(f"{self.name}_t{thread_id}")
        p = Patterns(b)
        b.mov(Reg(EDX), Imm(0))
        for _ in range(queries):
            # scan the shared read-only database
            loop = p.fresh_label("scan")
            b.mov(Reg(ESI), Imm(SHARED_DB_BASE))
            b.mov(Reg(ECX), Imm(db_words))
            b.label(loop)
            b.mov(Reg(EBX), Mem(base=ESI))
            b.add(Reg(EDX), Reg(EBX))
            b.add(Reg(ESI), Imm(4))
            b.sub(Reg(ECX), Imm(1))
            b.cmp(Reg(ECX), Imm(0))
            b.jcc(Cond.NE, loop)
            # record the result under the results lock
            _locked_counter_update(p, LOCK_RESULTS, SHARED_COUNTER)
        b.halt()
        return b.build()

    def build_programs(self) -> List[Program]:
        return [self._thread_program(t) for t in range(self.num_threads)]


@register_multithreaded
class Pbzip2(Workload):
    """pbzip2: parallel compression over a lock-protected work queue."""

    name = "pbzip2"
    multithreaded = True
    description = "Threads pull block indices from a locked queue and compress privately."

    block_words = 96
    transform = True

    def _thread_program(self, thread_id: int) -> Program:
        blocks_per_thread = self.iterations(6)
        b = ProgramBuilder(f"{self.name}_t{thread_id}")
        p = Patterns(b)
        b.mov(Reg(EDX), Imm(0))
        for _ in range(blocks_per_thread):
            # take the next block index from the shared queue
            b.lock(Imm(LOCK_QUEUE))
            b.mov(Reg(EBX), Mem(disp=SHARED_QUEUE_INDEX))
            b.add(Reg(EBX), Imm(1))
            b.mov(Mem(disp=SHARED_QUEUE_INDEX), Reg(EBX))
            b.unlock(Imm(LOCK_QUEUE))
            # compress the block into private buffers
            p.alloc(self.block_words * 4, EBP)
            p.alloc(self.block_words * 4, EDI)
            b.push(Reg(EDI))
            p.init_array(EBP, self.block_words, start_value=thread_id + 1)
            p.copy_array(EBP, EDI, self.block_words, transform=self.transform)
            b.pop(Reg(EDI))
            p.free(EBP)
            p.free(EDI)
            # publish completion under the results lock
            _locked_counter_update(p, LOCK_RESULTS, SHARED_COUNTER)
        b.halt()
        return b.build()

    def build_programs(self) -> List[Program]:
        return [self._thread_program(t) for t in range(self.num_threads)]


@register_multithreaded
class Pbunzip2(Pbzip2):
    """pbunzip2: parallel decompression (larger blocks, plain copies)."""

    name = "pbunzip2"
    multithreaded = True
    description = "Like pbzip2 but with larger output blocks and untransformed copies."

    block_words = 128
    transform = False


@register_multithreaded
class WaterNq(Workload):
    """water-nq: molecular dynamics -- partitioned shared array plus locked reduction."""

    name = "water_nq"
    multithreaded = True
    description = "Each thread updates its half of a shared array; energy summed under a lock."

    def _thread_program(self, thread_id: int) -> Program:
        molecules = 128
        half = max(1, molecules // self.num_threads)
        steps = self.iterations(8)
        base = SHARED_ARRAY_BASE + thread_id * half * 4
        b = ProgramBuilder(f"{self.name}_t{thread_id}")
        p = Patterns(b)
        b.mov(Reg(EDX), Imm(0))
        for _ in range(steps):
            # update this thread's partition in place (disjoint, no lock needed)
            loop = p.fresh_label("force")
            b.mov(Reg(ESI), Imm(base))
            b.mov(Reg(ECX), Imm(half))
            b.label(loop)
            b.mov(Reg(EBX), Mem(base=ESI))
            b.mul(Reg(EBX), Imm(3))
            b.add(Reg(EBX), Imm(7))
            b.mov(Mem(base=ESI), Reg(EBX))
            b.add(Reg(EDX), Reg(EBX))
            b.add(Reg(ESI), Imm(4))
            b.sub(Reg(ECX), Imm(1))
            b.cmp(Reg(ECX), Imm(0))
            b.jcc(Cond.NE, loop)
            # accumulate global energy under the energy lock
            _locked_counter_update(p, LOCK_ENERGY, SHARED_COUNTER, increment=1)
        b.halt()
        return b.build()

    def build_programs(self) -> List[Program]:
        return [self._thread_program(t) for t in range(self.num_threads)]


@register_multithreaded
class Zchaff(Workload):
    """zchaff: SAT solver -- shared read-only assignment, locked conflict counter."""

    name = "zchaff"
    multithreaded = True
    description = "Threads evaluate private clause sets against a shared read-only assignment."

    def _thread_program(self, thread_id: int) -> Program:
        clauses = self.iterations(18)
        clause_words = 24
        assignment_words = 64
        b = ProgramBuilder(f"{self.name}_t{thread_id}")
        p = Patterns(b)
        b.mov(Reg(EDX), Imm(0))
        for c in range(clauses):
            # private clause scratch space
            p.alloc(clause_words * 4, EBP)
            p.init_array(EBP, clause_words, start_value=c + thread_id)
            # evaluate the clause against the shared (read-only) assignment
            loop = p.fresh_label("eval")
            b.mov(Reg(ESI), Imm(SHARED_DB_BASE))
            b.mov(Reg(EDI), Reg(EBP))
            b.mov(Reg(ECX), Imm(min(clause_words, assignment_words)))
            b.label(loop)
            b.mov(Reg(EBX), Mem(base=ESI))
            b.add(Reg(EBX), Mem(base=EDI))
            b.add(Reg(EDX), Reg(EBX))
            b.add(Reg(ESI), Imm(4))
            b.add(Reg(EDI), Imm(4))
            b.sub(Reg(ECX), Imm(1))
            b.cmp(Reg(ECX), Imm(0))
            b.jcc(Cond.NE, loop)
            p.free(EBP)
            # record a conflict under the results lock every few clauses
            if c % 3 == 0:
                _locked_counter_update(p, LOCK_RESULTS, SHARED_COUNTER)
        b.halt()
        return b.build()

    def build_programs(self) -> List[Program]:
        return [self._thread_program(t) for t in range(self.num_threads)]
