"""Producer-side log capture.

:func:`iter_machine_records` runs an application machine (single- or
multi-threaded) and yields the records it emits: the log the application
core hands the lifeguard core.  :meth:`LogProducer.account` prices one
record on the application core (1 cycle base for the in-order core plus
instruction-fetch and data-access latencies through the core's private
caches and the shared L2); it reads the record and the cache hierarchy
alone, so it prices a stored trace exactly as it prices a live machine.
The monitoring loop (:meth:`repro.lba.platform.LBASystem.run`) calls it
once per record and hands each cost to the coupling model, which sizes the
log buffer in records (``LogBufferConfig.capacity_records``), so
monitoring encodes nothing.  A trace file is written by
:class:`repro.trace.tracefile.TraceWriter` from the same records
(:func:`repro.experiments.harness.capture_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.cache.hierarchy import AccessType, MemoryHierarchy
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.isa.threads import ThreadedMachine

Record = Union[InstructionRecord, AnnotationRecord]
ApplicationMachine = Union[Machine, ThreadedMachine]

#: Application-core cost charged for rare library/system-call events
#: (the wrapped routine's own work, which is not otherwise simulated).
_ANNOTATION_APP_CYCLES = {
    EventType.MALLOC: 60,
    EventType.FREE: 40,
    EventType.REALLOC: 80,
    EventType.LOCK: 20,
    EventType.UNLOCK: 15,
    EventType.THREAD_CREATE: 200,
    EventType.THREAD_EXIT: 100,
    EventType.SYSCALL_READ: 250,
    EventType.SYSCALL_RECV: 250,
    EventType.SYSCALL_WRITE: 250,
    EventType.SYSCALL_OTHER: 200,
    EventType.PRINTF: 120,
}

#: Which application core the monitored program runs on (dual-core system).
APPLICATION_CORE = 0

_INSTRUCTION_FETCH = AccessType.INSTRUCTION_FETCH
_DATA_READ = AccessType.DATA_READ
_DATA_WRITE = AccessType.DATA_WRITE


def iter_machine_records(
    machine: ApplicationMachine, max_instructions: int = 5_000_000
) -> Iterator[Record]:
    """Yield the raw record stream of an application machine.

    The one way a machine's records reach a consumer: a live monitored run
    hands the generator to :class:`repro.lba.platform.LBASystem`, offline
    capture writes each record into a trace file, and the sequential
    reference feeds each record to ``EventDispatcher.consume``.
    ``ThreadedMachine`` handles its own interleaving; it is run to
    completion and its buffered trace replayed (traces are modest --
    reduced inputs -- so buffering the multithreaded case is acceptable).
    """
    if isinstance(machine, ThreadedMachine):
        records: list[Record] = []
        machine.run(records.append, max_instructions=max_instructions)
        yield from records
        return
    executed = 0
    while not machine.halted:
        if executed >= max_instructions:
            from repro.isa.machine import ExecutionLimitExceeded

            raise ExecutionLimitExceeded(
                f"{machine.program.name}: exceeded {max_instructions} instructions"
            )
        for record in machine.step():
            executed += 1
            yield record


@dataclass
class ProducerStats:
    """Aggregate producer-side statistics.

    ``log_bytes`` is always 0: the producer encodes nothing.  It stays only
    because the benchmark's per-layer table still reads it.  Application
    cycles are summed by the coupling model
    (``TimingBreakdown.app_alone_cycles``).
    """

    records: int = 0
    log_bytes: int = 0
    instructions: int = 0
    annotations: int = 0


class LogProducer:
    """Prices records on the application core.

    Args:
        hierarchy: shared cache hierarchy for fetch/data latencies (optional).

    Fetch and data accesses go through the private caches of
    :data:`APPLICATION_CORE` in ``hierarchy``.
    """

    def __init__(self, hierarchy: Optional[MemoryHierarchy] = None) -> None:
        self.hierarchy = hierarchy
        self.stats = ProducerStats()

    def account(self, record: Record) -> int:
        """Account one record the application core retired; return its cost.

        Counts the record and prices it on the application core: an
        annotation costs its wrapped routine's cycles; an instruction costs
        its fetch plus its data accesses through that core's caches (1 cycle
        each, plus 1 per load and store, without a hierarchy).
        :meth:`LBASystem.run <repro.lba.platform.LBASystem.run>` calls this
        for every record it monitors, and so does :meth:`stream`.
        """
        stats = self.stats
        stats.records += 1
        # Exact-type check first: instruction records are the common case.
        if type(record) is not InstructionRecord and isinstance(record, AnnotationRecord):
            stats.annotations += 1
            return _ANNOTATION_APP_CYCLES.get(record.event_type, 50)
        stats.instructions += 1
        hierarchy = self.hierarchy
        if hierarchy is None:
            return 1 + (1 if record.is_load else 0) + (1 if record.is_store else 0)
        access = hierarchy.access
        cycles = access(APPLICATION_CORE, record.pc, _INSTRUCTION_FETCH, 4)
        if record.is_load and record.src_addr is not None:
            cycles += access(APPLICATION_CORE, record.src_addr, _DATA_READ, record.size or 4)
        if record.is_store and record.dest_addr is not None:
            cycles += access(APPLICATION_CORE, record.dest_addr, _DATA_WRITE, record.size or 4)
        return cycles

    def stream(self, records: Iterable[Record]) -> Iterator[Tuple[Record, int]]:
        """Yield ``(record, app_cycles)`` for each of ``records``.

        The monitoring loop does not use it: it calls :meth:`account`
        itself, saving a generator resume per record.  It stays only
        because the benchmark's layer tracer wraps it by name.
        """
        account = self.account
        for record in records:
            yield record, account(record)
