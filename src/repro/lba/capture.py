"""Producer-side log capture.

Wraps the application machine (single- or multi-threaded) and, for each
record it emits, computes the application-core cycle cost of the retiring
instruction (1 cycle base for the in-order core plus instruction-fetch and
data-access latencies through the core's private caches and the shared L2)
and the exact compressed log bytes written.  The bytes are counted by the
trace codec itself: the producer encodes each record once, in stream
context, into a reused scratch buffer, so its delta chains cost what the
wire format would.  The resulting ``(record, app_cycles)`` stream feeds the
coupling model.

The producer can additionally *tee* every record it emits into a
:class:`repro.trace.tracefile.TraceWriter`, capturing a *live* monitored
run as a chunked trace file that can later be replayed offline without
re-executing the ISA machine.  Offline capture with no live run
(:func:`repro.experiments.harness.capture_trace`) needs none of the
producer's cost accounting: it writes :func:`iter_machine_records` straight
into the writer, so each record is encoded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Tuple, Union

from repro.cache.hierarchy import AccessType, MemoryHierarchy
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.isa.threads import ThreadedMachine
from repro.trace.codec import RecordEncoder

Record = Union[InstructionRecord, AnnotationRecord]
ApplicationMachine = Union[Machine, ThreadedMachine]


class TraceWriterLike(Protocol):
    """Anything records can be teed into (duck-typed to avoid an import cycle)."""

    def append(self, record: Record) -> int:  # pragma: no cover - protocol
        ...

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

    This is the machine-driving half of :meth:`LogProducer.stream`, usable
    on its own by consumers that need no cost accounting (offline capture
    writes each record straight into a trace file; the sequential reference
    feeds each record to ``EventDispatcher.consume``).
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
    """Aggregate producer-side statistics (log bytes are exact integers)."""

    records: int = 0
    app_cycles: int = 0
    log_bytes: int = 0
    instructions: int = 0
    annotations: int = 0


class LogProducer:
    """Streams ``(record, app_cycle_cost)`` pairs from an application machine.

    Args:
        machine: the application machine to run.
        hierarchy: shared cache hierarchy for fetch/data latencies (optional).
        max_instructions: execution safety limit.
        trace_writer: optional tee -- any object with an ``append(record)``
            method (typically a :class:`repro.trace.tracefile.TraceWriter`);
            every emitted record is appended to it, capturing the run as a
            replayable trace.

    Fetch and data accesses go through the private caches of
    :data:`APPLICATION_CORE` in ``hierarchy``.
    """

    def __init__(
        self,
        machine: ApplicationMachine,
        hierarchy: Optional[MemoryHierarchy] = None,
        max_instructions: int = 5_000_000,
        trace_writer: Optional["TraceWriterLike"] = None,
    ) -> None:
        self.machine = machine
        self.hierarchy = hierarchy
        self.max_instructions = max_instructions
        self.trace_writer = trace_writer
        self.stats = ProducerStats()
        self._encoder = RecordEncoder()
        self._scratch = bytearray()

    def _record_cost(self, record: Record) -> int:
        # Exact-type check first: instruction records are the common case.
        if type(record) is not InstructionRecord and isinstance(record, AnnotationRecord):
            self.stats.annotations += 1
            return _ANNOTATION_APP_CYCLES.get(record.event_type, 50)
        self.stats.instructions += 1
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

    def account(self, record: Record) -> int:
        """Account one record the application core retired.

        Computes the application-core cycle cost (charging that core's
        caches), updates the producer statistics and exact log-byte count,
        tees the record into the trace writer if one is attached, and
        returns the cost.  :meth:`stream` calls this for every record the
        machine emits.
        """
        cost = self._record_cost(record)
        stats = self.stats
        stats.records += 1
        stats.app_cycles += cost
        scratch = self._scratch
        scratch.clear()
        stats.log_bytes += self._encoder.encode_into(scratch, record)
        if self.trace_writer is not None:
            self.trace_writer.append(record)
        return cost

    def stream(self) -> Iterator[Tuple[Record, int]]:
        """Yield ``(record, app_cycles)`` pairs until the program halts."""
        account = self.account
        for record in iter_machine_records(self.machine, self.max_instructions):
            yield record, account(record)
