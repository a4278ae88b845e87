"""Trace collection for the profiling study.

The profiler runs a workload once, keeps the raw record stream (the analogue
of a PIN instrumentation run), and memoises it so that the design-space
sweeps -- which replay the same stream dozens of times with different
hardware parameters -- do not pay the execution cost repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.workloads.base import get_workload

Record = Union[InstructionRecord, AnnotationRecord]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one collected trace."""

    workload: str
    instructions: int
    annotations: int
    loads: int
    stores: int
    propagation_events: int
    memory_footprint_pages: int

    @property
    def memory_access_fraction(self) -> float:
        """Fraction of instructions that reference memory."""
        if not self.instructions:
            return 0.0
        return (self.loads + self.stores) / self.instructions


class Profiler:
    """Collects and memoises workload traces for design-space sweeps."""

    def __init__(self) -> None:
        self._traces: Dict[Tuple[str, float], List[Record]] = {}

    def trace(self, workload_name: str, scale: float = 1.0) -> List[Record]:
        """The record trace of ``workload_name`` at ``scale`` (memoised)."""
        key = (workload_name, scale)
        if key not in self._traces:
            workload = get_workload(workload_name, scale=scale)
            machine = workload.build_machine()
            self._traces[key] = machine.trace()
        return self._traces[key]

    def summary(self, workload_name: str, scale: float = 1.0) -> TraceSummary:
        """Summary statistics of the workload's trace."""
        records = self.trace(workload_name, scale)
        instructions = annotations = loads = stores = propagation = 0
        pages = set()
        for record in records:
            if isinstance(record, AnnotationRecord):
                annotations += 1
                continue
            instructions += 1
            if record.is_load:
                loads += 1
            if record.is_store:
                stores += 1
            if record.event_type.is_propagation:
                propagation += 1
            for address in (record.src_addr, record.dest_addr):
                if address is not None:
                    pages.add(address >> 12)
        return TraceSummary(
            workload=workload_name,
            instructions=instructions,
            annotations=annotations,
            loads=loads,
            stores=stores,
            propagation_events=propagation,
            memory_footprint_pages=len(pages),
        )


def memory_access_addresses(records: List[Record]) -> List[Tuple[int, int, bool]]:
    """Extract ``(address, size, is_store)`` for every memory reference event."""
    accesses: List[Tuple[int, int, bool]] = []
    for record in records:
        if not isinstance(record, InstructionRecord):
            continue
        if record.is_load and record.src_addr is not None:
            accesses.append((record.src_addr, max(record.size, 1), False))
        if record.is_store and record.dest_addr is not None:
            accesses.append((record.dest_addr, max(record.size, 1), True))
    return accesses
