"""Trace collection for the profiling study.

The profiler runs a workload once, keeps the raw record stream (the analogue
of a PIN instrumentation run), and memoises it so that the design-space
sweeps -- which replay the same stream dozens of times with different
hardware parameters -- do not pay the execution cost repeatedly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.core.events import AnnotationRecord, InstructionRecord
from repro.workloads.base import get_workload

Record = Union[InstructionRecord, AnnotationRecord]


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
