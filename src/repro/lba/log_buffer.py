"""The LBA log buffer.

A bounded FIFO of compressed records living in the shared L2 cache
(64 KB-1 MB in the paper; 64 KB in Table 2).  When the buffer is full the
application core must stall; when it is empty the lifeguard core stalls.
The buffer itself is functional -- the producer/consumer *timing* coupling is
handled by :class:`repro.lba.timing.CouplingModel`, which only needs the
capacity in records.

Occupancy is accounted in exact integer bytes: each pushed record is sized
by the real binary codec (:class:`repro.lba.record.RecordSizer`) in stream
context, so the delta chains match what the wire format would actually
cost, and no float drift can accumulate across millions of records.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple, Union

from repro.core.config import LogBufferConfig
from repro.core.events import AnnotationRecord, InstructionRecord
from repro.lba.record import RecordSizer

Record = Union[InstructionRecord, AnnotationRecord]


@dataclass
class LogBufferStats:
    """Occupancy and stall statistics of the log buffer (exact bytes)."""

    records_pushed: int = 0
    records_popped: int = 0
    bytes_pushed: int = 0
    producer_stalls: int = 0
    consumer_stalls: int = 0
    high_water_bytes: int = 0


class LogBuffer:
    """Bounded FIFO of log records with exact byte-occupancy accounting."""

    def __init__(self, config: Optional[LogBufferConfig] = None) -> None:
        self.config = config or LogBufferConfig()
        self.stats = LogBufferStats()
        self._sizer = RecordSizer()
        self._queue: Deque[Tuple[Record, int]] = deque()
        self._occupancy_bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy_bytes(self) -> int:
        """Current occupancy in (compressed) bytes."""
        return self._occupancy_bytes

    def push(self, record: Record) -> bool:
        """Append ``record``; returns False (and records a stall) when full."""
        saved = self._sizer.state()
        size = self._sizer.size(record)
        if self._occupancy_bytes + size > self.config.size_bytes:
            self._sizer.rollback(saved)  # rejected records leave no trace
            self.stats.producer_stalls += 1
            return False
        self._queue.append((record, size))
        self._occupancy_bytes += size
        self.stats.records_pushed += 1
        self.stats.bytes_pushed += size
        self.stats.high_water_bytes = max(self.stats.high_water_bytes, self._occupancy_bytes)
        return True

    def pop(self) -> Optional[Record]:
        """Remove and return the oldest record, or ``None`` (consumer stall)."""
        if not self._queue:
            self.stats.consumer_stalls += 1
            return None
        record, size = self._queue.popleft()
        self._occupancy_bytes -= size
        self.stats.records_popped += 1
        return record

    @property
    def capacity_records(self) -> int:
        """Approximate capacity in records, used by the coupling model."""
        return self.config.capacity_records
