"""Producer/consumer timing coupling.

The application (producer) and lifeguard (consumer) cores are decoupled by
the log buffer: the application stalls when the buffer is full, the
lifeguard stalls when it is empty, and the application additionally stalls
at every system call until the lifeguard has drained all earlier records
(the fault-containment protocol of Section 3).

:class:`CouplingModel` implements this with the classic bounded-buffer
recurrence over per-record costs::

    produce_finish[i] = max(produce_finish[i-1], consume_finish[i-K]) + app_cost[i]
    consume_finish[i] = max(consume_finish[i-1], produce_finish[i]) + lifeguard_cost[i]

where ``K`` is the buffer capacity in records.  The *slowdown* reported by
the paper compares a monitored run with an unmonitored run of the same
program; because bug detection requires the lifeguard to finish checking,
we take the lifeguard's finish time as the monitored completion time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional


@dataclass
class TimingBreakdown:
    """Cycle accounting of one monitored run."""

    records: int = 0
    app_alone_cycles: int = 0
    app_finish_cycles: int = 0
    lifeguard_busy_cycles: int = 0
    lifeguard_finish_cycles: int = 0
    producer_stall_cycles: int = 0
    consumer_stall_cycles: int = 0
    syscall_stall_cycles: int = 0

    @property
    def slowdown(self) -> float:
        """Monitored completion time over unmonitored application time."""
        if not self.app_alone_cycles:
            return 1.0
        return self.lifeguard_finish_cycles / self.app_alone_cycles

    @property
    def application_slowdown(self) -> float:
        """Slowdown seen by the application alone (buffer-full and syscall stalls)."""
        if not self.app_alone_cycles:
            return 1.0
        return self.app_finish_cycles / self.app_alone_cycles


class CouplingModel:
    """Streams per-record costs through the bounded-buffer recurrence."""

    def __init__(self, buffer_capacity_records: int) -> None:
        if buffer_capacity_records <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = buffer_capacity_records
        self.breakdown = TimingBreakdown()
        self._produce_finish = 0
        self._consume_finish = 0
        self._window: Deque[int] = deque()

    def observe(self, app_cost: int, lifeguard_cost: int, syscall_barrier: bool = False) -> None:
        """Account for one record produced and consumed.

        Args:
            app_cost: application-core cycles to produce the record.
            lifeguard_cost: lifeguard-core cycles to consume it (0 when all
                of the record's events were filtered by the accelerators).
            syscall_barrier: True when the record is a system call, forcing
                the application to wait for the lifeguard to drain the log.
        """
        b = self.breakdown
        b.records += 1
        b.app_alone_cycles += app_cost
        window = self._window
        consume_finish = self._consume_finish

        start = self._produce_finish
        if len(window) >= self.capacity:
            oldest_consumed = window.popleft()
            if oldest_consumed > start:
                b.producer_stall_cycles += oldest_consumed - start
                start = oldest_consumed
        if syscall_barrier and consume_finish > start:
            b.syscall_stall_cycles += consume_finish - start
            start = consume_finish
        produce_finish = self._produce_finish = start + app_cost
        b.app_finish_cycles = produce_finish

        if produce_finish > consume_finish:
            b.consumer_stall_cycles += produce_finish - consume_finish
            consume_finish = produce_finish
        consume_finish += lifeguard_cost
        self._consume_finish = consume_finish
        b.lifeguard_busy_cycles += lifeguard_cost
        b.lifeguard_finish_cycles = consume_finish
        window.append(consume_finish)

    def finish(self) -> TimingBreakdown:
        """Return the final timing breakdown."""
        return self.breakdown
