"""Log-Based Architectures (LBA) substrate -- Section 3 of the paper.

The application runs on one core; as each instruction retires a compressed
log record is captured and transported through a buffer in the shared
on-chip cache to a second core, where the lifeguard consumes the records in
an event-driven loop.  This subpackage models the producer side (capture,
with exact log bytes counted by the trace codec), the consumer side (event
dispatch through the acceleration pipeline into lifeguard handlers) and the
dual-core timing model that turns all of this into the slowdown numbers
reported in the paper's Figures 10 and 11.  The log buffer itself has no
functional model: the coupling model bounds it in records
(``LogBufferConfig.capacity_records``) and derives the producer and
consumer stalls from that bound.

:mod:`repro.lba.multicore` scales the same pipeline out to N application
cores streaming per-core logs to N lifeguard cores through a shard router.
"""

from repro.lba.capture import LogProducer, ProducerStats, iter_machine_records
from repro.lba.dispatch import EventDispatcher, DispatchStats
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lba.platform import LBASystem, MonitoringResult
from repro.lba.multicore import (
    MultiCoreLBASystem,
    MultiCoreResult,
    MultiCoreStats,
    ShardOutcome,
    ShardRouter,
)

__all__ = [
    "LogProducer",
    "ProducerStats",
    "iter_machine_records",
    "EventDispatcher",
    "DispatchStats",
    "CouplingModel",
    "TimingBreakdown",
    "LBASystem",
    "MonitoringResult",
    "MultiCoreLBASystem",
    "MultiCoreResult",
    "MultiCoreStats",
    "ShardOutcome",
    "ShardRouter",
]
