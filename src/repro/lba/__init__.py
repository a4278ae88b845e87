"""Log-Based Architectures (LBA) substrate -- Section 3 of the paper.

The application runs on one core; as each instruction retires a compressed
log record is captured and transported through a buffer in the shared
on-chip cache to a second core, where the lifeguard consumes the records in
an event-driven loop.  This subpackage models the producer side (the
machine's record stream and its application-core cost), the consumer side
(event dispatch through the acceleration pipeline into lifeguard handlers)
and the dual-core timing model that turns all of this into the slowdown
numbers reported in the paper's Figures 10 and 11.  The log buffer itself has no
functional model: the coupling model bounds it in records
(``LogBufferConfig.capacity_records``) and derives the producer and
consumer stalls from that bound.

:class:`LBASystem` is the one dual-core platform: one application core
paired with one lifeguard core, as in the paper.  It monitors a record
stream, so a live machine (:func:`iter_machine_records`) and a stored
trace of it give the same result.  Offline replay of a captured trace
(:func:`repro.trace.replay.replay_trace`) reports what the platform
reports on the same records, without the cache and coupling models.
"""

from repro.lba.capture import LogProducer, ProducerStats, iter_machine_records
from repro.lba.dispatch import EventDispatcher, DispatchStats
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lba.platform import LBASystem, MonitoringResult

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
]
