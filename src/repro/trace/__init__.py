"""Trace subsystem: binary log serialization, chunked trace files, replay.

The paper's premise is that the monitored core streams a *compressed log*
of retired instructions to the lifeguard core.  This subpackage makes those
log bytes real:

* :mod:`repro.trace.codec` -- a lossless binary record codec (varint +
  delta-encoded program counters and data addresses) whose per-record byte
  counts are the source of truth for all log-bandwidth accounting;
* :mod:`repro.trace.tracefile` -- chunked, optionally zlib-compressed trace
  files with a per-chunk index, so a workload can be captured once and
  re-analysed many times;
* :mod:`repro.trace.replay` -- offline replay of a stored trace through the
  acceleration pipeline and one lifeguard that sees every chunk in order,
  either in-process or in one supervised ``multiprocessing`` worker;
* :mod:`repro.trace.supervisor` -- the fault-tolerant replay supervision
  loop (per-attempt timeouts, bounded retry with backoff, span bisection
  to isolate poison chunks, quarantine accounting).
"""

from repro.trace.codec import (
    RecordDecoder,
    RecordEncoder,
    TraceCodecError,
    decode_records,
    encode_records,
)
from repro.trace.replay import (
    ParallelReplay,
    ReplayResult,
    ShardTask,
    replay_trace,
)
from repro.trace.supervisor import (
    QUARANTINE_POLICIES,
    QuarantinedChunk,
    ReplayError,
    ShardFailure,
    SupervisorPolicy,
)
from repro.trace.tracefile import (
    ChunkAudit,
    ChunkInfo,
    TraceAudit,
    TraceFormatError,
    TraceReader,
    TraceStats,
    TraceWriter,
    verify_trace,
)

__all__ = [
    "RecordDecoder",
    "RecordEncoder",
    "TraceCodecError",
    "encode_records",
    "decode_records",
    "ChunkAudit",
    "ChunkInfo",
    "TraceAudit",
    "TraceFormatError",
    "TraceReader",
    "TraceStats",
    "TraceWriter",
    "verify_trace",
    "ParallelReplay",
    "ReplayResult",
    "ShardTask",
    "replay_trace",
    "QUARANTINE_POLICIES",
    "QuarantinedChunk",
    "ReplayError",
    "ShardFailure",
    "SupervisorPolicy",
]
