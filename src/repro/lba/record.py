"""Log record size accounting, backed by the real binary codec.

LBA compresses each instruction record down to a few bytes (Section 3),
exploiting the redundancy between successive records (deltas of program
counters and data addresses, presence bitmaps for operand fields).  The
compressed stream is produced by :mod:`repro.trace.codec`; this module
exposes its *exact* per-record byte counts to the log-bandwidth accounting
(log-buffer occupancy, producer statistics), replacing the earlier
analytic estimate.

Because the codec delta-encodes against the previous record, in-stream
sizes are context dependent: hot loops with small PC/address deltas cost
2-4 bytes per record while a cold record costs more.  Components that
account a record *stream* hold a :class:`RecordSizer`; the module-level
:func:`encoded_record_size` measures a single record out of context
(fresh delta chains) -- typically larger than the in-stream size, but not
a bound in either direction, since a stream positioned far from the
record's addresses pays wider deltas than fresh chains would.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.core.events import AnnotationRecord, InstructionRecord
from repro.trace.codec import RecordEncoder

Record = Union[InstructionRecord, AnnotationRecord]


class RecordSizer:
    """Exact in-stream compressed sizes for a sequence of records.

    Wraps a stateful :class:`RecordEncoder` so successive calls see the
    same delta chains the on-wire stream would.  ``measure`` peeks at the
    next record's size without committing it to the stream; ``size``
    commits (the record is considered appended).
    """

    def __init__(self) -> None:
        self._encoder = RecordEncoder()
        self._scratch = bytearray()

    def reset(self) -> None:
        """Restart the delta chains (e.g. when the stream restarts)."""
        self._encoder.reset()

    def measure(self, record: Record) -> int:
        """Size ``record`` would cost next, without advancing the stream."""
        return self._encoder.measure(record)

    def size(self, record: Record) -> int:
        """Exact compressed size of ``record``, advancing the stream state."""
        scratch = self._scratch
        scratch.clear()
        return self._encoder.encode_into(scratch, record)

    def state(self) -> Tuple[int, int]:
        """Snapshot of the stream state (see :meth:`rollback`)."""
        return self._encoder.state()

    def rollback(self, state: Tuple[int, int]) -> None:
        """Undo :meth:`size` calls made since ``state`` was snapshotted."""
        self._encoder.set_state(state)


def encoded_record_size(record: Record) -> int:
    """Exact compressed size of a single record with fresh delta chains.

    For stream accounting prefer :class:`RecordSizer`, which captures the
    cross-record compression; this stand-alone form is what one record
    costs at a chunk boundary.
    """
    return len(RecordEncoder().encode(record))
