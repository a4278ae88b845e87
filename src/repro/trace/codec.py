"""Binary log-record codec: trace format version 3.

Implements the on-wire form of the LBA log (Section 3 of the paper).  Every
record is one fixed 34-byte little-endian *row* (:data:`ROW`)::

    kind u8 | ordinal u8 | flags u16 | pc u32 | dest_addr u32 | src_addr u32
    | dest_reg u8 | src_reg u8 | base_reg u8 | index_reg u8 | size u32
    | thread_id u16 | immediate i64

* An instruction row has ``kind`` 0, and ``flags`` is its canonical ``F_*``
  presence bitmap of :mod:`repro.core.events`.
* An annotation row has ``kind`` 1, and ``flags`` holds two presence bits:
  the address, stored in ``dest_addr``, and the payload, stored in
  ``immediate``.  Its size, thread and pc are plain fields.
* An absent field is written as 0.

A chunk stores its rows *byte plane by byte plane* (:func:`byte_planes`):
byte 0 of every row, then byte 1 of every row, and so on -- the "shuffle"
filter of HDF5 and Blosc.  The high bytes of addresses, sizes and
immediates then form long runs of equal bytes, which the trace file's zlib
(:mod:`repro.trace.tracefile`) compresses.  Rows hold absolute values, so
every chunk decodes on its own.

Field domains follow the ISA: pc, addresses and size are below ``2**32``
(:data:`repro.memory.shadow.ADDRESS_BITS`), thread ids below ``2**16``,
immediates and payloads are signed 64-bit, and register ids name one of
the ISA's :data:`repro.isa.registers.NUM_GPRS` registers.  The encoder
raises :class:`TraceCodecError` for any value outside its domain and
appends nothing.

There are two decoders, with one validity rule: ``kind`` is 0 or 1,
``ordinal`` names an event type, and every register byte of a row --
present or not -- is below ``NUM_GPRS``, because a CRC-valid chunk from
outside the program may name any byte.  The reference,
:func:`decode_records`, turns the planes back into rows and unpacks each
row with :mod:`struct`; every record object a reader, ``verify`` or
``repair`` sees comes from it.  The fast path, :func:`decode_record_columns`,
which replay uses, builds each :class:`RecordColumns` column from its planes
with slices and C-level iterators, and re-runs the reference on any
failure so that the reference names the error.
"""

from __future__ import annotations

import struct
import sys
from itertools import compress, islice
from operator import ne
from typing import Dict, List, Optional, Tuple, Union

from repro.core.events import (
    EVENT_TYPES,
    F_BASE_REG,
    F_COND_TEST,
    F_DEST_ADDR,
    F_DEST_REG,
    F_IMMEDIATE,
    F_INDEX_REG,
    F_INDIRECT_JUMP,
    F_IS_LOAD,
    F_IS_STORE,
    F_SIZE,
    F_SRC_ADDR,
    F_SRC_REG,
    F_THREAD,
    AnnotationRecord,
    InstructionRecord,
)
from repro.isa.registers import NUM_GPRS

Record = Union[InstructionRecord, AnnotationRecord]

#: Byte sources the decoders accept: ``bytes`` and zero-copy ``memoryview``
#: slices over a larger buffer both work.
ByteSource = Union[bytes, bytearray, memoryview]

#: One record: kind, ordinal, flags, pc, dest_addr, src_addr, dest_reg,
#: src_reg, base_reg, index_reg, size, thread_id, immediate.
ROW = struct.Struct("<BBHIIIBBBBIHq")
ROW_BYTES = ROW.size
_pack = ROW.pack

# The columns are cast from the planes in the host's byte order and native
# widths; fail here, at import, on a host where they are not the rows'.
if sys.byteorder != "little" or [struct.calcsize(code) for code in "HIq"] != [2, 4, 8]:
    raise ImportError("the trace codec needs a little-endian host with 2/4/8-byte H/I/q")

# Presence bits of an annotation row's flags.
_A_ADDRESS = 1 << 0
_A_PAYLOAD = 1 << 1

#: The row's register fields, in row order.
_REGISTER_FIELDS = ("dest_reg", "src_reg", "base_reg", "index_reg")


class TraceCodecError(ValueError):
    """Raised when a record cannot be encoded or bytes cannot be decoded."""


def _check_registers(*registers: int) -> None:
    """Raise for the first of a row's four register ids outside the ISA."""
    for field, value in zip(_REGISTER_FIELDS, registers):
        if not 0 <= value < NUM_GPRS:
            raise TraceCodecError(
                f"{field} {value} is not one of the ISA's {NUM_GPRS} registers"
            )


class RecordEncoder:
    """Record → row encoder.  Stateless: every row holds absolute values."""

    def encode(self, record: Record) -> bytes:
        """Serialize one record as its row."""
        out = bytearray()
        self.encode_into(out, record)
        return bytes(out)

    def encode_into(self, out: bytearray, record: Record) -> int:
        """Append ``record``'s row to ``out``; returns its byte count.

        A record with a value outside its field's domain raises
        :class:`TraceCodecError` and appends nothing.
        """
        if isinstance(record, InstructionRecord):
            (pc, event_type, dest_reg, src_reg, dest_addr, src_addr, size, is_load,
             is_store, base_reg, index_reg, is_cond_test, is_indirect_jump, thread_id,
             immediate) = record
            flags = 0
            if dest_reg is None:
                dest_reg = 0
            else:
                flags = F_DEST_REG
            if src_reg is None:
                src_reg = 0
            else:
                flags |= F_SRC_REG
            if dest_addr is None:
                dest_addr = 0
            else:
                flags |= F_DEST_ADDR
            if src_addr is None:
                src_addr = 0
            else:
                flags |= F_SRC_ADDR
            if base_reg is None:
                base_reg = 0
            else:
                flags |= F_BASE_REG
            if index_reg is None:
                index_reg = 0
            else:
                flags |= F_INDEX_REG
            if immediate is None:
                immediate = 0
            else:
                flags |= F_IMMEDIATE
            if size:
                flags |= F_SIZE
            if is_load:
                flags |= F_IS_LOAD
            if is_store:
                flags |= F_IS_STORE
            if is_cond_test:
                flags |= F_COND_TEST
            if is_indirect_jump:
                flags |= F_INDIRECT_JUMP
            if thread_id:
                flags |= F_THREAD
            gprs = NUM_GPRS
            if not (0 <= dest_reg < gprs and 0 <= src_reg < gprs
                    and 0 <= base_reg < gprs and 0 <= index_reg < gprs):
                _check_registers(dest_reg, src_reg, base_reg, index_reg)
            try:
                out += _pack(0, event_type.ordinal, flags, pc, dest_addr, src_addr,
                             dest_reg, src_reg, base_reg, index_reg, size, thread_id,
                             immediate)
            except struct.error as exc:
                raise TraceCodecError(f"cannot encode {record!r}: {exc}") from None
            return ROW_BYTES
        if isinstance(record, AnnotationRecord):
            event_type, address, size, thread_id, pc, payload = record
            flags = 0
            if address is None:
                address = 0
            else:
                flags = _A_ADDRESS
            if payload is None:
                payload = 0
            else:
                flags |= _A_PAYLOAD
            try:
                out += _pack(1, event_type.ordinal, flags, pc, address, 0, 0, 0, 0, 0,
                             size, thread_id, payload)
            except struct.error as exc:
                raise TraceCodecError(f"cannot encode {record!r}: {exc}") from None
            return ROW_BYTES
        raise TraceCodecError(f"cannot encode {type(record).__name__}")


def _decode_row(row) -> Record:
    """The reference row decoder: one unpacked row to its record object."""
    (kind, ordinal, flags, pc, dest_addr, src_addr, dest_reg, src_reg, base_reg,
     index_reg, size, thread_id, immediate) = row
    if ordinal >= len(EVENT_TYPES):
        raise TraceCodecError(f"unknown event ordinal {ordinal}")
    if dest_reg >= NUM_GPRS or src_reg >= NUM_GPRS or base_reg >= NUM_GPRS or (
        index_reg >= NUM_GPRS
    ):
        _check_registers(dest_reg, src_reg, base_reg, index_reg)
    if kind == 0:
        return InstructionRecord(
            pc,
            EVENT_TYPES[ordinal],
            dest_reg if flags & F_DEST_REG else None,
            src_reg if flags & F_SRC_REG else None,
            dest_addr if flags & F_DEST_ADDR else None,
            src_addr if flags & F_SRC_ADDR else None,
            size,
            bool(flags & F_IS_LOAD),
            bool(flags & F_IS_STORE),
            base_reg if flags & F_BASE_REG else None,
            index_reg if flags & F_INDEX_REG else None,
            bool(flags & F_COND_TEST),
            bool(flags & F_INDIRECT_JUMP),
            thread_id,
            immediate if flags & F_IMMEDIATE else None,
        )
    if kind == 1:
        return AnnotationRecord(
            EVENT_TYPES[ordinal],
            dest_addr if flags & _A_ADDRESS else None,
            size,
            thread_id,
            pc,
            immediate if flags & _A_PAYLOAD else None,
        )
    raise TraceCodecError(f"row kind {kind} is neither an instruction (0) nor an annotation (1)")


def byte_planes(rows: ByteSource) -> bytearray:
    """Store row-major rows byte plane by byte plane (the chunk payload)."""
    count = len(rows) // ROW_BYTES
    planes = bytearray(len(rows))
    for byte in range(ROW_BYTES):
        planes[byte * count:(byte + 1) * count] = rows[byte::ROW_BYTES]
    return planes


def encode_records(records) -> bytes:
    """Serialize a record sequence as one chunk payload (rows in byte planes)."""
    rows = bytearray()
    encode_into = RecordEncoder().encode_into
    for record in records:
        encode_into(rows, record)
    return bytes(byte_planes(rows))


class RecordColumns:
    """A decoded chunk as a structure of arrays (one entry per record row).

    Instead of one :class:`InstructionRecord` object per record, a chunk is
    decoded into parallel per-field columns indexed by row:

    * ``kind`` (``bytearray``): 0 for an instruction row whose fields live
      in the columns, 1 for a row stored as a ready-made record object in
      the sparse ``objects`` dict (annotation records and anything else the
      columnar decoder does not flatten);
    * ``ordinal`` (``bytearray``): the event type ordinal of the row;
    * ``flags``: the field-presence bitmap of the row, using the canonical
      ``F_*`` bits of :mod:`repro.core.events` -- a column entry is only
      meaningful when its presence bit is set;
    * value columns (``pc``, ``dest_reg``, ``src_reg``, ``dest_addr``,
      ``src_addr``, ``size``, ``base_reg``, ``index_reg``, ``thread_id``,
      ``immediates``): Python lists.  Lists (rather than ``array``) keep
      the decoded ints as objects, so the hot consumers re-read fields
      without re-boxing; absent entries hold 0 and must not be consulted
      without checking ``flags``.

    :meth:`record` materialises one row back into the exact record object
    the reference decoder would have produced, which is what the per-record
    fallback path of the columnar dispatch engine consumes.
    """

    __slots__ = (
        "n", "kind", "ordinal", "flags", "pc", "dest_reg", "src_reg",
        "dest_addr", "src_addr", "size", "base_reg", "index_reg",
        "thread_id", "immediates", "objects", "runs",
    )

    def __init__(self, count: int) -> None:
        self.n = count
        self.kind = bytearray(count)
        self.ordinal = bytearray(count)
        self.flags: List[int] = [0] * count
        self.pc: List[int] = [0] * count
        self.dest_reg: List[int] = [0] * count
        self.src_reg: List[int] = [0] * count
        self.dest_addr: List[int] = [0] * count
        self.src_addr: List[int] = [0] * count
        self.size: List[int] = [0] * count
        self.base_reg: List[int] = [0] * count
        self.index_reg: List[int] = [0] * count
        self.thread_id: List[int] = [0] * count
        self.immediates: List[int] = [0] * count
        self.objects: Dict[int, Record] = {}
        #: run-length grouping ``(start, stop, ordinal, flags)`` over
        #: maximal row spans sharing one (ordinal, presence-bitmap) key;
        #: object rows (annotations) appear as ordinal ``-1`` runs.  Built
        #: by the decoder, so consumers iterate runs without re-scanning
        #: the columns.
        self.runs: List[Tuple[int, int, int, int]] = []

    def __len__(self) -> int:
        return self.n

    def build_runs(self) -> None:
        """(Re)build :attr:`runs` from the columns (idempotent)."""
        self.runs = []
        append = self.runs.append
        kind = self.kind
        ordinal = self.ordinal
        flags = self.flags
        prev_ord = -2
        prev_flags = 0
        run_start = 0
        for row in range(self.n):
            row_ord = -1 if kind[row] else ordinal[row]
            row_flags = 0 if kind[row] else flags[row]
            if row_ord != prev_ord or row_flags != prev_flags:
                if row:
                    append((run_start, row, prev_ord, prev_flags))
                run_start = row
                prev_ord = row_ord
                prev_flags = row_flags
        if self.n:
            append((run_start, self.n, prev_ord, prev_flags))

    def record(self, row: int) -> Record:
        """Materialise one row as the record object the reference decoder builds."""
        if self.kind[row]:
            return self.objects[row]
        flags = self.flags[row]
        return InstructionRecord(
            self.pc[row],
            EVENT_TYPES[self.ordinal[row]],
            self.dest_reg[row] if flags & F_DEST_REG else None,
            self.src_reg[row] if flags & F_SRC_REG else None,
            self.dest_addr[row] if flags & F_DEST_ADDR else None,
            self.src_addr[row] if flags & F_SRC_ADDR else None,
            self.size[row],
            bool(flags & F_IS_LOAD),
            bool(flags & F_IS_STORE),
            self.base_reg[row] if flags & F_BASE_REG else None,
            self.index_reg[row] if flags & F_INDEX_REG else None,
            bool(flags & F_COND_TEST),
            bool(flags & F_INDIRECT_JUMP),
            self.thread_id[row],
            self.immediates[row] if flags & F_IMMEDIATE else None,
        )

    def records(self, start: int = 0, stop: Optional[int] = None) -> List[Record]:
        """Materialise a row span as record objects (fallback / test helper)."""
        if stop is None:
            stop = self.n
        return [self.record(row) for row in range(start, stop)]

    @classmethod
    def from_records(cls, records) -> "RecordColumns":
        """Build columns from in-memory record objects.

        The inverse of :meth:`records`: every instruction record is
        flattened into the columns with a presence bitmap identical to the
        one the wire codec would produce, and annotation (or foreign)
        records are kept as row objects.  ``columns.record(i)`` round-trips
        to an equal record for every row.
        """
        records = list(records)
        columns = cls(len(records))
        for row, record in enumerate(records):
            if not isinstance(record, InstructionRecord):
                columns.kind[row] = 1
                columns.objects[row] = record
                if isinstance(record, AnnotationRecord):
                    columns.ordinal[row] = record.event_type.ordinal
                continue
            flags = 0
            if record.dest_reg is not None:
                flags |= F_DEST_REG
                columns.dest_reg[row] = record.dest_reg
            if record.src_reg is not None:
                flags |= F_SRC_REG
                columns.src_reg[row] = record.src_reg
            if record.dest_addr is not None:
                flags |= F_DEST_ADDR
                columns.dest_addr[row] = record.dest_addr
            if record.src_addr is not None:
                flags |= F_SRC_ADDR
                columns.src_addr[row] = record.src_addr
            if record.base_reg is not None:
                flags |= F_BASE_REG
                columns.base_reg[row] = record.base_reg
            if record.index_reg is not None:
                flags |= F_INDEX_REG
                columns.index_reg[row] = record.index_reg
            if record.immediate is not None:
                flags |= F_IMMEDIATE
                columns.immediates[row] = record.immediate
            if record.size:
                flags |= F_SIZE
                columns.size[row] = record.size
            if record.is_load:
                flags |= F_IS_LOAD
            if record.is_store:
                flags |= F_IS_STORE
            if record.is_cond_test:
                flags |= F_COND_TEST
            if record.is_indirect_jump:
                flags |= F_INDIRECT_JUMP
            if record.thread_id:
                flags |= F_THREAD
                columns.thread_id[row] = record.thread_id
            columns.ordinal[row] = record.event_type.ordinal
            columns.flags[row] = flags
            columns.pc[row] = record.pc
        columns.build_runs()
        return columns


def _field(planes: memoryview, count: int, offset: int, typecode: str) -> List[int]:
    """The row field at byte ``offset`` as a list, from its byte planes."""
    width = struct.calcsize(typecode)
    buffer = bytearray(count * width)
    for byte in range(width):
        start = (offset + byte) * count
        buffer[byte::width] = planes[start:start + count]
    return memoryview(buffer).cast(typecode).tolist()


def _below(plane: memoryview, bound: int) -> bool:
    """True when every byte of ``plane`` is below ``bound``."""
    return not plane.tobytes().translate(None, bytes(range(bound)))


def decode_record_columns(data: ByteSource, expected_count: int) -> RecordColumns:
    """Decode a chunk payload into :class:`RecordColumns`.

    The fast path replay decodes through; it yields the records
    :func:`decode_records` does.  The payload must hold exactly
    ``expected_count`` rows, otherwise :class:`TraceCodecError` is raised
    (chunk integrity check).  ``data`` may be ``bytes`` or a zero-copy
    ``memoryview``.  Annotation rows go through the reference row decoder
    into ``objects``, with run ordinal -1 and flags 0.
    """
    count = expected_count
    if count < 0:
        raise TraceCodecError("decode_record_columns requires a known record count")
    planes = memoryview(data)
    if len(planes) != count * ROW_BYTES or not (
        _below(planes[:count], 2)
        and _below(planes[count:2 * count], len(EVENT_TYPES))
        and _below(planes[16 * count:20 * count], NUM_GPRS)
    ):
        # Let the reference name the error.
        decode_records(data, expected_count)
        raise TraceCodecError("fast decode rejected a payload the reference accepts")
    ordinal = planes[count:2 * count]
    columns = RecordColumns.__new__(RecordColumns)
    columns.n = count
    columns.kind = kind = bytearray(planes[:count])
    columns.ordinal = bytearray(ordinal)
    columns.flags = flags = _field(planes, count, 2, "H")
    columns.pc = _field(planes, count, 4, "I")
    columns.dest_addr = _field(planes, count, 8, "I")
    columns.src_addr = _field(planes, count, 12, "I")
    columns.dest_reg = planes[16 * count:17 * count].tolist()
    columns.src_reg = planes[17 * count:18 * count].tolist()
    columns.base_reg = planes[18 * count:19 * count].tolist()
    columns.index_reg = planes[19 * count:20 * count].tolist()
    columns.size = _field(planes, count, 20, "I")
    columns.thread_id = _field(planes, count, 24, "H")
    columns.immediates = _field(planes, count, 26, "q")
    columns.objects = objects = {}
    # A row's run key is ``ordinal << 16 | flags``: flags low, flags high,
    # ordinal, zero.  Annotation rows all share the key -1 and the run
    # ordinal -1 with flags 0.
    keys = bytearray(4 * count)
    keys[0::4] = planes[2 * count:3 * count]
    keys[1::4] = planes[3 * count:4 * count]
    keys[2::4] = ordinal
    keys = memoryview(keys).cast("I").tolist()
    ordinals = ordinal.tolist()
    if 1 in kind:
        for row in compress(range(count), kind):
            objects[row] = _decode_row(ROW.unpack(planes[row::count].tobytes()))
            keys[row] = ordinals[row] = -1
            flags[row] = 0
    starts_run = [True]
    starts_run += map(ne, islice(keys, 1, None), keys)
    starts = list(compress(range(count), starts_run))
    stops = starts[1:]
    stops.append(count)
    columns.runs = list(
        zip(starts, stops, compress(ordinals, starts_run), compress(flags, starts_run))
    )
    return columns


def decode_records(data: ByteSource, expected_count: int = -1) -> List[Record]:
    """Decode a chunk payload produced by :func:`encode_records`.

    The reference decode: the planes are turned back into rows, and each
    row is unpacked with :mod:`struct`.  Trace readers, verify and repair
    build their record objects here.

    Args:
        data: the chunk payload.
        expected_count: when non-negative, the payload must hold exactly
            that many rows, otherwise :class:`TraceCodecError` is raised
            (chunk integrity check); when negative, the payload's length
            fixes the count.
    """
    count = len(data) // ROW_BYTES if expected_count < 0 else expected_count
    if len(data) != count * ROW_BYTES:
        raise TraceCodecError(
            f"payload of {len(data)} bytes does not hold {count} rows of {ROW_BYTES} bytes"
        )
    rows = bytearray(len(data))
    for byte in range(ROW_BYTES):
        rows[byte::ROW_BYTES] = data[byte * count:(byte + 1) * count]
    return [_decode_row(row) for row in ROW.iter_unpack(rows)]
