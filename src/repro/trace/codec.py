"""Binary log-record codec.

Implements the compressed on-wire format of the LBA log (Section 3 of the
paper): each retired-instruction record is serialized as a small varint
stream that exploits the redundancy between successive records --

* the program counter is stored as a zigzag-encoded delta against the
  previous record's program counter (straight-line code costs one byte);
* data addresses are stored as zigzag deltas against the previous data
  address seen by the encoder (strided access patterns cost one byte);
* optional operand fields are gated by a presence bitmap so the common
  register-to-register record carries no dead fields.

The codec is *stateful* (the deltas form a chain), so both ends must
process the same record sequence from the same reset point.  Chunked trace
files (:mod:`repro.trace.tracefile`) reset the codec at every chunk
boundary, which is what makes chunks independently decodable: a reader can
seek to any chunk, and a damaged chunk can be quarantined without losing
the rest of the trace.

Round-tripping is lossless: ``decode(encode(r)) == r`` field for field, and
re-encoding the decoded stream reproduces the identical bytes.
"""

from __future__ import annotations

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
    EventType,
    InstructionRecord,
)

Record = Union[InstructionRecord, AnnotationRecord]

#: Byte sources the decoder accepts: indexing must yield ints, so both
#: ``bytes`` and zero-copy ``memoryview`` slices over a larger buffer work.
ByteSource = Union[bytes, bytearray, memoryview]


class TraceCodecError(ValueError):
    """Raised when a byte stream cannot be decoded into records."""


#: Stable wire identifier per event type: its ``ordinal`` (definition order).
_EVENT_BY_WIRE_ID = EVENT_TYPES

# Presence/flag bits of an instruction record's bitmap: the canonical
# field-presence bits of :mod:`repro.core.events`, which this codec uses
# verbatim as its on-wire bitmap (aliased with the historical underscore
# names the encode/decode bodies were written against).
_F_DEST_REG = F_DEST_REG
_F_SRC_REG = F_SRC_REG
_F_DEST_ADDR = F_DEST_ADDR
_F_SRC_ADDR = F_SRC_ADDR
_F_SIZE = F_SIZE
_F_IS_LOAD = F_IS_LOAD
_F_BASE_REG = F_BASE_REG
_F_IS_STORE = F_IS_STORE
_F_INDEX_REG = F_INDEX_REG
_F_IMMEDIATE = F_IMMEDIATE
_F_COND_TEST = F_COND_TEST
_F_INDIRECT_JUMP = F_INDIRECT_JUMP
_F_THREAD = F_THREAD

# Presence bits of an annotation record's bitmap.
_A_ADDRESS = 1 << 0
_A_SIZE = 1 << 1
_A_THREAD = 1 << 2
_A_PC = 1 << 3
_A_PAYLOAD = 1 << 4


def _zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small)."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise TraceCodecError(f"varint value must be unsigned, got {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise TraceCodecError("varint runs past end of buffer")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 70:
            raise TraceCodecError("varint longer than 10 bytes (corrupt stream)")


class RecordEncoder:
    """Stateful record → bytes encoder (delta chains for PC and addresses)."""

    def __init__(self) -> None:
        self._last_pc = 0
        self._last_addr = 0

    def reset(self) -> None:
        """Restart the delta chains (chunk boundary)."""
        self._last_pc = 0
        self._last_addr = 0

    def state(self) -> Tuple[int, int]:
        """Snapshot of the delta chains, for speculative encoding."""
        return (self._last_pc, self._last_addr)

    def set_state(self, state: Tuple[int, int]) -> None:
        """Restore a snapshot taken with :meth:`state`."""
        self._last_pc, self._last_addr = state

    def encode(self, record: Record) -> bytes:
        """Serialize one record and advance the delta state."""
        out = bytearray()
        self.encode_into(out, record)
        return bytes(out)

    def encode_into(self, out: bytearray, record: Record) -> int:
        """Serialize one record by appending to ``out``; returns its byte count.

        The zero-copy twin of :meth:`encode`: stream writers that already
        accumulate a chunk buffer append straight into it instead of paying
        a ``bytes`` allocation + copy per record.
        """
        before = len(out)
        if isinstance(record, InstructionRecord):
            self._encode_instruction(out, record)
        elif isinstance(record, AnnotationRecord):
            self._encode_annotation(out, record)
        else:
            raise TraceCodecError(f"cannot encode {type(record).__name__}")
        return len(out) - before

    def measure(self, record: Record) -> int:
        """Exact encoded size of ``record`` *without* advancing the state."""
        saved = self.state()
        try:
            return len(self.encode(record))
        finally:
            self.set_state(saved)

    # ------------------------------------------------------------------ internals

    def _encode_instruction(self, out: bytearray, record: InstructionRecord) -> None:
        # Unpack once; every value below 0x80 -- the header, the flags, most
        # PC deltas and the register ids -- is its own one-byte varint and is
        # appended directly.  Only longer (or negative) values go through
        # ``_write_varint``.  Zigzag is inlined for the same reason.
        (pc, event_type, dest_reg, src_reg, dest_addr, src_addr, size, is_load,
         is_store, base_reg, index_reg, is_cond_test, is_indirect_jump, thread_id,
         immediate) = record
        append = out.append
        value = event_type.ordinal << 1
        append(value) if value < 0x80 else _write_varint(out, value)
        flags = 0
        if dest_reg is not None:
            flags |= _F_DEST_REG
        if src_reg is not None:
            flags |= _F_SRC_REG
        if dest_addr is not None:
            flags |= _F_DEST_ADDR
        if src_addr is not None:
            flags |= _F_SRC_ADDR
        if base_reg is not None:
            flags |= _F_BASE_REG
        if index_reg is not None:
            flags |= _F_INDEX_REG
        if immediate is not None:
            flags |= _F_IMMEDIATE
        if size:
            flags |= _F_SIZE
        if is_load:
            flags |= _F_IS_LOAD
        if is_store:
            flags |= _F_IS_STORE
        if is_cond_test:
            flags |= _F_COND_TEST
        if is_indirect_jump:
            flags |= _F_INDIRECT_JUMP
        if thread_id:
            flags |= _F_THREAD
        append(flags) if flags < 0x80 else _write_varint(out, flags)
        value = pc - self._last_pc
        value = (value << 1) if value >= 0 else ((-value) << 1) - 1
        append(value) if value < 0x80 else _write_varint(out, value)
        self._last_pc = pc
        if dest_reg is not None:
            append(dest_reg) if 0 <= dest_reg < 0x80 else _write_varint(out, dest_reg)
        if src_reg is not None:
            append(src_reg) if 0 <= src_reg < 0x80 else _write_varint(out, src_reg)
        if dest_addr is not None:
            value = dest_addr - self._last_addr
            value = (value << 1) if value >= 0 else ((-value) << 1) - 1
            append(value) if value < 0x80 else _write_varint(out, value)
            self._last_addr = dest_addr
        if src_addr is not None:
            value = src_addr - self._last_addr
            value = (value << 1) if value >= 0 else ((-value) << 1) - 1
            append(value) if value < 0x80 else _write_varint(out, value)
            self._last_addr = src_addr
        if base_reg is not None:
            append(base_reg) if 0 <= base_reg < 0x80 else _write_varint(out, base_reg)
        if index_reg is not None:
            append(index_reg) if 0 <= index_reg < 0x80 else _write_varint(out, index_reg)
        if immediate is not None:
            _write_varint(out, _zigzag(immediate))
        if size:
            append(size) if 0 <= size < 0x80 else _write_varint(out, size)
        if thread_id:
            append(thread_id) if 0 <= thread_id < 0x80 else _write_varint(out, thread_id)

    def _encode_annotation(self, out: bytearray, record: AnnotationRecord) -> None:
        _write_varint(out, (record.event_type.ordinal << 1) | 1)
        flags = 0
        if record.address is not None:
            flags |= _A_ADDRESS
        if record.size:
            flags |= _A_SIZE
        if record.thread_id:
            flags |= _A_THREAD
        if record.pc:
            flags |= _A_PC
        if record.payload is not None:
            flags |= _A_PAYLOAD
        _write_varint(out, flags)
        if flags & _A_ADDRESS:
            _write_varint(out, _zigzag(record.address - self._last_addr))
            self._last_addr = record.address
        if flags & _A_SIZE:
            _write_varint(out, record.size)
        if flags & _A_THREAD:
            _write_varint(out, record.thread_id)
        if flags & _A_PC:
            _write_varint(out, _zigzag(record.pc - self._last_pc))
            self._last_pc = record.pc
        if flags & _A_PAYLOAD:
            _write_varint(out, _zigzag(record.payload))


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
      ``src_addr``, ``size``, ``base_reg``, ``index_reg``, ``thread_id``):
      pre-sized Python lists.  Lists (rather than ``array``) keep the
      decoded ints as objects, so the hot consumers re-read fields without
      re-boxing; absent entries hold the column default (0 / -1) and must
      not be consulted without checking ``flags``;
    * ``immediates``: sparse ``{row: value}`` dict (the immediate operand is
      informational and rare, so it does not earn a dense column).

    :meth:`record` materialises one row back into the exact record object
    the scalar decoder would have produced, which is what the per-record
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
        self.dest_reg: List[int] = [-1] * count
        self.src_reg: List[int] = [-1] * count
        self.dest_addr: List[int] = [0] * count
        self.src_addr: List[int] = [0] * count
        self.size: List[int] = [0] * count
        self.base_reg: List[int] = [-1] * count
        self.index_reg: List[int] = [-1] * count
        self.thread_id: List[int] = [0] * count
        self.immediates: Dict[int, int] = {}
        self.objects: Dict[int, Record] = {}
        #: run-length grouping ``(start, stop, ordinal, flags)`` over
        #: maximal row spans sharing one (ordinal, presence-bitmap) key;
        #: object rows (annotations) appear as ordinal ``-1`` runs.  Built
        #: by the decoder (the previous row's key is already in hand), so
        #: consumers iterate runs without re-scanning the columns.
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
        """Materialise one row as the record object the scalar decoder builds."""
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
            self.immediates.get(row) if flags & F_IMMEDIATE else None,
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


class RecordDecoder:
    """Stateful bytes → record decoder mirroring :class:`RecordEncoder`."""

    def __init__(self) -> None:
        self._last_pc = 0
        self._last_addr = 0

    def reset(self) -> None:
        """Restart the delta chains (chunk boundary)."""
        self._last_pc = 0
        self._last_addr = 0

    def decode(self, data: bytes, offset: int = 0) -> Tuple[Record, int]:
        """Decode one record at ``offset``; returns ``(record, next_offset)``."""
        tag, offset = _read_varint(data, offset)
        wire_id = tag >> 1
        if wire_id >= len(_EVENT_BY_WIRE_ID):
            raise TraceCodecError(f"unknown event wire id {wire_id}")
        event_type = _EVENT_BY_WIRE_ID[wire_id]
        if tag & 1:
            return self._decode_annotation(event_type, data, offset)
        return self._decode_instruction(event_type, data, offset)

    def decode_many(self, data: bytes, count: int = -1) -> Tuple[List[Record], int]:
        """Batch-decode records from the start of ``data``.

        Decodes ``count`` records (or, when negative, until the buffer is
        exhausted) and returns ``(records, next_offset)``.  Produces exactly
        the records the per-record :meth:`decode` loop would, but with the
        varint reads, zigzag maths and record construction inlined into one
        loop -- the single-byte-varint common case never leaves the loop
        body.  The delta-chain state advances only past fully decoded
        records, so on error the decoder is positioned exactly as if the
        offending record had never been attempted.
        """
        records: List[Record] = []
        append = records.append
        event_types = _EVENT_BY_WIRE_ID
        num_types = len(event_types)
        read_varint = _read_varint
        length = len(data)
        last_pc = committed_pc = self._last_pc
        last_addr = committed_addr = self._last_addr
        offset = 0
        try:
            while (offset < length) if count < 0 else (len(records) < count):
                byte = data[offset]
                if byte < 0x80:
                    tag = byte
                    offset += 1
                else:
                    tag, offset = read_varint(data, offset)
                wire_id = tag >> 1
                if wire_id >= num_types:
                    raise TraceCodecError(f"unknown event wire id {wire_id}")
                event_type = event_types[wire_id]
                byte = data[offset]
                if byte < 0x80:
                    flags = byte
                    offset += 1
                else:
                    flags, offset = read_varint(data, offset)
                if tag & 1:
                    # ---- annotation record ------------------------------------
                    address = payload = None
                    size = thread_id = pc = 0
                    if flags & _A_ADDRESS:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        delta = (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        address = last_addr + delta
                        last_addr = address
                    if flags & _A_SIZE:
                        byte = data[offset]
                        if byte < 0x80:
                            size = byte
                            offset += 1
                        else:
                            size, offset = read_varint(data, offset)
                    if flags & _A_THREAD:
                        byte = data[offset]
                        if byte < 0x80:
                            thread_id = byte
                            offset += 1
                        else:
                            thread_id, offset = read_varint(data, offset)
                    if flags & _A_PC:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        pc = last_pc + ((byte >> 1) if not byte & 1 else -((byte + 1) >> 1))
                        last_pc = pc
                    if flags & _A_PAYLOAD:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        payload = (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                    append(AnnotationRecord(event_type, address, size, thread_id, pc, payload))
                else:
                    # ---- instruction record -----------------------------------
                    byte = data[offset]
                    if byte < 0x80:
                        offset += 1
                    else:
                        byte, offset = read_varint(data, offset)
                    pc = last_pc + ((byte >> 1) if not byte & 1 else -((byte + 1) >> 1))
                    last_pc = pc
                    dest_reg = src_reg = dest_addr = src_addr = None
                    base_reg = index_reg = immediate = None
                    size = thread_id = 0
                    if flags & _F_DEST_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            dest_reg = byte
                            offset += 1
                        else:
                            dest_reg, offset = read_varint(data, offset)
                    if flags & _F_SRC_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            src_reg = byte
                            offset += 1
                        else:
                            src_reg, offset = read_varint(data, offset)
                    if flags & _F_DEST_ADDR:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        dest_addr = last_addr + (
                            (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        )
                        last_addr = dest_addr
                    if flags & _F_SRC_ADDR:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        src_addr = last_addr + (
                            (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        )
                        last_addr = src_addr
                    if flags & _F_BASE_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            base_reg = byte
                            offset += 1
                        else:
                            base_reg, offset = read_varint(data, offset)
                    if flags & _F_INDEX_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            index_reg = byte
                            offset += 1
                        else:
                            index_reg, offset = read_varint(data, offset)
                    if flags & _F_IMMEDIATE:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        immediate = (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                    if flags & _F_SIZE:
                        byte = data[offset]
                        if byte < 0x80:
                            size = byte
                            offset += 1
                        else:
                            size, offset = read_varint(data, offset)
                    if flags & _F_THREAD:
                        byte = data[offset]
                        if byte < 0x80:
                            thread_id = byte
                            offset += 1
                        else:
                            thread_id, offset = read_varint(data, offset)
                    append(
                        InstructionRecord(
                            pc,
                            event_type,
                            dest_reg,
                            src_reg,
                            dest_addr,
                            src_addr,
                            size,
                            bool(flags & _F_IS_LOAD),
                            bool(flags & _F_IS_STORE),
                            base_reg,
                            index_reg,
                            bool(flags & _F_COND_TEST),
                            bool(flags & _F_INDIRECT_JUMP),
                            thread_id,
                            immediate,
                        )
                    )
                committed_pc = last_pc
                committed_addr = last_addr
        except IndexError:
            raise TraceCodecError("varint runs past end of buffer") from None
        finally:
            self._last_pc = committed_pc
            self._last_addr = committed_addr
        return records, offset

    def decode_columns(self, data: ByteSource, count: int) -> Tuple[RecordColumns, int]:
        """Batch-decode ``count`` records into :class:`RecordColumns`.

        The structure-of-arrays twin of :meth:`decode_many`: the varint
        reads, zigzag maths and delta chains are identical, but instruction
        records are written straight into pre-sized per-field columns with
        zero per-record object construction.  Annotation records (rare) are
        materialised as objects into the sparse ``objects`` dict.  ``data``
        may be any indexable byte source (``bytes`` or a zero-copy
        ``memoryview``).  Returns ``(columns, next_offset)``; the delta
        state advances only past fully decoded records, exactly as in
        :meth:`decode_many`.
        """
        if count < 0:
            raise TraceCodecError("decode_columns requires a known record count")
        columns = RecordColumns(count)
        kind_col = columns.kind
        ordinal_col = columns.ordinal
        flags_col = columns.flags
        pc_col = columns.pc
        dest_reg_col = columns.dest_reg
        src_reg_col = columns.src_reg
        dest_addr_col = columns.dest_addr
        src_addr_col = columns.src_addr
        size_col = columns.size
        base_reg_col = columns.base_reg
        index_reg_col = columns.index_reg
        thread_col = columns.thread_id
        immediates = columns.immediates
        objects = columns.objects
        runs = columns.runs
        append_run = runs.append
        event_types = _EVENT_BY_WIRE_ID
        num_types = len(event_types)
        read_varint = _read_varint
        start_pc = last_pc = self._last_pc
        start_addr = last_addr = self._last_addr
        offset = 0
        prev_ord = -2
        prev_flags = 0
        run_start = 0
        try:
            for row in range(count):
                byte = data[offset]
                if byte < 0x80:
                    tag = byte
                    offset += 1
                else:
                    tag, offset = read_varint(data, offset)
                wire_id = tag >> 1
                if wire_id >= num_types:
                    raise TraceCodecError(f"unknown event wire id {wire_id}")
                byte = data[offset]
                if byte < 0x80:
                    flags = byte
                    offset += 1
                else:
                    flags, offset = read_varint(data, offset)
                if tag & 1:
                    # ---- annotation record: materialise as an object ----------
                    if prev_ord != -1 or prev_flags:
                        if row:
                            append_run((run_start, row, prev_ord, prev_flags))
                        run_start = row
                        prev_ord = -1
                        prev_flags = 0
                    address = payload = None
                    size = thread_id = pc = 0
                    if flags & _A_ADDRESS:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        address = last_addr + (
                            (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        )
                        last_addr = address
                    if flags & _A_SIZE:
                        byte = data[offset]
                        if byte < 0x80:
                            size = byte
                            offset += 1
                        else:
                            size, offset = read_varint(data, offset)
                    if flags & _A_THREAD:
                        byte = data[offset]
                        if byte < 0x80:
                            thread_id = byte
                            offset += 1
                        else:
                            thread_id, offset = read_varint(data, offset)
                    if flags & _A_PC:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        pc = last_pc + ((byte >> 1) if not byte & 1 else -((byte + 1) >> 1))
                        last_pc = pc
                    if flags & _A_PAYLOAD:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        payload = (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                    kind_col[row] = 1
                    ordinal_col[row] = wire_id
                    objects[row] = AnnotationRecord(
                        event_types[wire_id], address, size, thread_id, pc, payload
                    )
                else:
                    # ---- instruction record: flatten into the columns ---------
                    if wire_id != prev_ord or flags != prev_flags:
                        if row:
                            append_run((run_start, row, prev_ord, prev_flags))
                        run_start = row
                        prev_ord = wire_id
                        prev_flags = flags
                    byte = data[offset]
                    if byte < 0x80:
                        offset += 1
                    else:
                        # Two-byte fast path: loop-local pc/address deltas
                        # are overwhelmingly 1-2 byte varints.
                        second = data[offset + 1]
                        if second < 0x80:
                            byte = (byte & 0x7F) | (second << 7)
                            offset += 2
                        else:
                            byte, offset = read_varint(data, offset)
                    pc = last_pc + ((byte >> 1) if not byte & 1 else -((byte + 1) >> 1))
                    last_pc = pc
                    ordinal_col[row] = wire_id
                    flags_col[row] = flags
                    pc_col[row] = pc
                    if not flags:
                        # No optional fields (plain control records): skip
                        # the whole presence chain.
                        continue
                    if flags & _F_DEST_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            dest_reg_col[row] = byte
                            offset += 1
                        else:
                            dest_reg_col[row], offset = read_varint(data, offset)
                    if flags & _F_SRC_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            src_reg_col[row] = byte
                            offset += 1
                        else:
                            src_reg_col[row], offset = read_varint(data, offset)
                    if flags & _F_DEST_ADDR:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            second = data[offset + 1]
                            if second < 0x80:
                                byte = (byte & 0x7F) | (second << 7)
                                offset += 2
                            else:
                                byte, offset = read_varint(data, offset)
                        last_addr += (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        dest_addr_col[row] = last_addr
                    if flags & _F_SRC_ADDR:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            second = data[offset + 1]
                            if second < 0x80:
                                byte = (byte & 0x7F) | (second << 7)
                                offset += 2
                            else:
                                byte, offset = read_varint(data, offset)
                        last_addr += (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                        src_addr_col[row] = last_addr
                    if flags & _F_BASE_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            base_reg_col[row] = byte
                            offset += 1
                        else:
                            base_reg_col[row], offset = read_varint(data, offset)
                    if flags & _F_INDEX_REG:
                        byte = data[offset]
                        if byte < 0x80:
                            index_reg_col[row] = byte
                            offset += 1
                        else:
                            index_reg_col[row], offset = read_varint(data, offset)
                    if flags & _F_IMMEDIATE:
                        byte = data[offset]
                        if byte < 0x80:
                            offset += 1
                        else:
                            byte, offset = read_varint(data, offset)
                        immediates[row] = (byte >> 1) if not byte & 1 else -((byte + 1) >> 1)
                    if flags & _F_SIZE:
                        byte = data[offset]
                        if byte < 0x80:
                            size_col[row] = byte
                            offset += 1
                        else:
                            size_col[row], offset = read_varint(data, offset)
                    if flags & _F_THREAD:
                        byte = data[offset]
                        if byte < 0x80:
                            thread_col[row] = byte
                            offset += 1
                        else:
                            thread_col[row], offset = read_varint(data, offset)
            if count:
                append_run((run_start, count, prev_ord, prev_flags))
        except (IndexError, TraceCodecError):
            # Cold path: reproduce the exact error -- and the exact
            # committed delta state -- through the object decoder, instead
            # of tracking a per-row commit point on the hot path.
            self._last_pc = start_pc
            self._last_addr = start_addr
            self.decode_many(data, count)
            raise TraceCodecError(
                "columnar decode failed where object decode succeeded"
            ) from None
        self._last_pc = last_pc
        self._last_addr = last_addr
        return columns, offset

    # ------------------------------------------------------------------ internals

    def _decode_instruction(
        self, event_type: EventType, data: bytes, offset: int
    ) -> Tuple[InstructionRecord, int]:
        flags, offset = _read_varint(data, offset)
        delta, offset = _read_varint(data, offset)
        pc = self._last_pc + _unzigzag(delta)
        self._last_pc = pc
        dest_reg = src_reg = dest_addr = src_addr = None
        base_reg = index_reg = immediate = None
        size = thread_id = 0
        if flags & _F_DEST_REG:
            dest_reg, offset = _read_varint(data, offset)
        if flags & _F_SRC_REG:
            src_reg, offset = _read_varint(data, offset)
        if flags & _F_DEST_ADDR:
            delta, offset = _read_varint(data, offset)
            dest_addr = self._last_addr + _unzigzag(delta)
            self._last_addr = dest_addr
        if flags & _F_SRC_ADDR:
            delta, offset = _read_varint(data, offset)
            src_addr = self._last_addr + _unzigzag(delta)
            self._last_addr = src_addr
        if flags & _F_BASE_REG:
            base_reg, offset = _read_varint(data, offset)
        if flags & _F_INDEX_REG:
            index_reg, offset = _read_varint(data, offset)
        if flags & _F_IMMEDIATE:
            raw, offset = _read_varint(data, offset)
            immediate = _unzigzag(raw)
        if flags & _F_SIZE:
            size, offset = _read_varint(data, offset)
        if flags & _F_THREAD:
            thread_id, offset = _read_varint(data, offset)
        record = InstructionRecord(
            pc=pc,
            event_type=event_type,
            dest_reg=dest_reg,
            src_reg=src_reg,
            dest_addr=dest_addr,
            src_addr=src_addr,
            size=size,
            is_load=bool(flags & _F_IS_LOAD),
            is_store=bool(flags & _F_IS_STORE),
            base_reg=base_reg,
            index_reg=index_reg,
            is_cond_test=bool(flags & _F_COND_TEST),
            is_indirect_jump=bool(flags & _F_INDIRECT_JUMP),
            thread_id=thread_id,
            immediate=immediate,
        )
        return record, offset

    def _decode_annotation(
        self, event_type: EventType, data: bytes, offset: int
    ) -> Tuple[AnnotationRecord, int]:
        flags, offset = _read_varint(data, offset)
        address = payload = None
        size = thread_id = pc = 0
        if flags & _A_ADDRESS:
            delta, offset = _read_varint(data, offset)
            address = self._last_addr + _unzigzag(delta)
            self._last_addr = address
        if flags & _A_SIZE:
            size, offset = _read_varint(data, offset)
        if flags & _A_THREAD:
            thread_id, offset = _read_varint(data, offset)
        if flags & _A_PC:
            delta, offset = _read_varint(data, offset)
            pc = self._last_pc + _unzigzag(delta)
            self._last_pc = pc
        if flags & _A_PAYLOAD:
            raw, offset = _read_varint(data, offset)
            payload = _unzigzag(raw)
        record = AnnotationRecord(
            event_type=event_type,
            address=address,
            size=size,
            thread_id=thread_id,
            pc=pc,
            payload=payload,
        )
        return record, offset


def encode_records(records) -> bytes:
    """Serialize a record sequence with a fresh encoder.

    Appends every record straight into one buffer (:meth:`RecordEncoder.
    encode_into`), avoiding the per-record ``bytes`` copy of ``encode``.
    """
    encoder = RecordEncoder()
    out = bytearray()
    encode_into = encoder.encode_into
    for record in records:
        encode_into(out, record)
    return bytes(out)


def decode_record_columns(data: ByteSource, expected_count: int) -> RecordColumns:
    """Decode a byte stream into :class:`RecordColumns` with a fresh decoder.

    The columnar twin of :func:`decode_records`: exactly ``expected_count``
    records must consume exactly the whole buffer, otherwise
    :class:`TraceCodecError` is raised (chunk integrity check).  ``data``
    may be ``bytes`` or a zero-copy ``memoryview``.
    """
    decoder = RecordDecoder()
    columns, offset = decoder.decode_columns(data, expected_count)
    if offset != len(data):
        raise TraceCodecError(
            f"chunk decoded {expected_count} records but left "
            f"{len(data) - offset} trailing bytes"
        )
    return columns


def decode_records(data: ByteSource, expected_count: int = -1) -> List[Record]:
    """Decode a byte stream produced by :func:`encode_records`.

    Args:
        data: the encoded stream.
        expected_count: when non-negative, exactly that many records must
            consume exactly the whole buffer, otherwise
            :class:`TraceCodecError` is raised (chunk integrity check).
    """
    decoder = RecordDecoder()
    records, offset = decoder.decode_many(data, expected_count)
    if expected_count >= 0 and offset != len(data):
        raise TraceCodecError(
            f"chunk decoded {expected_count} records but left "
            f"{len(data) - offset} trailing bytes"
        )
    return records
