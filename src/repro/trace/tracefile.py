"""Chunked trace files: capture a log once, re-analyse it many times.

File layout (all integers little-endian)::

    header   : magic "LBATRC01" | u16 version | u16 flags | u32 chunk_bytes
               | u64 index_offset (patched on close)
    chunks   : concatenated chunk payloads (zlib-compressed when flag set)
    index    : magic "INDX" | u32 num_chunks
               | per chunk: u64 offset | u32 stored_len | u32 raw_len | u32 records
                            | u32 crc32
               | u64 total_records | u64 instructions | u64 annotations | u64 raw_bytes

A chunk's raw payload is its records' fixed-width rows stored byte plane by
byte plane (:mod:`repro.trace.codec`), so ``raw_len`` is always ``records``
times :data:`~repro.trace.codec.ROW_BYTES`.  Rows hold absolute values, so
a reader can seek straight to any chunk via the index without touching the
bytes before it.  Chunks are closed when their rows reach the configured
``chunk_bytes`` target, so all chunks of a trace have roughly the same size
(the last one may be short).

Each index entry carries a CRC32 of its chunk's *stored* bytes, verified on
every chunk read, so payload corruption is detected before the
decompressor or codec ever see the damage (and detected at all for
uncompressed traces, whose payloads would otherwise often still "parse").
An entry whose ``raw_len`` is not its rows' size fails its own chunk before
decompression, and a chunk inflates to at most ``raw_len`` bytes, so a
CRC-valid zlib bomb costs no more memory than an honest chunk.  The reader
accepts only this layout, version 3.  The index totals are cross-checked
against the per-chunk entries on open, so a damaged footer can never
silently misreport the record population.

Record objects (:meth:`TraceReader.read_chunk`, ``verify``, ``repair``)
come from the codec's reference decoder; replay reads
:meth:`TraceReader.read_chunk_columns`, the codec's one fast path.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.events import AnnotationRecord, InstructionRecord
from repro.obs.runtime import OBS
from repro.trace.codec import (
    ROW_BYTES,
    RecordColumns,
    RecordEncoder,
    TraceCodecError,
    byte_planes,
    decode_record_columns,
    decode_records,
)

Record = Union[InstructionRecord, AnnotationRecord]

_MAGIC = b"LBATRC01"
_INDEX_MAGIC = b"INDX"
_VERSION = 3
_FLAG_ZLIB = 1 << 0

_HEADER = struct.Struct("<8sHHIQ")
_INDEX_HEADER = struct.Struct("<4sI")
_INDEX_ENTRY = struct.Struct("<QIIII")
_INDEX_TOTALS = struct.Struct("<QQQQ")

#: Default raw payload size at which a chunk is closed.
DEFAULT_CHUNK_BYTES = 64 * 1024


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed, truncated or corrupt."""


def _annotations(raw: bytes, records: int) -> int:
    """Annotation rows of a chunk payload: the 1s of its kind plane."""
    return raw.count(1, 0, records)


def _inflate(stored: bytes, raw_len: int) -> bytes:
    """Decompress one chunk's zlib stream into at most ``raw_len`` bytes.

    Raises ``zlib.error`` for a damaged stream and :class:`ValueError` for
    one that holds more than ``raw_len`` bytes, ends short or does not end;
    the memory it takes is bounded by ``raw_len``, whatever the stream.
    """
    decompressor = zlib.decompressobj()
    raw = decompressor.decompress(stored, raw_len + 1)
    if len(raw) > raw_len:
        raise ValueError(f"zlib stream holds more than {raw_len} raw bytes")
    if not decompressor.eof:
        raise ValueError("zlib stream does not end")
    if len(raw) != raw_len:
        raise ValueError(f"zlib stream ends after {len(raw)} of {raw_len} raw bytes")
    return raw


@dataclass(frozen=True)
class ChunkInfo:
    """Index entry describing one chunk."""

    index: int
    offset: int
    stored_len: int
    raw_len: int
    records: int
    #: CRC32 of the stored (possibly compressed) payload.
    crc: int


@dataclass
class TraceStats:
    """Aggregate statistics of a captured trace."""

    records: int = 0
    instructions: int = 0
    annotations: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    chunks: int = 0

    @property
    def compression_ratio(self) -> float:
        """Raw codec bytes over stored (possibly zlib-compressed) bytes."""
        if not self.stored_bytes:
            return 1.0
        return self.raw_bytes / self.stored_bytes

    @property
    def bytes_per_record(self) -> float:
        """Average stored bytes per record."""
        if not self.records:
            return 0.0
        return self.stored_bytes / self.records


class TraceWriter:
    """Streams records into a chunked trace file.

    A capture replaces any file at ``path`` with a new file (a symlink at
    ``path`` is replaced, not followed), so a reader that still holds the
    old trace open keeps reading the old trace.  The writer never fsyncs;
    :func:`repair_trace` (``python -m repro.trace verify --repair``) is the
    durable path, with its temp file, fsync and ``os.replace``.

    Usable as a context manager; :meth:`close` finalizes the chunk in
    flight, appends the index and patches the header's index offset.
    :attr:`stats` counts each chunk as it is flushed, so the stats are
    final once the writer is closed.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        compress: bool = True,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.path = os.fspath(path)
        self.chunk_bytes = chunk_bytes
        self.compress = compress
        self.stats = TraceStats()
        self._encoder = RecordEncoder()
        self._chunk = bytearray()
        self._chunk_records = 0
        self._chunks: List[ChunkInfo] = []
        # Create anew, don't truncate: on ext4 a truncate waits for the old file's write to disk.
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        self._file = open(self.path, "wb")
        self._closed = False
        flags = _FLAG_ZLIB if compress else 0
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, flags, chunk_bytes, 0))

    # ------------------------------------------------------------------ writing

    def append(self, record: Record) -> int:
        """Serialize one record into the current chunk; returns its raw bytes."""
        if self._closed:
            raise ValueError("trace writer is closed")
        # The encoder appends the record's row straight to the chunk's rows.
        encoded_len = self._encoder.encode_into(self._chunk, record)
        self._chunk_records += 1
        if len(self._chunk) >= self.chunk_bytes:
            self._flush_chunk()
        return encoded_len

    def extend(self, records) -> None:
        """Append a record sequence."""
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        records = self._chunk_records
        if not records:
            return
        raw = byte_planes(self._chunk)
        raw_len = len(raw)
        annotations = _annotations(raw, records)
        if OBS.enabled:
            start = time.perf_counter()
            stored = zlib.compress(raw, 6) if self.compress else raw
            if OBS.tracer is not None:
                OBS.tracer.add(
                    "capture.compress", "capture", start, time.perf_counter() - start
                )
            if OBS.recorder is not None:
                OBS.recorder.record_chunk_written(len(stored), raw_len)
        else:
            stored = zlib.compress(raw, 6) if self.compress else raw
        offset = self._file.tell()
        self._file.write(stored)
        self._chunks.append(
            ChunkInfo(
                index=len(self._chunks),
                offset=offset,
                stored_len=len(stored),
                raw_len=raw_len,
                records=records,
                crc=zlib.crc32(stored) & 0xFFFFFFFF,
            )
        )
        stats = self.stats
        stats.records += records
        stats.instructions += records - annotations
        stats.annotations += annotations
        stats.raw_bytes += raw_len
        stats.stored_bytes += len(stored)
        stats.chunks += 1
        self._chunk = bytearray()
        self._chunk_records = 0

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> TraceStats:
        """Flush the final chunk, write the index, patch the header."""
        if self._closed:
            return self.stats
        self._flush_chunk()
        index_offset = self._file.tell()
        self._file.write(_INDEX_HEADER.pack(_INDEX_MAGIC, len(self._chunks)))
        for chunk in self._chunks:
            self._file.write(
                _INDEX_ENTRY.pack(
                    chunk.offset, chunk.stored_len, chunk.raw_len, chunk.records, chunk.crc
                )
            )
        self._file.write(
            _INDEX_TOTALS.pack(
                self.stats.records,
                self.stats.instructions,
                self.stats.annotations,
                self.stats.raw_bytes,
            )
        )
        self._file.seek(0)
        flags = _FLAG_ZLIB if self.compress else 0
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, flags, self.chunk_bytes, index_offset))
        self._file.close()
        self._closed = True
        return self.stats

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TraceReader:
    """Random-access reader over a chunked trace file."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "rb")
        try:
            self._parse()
        except Exception:
            self._file.close()
            raise

    # ------------------------------------------------------------------ parsing

    def _parse(self) -> None:
        file_size = os.fstat(self._file.fileno()).st_size
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{self.path}: file shorter than trace header")
        magic, version, flags, chunk_bytes, index_offset = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceFormatError(f"{self.path}: unsupported trace version {version}")
        if index_offset == 0 or index_offset > file_size:
            raise TraceFormatError(f"{self.path}: missing index (truncated trace?)")
        self.version = version
        self.compressed = bool(flags & _FLAG_ZLIB)
        self.chunk_bytes = chunk_bytes
        self._index_offset = index_offset

        self._file.seek(index_offset)
        index_header = self._file.read(_INDEX_HEADER.size)
        if len(index_header) < _INDEX_HEADER.size:
            raise TraceFormatError(f"{self.path}: truncated chunk index")
        index_magic, num_chunks = _INDEX_HEADER.unpack(index_header)
        if index_magic != _INDEX_MAGIC:
            raise TraceFormatError(f"{self.path}: bad index magic {index_magic!r}")
        self.chunks: List[ChunkInfo] = []
        for i in range(num_chunks):
            entry = self._file.read(_INDEX_ENTRY.size)
            if len(entry) < _INDEX_ENTRY.size:
                raise TraceFormatError(f"{self.path}: truncated index entry {i}")
            offset, stored_len, raw_len, records, crc = _INDEX_ENTRY.unpack(entry)
            if offset + stored_len > index_offset:
                raise TraceFormatError(
                    f"{self.path}: chunk {i} payload overlaps the index (truncated trace?)"
                )
            self.chunks.append(ChunkInfo(i, offset, stored_len, raw_len, records, crc))
        totals = self._file.read(_INDEX_TOTALS.size)
        if len(totals) < _INDEX_TOTALS.size:
            raise TraceFormatError(f"{self.path}: truncated index totals")
        records, instructions, annotations, raw_bytes = _INDEX_TOTALS.unpack(totals)
        # Cross-check the footer totals against the per-chunk entries: a
        # corrupt footer must never silently misreport the record population.
        chunk_records = sum(c.records for c in self.chunks)
        if records != chunk_records:
            raise TraceFormatError(
                f"{self.path}: index totals claim {records} records but chunk "
                f"entries sum to {chunk_records} (corrupt index?)"
            )
        if instructions + annotations != records:
            raise TraceFormatError(
                f"{self.path}: index totals are inconsistent "
                f"({instructions} instructions + {annotations} annotations "
                f"!= {records} records)"
            )
        chunk_raw = sum(c.raw_len for c in self.chunks)
        if raw_bytes != chunk_raw:
            raise TraceFormatError(
                f"{self.path}: index totals claim {raw_bytes} raw bytes but "
                f"chunk entries sum to {chunk_raw} (corrupt index?)"
            )
        self.stats = TraceStats(
            records=records,
            instructions=instructions,
            annotations=annotations,
            raw_bytes=raw_bytes,
            stored_bytes=sum(c.stored_len for c in self.chunks),
            chunks=num_chunks,
        )

    # ------------------------------------------------------------------ access

    @property
    def num_chunks(self) -> int:
        """Number of chunks in the trace."""
        return len(self.chunks)

    @property
    def num_records(self) -> int:
        """Total records in the trace (from the index totals)."""
        return self.stats.records

    def _chunk_payload(self, index: int):
        """Read and decompress one chunk's raw codec payload.

        Returns a byte source for the decoders: the decompressed buffer for
        zlib chunks, or a zero-copy ``memoryview`` over the read buffer for
        uncompressed chunks (no ``bytes`` slicing/copying on the decode
        path).  A chunk inflates to at most its index entry's ``raw_len``.
        With telemetry on, it also records the read and decompress spans
        and the chunk's byte counts.
        """
        if not 0 <= index < len(self.chunks):
            raise IndexError(f"chunk {index} out of range (trace has {len(self.chunks)})")
        chunk = self.chunks[index]
        if chunk.raw_len != chunk.records * ROW_BYTES:
            raise TraceFormatError(
                f"{self.path}: chunk {index} corrupt: index claims {chunk.raw_len} "
                f"raw bytes for {chunk.records} rows of {ROW_BYTES} bytes"
            )
        tracer = OBS.tracer if OBS.enabled else None
        start = time.perf_counter()
        self._file.seek(chunk.offset)
        stored = self._file.read(chunk.stored_len)
        if tracer is not None:
            tracer.add("codec.read", "codec", start, time.perf_counter() - start)
        if len(stored) < chunk.stored_len:
            raise TraceFormatError(f"{self.path}: chunk {index} truncated on disk")
        actual = zlib.crc32(stored) & 0xFFFFFFFF
        if actual != chunk.crc:
            raise TraceFormatError(
                f"{self.path}: chunk {index} CRC mismatch "
                f"(stored {chunk.crc:#010x}, computed {actual:#010x})"
            )
        if self.compressed:
            start = time.perf_counter()
            try:
                raw = _inflate(stored, chunk.raw_len)
            except (zlib.error, ValueError) as exc:
                raise TraceFormatError(f"{self.path}: chunk {index} corrupt: {exc}") from exc
            if tracer is not None:
                tracer.add("codec.decompress", "codec", start, time.perf_counter() - start)
        else:
            raw = memoryview(stored)
        if len(raw) != chunk.raw_len:
            raise TraceFormatError(
                f"{self.path}: chunk {index} raw size mismatch "
                f"({len(raw)} != {chunk.raw_len})"
            )
        if OBS.enabled and OBS.recorder is not None:
            OBS.recorder.record_chunk_read(chunk.stored_len, chunk.raw_len)
        return raw

    def read_chunk(self, index: int) -> List[Record]:
        """Decode and return all records of one chunk."""
        raw = self._chunk_payload(index)
        try:
            return decode_records(raw, expected_count=self.chunks[index].records)
        except TraceCodecError as exc:
            raise TraceFormatError(f"{self.path}: chunk {index} corrupt: {exc}") from exc

    def read_chunk_columns(self, index: int) -> RecordColumns:
        """Decode one chunk straight into :class:`RecordColumns`.

        The structure-of-arrays twin of :meth:`read_chunk`, feeding the
        columnar dispatch engine without constructing one record object per
        row.  Raises the same :class:`TraceFormatError` on corruption.
        """
        raw = self._chunk_payload(index)
        records = self.chunks[index].records
        start = time.perf_counter()
        try:
            columns = decode_record_columns(raw, records)
        except TraceCodecError as exc:
            raise TraceFormatError(f"{self.path}: chunk {index} corrupt: {exc}") from exc
        if OBS.enabled:
            if OBS.tracer is not None:
                OBS.tracer.add(
                    "codec.decode_columns", "codec", start, time.perf_counter() - start
                )
            if OBS.recorder is not None:
                OBS.recorder.record_chunk_decoded(records)
        return columns

    def chunk_record_counts(self) -> Tuple[int, ...]:
        """Record count per chunk, in index order.

        Supervised replay carries these counts on its
        :class:`~repro.trace.replay.ShardTask` so quarantine accounting
        never needs to re-open the trace in the parent.
        """
        return tuple(info.records for info in self.chunks)

    def iter_records(self) -> Iterator[Record]:
        """Yield every record of the trace in order."""
        for index in range(len(self.chunks)):
            yield from self.read_chunk(index)

    def __iter__(self) -> Iterator[Record]:
        return self.iter_records()

    def close(self) -> None:
        """Release the underlying file handle."""
        self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------- audit


@dataclass(frozen=True)
class ChunkAudit:
    """Outcome of auditing one chunk (CRC + full decode)."""

    index: int
    records: int
    stored_len: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class TraceAudit:
    """Outcome of :func:`verify_trace`: file-level + per-chunk findings."""

    path: str
    version: Optional[int] = None
    stats: Optional[TraceStats] = None
    #: header/index/totals problem that prevented any chunk audit
    file_error: Optional[str] = None
    chunks: List[ChunkAudit] = field(default_factory=list)

    @property
    def bad_chunks(self) -> List[ChunkAudit]:
        return [chunk for chunk in self.chunks if not chunk.ok]

    @property
    def ok(self) -> bool:
        return self.file_error is None and not self.bad_chunks


def repair_trace(path: Union[str, os.PathLike]) -> "TraceRepair":
    """Recover a partial or damaged trace by truncating to its valid prefix.

    The repair keeps the longest prefix of chunks that pass CRC *and* a
    full codec decode, rewrites the chunk index and totals footer to
    describe exactly that prefix, and replaces the file atomically
    (temp file + ``os.replace``), so a crash mid-repair can never leave a
    half-written trace behind.  Three damage shapes are handled:

    * **damaged chunk** -- the index is intact but a chunk fails its CRC or
      decode: every chunk before the first damaged one is kept;
    * **mid-footer truncation** -- the file ends inside the index: the
      surviving index entries validate their chunks, and (for compressed
      traces) the remaining chunk payloads are re-discovered by walking
      the self-terminating zlib streams;
    * **mid-chunk truncation** -- the file ends inside the chunk data and
      the index is gone entirely: compressed traces are re-indexed by the
      same zlib-stream walk; uncompressed traces have no discoverable
      chunk boundaries and are unrecoverable.

    Returns a :class:`TraceRepair`; ``action`` is ``"intact"`` when the
    file already verifies (nothing written), ``"repaired"`` when a valid
    prefix was rewritten, and ``"unrecoverable"`` when not even one chunk
    survives.
    """
    path = os.fspath(path)
    repair = TraceRepair(path=path)
    audit = verify_trace(path)
    if audit.ok:
        repair.action = "intact"
        repair.kept_chunks = len(audit.chunks)
        repair.kept_records = audit.stats.records if audit.stats else 0
        repair.lost_chunks = 0
        repair.lost_records = 0
        return repair
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        repair.detail = f"unreadable: {exc}"
        return repair
    if len(blob) < _HEADER.size:
        repair.detail = "file shorter than the trace header"
        return repair
    magic, version, flags, chunk_bytes, index_offset = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        repair.detail = f"bad magic {magic!r}"
        return repair
    if version != _VERSION:
        repair.detail = f"unsupported trace version {version}"
        return repair
    compressed = bool(flags & _FLAG_ZLIB)
    # Chunk payloads live between the header and wherever the index starts
    # (or the end of what survives of the file, when the index is gone).
    data_limit = index_offset if _HEADER.size <= index_offset <= len(blob) else len(blob)

    kept: List[_KeptChunk] = []
    entries_truncated = True
    scan_from = _HEADER.size
    if index_offset and index_offset + _INDEX_HEADER.size <= len(blob):
        index_magic, num_chunks = _INDEX_HEADER.unpack_from(blob, index_offset)
        if index_magic == _INDEX_MAGIC:
            position = index_offset + _INDEX_HEADER.size
            parsed = []
            for _ in range(num_chunks):
                if position + _INDEX_ENTRY.size > len(blob):
                    break
                parsed.append(_INDEX_ENTRY.unpack_from(blob, position))
                position += _INDEX_ENTRY.size
            # A fully-present entry list means any damage is in the chunks
            # (or the totals): scanning past a CRC-failing chunk would
            # resurrect bytes the checksum already condemned, so the scan
            # below only continues where entries were *lost*, not refuted.
            entries_truncated = len(parsed) < num_chunks
            for offset, stored_len, raw_len, records, crc in parsed:
                if offset != scan_from or offset + stored_len > data_limit:
                    entries_truncated = False
                    break
                stored = blob[offset:offset + stored_len]
                annotations = _chunk_annotations(stored, raw_len, records, crc, compressed)
                if annotations is None:
                    entries_truncated = False
                    break
                kept.append((stored, raw_len, records, annotations))
                scan_from = offset + stored_len
    if entries_truncated and compressed:
        # No chunk the writer closes holds more rows than this.
        max_raw = max(chunk_bytes, 1) - 1 + ROW_BYTES
        kept.extend(_scan_zlib_chunks(blob, scan_from, data_limit, max_raw))
    if not kept:
        if not compressed and entries_truncated:
            repair.detail = (
                "index unusable and the trace is uncompressed: chunk "
                "boundaries cannot be re-discovered"
            )
        else:
            repair.detail = "no intact chunk prefix survives"
        return repair

    repair.action = "repaired"
    repair.kept_chunks = len(kept)
    repair.kept_records = sum(chunk[2] for chunk in kept)
    if audit.stats is not None:
        # The original footer was readable: the loss is exactly known.
        repair.lost_chunks = audit.stats.chunks - repair.kept_chunks
        repair.lost_records = audit.stats.records - repair.kept_records
    _rewrite_trace(path, chunk_bytes, compressed, kept)
    return repair


#: A chunk repair keeps: (stored bytes, raw_len, records, annotations).
_KeptChunk = Tuple[bytes, int, int, int]


def _chunk_annotations(
    stored: bytes, raw_len: int, records: int, crc: int, compressed: bool
) -> Optional[int]:
    """A stored chunk's annotation count, or ``None`` when it fails its
    CRC, size or full-decode checks."""
    if raw_len != records * ROW_BYTES or zlib.crc32(stored) & 0xFFFFFFFF != crc:
        return None
    if compressed:
        try:
            raw = _inflate(stored, raw_len)
        except (zlib.error, ValueError):
            return None
    else:
        raw = stored
    if len(raw) != raw_len:
        return None
    try:
        decoded = decode_records(raw, expected_count=records)
    except TraceCodecError:
        return None
    if len(decoded) != records:
        return None
    return _annotations(raw, records)


def _scan_zlib_chunks(
    blob: bytes, start: int, limit: int, max_raw: int
) -> List[_KeptChunk]:
    """Re-discover chunk boundaries by walking self-terminating zlib streams.

    Every compressed chunk is one complete zlib stream, so a lost index can
    be rebuilt by decompressing stream after stream: each stream's consumed
    length is its stored size, and a full codec decode of the payload both
    validates the chunk and recounts its records (its kind plane then
    counts its annotations).  Stops at the first incomplete or undecodable
    stream (the truncation/damage point), or at one that inflates past
    ``max_raw`` bytes.
    """
    found: List[_KeptChunk] = []
    offset = start
    while offset < limit:
        decompressor = zlib.decompressobj()
        try:
            raw = decompressor.decompress(blob[offset:limit], max_raw)
        except zlib.error:
            break
        if not decompressor.eof:
            break  # stream longer than any chunk, or cut by the truncation
        consumed = (limit - offset) - len(decompressor.unused_data)
        try:
            records = len(decode_records(raw))
        except TraceCodecError:
            break
        if not records:
            break
        found.append(
            (blob[offset:offset + consumed], len(raw), records, _annotations(raw, records))
        )
        offset += consumed
    return found


def _rewrite_trace(
    path: str, chunk_bytes: int, compressed: bool, kept: List[_KeptChunk]
) -> None:
    """Atomically rewrite ``path`` as a valid trace holding ``kept`` chunks.

    The index totals come from the counts the validation took, so no kept
    chunk is inflated or decoded again.
    """
    tmp_path = path + ".repair"
    flags = _FLAG_ZLIB if compressed else 0
    records_total = sum(chunk[2] for chunk in kept)
    annotations = sum(chunk[3] for chunk in kept)
    with open(tmp_path, "wb") as out:
        out.write(_HEADER.pack(_MAGIC, _VERSION, flags, chunk_bytes, 0))
        infos: List[ChunkInfo] = []
        for stored, raw_len, records, _ in kept:
            offset = out.tell()
            out.write(stored)
            infos.append(ChunkInfo(
                index=len(infos), offset=offset, stored_len=len(stored),
                raw_len=raw_len, records=records,
                crc=zlib.crc32(stored) & 0xFFFFFFFF,
            ))
        index_offset = out.tell()
        out.write(_INDEX_HEADER.pack(_INDEX_MAGIC, len(infos)))
        for info in infos:
            out.write(_INDEX_ENTRY.pack(
                info.offset, info.stored_len, info.raw_len, info.records, info.crc
            ))
        out.write(_INDEX_TOTALS.pack(
            records_total,
            records_total - annotations,
            annotations,
            sum(info.raw_len for info in infos),
        ))
        out.seek(0)
        out.write(_HEADER.pack(_MAGIC, _VERSION, flags, chunk_bytes, index_offset))
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp_path, path)


@dataclass
class TraceRepair:
    """Outcome of :func:`repair_trace`."""

    path: str
    #: ``"intact"`` (already valid, nothing written), ``"repaired"``
    #: (valid prefix rewritten in place) or ``"unrecoverable"``.
    action: str = "unrecoverable"
    detail: str = ""
    kept_chunks: int = 0
    kept_records: int = 0
    #: Chunks/records lost to the repair; ``None`` when the original footer
    #: was itself lost, making the original population unknowable.
    lost_chunks: Optional[int] = None
    lost_records: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True unless the trace was unrecoverable."""
        return self.action != "unrecoverable"

    @property
    def changed(self) -> bool:
        """True when the file on disk was rewritten."""
        return self.action == "repaired"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "action": self.action,
            "detail": self.detail,
            "kept_chunks": self.kept_chunks,
            "kept_records": self.kept_records,
            "lost_chunks": self.lost_chunks,
            "lost_records": self.lost_records,
        }


def verify_trace(path: Union[str, os.PathLike], decode: bool = True) -> TraceAudit:
    """Audit a trace file: header, index, totals, per-chunk CRCs and decode.

    Never raises for corruption -- every problem lands in the returned
    :class:`TraceAudit` so a caller (or ``python -m repro.trace verify``)
    can report all damage in one pass.  ``decode=False`` checks only the
    structural layers (header/index/CRC), skipping the codec decode.
    """
    audit = TraceAudit(path=os.fspath(path))
    try:
        reader = TraceReader(path)
    except TraceFormatError as exc:
        audit.file_error = str(exc)
        return audit
    except OSError as exc:
        audit.file_error = f"{audit.path}: {exc}"
        return audit
    with reader:
        audit.version = reader.version
        audit.stats = reader.stats
        for info in reader.chunks:
            error = None
            try:
                if decode:
                    decoded = reader.read_chunk(info.index)
                    if len(decoded) != info.records:
                        error = (
                            f"decoded {len(decoded)} records, "
                            f"index claims {info.records}"
                        )
                else:
                    reader._chunk_payload(info.index)
            except (TraceFormatError, TraceCodecError) as exc:
                error = str(exc)
            audit.chunks.append(
                ChunkAudit(
                    index=info.index,
                    records=info.records,
                    stored_len=info.stored_len,
                    error=error,
                )
            )
    return audit
