"""Trace-file tests: chunked round-trip, index integrity, corruption paths."""

import random
import struct

import pytest

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.trace.codec import ROW_BYTES, TraceCodecError
from repro.trace.tracefile import (
    DEFAULT_CHUNK_BYTES,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    verify_trace,
)
from repro.workloads.base import workload_names
from tests.trace.test_codec import _random_record


def _sample_records(count=500, seed=11):
    rng = random.Random(seed)
    return [_random_record(rng) for _ in range(count)]


def _write_trace(path, records, chunk_bytes=512, compress=True):
    with TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) as writer:
        writer.extend(records)
    return writer.stats


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
class TestRoundTrip:
    def test_records_survive_chunking(self, tmp_path, compress):
        records = _sample_records()
        path = tmp_path / "t.trace"
        stats = _write_trace(path, records, compress=compress)
        assert stats.chunks > 1  # small chunk_bytes forces multiple chunks
        with TraceReader(path) as reader:
            assert list(reader) == records
            assert reader.num_records == len(records)
            assert reader.num_chunks == stats.chunks

    def test_chunks_decode_independently_and_in_any_order(self, tmp_path, compress):
        records = _sample_records()
        path = tmp_path / "t.trace"
        _write_trace(path, records, compress=compress)
        with TraceReader(path) as reader:
            chunks = [reader.read_chunk(i) for i in reversed(range(reader.num_chunks))]
            recovered = [record for chunk in reversed(chunks) for record in chunk]
            assert recovered == records
            assert sum(info.records for info in reader.chunks) == len(records)

    def test_stats_roundtrip_through_index(self, tmp_path, compress):
        records = _sample_records()
        path = tmp_path / "t.trace"
        written = _write_trace(path, records, compress=compress)
        with TraceReader(path) as reader:
            assert reader.stats.records == written.records
            assert reader.stats.instructions == written.instructions
            assert reader.stats.annotations == written.annotations
            assert reader.stats.raw_bytes == written.raw_bytes
            assert reader.stats.stored_bytes == written.stored_bytes


class TestCompression:
    def test_zlib_shrinks_storage(self, tmp_path):
        # A loopy record stream is highly redundant; zlib must win, even in
        # 512-byte chunks of 16 rows each.
        records = [
            InstructionRecord(pc=0x1000 + 4 * (i % 16), event_type=EventType.MEM_TO_REG,
                              dest_reg=1, src_addr=0x0900_0000 + 4 * (i % 256),
                              size=4, is_load=True)
            for i in range(4000)
        ]
        raw = _write_trace(tmp_path / "raw.trace", records, compress=False)
        packed = _write_trace(tmp_path / "zlib.trace", records, compress=True)
        assert packed.stored_bytes < raw.stored_bytes
        assert packed.compression_ratio > 1.5
        # Fixed rows pay zlib's per-stream cost once per chunk: at the
        # default chunk size the loop stores well under two bytes a record.
        default = _write_trace(tmp_path / "default.trace", records,
                               chunk_bytes=DEFAULT_CHUNK_BYTES)
        assert default.bytes_per_record < 2.0


class TestErrorPaths:
    def test_missing_file_header(self, tmp_path):
        path = tmp_path / "short.trace"
        path.write_bytes(b"LBA")
        with pytest.raises(TraceFormatError, match="shorter than trace header"):
            TraceReader(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTTRACE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)

    def test_unclosed_writer_has_no_index(self, tmp_path):
        path = tmp_path / "open.trace"
        writer = TraceWriter(path, chunk_bytes=64)
        writer.extend(_sample_records(50))
        writer._file.flush()  # simulate a crash before close()
        with pytest.raises(TraceFormatError, match="missing index"):
            TraceReader(path)
        writer.close()
        with TraceReader(path) as reader:
            assert reader.num_records == 50

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "trunc.trace"
        _write_trace(path, _sample_records())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_corrupt_compressed_chunk(self, tmp_path):
        path = tmp_path / "corrupt.trace"
        _write_trace(path, _sample_records(), compress=True)
        with TraceReader(path) as reader:
            chunk = reader.chunks[1]
        data = bytearray(path.read_bytes())
        for i in range(chunk.offset, chunk.offset + chunk.stored_len):
            data[i] ^= 0xA5
        path.write_bytes(bytes(data))
        with TraceReader(path) as reader:
            reader.read_chunk(0)  # untouched chunk still reads fine
            with pytest.raises(TraceFormatError, match="chunk 1"):
                reader.read_chunk(1)

    def test_corrupt_raw_chunk(self, tmp_path):
        path = tmp_path / "corrupt_raw.trace"
        _write_trace(path, _sample_records(), compress=False)
        with TraceReader(path) as reader:
            chunk = reader.chunks[0]
        data = bytearray(path.read_bytes())
        for i in range(chunk.offset, chunk.offset + chunk.stored_len):
            data[i] = 0xFF
        path.write_bytes(bytes(data))
        with TraceReader(path) as reader:
            # The per-chunk CRC catches the damage before the codec runs.
            with pytest.raises(TraceFormatError, match="chunk 0 CRC mismatch"):
                reader.read_chunk(0)

    def test_index_offset_pointing_into_payload(self, tmp_path):
        path = tmp_path / "badidx.trace"
        _write_trace(path, _sample_records())
        data = bytearray(path.read_bytes())
        # Header layout: magic(8) version(2) flags(2) chunk_bytes(4) index_offset(8).
        struct.pack_into("<Q", data, 16, 17)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_chunk_index_out_of_range(self, tmp_path):
        path = tmp_path / "range.trace"
        _write_trace(path, _sample_records(20))
        with TraceReader(path) as reader:
            with pytest.raises(IndexError):
                reader.read_chunk(reader.num_chunks)

    def test_append_after_close_rejected(self, tmp_path):
        writer = TraceWriter(tmp_path / "closed.trace")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(AnnotationRecord(EventType.MALLOC, address=1, size=1))

    def test_a_record_that_fails_to_encode_leaves_nothing_behind(self, tmp_path):
        # Each bad record holds one value just outside its field's domain;
        # a writer that kept any byte of its row would shift every row
        # after it.
        bad = [
            InstructionRecord(pc=0x7000, event_type=EventType.REG_TO_MEM, src_reg=2,
                              dest_addr=0x0A00_0000, size=-1, is_store=True),
            InstructionRecord(pc=0x7100, event_type=EventType.MEM_TO_REG, dest_reg=3,
                              src_addr=0x0B00_0000, size=4, is_load=True, thread_id=-2),
            AnnotationRecord(EventType.MALLOC, address=0x0C00_0000, size=-5, pc=0x7200),
            InstructionRecord(pc=1 << 32, event_type=EventType.REG_TO_REG, dest_reg=1),
            InstructionRecord(pc=0x7300, event_type=EventType.REG_TO_MEM, src_reg=2,
                              dest_addr=-1, size=4, is_store=True),
            InstructionRecord(pc=0x7400, event_type=EventType.MEM_TO_REG, dest_reg=3,
                              src_addr=0x0B00_0000, size=1 << 32, is_load=True),
            InstructionRecord(pc=0x7500, event_type=EventType.REG_TO_REG, dest_reg=1,
                              src_reg=2, thread_id=1 << 16),
            InstructionRecord(pc=0x7600, event_type=EventType.IMM_TO_REG, dest_reg=1,
                              immediate=1 << 63),
            AnnotationRecord(EventType.PRINTF, pc=0x7700, payload=-(1 << 63) - 1),
        ]
        # Every other good record after the first four is an annotation,
        # so one lands between each pair of failing records.
        good = [
            AnnotationRecord(EventType.MALLOC, address=0x0D00_0000 + 64 * i, size=16,
                             pc=0x2000 + 8 * i)
            if i >= 4 and i % 2
            else InstructionRecord(pc=0x1000 + 8 * i, event_type=EventType.MEM_TO_REG,
                                   dest_reg=1, src_addr=0x0900_0000 + 64 * i, size=4,
                                   is_load=True)
            for i in range(4 + 2 * len(bad))
        ]
        annotations = sum(isinstance(record, AnnotationRecord) for record in good)
        assert annotations == len(bad)
        path = tmp_path / "skipped.trace"
        writer = TraceWriter(path, chunk_bytes=4096)
        writer.extend(good[:4])
        for i, record in enumerate(bad):
            with pytest.raises(TraceCodecError):
                writer.append(record)
            writer.extend(good[4 + 2 * i:6 + 2 * i])
        writer.close()
        assert verify_trace(path).ok
        assert writer.stats.records == len(good)
        assert writer.stats.annotations == annotations
        assert writer.stats.instructions == len(good) - annotations
        assert writer.stats.raw_bytes == len(good) * ROW_BYTES
        with TraceReader(path) as reader:
            assert list(reader) == good


@pytest.mark.parametrize("workload", workload_names() + workload_names(multithreaded=True))
def test_closed_writer_stats_equal_the_index_totals(tmp_path, workload):
    """The writer counts each chunk as it flushes it; closed, its stats are
    the index totals a reader sees."""
    path = tmp_path / f"{workload}.lbatrace"
    written = capture_trace(workload, path, scale=0.15, chunk_bytes=4096)
    with TraceReader(path) as reader:
        assert reader.num_chunks > 1
        assert written == reader.stats
        assert written.annotations == sum(
            isinstance(record, AnnotationRecord) for record in reader
        )


class TestRewrite:
    """A capture replaces any file at its path with a new file."""

    def test_open_reader_keeps_the_trace_a_rewrite_replaces(self, tmp_path):
        path = tmp_path / "op.lbatrace"
        fresh = tmp_path / "fresh.lbatrace"
        capture_trace("mcf", path, scale=0.5, chunk_bytes=4096)
        capture_trace("gzip", fresh, scale=0.5, chunk_bytes=4096)
        old_size = path.stat().st_size
        with TraceReader(path) as old:
            assert old.num_chunks > 1
            capture_trace("gzip", path, scale=0.5, chunk_bytes=4096)
            assert path.stat().st_size < old_size
            # read_chunk checks each chunk's CRC before decoding it.
            decoded = sum(len(old.read_chunk(index)) for index in range(old.num_chunks))
            assert decoded == old.num_records
        assert verify_trace(path).ok
        assert path.read_bytes() == fresh.read_bytes()

    def test_symlink_at_path_is_replaced_not_followed(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"not a trace")
        path = tmp_path / "link.lbatrace"
        path.symlink_to(target)
        records = _sample_records(50)
        _write_trace(path, records)
        assert not path.is_symlink()
        assert target.read_bytes() == b"not a trace"
        with TraceReader(path) as reader:
            assert list(reader) == records
