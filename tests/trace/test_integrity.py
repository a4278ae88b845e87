"""Trace-integrity property tests: damage is detected, never silent.

The invariant under test: a bit flip anywhere in a trace file -- chunk
payload, index entry region, or totals footer -- must surface as a
:class:`TraceFormatError` (strict) or an exact quarantine entry
(degrade), never as a silently wrong replay.  Also covers the version
check (only version-3 traces, fixed rows in byte planes with per-chunk
CRCs, are read), the ``python -m repro.trace verify`` audit command,
CRC-valid chunks that name a register the ISA does not have, and CRC-valid
zlib bombs, which every reader inflates only as far as the index allows.
"""

import bisect
import itertools
import json
import random
import struct
import tracemalloc
import zlib

import pytest

from repro.core.events import EventType, InstructionRecord
from repro.faultinject.corrupt import corrupt_byte, flip_chunk_bytes, truncate_trace
from repro.isa.machine import Machine
from repro.lifeguards import MemCheck, TaintCheck
from repro.trace import codec
from repro.trace.cli import main as trace_cli
from repro.trace.replay import ParallelReplay, replay_trace
from repro.trace.tracefile import (
    _HEADER,
    _INDEX_ENTRY,
    _INDEX_HEADER,
    _INDEX_TOTALS,
    _MAGIC,
    _VERSION,
    ROW_BYTES,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    repair_trace,
    verify_trace,
)
from repro.workloads import bugs
from tests.trace.test_codec import _random_record
from tests.trace.test_replay import capture


def _write_trace(path, count=500, seed=11, chunk_bytes=512, compress=True):
    rng = random.Random(seed)
    with TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) as writer:
        writer.extend(_random_record(rng) for _ in range(count))
    return writer.stats


def _index_offset(path):
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
    return _HEADER.unpack(header)[4]


class TestPayloadFlips:
    """Seeded bit flips inside chunk payloads are always caught."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("compress", [False, True], ids=["raw", "zlib"])
    def test_flipped_chunk_never_reads_silently(self, tmp_path, seed, compress):
        path = tmp_path / "t.trace"
        _write_trace(path, seed=seed, compress=compress)
        with TraceReader(path) as reader:
            chunk = random.Random(seed).randrange(reader.num_chunks)
        offsets = flip_chunk_bytes(path, chunk, seed=seed)
        assert offsets  # the helper actually changed bytes
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match=f"chunk {chunk} "):
                reader.read_chunk(chunk)
        audit = verify_trace(path)
        assert [bad.index for bad in audit.bad_chunks] == [chunk]
        assert not audit.ok

    def test_flip_is_deterministic(self, tmp_path):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        _write_trace(first)
        _write_trace(second)
        assert flip_chunk_bytes(first, 1, seed=9) == flip_chunk_bytes(second, 1, seed=9)

    def test_flipped_chunk_quarantined_under_degrade(self, tmp_path):
        """Replay of a damaged trace: strict raises, degrade accounts."""
        path, _ = capture(tmp_path, bugs.uninitialized_computation(), MemCheck())
        with TraceReader(path) as reader:
            chunk = reader.num_chunks // 2
            lost = reader.chunks[chunk].records
            total = reader.num_records
        flip_chunk_bytes(path, chunk, seed=5)
        with pytest.raises(TraceFormatError, match=f"chunk {chunk}"):
            replay_trace(path, MemCheck, quarantine="strict")
        degraded = replay_trace(path, MemCheck, quarantine="degrade")
        assert [c.chunk for c in degraded.skipped_chunks] == [chunk]
        assert degraded.skipped_chunks[0].reason == "corrupt"
        assert degraded.skipped_records == lost
        assert degraded.records == total - lost
        assert degraded.degraded


class TestForeignRegisterIds:
    """A CRC-valid chunk whose record names register 100 is a damaged chunk:
    ``verify`` reports it, strict replay names it, degrade quarantines it."""

    def _trace(self, tmp_path, monkeypatch):
        records = Machine(bugs.use_after_free()).trace()
        position = len(records) // 2
        records.insert(position, InstructionRecord(
            pc=records[position].pc, event_type=EventType.REG_TO_MEM, src_reg=100,
            dest_addr=0x0900_0000, size=4, is_store=True,
        ))
        path = tmp_path / "foreign.trace"
        # The writer of such a trace is not this codec: widen its register
        # bound while writing only.
        with monkeypatch.context() as patch:
            patch.setattr(codec, "NUM_GPRS", 128)
            with TraceWriter(path, chunk_bytes=128) as writer:
                writer.extend(records)
        with TraceReader(path) as reader:
            ends = list(itertools.accumulate(info.records for info in reader.chunks))
        chunk = bisect.bisect_right(ends, position)
        lost = ends[chunk] - (ends[chunk - 1] if chunk else 0)
        assert len(ends) > 2 and 0 < chunk < len(ends) - 1
        return str(path), chunk, lost, ends[-1]

    @pytest.mark.parametrize("lifeguard", [MemCheck, TaintCheck], ids=lambda cls: cls.name)
    def test_foreign_register_quarantines_its_chunk(self, tmp_path, monkeypatch, lifeguard):
        path, chunk, lost, total = self._trace(tmp_path, monkeypatch)
        assert [bad.index for bad in verify_trace(path).bad_chunks] == [chunk]
        with pytest.raises(TraceFormatError, match=f"chunk {chunk} corrupt: src_reg 100 "):
            replay_trace(path, lifeguard, quarantine="strict")
        sequential = replay_trace(path, lifeguard, quarantine="degrade")
        supervised = ParallelReplay(path, lifeguard, quarantine="degrade").run()
        for result in (sequential, supervised):
            assert [c.chunk for c in result.skipped_chunks] == [chunk]
            assert result.skipped_chunks[0].reason == "corrupt"
            assert result.skipped_records == lost
            assert result.records == total - lost


class TestIndexFlips:
    """Flips in the index entry region can never produce a clean audit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_index_entry_flip_detected(self, tmp_path, seed):
        path = tmp_path / "t.trace"
        _write_trace(path, seed=seed)
        index_offset = _index_offset(path)
        with TraceReader(path) as reader:
            num_chunks = reader.num_chunks
        entries_start = index_offset + _INDEX_HEADER.size
        entries_len = num_chunks * _INDEX_ENTRY.size
        offset = entries_start + random.Random(seed).randrange(entries_len)
        corrupt_byte(path, offset, xor=random.Random(seed).randint(1, 255))
        audit = verify_trace(path)
        assert not audit.ok

    def test_flipped_crc_field_blames_its_chunk(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_trace(path)
        index_offset = _index_offset(path)
        # Last u32 of entry 0 is its CRC field.
        crc_offset = index_offset + _INDEX_HEADER.size + _INDEX_ENTRY.size - 4
        corrupt_byte(path, crc_offset)
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match="chunk 0 CRC mismatch"):
                reader.read_chunk(0)

    def test_flipped_record_count_rejected_at_open(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_trace(path)
        index_offset = _index_offset(path)
        # The records u32 sits right before the CRC in entry 0.
        records_offset = index_offset + _INDEX_HEADER.size + _INDEX_ENTRY.size - 8
        corrupt_byte(path, records_offset)
        with pytest.raises(TraceFormatError, match="corrupt index"):
            TraceReader(path)


class TestTotalsFooterFlips:
    """Every byte of the totals footer is load-bearing: any flip rejects."""

    def test_any_footer_byte_flip_rejected_at_open(self, tmp_path):
        original = tmp_path / "good.trace"
        _write_trace(original)
        data = original.read_bytes()
        footer_start = len(data) - _INDEX_TOTALS.size
        for delta in range(_INDEX_TOTALS.size):
            path = tmp_path / f"footer{delta}.trace"
            path.write_bytes(data)
            corrupt_byte(path, footer_start + delta)
            with pytest.raises(TraceFormatError, match="index totals|inconsistent"):
                TraceReader(path)
            audit = verify_trace(path)
            assert audit.file_error is not None and not audit.ok

    def test_truncation_rejected_at_open(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_trace(path)
        truncate_trace(path, fraction=0.5)
        with pytest.raises(TraceFormatError):
            TraceReader(path)


class TestVersionCheck:
    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version_rejected(self, tmp_path, version):
        """Only version 3 is read: version 1 predates per-chunk CRCs, and
        version 2 stored varint/delta records."""
        path = tmp_path / "t.trace"
        _write_trace(path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 8, version)
        path.write_bytes(bytes(data))
        message = f"unsupported trace version {version}"
        with pytest.raises(TraceFormatError, match=message):
            TraceReader(path)
        audit = verify_trace(path)
        assert not audit.ok and message in audit.file_error
        repair = repair_trace(path)
        assert repair.action == "unrecoverable" and message in repair.detail


#: Raw bytes a CRC-valid bomb chunk inflates to: 256 MiB of zeros.
BOMB_RAW = 256 << 20
#: The tracemalloc peak any reader may reach on a bomb.
PEAK_LIMIT = 4 << 20


@pytest.fixture(scope="module")
def zlib_bomb():
    """One zlib stream of ``BOMB_RAW`` zero bytes, built a MiB at a time."""
    compressor = zlib.compressobj(9)
    block = bytes(1 << 20)
    stored = b"".join(compressor.compress(block) for _ in range(BOMB_RAW >> 20))
    return stored + compressor.flush()


def _bomb_trace(path, good_path, bomb, index=True):
    """``good_path``'s chunks followed by ``bomb``, whose index entry claims
    one row; with ``index=False`` the file ends after the chunk data."""
    with TraceReader(good_path) as reader:
        chunk_bytes = reader.chunk_bytes
        chunks = list(reader.chunks)
        stats = reader.stats
    blob = good_path.read_bytes()
    end = chunks[-1].offset + chunks[-1].stored_len
    data = bytearray(blob[:end]) + bomb
    entries = [(c.offset, c.stored_len, c.raw_len, c.records, c.crc) for c in chunks]
    entries.append((end, len(bomb), ROW_BYTES, 1, zlib.crc32(bomb) & 0xFFFFFFFF))
    index_offset = len(data) if index else 0
    if index:
        data += _INDEX_HEADER.pack(b"INDX", len(entries))
        for entry in entries:
            data += _INDEX_ENTRY.pack(*entry)
        data += _INDEX_TOTALS.pack(stats.records + 1, stats.instructions + 1,
                                   stats.annotations, stats.raw_bytes + ROW_BYTES)
    data[:_HEADER.size] = _HEADER.pack(_MAGIC, _VERSION, 1, chunk_bytes, index_offset)
    path.write_bytes(bytes(data))
    return len(chunks)


def _peak(fn):
    """``fn()`` and the tracemalloc peak it reached, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecompressionBound:
    """A CRC-valid chunk that inflates far past its index entry's
    ``raw_len`` is reported corrupt without ever being inflated whole."""

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.trace"
        _write_trace(path, count=100)
        return path

    def test_read_chunk_columns_stops_at_raw_len(self, tmp_path, good, zlib_bomb):
        path = tmp_path / "bomb.trace"
        bomb = _bomb_trace(path, good, zlib_bomb)

        def read():
            with TraceReader(path) as reader:
                with pytest.raises(TraceFormatError, match=f"chunk {bomb} corrupt: "
                                   f"zlib stream holds more than {ROW_BYTES} raw bytes"):
                    reader.read_chunk_columns(bomb)

        _, peak = _peak(read)
        assert peak < PEAK_LIMIT

    @pytest.mark.parametrize("decode", [False, True])
    def test_verify_reports_the_bomb_chunk(self, tmp_path, good, zlib_bomb, decode):
        path = tmp_path / "bomb.trace"
        bomb = _bomb_trace(path, good, zlib_bomb)
        audit, peak = _peak(lambda: verify_trace(path, decode=decode))
        assert [bad.index for bad in audit.bad_chunks] == [bomb]
        assert "holds more than" in audit.bad_chunks[0].error
        assert peak < PEAK_LIMIT

    @pytest.mark.parametrize("index", [True, False], ids=["index", "no-index"])
    def test_repair_drops_the_bomb_chunk(self, tmp_path, good, zlib_bomb, index):
        """With the index, repair validates each entry's chunk; without it,
        repair walks the zlib streams, each capped at the largest chunk
        the header's ``chunk_bytes`` allows."""
        path = tmp_path / "bomb.trace"
        bomb = _bomb_trace(path, good, zlib_bomb, index=index)
        repair, peak = _peak(lambda: repair_trace(path))
        assert repair.action == "repaired" and repair.kept_chunks == bomb
        assert peak < PEAK_LIMIT
        with TraceReader(path) as reader, TraceReader(good) as original:
            assert list(reader) == list(original)

    def test_entry_whose_raw_len_is_not_its_rows_fails_its_own_chunk(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_trace(path)
        data = bytearray(path.read_bytes())
        index_offset = _index_offset(path)
        # Entry 1: raw_len and records move together, so the totals still
        # agree, but raw_len is no longer records rows.
        entry = index_offset + _INDEX_HEADER.size + _INDEX_ENTRY.size
        offset, stored_len, raw_len, records, crc = _INDEX_ENTRY.unpack_from(data, entry)
        _INDEX_ENTRY.pack_into(data, entry, offset, stored_len, raw_len, records - 1, crc)
        totals = len(data) - _INDEX_TOTALS.size
        total, instructions, annotations, raw = _INDEX_TOTALS.unpack_from(data, totals)
        _INDEX_TOTALS.pack_into(data, totals, total - 1, instructions - 1, annotations, raw)
        path.write_bytes(bytes(data))
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match="chunk 1 corrupt: index claims"):
                reader.read_chunk_columns(1)
        assert [bad.index for bad in verify_trace(path).bad_chunks] == [1]


class TestVerifyCli:
    def test_clean_trace_passes(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        _write_trace(path)
        assert trace_cli(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "CRCs verified" in out

    def test_corrupt_trace_fails_and_names_chunk(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        _write_trace(path)
        flip_chunk_bytes(path, 1, seed=0)
        assert trace_cli(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "chunk 1" in out

    def test_json_output(self, tmp_path, capsys):
        good = tmp_path / "good.trace"
        bad = tmp_path / "bad.trace"
        _write_trace(good)
        _write_trace(bad)
        flip_chunk_bytes(bad, 0, seed=0)
        assert trace_cli(["verify", "--json", str(good), str(bad)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        documents = [json.loads(line) for line in lines]
        assert [doc["ok"] for doc in documents] == [True, False]
        assert documents[1]["bad_chunks"][0]["chunk"] == 0

    def test_no_decode_still_catches_crc_damage(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_trace(path)
        flip_chunk_bytes(path, 0, seed=0)
        assert trace_cli(["verify", "--no-decode", str(path)]) == 1

    def test_missing_file_reported(self, tmp_path, capsys):
        assert trace_cli(["verify", str(tmp_path / "nope.trace")]) == 1
        assert "FAIL" in capsys.readouterr().out
