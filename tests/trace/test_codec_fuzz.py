"""Seeded fuzz round-trips and corruption injection for the trace codec.

Boundary cases the deterministic codec tests do not reach: zero-length
annotation payloads, the ends of every field's domain, descending access
patterns, and chunk boundaries interacting with record boundaries.
Corruption injection asserts the decode side fails with a clean
:class:`TraceCodecError` / :class:`TraceFormatError` -- never an
``IndexError``/``struct.error`` leaking out of the decoders -- instead of
silently misdecoding.
"""

import random

import pytest

from repro.core.events import EVENT_TYPES, AnnotationRecord, EventType, InstructionRecord
from repro.trace.codec import (
    ROW_BYTES,
    RecordEncoder,
    TraceCodecError,
    decode_records,
    encode_records,
)
from repro.trace.tracefile import TraceFormatError, TraceReader, TraceWriter

#: Event types usable in instruction records (annotation types excluded).
_INSTRUCTION_TYPES = [t for t in EVENT_TYPES if not t.is_rare]
_ANNOTATION_TYPES = [t for t in EVENT_TYPES if t.is_rare]

#: Field domains: pc, addresses and sizes are unsigned 32-bit, immediates
#: and payloads signed 64-bit.
U32 = 1 << 32
I64 = 1 << 63


def _random_instruction(rng: random.Random, pc: int, addr: int) -> InstructionRecord:
    return InstructionRecord(
        pc=pc,
        event_type=rng.choice(_INSTRUCTION_TYPES),
        dest_reg=rng.choice([None, rng.randrange(8)]),
        src_reg=rng.choice([None, rng.randrange(8)]),
        dest_addr=rng.choice([None, addr]),
        src_addr=rng.choice([None, addr ^ rng.randrange(1 << 16)]),
        size=rng.choice([0, 1, 2, 4, 8]),
        is_load=rng.random() < 0.5,
        is_store=rng.random() < 0.5,
        base_reg=rng.choice([None, rng.randrange(8)]),
        index_reg=rng.choice([None, rng.randrange(8)]),
        is_cond_test=rng.random() < 0.1,
        is_indirect_jump=rng.random() < 0.1,
        thread_id=rng.randrange(4),
        immediate=rng.choice([None, 0, -1, rng.randrange(-I64, I64)]),
    )


def _random_annotation(rng: random.Random, addr: int) -> AnnotationRecord:
    return AnnotationRecord(
        event_type=rng.choice(_ANNOTATION_TYPES),
        address=rng.choice([None, addr]),
        size=rng.choice([0, 0, 1, 4096]),          # zero-length payloads common
        thread_id=rng.randrange(4),
        pc=rng.choice([0, rng.randrange(U32)]),
        payload=rng.choice([None, 0, -1, rng.randrange(-I64, I64)]),
    )


def _fuzz_stream(seed: int, count: int = 400):
    """A seeded stream mixing wild PCs/addresses, forward and backward."""
    rng = random.Random(seed)
    records = []
    pc = rng.randrange(U32)
    addr = rng.randrange(U32)
    for _ in range(count):
        # Steps wander in both directions, occasionally across the whole
        # 32-bit space.
        pc = (pc + rng.choice([4, 4, -4, rng.randrange(-U32, U32)])) % U32
        addr = (addr + rng.choice([4, 8, -4, -64, rng.randrange(-U32, U32)])) % U32
        if rng.random() < 0.15:
            records.append(_random_annotation(rng, addr))
        else:
            records.append(_random_instruction(rng, pc, addr))
    return records


class TestFuzzRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_stream_round_trips_losslessly(self, seed):
        records = _fuzz_stream(seed)
        data = encode_records(records)
        assert decode_records(data, expected_count=len(records)) == records
        # Re-encoding the decoded stream reproduces the identical bytes.
        assert encode_records(decode_records(data)) == data

    @pytest.mark.parametrize("seed", range(4))
    def test_per_record_decode_matches_batch(self, seed):
        """Each record's own row decodes to what the whole payload does."""
        records = _fuzz_stream(seed, count=150)
        data = encode_records(records)
        encoder = RecordEncoder()
        out = [decode_records(encoder.encode(record), 1)[0] for record in records]
        assert out == decode_records(data, len(records)) == records

    def test_zero_length_annotation_payloads(self):
        records = [
            AnnotationRecord(EventType.MALLOC, address=0x1000, size=0),
            AnnotationRecord(EventType.PRINTF, payload=0),
            AnnotationRecord(EventType.SYSCALL_OTHER),
            AnnotationRecord(EventType.FREE, address=0x1000, size=0, payload=None),
        ]
        data = encode_records(records)
        assert decode_records(data, expected_count=len(records)) == records

    def test_domain_extremes_round_trip(self):
        records = [
            InstructionRecord(pc=U32 - 1, event_type=EventType.IMM_TO_REG, immediate=-I64),
            InstructionRecord(pc=0, event_type=EventType.IMM_TO_MEM, dest_addr=U32 - 1,
                              size=U32 - 1, is_store=True, thread_id=(1 << 16) - 1,
                              immediate=I64 - 1),
            InstructionRecord(pc=0, event_type=EventType.MEM_TO_REG,
                              src_addr=U32 - 1, size=4, is_load=True),
            AnnotationRecord(EventType.MALLOC, address=0, size=U32 - 1, payload=I64 - 1),
            AnnotationRecord(EventType.FREE, address=U32 - 1, thread_id=(1 << 16) - 1,
                             pc=U32 - 1, payload=-I64),
        ]
        data = encode_records(records)
        assert decode_records(data, expected_count=len(records)) == records

    def test_backwards_address_deltas(self):
        # Strictly descending addresses: every delta is negative.
        records = [
            InstructionRecord(pc=0x1000 + 4 * i, event_type=EventType.REG_TO_MEM,
                              dest_addr=0x9000_0000 - 64 * i, size=4, is_store=True)
            for i in range(200)
        ]
        data = encode_records(records)
        assert decode_records(data, expected_count=len(records)) == records


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk_bytes", [1, 5, 23, 64])
    def test_chunks_never_split_a_record(self, tmp_path, chunk_bytes, seed=3):
        """Chunks close only at record boundaries, even absurdly small ones.

        With ``chunk_bytes=1`` every record lands in its own chunk; odd
        sizes land the close threshold mid-row, which must defer the
        boundary to the end of that row.  Every chunk must decode on its
        own and the concatenation must reproduce the stream.
        """
        records = _fuzz_stream(seed, count=120)
        path = tmp_path / f"chunks{chunk_bytes}.lbatrace"
        with TraceWriter(path, chunk_bytes=chunk_bytes, compress=False) as writer:
            writer.extend(records)
        with TraceReader(path) as reader:
            assert sum(chunk.records for chunk in reader.chunks) == len(records)
            assert all(chunk.raw_len == chunk.records * ROW_BYTES for chunk in reader.chunks)
            out = []
            for index in range(reader.num_chunks):
                out.extend(reader.read_chunk(index))
        assert out == records

    def test_single_byte_chunks_are_one_record_each(self, tmp_path):
        records = _fuzz_stream(7, count=40)
        path = tmp_path / "tiny.lbatrace"
        with TraceWriter(path, chunk_bytes=1, compress=False) as writer:
            writer.extend(records)
        with TraceReader(path) as reader:
            assert reader.num_chunks == len(records)
            assert all(chunk.records == 1 for chunk in reader.chunks)


def _live_bytes(record):
    """The row offsets whose bytes ``record``'s decode reads: every byte but
    those of absent address and immediate/payload fields (and, in an
    annotation row, the unused high byte of ``flags`` and ``src_addr``)."""
    live = set(range(ROW_BYTES)) - set(range(8, 16)) - set(range(26, 34))
    if isinstance(record, AnnotationRecord):
        live.discard(3)
        present = {8: record.address, 26: record.payload}
    else:
        present = {8: record.dest_addr, 12: record.src_addr, 26: record.immediate}
    for start, value in present.items():
        if value is not None:
            live.update(range(start, start + (8 if start == 26 else 4)))
    return live


class TestCorruptionInjection:
    def test_every_single_byte_flip_fails_cleanly_or_differs(self):
        """Raw-codec corruption: clean ``TraceCodecError`` or a changed decode.

        A flipped byte cannot crash the decoder with anything but
        :class:`TraceCodecError`; a flip that still decodes to the original
        records must have hit a byte no field of its row uses (an absent
        address or immediate), which the chunk CRC guards in a trace file.
        """
        records = _fuzz_stream(11, count=60)
        data = bytearray(encode_records(records))
        count = len(records)
        for position in range(len(data)):
            corrupt = bytes(
                data[:position] + bytes([data[position] ^ 0x41]) + data[position + 1:]
            )
            try:
                decoded = decode_records(corrupt, expected_count=count)
            except TraceCodecError:
                continue
            row, offset = position % count, position // count
            if decoded == records:
                assert offset not in _live_bytes(records[row]), (
                    f"silent identical decode at byte {position}"
                )

    def test_truncation_raises_codec_error(self):
        records = _fuzz_stream(13, count=30)
        data = encode_records(records)
        for cut in (1, len(data) // 2, len(data) - 1):
            with pytest.raises(TraceCodecError):
                decode_records(data[:cut], expected_count=len(records))

    def test_unknown_wire_id_raises(self):
        bad = bytearray(encode_records([AnnotationRecord(EventType.MALLOC, address=4)]))
        bad[1] = len(EVENT_TYPES)      # ordinal byte past the taxonomy
        with pytest.raises(TraceCodecError, match="ordinal"):
            decode_records(bytes(bad))

    @pytest.mark.parametrize("compress", [True, False])
    def test_trace_file_payload_corruption(self, tmp_path, compress):
        """Stored-chunk corruption surfaces as TraceFormatError on read."""
        records = _fuzz_stream(17, count=200)
        path = tmp_path / "corrupt.lbatrace"
        with TraceWriter(path, chunk_bytes=512, compress=compress) as writer:
            writer.extend(records)
        clean = path.read_bytes()
        with TraceReader(path) as reader:
            first = reader.chunks[0]
        rng = random.Random(19)
        flips = 0
        caught = 0
        for _ in range(32):
            position = first.offset + rng.randrange(first.stored_len)
            corrupted = bytearray(clean)
            corrupted[position] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with TraceReader(path) as reader:
                flips += 1
                try:
                    decoded = reader.read_chunk(0)
                except TraceFormatError:
                    caught += 1
                else:
                    # zlib's checksum misses nothing; uncompressed chunks
                    # may still parse, but never silently identically.
                    assert not compress
                    assert decoded != records[: first.records]
        assert flips == 32
        if compress:
            assert caught == flips
