"""Codec tests: lossless round-trip over every event type and record shape."""

import random

import pytest

from repro.core.events import (
    F_BASE_REG,
    F_DEST_REG,
    F_INDEX_REG,
    F_SRC_REG,
    AnnotationRecord,
    EventClass,
    EventType,
    InstructionRecord,
)
from repro.trace.codec import (
    RecordDecoder,
    RecordEncoder,
    TraceCodecError,
    _write_varint,
    decode_record_columns,
    decode_records,
    encode_records,
)

ANNOTATION_TYPES = [et for et in EventType if et.event_class is EventClass.RARE]
INSTRUCTION_TYPES = [et for et in EventType if et.event_class is not EventClass.RARE]


def roundtrip(records):
    data = encode_records(records)
    decoded = decode_records(data, expected_count=len(records))
    assert decoded == records
    # Re-encoding the decoded stream must reproduce identical bytes.
    assert encode_records(decoded) == data
    return data


class TestEveryEventType:
    @pytest.mark.parametrize("event_type", INSTRUCTION_TYPES, ids=lambda e: e.value)
    def test_instruction_type_roundtrip(self, event_type):
        roundtrip(
            [
                InstructionRecord(pc=0x8048000, event_type=event_type),
                InstructionRecord(
                    pc=0x8048004,
                    event_type=event_type,
                    dest_reg=3,
                    src_reg=5,
                    dest_addr=0x0900_0010,
                    src_addr=0x0900_0020,
                    size=4,
                    is_load=True,
                    is_store=True,
                    base_reg=6,
                    index_reg=7,
                    is_cond_test=True,
                    is_indirect_jump=True,
                    thread_id=1,
                    immediate=-42,
                ),
            ]
        )

    @pytest.mark.parametrize("event_type", ANNOTATION_TYPES, ids=lambda e: e.value)
    def test_annotation_type_roundtrip(self, event_type):
        roundtrip(
            [
                AnnotationRecord(event_type=event_type),
                AnnotationRecord(
                    event_type=event_type,
                    address=0x0A00_0000,
                    size=128,
                    thread_id=2,
                    pc=0x8048100,
                    payload=-9,
                ),
            ]
        )


class TestOneByteBoundaries:
    """Values either side of 0x80, where the encoder's inline one-byte path ends."""

    @pytest.mark.parametrize("delta", [0, 1, -1, 63, 64, -64, -65, 8191, 8192, -8192, -8193])
    def test_pc_and_address_deltas(self, delta):
        first, second = (
            InstructionRecord(
                pc=0x0804_8000 + step, event_type=EventType.MEM_TO_REG, dest_reg=0,
                src_addr=0x0900_0000 + step, size=4, is_load=True,
            )
            for step in (0, delta)
        )
        roundtrip([first, second])
        encoder = RecordEncoder()
        encoder.encode(first)
        zigzag = (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
        width = 1 if zigzag < 0x80 else 2 if zigzag < 0x4000 else 3
        # header, flags, dest_reg and size take a byte each, then two deltas
        assert len(encoder.encode(second)) == 4 + 2 * width

    @pytest.mark.parametrize("value", [1, 127, 128, 255, 16383, 16384])
    def test_register_ids_sizes_and_thread_ids(self, value):
        reg = value % 8  # register ids stay inside the ISA's eight
        roundtrip([
            InstructionRecord(
                pc=0, event_type=EventType.REG_TO_MEM, dest_reg=reg, src_reg=reg,
                dest_addr=0, size=value, is_store=True, base_reg=reg,
                index_reg=reg, thread_id=value,
            )
        ])

    def test_negative_field_is_a_codec_error(self):
        with pytest.raises(TraceCodecError):
            RecordEncoder().encode(
                InstructionRecord(pc=0, event_type=EventType.REG_TO_REG, dest_reg=-1)
            )


def _random_record(rng):
    if rng.random() < 0.1:
        return AnnotationRecord(
            event_type=rng.choice(ANNOTATION_TYPES),
            address=rng.randrange(0, 1 << 32) if rng.random() < 0.8 else None,
            size=rng.randrange(0, 1 << 16),
            thread_id=rng.randrange(0, 4),
            pc=rng.randrange(0, 1 << 32),
            payload=rng.randrange(-(1 << 31), 1 << 31) if rng.random() < 0.3 else None,
        )
    return InstructionRecord(
        pc=rng.randrange(0, 1 << 32),
        event_type=rng.choice(INSTRUCTION_TYPES),
        dest_reg=rng.randrange(0, 8) if rng.random() < 0.5 else None,
        src_reg=rng.randrange(0, 8) if rng.random() < 0.5 else None,
        dest_addr=rng.randrange(0, 1 << 32) if rng.random() < 0.4 else None,
        src_addr=rng.randrange(0, 1 << 32) if rng.random() < 0.4 else None,
        size=rng.choice([0, 1, 2, 4, 8]),
        is_load=rng.random() < 0.3,
        is_store=rng.random() < 0.3,
        base_reg=rng.randrange(0, 8) if rng.random() < 0.3 else None,
        index_reg=rng.randrange(0, 8) if rng.random() < 0.1 else None,
        is_cond_test=rng.random() < 0.1,
        is_indirect_jump=rng.random() < 0.05,
        thread_id=rng.randrange(0, 4),
        immediate=rng.randrange(-(1 << 31), 1 << 31) if rng.random() < 0.2 else None,
    )


class TestPropertyStyle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_roundtrip_byte_identically(self, seed):
        rng = random.Random(seed)
        records = [_random_record(rng) for _ in range(400)]
        roundtrip(records)

    def test_incremental_decode_matches_bulk(self):
        rng = random.Random(99)
        records = [_random_record(rng) for _ in range(100)]
        data = encode_records(records)
        decoder = RecordDecoder()
        offset = 0
        out = []
        while offset < len(data):
            record, offset = decoder.decode(data, offset)
            out.append(record)
        assert out == records


class TestBatchDecode:
    """``decode_columns``, the fast path, against the stepwise reference."""

    def test_decode_columns_matches_stepwise_decode(self):
        rng = random.Random(11)
        records = [_random_record(rng) for _ in range(300)]
        data = encode_records(records)

        stepwise_decoder = RecordDecoder()
        offset = 0
        stepwise = []
        while offset < len(data):
            record, offset = stepwise_decoder.decode(data, offset)
            stepwise.append(record)

        batch_decoder = RecordDecoder()
        columns, consumed = batch_decoder.decode_columns(data, len(records))
        assert columns.records() == stepwise == records
        assert consumed == len(data)
        assert (batch_decoder._last_pc, batch_decoder._last_addr) == (
            stepwise_decoder._last_pc, stepwise_decoder._last_addr
        )

    def test_decode_columns_continues_delta_state_between_calls(self):
        rng = random.Random(12)
        records = [_random_record(rng) for _ in range(60)]
        data = encode_records(records)
        decoder = RecordDecoder()
        first, offset = decoder.decode_columns(data, 25)
        rest, _ = decoder.decode_columns(data[offset:], 35)
        assert first.records() + rest.records() == records

    def test_decode_columns_count_stops_early(self):
        rng = random.Random(13)
        records = [_random_record(rng) for _ in range(40)]
        data = encode_records(records)
        out, consumed = RecordDecoder().decode_columns(data, 10)
        assert out.records() == records[:10]
        assert consumed < len(data)

    def test_decode_columns_truncated_buffer_raises(self):
        rng = random.Random(14)
        records = [_random_record(rng) for _ in range(20)]
        data = encode_records(records)
        with pytest.raises(TraceCodecError):
            RecordDecoder().decode_columns(data[: len(data) - 1], len(records))


class TestDeltaState:
    def test_reset_restarts_delta_chains(self):
        record = InstructionRecord(pc=0x1000, event_type=EventType.REG_TO_REG, dest_reg=1)
        encoder = RecordEncoder()
        first = encoder.encode(record)
        encoder.reset()
        assert encoder.encode(record) == first

    def test_chunked_streams_decode_independently(self):
        rng = random.Random(3)
        chunk_a = [_random_record(rng) for _ in range(50)]
        chunk_b = [_random_record(rng) for _ in range(50)]
        # Encoded separately (fresh encoder each), decoded separately.
        assert decode_records(encode_records(chunk_b), expected_count=50) == chunk_b
        assert decode_records(encode_records(chunk_a), expected_count=50) == chunk_a


#: The four register fields in wire order, with their presence bits.
REGISTER_FIELDS = (
    ("dest_reg", F_DEST_REG),
    ("src_reg", F_SRC_REG),
    ("base_reg", F_BASE_REG),
    ("index_reg", F_INDEX_REG),
)


def _registers_record_bytes(field, raw):
    """One instruction record naming a register in all four fields, written
    by hand: ``raw`` (the varint bytes) in ``field``, register 1 elsewhere."""
    out = bytearray()
    _write_varint(out, EventType.REG_TO_REG.ordinal << 1)
    _write_varint(out, F_DEST_REG | F_SRC_REG | F_BASE_REG | F_INDEX_REG)
    _write_varint(out, 0)  # pc delta
    for name, _bit in REGISTER_FIELDS:
        out += raw if name == field else b"\x01"
    return bytes(out)


def _varint(value):
    out = bytearray()
    _write_varint(out, value)
    return bytes(out)


class TestRegisterIds:
    """Register ids name one of the ISA's eight registers, or the record is
    rejected: on encode and by both decoders."""

    @pytest.mark.parametrize("field", [name for name, _bit in REGISTER_FIELDS])
    @pytest.mark.parametrize("reg", [8, 127, 128, 16384])
    def test_foreign_register_id_is_a_codec_error(self, field, reg):
        with pytest.raises(TraceCodecError, match=field):
            RecordEncoder().encode(
                InstructionRecord(pc=0, event_type=EventType.REG_TO_REG, **{field: reg})
            )
        data = _registers_record_bytes(field, _varint(reg))
        with pytest.raises(TraceCodecError, match=f"{field} {reg} "):
            decode_records(data, expected_count=1)
        with pytest.raises(TraceCodecError, match=f"{field} {reg} "):
            decode_record_columns(data, 1)

    @pytest.mark.parametrize("field", [name for name, _bit in REGISTER_FIELDS])
    def test_hand_written_registers_decode_alike(self, field):
        """Register 7, and register 1 as a two-byte varint, decode to the
        same record in both decoders."""
        for raw, reg in ((b"\x07", 7), (b"\x81\x00", 1)):
            data = _registers_record_bytes(field, raw)
            records = decode_records(data, expected_count=1)
            assert getattr(records[0], field) == reg
            assert decode_record_columns(data, 1).records() == records


class TestErrorPaths:
    def test_truncated_stream_raises(self):
        data = encode_records(
            [InstructionRecord(pc=0x1000, event_type=EventType.MEM_TO_REG,
                               dest_reg=1, src_addr=0x900000, size=4, is_load=True)]
        )
        with pytest.raises(TraceCodecError):
            decode_records(data[:-1], expected_count=1)

    def test_unknown_wire_id_raises(self):
        with pytest.raises(TraceCodecError):
            decode_records(b"\xff\x7f\x00\x00", expected_count=1)

    def test_trailing_garbage_raises_with_expected_count(self):
        data = encode_records([AnnotationRecord(EventType.MALLOC, address=16, size=4)])
        with pytest.raises(TraceCodecError):
            decode_records(data + b"\x00\x00", expected_count=1)

    def test_unbounded_varint_raises(self):
        with pytest.raises(TraceCodecError):
            decode_records(b"\x80" * 12, expected_count=1)
