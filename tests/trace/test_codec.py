"""Codec tests: lossless round-trip over every event type and record shape."""

import random

import pytest

from repro.core.events import (
    EVENT_TYPES,
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
    ROW,
    ROW_BYTES,
    RecordEncoder,
    TraceCodecError,
    decode_record_columns,
    decode_records,
    encode_records,
)

ANNOTATION_TYPES = [et for et in EventType if et.event_class is EventClass.RARE]
INSTRUCTION_TYPES = [et for et in EventType if et.event_class is not EventClass.RARE]


def roundtrip(records):
    data = encode_records(records)
    assert len(data) == ROW_BYTES * len(records)
    decoded = decode_records(data, expected_count=len(records))
    assert decoded == records
    assert decode_record_columns(data, len(records)).records() == records
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
    """Values either side of one-byte boundaries: every record is one row of
    ``ROW_BYTES``, whatever its values and whatever record came before."""

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
        assert encoder.encode(first) == RecordEncoder().encode(first)
        assert len(encoder.encode(second)) == ROW_BYTES
        # A row holds the absolute pc and address, little-endian.
        row = ROW.unpack(encoder.encode(second))
        assert (row[3], row[5]) == (second.pc, second.src_addr)

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
        """Row ``i`` of a payload is every ``n``-th byte from ``i``, and a
        one-row payload is the row itself: rows decode one at a time to
        what the whole payload decodes to."""
        rng = random.Random(99)
        records = [_random_record(rng) for _ in range(100)]
        data = encode_records(records)
        out = [decode_records(data[row::len(records)], 1)[0] for row in range(len(records))]
        assert out == decode_records(data, len(records)) == records
        assert [RecordEncoder().encode(record) for record in records] == [
            data[row::len(records)] for row in range(len(records))
        ]


class TestBatchDecode:
    """``decode_record_columns``, the fast path, against the reference."""

    def test_decode_columns_matches_stepwise_decode(self):
        rng = random.Random(11)
        records = [_random_record(rng) for _ in range(300)]
        data = encode_records(records)
        columns = decode_record_columns(data, len(records))
        assert columns.n == len(records)
        assert columns.records() == decode_records(data, len(records)) == records

    def test_decode_columns_count_must_match_rows(self):
        """The count fixes the planes' length: a payload of 40 rows read
        as any other count is an error in both decoders, never a prefix."""
        rng = random.Random(13)
        data = encode_records([_random_record(rng) for _ in range(40)])
        for count in (0, 10, 39, 41):
            with pytest.raises(TraceCodecError, match="does not hold"):
                decode_record_columns(data, count)
            with pytest.raises(TraceCodecError, match="does not hold"):
                decode_records(data, count)

    def test_decode_columns_truncated_buffer_raises(self):
        rng = random.Random(14)
        records = [_random_record(rng) for _ in range(20)]
        data = encode_records(records)
        with pytest.raises(TraceCodecError):
            decode_record_columns(data[: len(data) - 1], len(records))


class TestDeltaState:
    """Rows hold absolute values: no state crosses records or chunks."""

    def test_chunked_streams_decode_independently(self):
        rng = random.Random(3)
        chunk_a = [_random_record(rng) for _ in range(50)]
        chunk_b = [_random_record(rng) for _ in range(50)]
        # Encoded separately (fresh encoder each), decoded separately.
        assert decode_records(encode_records(chunk_b), expected_count=50) == chunk_b
        assert decode_records(encode_records(chunk_a), expected_count=50) == chunk_a


#: The four register fields in row order, with their presence bits.
REGISTER_FIELDS = (
    ("dest_reg", F_DEST_REG),
    ("src_reg", F_SRC_REG),
    ("base_reg", F_BASE_REG),
    ("index_reg", F_INDEX_REG),
)
#: A row's fields in order.
ROW_FIELDS = (
    "kind", "ordinal", "flags", "pc", "dest_addr", "src_addr", "dest_reg",
    "src_reg", "base_reg", "index_reg", "size", "thread_id", "immediate",
)


def _row(**fields):
    """One row packed by hand (a one-row payload is the row itself): a
    ``reg_to_reg`` instruction naming register 1 in all four register
    fields, with ``fields`` overriding any row field."""
    values = dict.fromkeys(ROW_FIELDS, 0)
    values.update(
        ordinal=EventType.REG_TO_REG.ordinal,
        flags=F_DEST_REG | F_SRC_REG | F_BASE_REG | F_INDEX_REG,
        dest_reg=1, src_reg=1, base_reg=1, index_reg=1,
    )
    values.update(fields)
    return ROW.pack(*(values[name] for name in ROW_FIELDS))


def _both_decoders_raise(data, match):
    with pytest.raises(TraceCodecError, match=match):
        decode_records(data, expected_count=1)
    with pytest.raises(TraceCodecError, match=match):
        decode_record_columns(data, 1)


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
        # A row holds one byte per register: the largest foreign id a
        # decoder can meet is 255.
        byte = min(reg, 0xFF)
        _both_decoders_raise(_row(**{field: byte}), f"{field} {byte} ")

    @pytest.mark.parametrize("field", [name for name, _bit in REGISTER_FIELDS])
    def test_hand_written_registers_decode_alike(self, field):
        """Register 7 decodes to the same record in both decoders, and so
        does the byte of an absent register, which the record leaves out."""
        data = _row(**{field: 7})
        records = decode_records(data, expected_count=1)
        assert getattr(records[0], field) == 7
        assert decode_record_columns(data, 1).records() == records
        bit = dict(REGISTER_FIELDS)[field]
        absent = _row(**{field: 7, "flags": (F_DEST_REG | F_SRC_REG | F_BASE_REG
                                             | F_INDEX_REG) & ~bit})
        records = decode_records(absent, expected_count=1)
        assert getattr(records[0], field) is None
        assert decode_record_columns(absent, 1).records() == records

    @pytest.mark.parametrize("field", [name for name, _bit in REGISTER_FIELDS])
    def test_absent_register_byte_is_checked_too(self, field):
        """Every register byte is below ``NUM_GPRS``, present or not, so
        the fast path checks a plane's maximum instead of each row's flags."""
        _both_decoders_raise(_row(**{field: 8, "flags": 0}), f"{field} 8 ")
        _both_decoders_raise(_row(kind=1, flags=0, **{field: 200}), f"{field} 200 ")


class TestErrorPaths:
    def test_truncated_stream_raises(self):
        data = encode_records(
            [InstructionRecord(pc=0x1000, event_type=EventType.MEM_TO_REG,
                               dest_reg=1, src_addr=0x900000, size=4, is_load=True)]
        )
        with pytest.raises(TraceCodecError):
            decode_records(data[:-1], expected_count=1)

    def test_unknown_wire_id_raises(self):
        _both_decoders_raise(_row(ordinal=len(EVENT_TYPES)), f"ordinal {len(EVENT_TYPES)}")
        _both_decoders_raise(_row(ordinal=0xFF), "ordinal 255")

    def test_unknown_row_kind_raises(self):
        _both_decoders_raise(_row(kind=2), "kind 2")

    def test_trailing_garbage_raises_with_expected_count(self):
        data = encode_records([AnnotationRecord(EventType.MALLOC, address=16, size=4)])
        with pytest.raises(TraceCodecError):
            decode_records(data + b"\x00\x00", expected_count=1)
