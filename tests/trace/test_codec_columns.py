"""Columnar decode: structure-of-arrays equivalence with the reference decoder."""

import random

import pytest

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.trace.codec import (
    RecordColumns,
    RecordDecoder,
    RecordEncoder,
    TraceCodecError,
    decode_record_columns,
    decode_records,
    encode_records,
)
from repro.trace.tracefile import TraceReader
from repro.workloads.base import workload_names


def _random_records(seed, count=400):
    rng = random.Random(seed)
    event_types = [
        EventType.MEM_TO_REG, EventType.REG_TO_MEM, EventType.REG_SELF,
        EventType.CONTROL, EventType.COND_TEST, EventType.IMM_TO_MEM,
        EventType.DEST_REG_OP_REG, EventType.OTHER,
    ]
    records = []
    pc = 0x0804_8000
    for _ in range(count):
        if rng.random() < 0.05:
            records.append(
                AnnotationRecord(
                    event_type=rng.choice([EventType.MALLOC, EventType.FREE, EventType.LOCK]),
                    address=rng.randrange(0, 1 << 32) if rng.random() < 0.8 else None,
                    size=rng.randrange(0, 4096),
                    thread_id=rng.randrange(0, 4),
                    pc=pc,
                    payload=rng.randrange(-1000, 1000) if rng.random() < 0.3 else None,
                )
            )
            continue
        pc += rng.choice([2, 4, 6, -8, 1024])
        records.append(
            InstructionRecord(
                pc=pc,
                event_type=rng.choice(event_types),
                dest_reg=rng.randrange(0, 8) if rng.random() < 0.6 else None,
                src_reg=rng.randrange(0, 8) if rng.random() < 0.5 else None,
                dest_addr=rng.randrange(0, 1 << 32) if rng.random() < 0.4 else None,
                src_addr=rng.randrange(0, 1 << 32) if rng.random() < 0.4 else None,
                size=rng.choice([0, 1, 2, 4, 8]),
                is_load=rng.random() < 0.3,
                is_store=rng.random() < 0.3,
                base_reg=rng.randrange(0, 8) if rng.random() < 0.3 else None,
                index_reg=rng.randrange(0, 8) if rng.random() < 0.2 else None,
                is_cond_test=rng.random() < 0.1,
                is_indirect_jump=rng.random() < 0.05,
                thread_id=rng.randrange(0, 4),
                immediate=rng.randrange(-1 << 31, 1 << 31) if rng.random() < 0.2 else None,
            )
        )
    return records


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_decode_columns_matches_object_decode(seed):
    records = _random_records(seed)
    data = encode_records(records)
    columns = decode_record_columns(data, len(records))
    assert columns.n == len(records)
    assert columns.records() == decode_records(data, len(records)) == records


@pytest.mark.parametrize("seed", [3, 9])
def test_run_table_partitions_rows_with_uniform_keys(seed):
    records = _random_records(seed)
    columns = decode_record_columns(encode_records(records), len(records))
    covered = 0
    for start, stop, ordinal, flags in columns.runs:
        assert start == covered and stop > start
        covered = stop
        for row in range(start, stop):
            if ordinal < 0:
                assert columns.kind[row] == 1
            else:
                assert columns.kind[row] == 0
                assert columns.ordinal[row] == ordinal
                assert columns.flags[row] == flags
    assert covered == columns.n


def test_run_table_groups_equal_keys_maximally():
    records = [
        InstructionRecord(pc=4 * i, event_type=EventType.REG_SELF, dest_reg=1)
        for i in range(5)
    ]
    columns = decode_record_columns(encode_records(records), len(records))
    assert len(columns.runs) == 1
    start, stop, ordinal, _flags = columns.runs[0]
    assert (start, stop, ordinal) == (0, 5, EventType.REG_SELF.ordinal)


def test_from_records_round_trips_and_builds_runs():
    records = _random_records(11, count=120)
    columns = RecordColumns.from_records(records)
    assert columns.records() == records
    assert columns.runs and columns.runs[-1][1] == len(records)
    # decoded and flattened runs agree
    decoded = decode_record_columns(encode_records(records), len(records))
    assert decoded.runs == columns.runs


def test_decode_columns_accepts_memoryview():
    records = _random_records(5, count=60)
    data = encode_records(records)
    columns = decode_record_columns(memoryview(data), len(records))
    assert columns.records() == records


def test_encode_into_matches_encode():
    records = _random_records(13, count=80)
    encoder_a = RecordEncoder()
    encoder_b = RecordEncoder()
    buffer = bytearray()
    for record in records:
        expected = encoder_a.encode(record)
        written = encoder_b.encode_into(buffer, record)
        assert written == len(expected)
        assert bytes(buffer[-written:]) == expected


def test_decode_columns_trailing_bytes_rejected():
    records = _random_records(17, count=10)
    data = encode_records(records) + b"\x00"
    with pytest.raises(TraceCodecError):
        decode_record_columns(data, len(records))


def _committed_state(data, cut):
    """The stepwise reference's delta state after the last record that ends
    within ``data[:cut]``: where a ``decode`` loop that stops at the cut
    stands."""
    decoder = RecordDecoder()
    state = (decoder._last_pc, decoder._last_addr)
    offset = 0
    while offset < len(data):
        _record, offset = decoder.decode(data, offset)
        if offset > cut:
            break
        state = (decoder._last_pc, decoder._last_addr)
    return state


def test_decode_columns_truncated_stream_rejected_and_state_committed():
    records = _random_records(19, count=20)
    data = encode_records(records)
    cut = len(data) // 2
    decoder = RecordDecoder()
    with pytest.raises(TraceCodecError):
        decoder.decode_columns(data[:cut], len(records))
    # the delta state stopped at the last fully decoded record, exactly
    # where a stepwise decode loop stands
    assert (decoder._last_pc, decoder._last_addr) == _committed_state(data, cut)


def test_decode_columns_truncated_after_annotation_commits_reference_state():
    """An annotation row hands the delta state to the reference decoder and
    back; a cut after it still leaves the state of the last full record."""
    records = [
        InstructionRecord(
            pc=0x0804_8000, event_type=EventType.MEM_TO_REG, dest_reg=1,
            src_addr=0x0900_0000, size=4, is_load=True,
        ),
        AnnotationRecord(
            event_type=EventType.MALLOC, address=0x0A00_0000, size=64, pc=0x0804_8010,
        ),
    ] + [
        InstructionRecord(
            pc=0x0804_8014 + 4 * i, event_type=EventType.REG_TO_MEM, src_reg=2,
            dest_addr=0x0A00_0000 + 4 * i, size=4, is_store=True,
        )
        for i in range(8)
    ]
    data = encode_records(records)
    # The last record ends with its size byte: its pc and address deltas
    # decode before the cut stops it.
    cut = len(data) - 1
    decoder = RecordDecoder()
    with pytest.raises(TraceCodecError):
        decoder.decode_columns(data[:cut], len(records))
    expected = (records[-2].pc, records[-2].dest_addr)
    assert _committed_state(data, cut) == expected
    assert (decoder._last_pc, decoder._last_addr) == expected


def test_decode_columns_matches_reference_on_every_workload_chunk(tmp_path):
    """Every chunk of every registered workload, captured at scale 0.5 in
    4 KiB chunks, decodes to the same records through both decoders."""
    for name in workload_names() + workload_names(multithreaded=True):
        path = tmp_path / f"{name}.lbatrace"
        capture_trace(name, path, scale=0.5, chunk_bytes=4 * 1024)
        with TraceReader(path) as reader:
            for info in reader.chunks:
                raw = reader._chunk_payload(info.index)
                assert (
                    decode_record_columns(raw, info.records).records()
                    == decode_records(raw, info.records)
                ), (name, info.index)
