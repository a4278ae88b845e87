"""Columnar decode: structure-of-arrays equivalence with the reference decoder."""

import random

import pytest

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.isa.machine import Machine
from repro.trace.codec import (
    RecordColumns,
    RecordEncoder,
    TraceCodecError,
    decode_record_columns,
    decode_records,
    encode_records,
)
from repro.trace.tracefile import TraceReader, TraceWriter
from repro.workloads import bugs
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


def test_decode_columns_truncated_payload_rejected():
    records = _random_records(19, count=20)
    data = encode_records(records)
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises(TraceCodecError):
            decode_record_columns(data[:cut], len(records))
        with pytest.raises(TraceCodecError):
            decode_records(data[:cut], len(records))


def test_decoders_agree_on_every_single_byte_flip(tmp_path):
    """A small real chunk holding an annotation row, every byte flipped in
    turn (and every low bit): the fast path yields the reference's
    records, or both decoders raise :class:`TraceCodecError`."""
    path = tmp_path / "uaf.lbatrace"
    with TraceWriter(path, chunk_bytes=1024, compress=False) as writer:
        writer.extend(Machine(bugs.use_after_free()).trace())
    with TraceReader(path) as reader:
        payload, count = next(
            (bytes(reader._chunk_payload(info.index)), info.records)
            for info in reader.chunks
            if any(isinstance(r, AnnotationRecord) for r in reader.read_chunk(info.index))
        )
    assert decode_record_columns(payload, count).records() == decode_records(payload, count)
    outcomes = {"equal": 0, "raised": 0}
    for position in range(len(payload)):
        for mask in (0xFF, 0x01):
            damaged = bytearray(payload)
            damaged[position] ^= mask
            try:
                reference = decode_records(damaged, count)
            except TraceCodecError:
                with pytest.raises(TraceCodecError):
                    decode_record_columns(damaged, count)
                outcomes["raised"] += 1
                continue
            assert decode_record_columns(damaged, count).records() == reference, position
            outcomes["equal"] += 1
    assert outcomes["equal"] and outcomes["raised"]


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
