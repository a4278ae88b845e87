"""Trace-subsystem throughput: codec rate, in-process and supervised replay.

Records the encode/decode records-per-second of the binary codec, the
throughput of in-process :func:`replay_trace`, and the cost of running the
same replay in one supervised worker process (which must report exactly
what ``replay_trace`` reports), so the trace path has a perf trajectory.
"""

import os

import pytest

from benchmarks.bench_params import BENCH_SCALE

from repro.core.events import EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.trace.codec import RecordEncoder, decode_records, encode_records
from repro.trace.replay import ParallelReplay, replay_trace
from repro.trace.tracefile import TraceReader

_RECORDS = 20_000


def _loop_records(count=_RECORDS):
    """A loop-like stream: small pc/address deltas, the codec's common case."""
    return [
        InstructionRecord(
            pc=0x0804_8000 + 4 * (i % 64),
            event_type=EventType.MEM_TO_REG if i % 3 else EventType.REG_TO_MEM,
            dest_reg=i % 8,
            src_reg=(i + 1) % 8,
            src_addr=0x0900_0000 + (i % 512) * 4,
            dest_addr=0x0904_0000 + (i % 512) * 4,
            size=4,
            is_load=bool(i % 3),
            is_store=not i % 3,
        )
        for i in range(count)
    ]


def test_codec_encode_throughput(benchmark):
    records = _loop_records()

    def run():
        encoder = RecordEncoder()
        total = 0
        for record in records:
            total += len(encoder.encode(record))
        return total

    total_bytes = benchmark(run)
    rate = len(records) / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(rate)
    benchmark.extra_info["bytes_per_record"] = round(total_bytes / len(records), 2)


def test_codec_decode_throughput(benchmark):
    records = _loop_records()
    data = encode_records(records)

    def run():
        return len(decode_records(data, expected_count=len(records)))

    count = benchmark(run)
    assert count == len(records)
    rate = len(records) / benchmark.stats.stats.mean
    benchmark.extra_info["records_per_second"] = round(rate)


@pytest.fixture(scope="module")
def captured_trace(tmp_path_factory):
    """One banked mcf trace shared by the replay benchmarks."""
    path = os.path.join(tmp_path_factory.mktemp("traces"), "mcf.lbatrace")
    stats = capture_trace("mcf", path, scale=BENCH_SCALE, chunk_bytes=8 * 1024)
    with TraceReader(path) as reader:
        assert reader.num_chunks >= 2  # state must carry across chunk boundaries
    return path, stats.records


def test_replay_sequential_throughput(benchmark, captured_trace):
    path, records = captured_trace

    result = benchmark.pedantic(
        replay_trace, args=(path, "TaintCheck"), rounds=3, iterations=1
    )
    assert result.records == records
    benchmark.extra_info["records_per_second"] = round(records / benchmark.stats.stats.mean)


def test_replay_parallel_speedup(benchmark, captured_trace):
    """Supervised replay in one worker process: same outcome, its speed
    relative to in-process ``replay_trace`` recorded (spawn + IPC cost)."""
    path, records = captured_trace
    sequential = replay_trace(path, "TaintCheck")
    replay = ParallelReplay(path, "TaintCheck")

    result = benchmark.pedantic(replay.run, rounds=3, iterations=1)
    assert result.records == records
    assert result.dispatch == sequential.dispatch
    assert result.accelerator == sequential.accelerator
    assert result.reports == sequential.reports
    benchmark.extra_info["records_per_second"] = round(records / benchmark.stats.stats.mean)
    if sequential.wall_seconds:
        benchmark.extra_info["speedup_vs_sequential"] = round(
            sequential.wall_seconds / benchmark.stats.stats.mean, 2
        )
