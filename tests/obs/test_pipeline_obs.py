"""End-to-end telemetry: enabled replay snapshots, spans, bit-identity."""

import shutil
import sys
import threading
import time
from collections import Counter

import pytest

from repro.obs import (
    OBS,
    MetricsRegistry,
    REQUIRED_ACCELERATOR_COUNTERS,
    REQUIRED_REPLAY_COUNTERS,
    REQUIRED_SERVICE_COUNTERS,
    collect_service,
    observed,
    prometheus_text,
    snapshot_document,
    validate_snapshot,
)
from repro.core.events import EVENT_TYPES, AnnotationRecord, EventType, InstructionRecord
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.faultinject.plan import FaultPlan
from repro.lba.columnar import ColumnarEngine
from repro.lifeguards import ALL_LIFEGUARDS
from repro.obs.pipeline import PipelineRecorder
from repro.trace.codec import RecordColumns
from repro.trace.replay import ParallelReplay, build_pipeline, replay_trace
from repro.trace.supervisor import SupervisorPolicy
from repro.trace.tracefile import TraceReader, TraceWriter


def _synthetic_records(count):
    """A loop-like stream mixing allocations, loads and stores."""
    records = []
    heap = 0x0900_0000
    for i in range(count):
        if i % 512 == 0:
            records.append(AnnotationRecord(
                event_type=EventType.MALLOC, address=heap + (i // 512) * 4096,
                size=2048, pc=0x0804_7F00, thread_id=0,
            ))
        slot = heap + (i % 512) * 4
        if i % 3:
            records.append(InstructionRecord(
                pc=0x0804_8000 + 4 * (i % 64), event_type=EventType.MEM_TO_REG,
                dest_reg=i % 8, src_addr=slot, size=4, is_load=True,
                base_reg=(i + 1) % 8,
            ))
        else:
            records.append(InstructionRecord(
                pc=0x0804_8000 + 4 * (i % 64), event_type=EventType.REG_TO_MEM,
                src_reg=i % 8, dest_addr=slot, size=4, is_store=True,
                base_reg=(i + 2) % 8,
            ))
    return records


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A small multi-chunk synthetic trace."""
    path = str(tmp_path_factory.mktemp("obs") / "synthetic.lbatrace")
    with TraceWriter(path, chunk_bytes=16 * 1024) as writer:
        writer.extend(_synthetic_records(4_000))
    return path


def test_disabled_by_default():
    assert OBS.enabled is False
    assert OBS.registry is None and OBS.tracer is None and OBS.recorder is None


def test_observed_scope_restores_previous_state():
    with observed() as obs:
        assert obs.enabled and obs.registry is not None
    assert OBS.enabled is False
    assert OBS.registry is None


def test_enabled_replay_produces_valid_snapshot(trace_path):
    with observed() as obs:
        result = replay_trace(trace_path, "MemCheck")
        document = snapshot_document(obs.registry, meta={"tool": "test"})
    assert validate_snapshot(document) == []
    counters = document["counters"]
    for name in REQUIRED_ACCELERATOR_COUNTERS:
        assert name in counters, name
    # The accelerator stack actually saw traffic on this workload.
    assert counters["it.events_seen"] > 0
    assert counters["if.lookups"] > 0
    assert counters["mtlb.lookups"] > 0
    assert counters["mtlb.hits"] + counters["mtlb.misses"] == counters["mtlb.lookups"]
    assert counters["if.hits"] + counters["if.misses"] == counters["if.lookups"]
    # Recorder-side counters agree with the replay result.
    assert counters["replay.records"] == result.records
    assert counters["replay.chunks"] == result.chunks
    assert counters["codec.chunks_read"] == result.chunks
    assert counters["dispatch.records_total"] == result.records
    assert counters["dispatch.records_consumed"] == result.records
    # The snapshot renders straight to Prometheus text.
    text = prometheus_text(document)
    assert "repro_it_events_seen" in text


def test_stage_spans_cover_replay_wall_time(trace_path):
    """Top-level stage spans must account for ~all of the replay wall time."""
    with observed() as obs:
        start = time.perf_counter()
        replay_trace(trace_path, "MemCheck")
        wall = time.perf_counter() - start
        covered = obs.tracer.total_for(
            "replay.setup", "replay.decode", "replay.dispatch", "replay.finish"
        )
        trace = obs.tracer.to_chrome_trace()
    assert covered >= 0.9 * wall
    assert covered <= wall * 1.01  # spans are sections of the same wall clock
    assert trace["traceEvents"], "replay produced no trace events"


def test_telemetry_does_not_perturb_replay(trace_path):
    """Bit-identity: enabled telemetry observes, never changes, the pipeline."""
    baseline = replay_trace(trace_path, "MemCheck")
    with observed():
        traced = replay_trace(trace_path, "MemCheck")
    assert traced.records == baseline.records
    assert traced.chunks == baseline.chunks
    assert traced.dispatch.diff(baseline.dispatch) == {}
    assert traced.accelerator == baseline.accelerator
    assert traced.reports == baseline.reports


def test_snapshot_is_deterministic_across_runs(trace_path):
    def snap():
        with observed() as obs:
            replay_trace(trace_path, "TaintCheck")
            return snapshot_document(obs.registry)

    assert snap() == snap()


def test_worker_timings_collected_when_enabled(trace_path):
    with observed():
        result = ParallelReplay(trace_path, "MemCheck").run()
    assert result.worker_timings, "enabled telemetry should collect worker timings"
    for timing in result.worker_timings:
        for key in ("setup_s", "decode_s", "dispatch_s", "serialize_s",
                    "ipc_s", "worker_wall_s", "chunks", "records", "pid"):
            assert key in timing, key
    assert [t["records"] for t in result.worker_timings] == [result.records]


def test_sharded_replay_collects_accelerator_counters(trace_path):
    """The supervised worker ships counter detail back; the parent folds it in."""
    with observed() as obs:
        result = ParallelReplay(trace_path, "MemCheck").run()
        document = snapshot_document(obs.registry)
    assert validate_snapshot(document) == []
    counters = document["counters"]
    assert counters["it.events_seen"] > 0
    assert counters["if.lookups"] > 0
    assert counters["mtlb.lookups"] > 0
    assert counters["replay.records"] == result.records
    assert counters["dispatch.records_consumed"] == result.records


def test_sharded_and_sequential_accelerator_counters_agree(trace_path):
    """A clean supervised replay's snapshot is exactly ``replay_trace``'s:
    every counter, gauge and histogram, codec and dispatch-run census
    included."""

    def snapshot(run):
        with observed() as obs:
            run()
            return snapshot_document(obs.registry)

    sequential = snapshot(lambda: replay_trace(trace_path, "MemCheck"))
    supervised = snapshot(lambda: ParallelReplay(trace_path, "MemCheck").run())
    counters = sequential["counters"]
    assert counters["it.events_seen"] > 0 and counters["mapper.translations"] > 0
    assert counters["codec.chunks_read"] > 1 and counters["dispatch.runs_total"] > 0
    assert sequential["histograms"]["dispatch.run_length"]["count"] > 0
    assert supervised == sequential


def test_supervised_snapshot_carries_supervision_counters(trace_path, tmp_path):
    """A faulty supervised replay's ``replay.*`` counters are its result's
    fault counters: the worker's quarantine plus the supervisor's crash
    and retry."""
    path = str(tmp_path / "damaged.lbatrace")
    shutil.copyfile(trace_path, path)
    flip_chunk_bytes(path, 1, seed=0)
    plan = FaultPlan.single(str(tmp_path), "sigkill", 0)
    with observed() as obs:
        result = ParallelReplay(
            path, "MemCheck", quarantine="degrade", fault_plan=plan,
            policy=SupervisorPolicy(backoff_seconds=0.01),
        ).run()
        counters = obs.registry.snapshot()["counters"]
    assert [chunk.chunk for chunk in result.skipped_chunks] == [1]
    assert set(result.fault_counters) == {
        "worker_crashes", "worker_retries", "chunks_quarantined", "records_quarantined",
    }
    for name, value in result.fault_counters.items():
        assert counters[f"replay.{name}"] == value > 0, name
    assert result.metrics["counters"] == counters


def test_concurrent_in_process_runs_restore_telemetry(trace_path):
    """In-process runs of the worker entry on several threads (gateway
    sessions falling back at once) each get their own snapshot and leave
    the process-wide telemetry state as they found it."""
    from repro.trace.replay import ShardTask, _replay_shard

    with TraceReader(trace_path) as reader:
        counts = reader.chunk_record_counts()
    task = ShardTask(
        trace_path=trace_path, lifeguard="MemCheck", config=None,
        chunks=tuple(range(len(counts))), chunk_records=counts, collect_timing=True,
    )
    expected = _replay_shard(task).metrics
    results = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.append(_replay_shard(task).metrics))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)
    assert OBS.enabled is False and OBS.registry is None and OBS.tracer is None


def test_worker_timings_absent_by_default(trace_path):
    result = ParallelReplay(trace_path, "MemCheck").run()
    assert result.worker_timings == []


def test_dispatch_run_census():
    """Every column run is counted once, by ordinal, with its fallback class.

    Annotation rows and (with IT on) ``other`` rows take the scalar
    fallback; every other run has a columnar step.
    """
    heap = 0x0900_0000
    records = []
    for i in range(6):
        records.append(AnnotationRecord(
            event_type=EventType.MALLOC, address=heap + 4096 * i, size=64,
            pc=0x0804_7F00,
        ))
        if i % 2:
            records.append(AnnotationRecord(
                event_type=EventType.FREE, address=heap + 4096 * (i - 1),
                size=64, pc=0x0804_7F10,
            ))
        for slot in range(1 + i % 3):
            records.append(InstructionRecord(
                pc=0x0804_8000 + 4 * slot, event_type=EventType.MEM_TO_REG,
                dest_reg=slot, src_addr=heap + 4096 * i + 4 * slot, size=4,
                is_load=True,
            ))
        records.append(InstructionRecord(
            pc=0x0804_C000, event_type=EventType.OTHER, dest_reg=i % 8,
            src_reg=(i + 3) % 8,
        ))
        records.append(InstructionRecord(
            pc=0x0804_9000, event_type=EventType.REG_TO_MEM, src_reg=i % 8,
            dest_addr=heap + 4096 * i + 32, size=4, is_store=True,
        ))
    columns = RecordColumns.from_records(records)
    runs = columns.runs
    assert len(runs) < len(records), "the stream must hold multi-row runs"
    other = EventType.OTHER.ordinal
    with observed() as obs:
        _, dispatcher = build_pipeline(ALL_LIFEGUARDS["TaintCheck"]())
        assert dispatcher.accelerator.it is not None
        ColumnarEngine(dispatcher).consume_columns(columns)
        obs.recorder.flush_to(obs.registry)
        counters = obs.registry.snapshot()["counters"]
    assert counters["dispatch.records_total"] == len(records)
    assert counters["dispatch.runs_total"] == len(runs)
    fallback = [(i, j) for i, j, o, _f in runs if o < 0 or o == other]
    assert counters["dispatch.fallback_runs"] == len(fallback) == 12
    assert counters["dispatch.fallback_records"] == sum(j - i for i, j in fallback)
    per_ordinal = Counter(
        "annotation" if o < 0 else EVENT_TYPES[o].value for _i, _j, o, _f in runs
    )
    assert per_ordinal["mem_to_reg"] == 6
    for name, count in per_ordinal.items():
        assert counters[f"dispatch.runs.{name}"] == count, name


def test_recorder_flush_resets_accumulators():
    recorder = PipelineRecorder()
    recorder.record_run(0, 5, False)
    recorder.record_run(-1, 1, True)
    recorder.record_chunk_read(100, 400)
    registry = MetricsRegistry()
    recorder.flush_to(registry)
    first = registry.snapshot()
    assert first["counters"]["dispatch.records_total"] == 6
    assert first["counters"]["dispatch.fallback_records"] == 1
    assert first["counters"]["codec.chunks_read"] == 1
    # A second flush contributes nothing: the accumulators were reset.
    recorder.flush_to(registry)
    assert registry.snapshot() == first


def test_validate_snapshot_flags_problems():
    registry = MetricsRegistry()
    document = snapshot_document(registry)
    problems = validate_snapshot(document)
    # An empty registry is missing every required accelerator and replay
    # fault-tolerance counter.
    assert len(problems) == (
        len(REQUIRED_ACCELERATOR_COUNTERS) + len(REQUIRED_REPLAY_COUNTERS)
    )
    assert any("it.events_seen" in problem for problem in problems)

    assert validate_snapshot({"kind": "nope"}) != []

    for name in REQUIRED_ACCELERATOR_COUNTERS + REQUIRED_REPLAY_COUNTERS:
        document["counters"][name] = 0
    assert validate_snapshot(document) == []

    document["histograms"]["h"] = {"bounds": [1], "counts": [1], "sum": 0, "count": 1}
    assert any("length mismatch" in problem for problem in validate_snapshot(document))


# ------------------------------------------------------------ service counters


def _full_counters(document):
    for name in REQUIRED_ACCELERATOR_COUNTERS + REQUIRED_REPLAY_COUNTERS:
        document["counters"].setdefault(name, 0)
    return document


def test_collect_service_emits_deltas_against_watermark():
    registry = MetricsRegistry()
    watermark = {}
    counters = {"sessions_settled": 3, "bytes_received": 100}
    collect_service(registry, counters, last=watermark)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["service.sessions_settled"] == 3
    assert snapshot["counters"]["service.bytes_received"] == 100

    # Second flush with partially-advanced counters: only the delta lands.
    counters = {"sessions_settled": 5, "bytes_received": 100}
    collect_service(registry, counters, last=watermark)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["service.sessions_settled"] == 5
    assert snapshot["counters"]["service.bytes_received"] == 100
    assert watermark == {"sessions_settled": 5, "bytes_received": 100}


def test_collect_service_zero_fills_required_names():
    # Even before the first session arrives, a service snapshot must carry
    # every required counter so probes can rely on the schema.
    registry = MetricsRegistry()
    collect_service(registry, {})
    names = set(registry.snapshot()["counters"])
    assert set(REQUIRED_SERVICE_COUNTERS) <= names


def test_validate_snapshot_gates_service_counters_on_source():
    registry = MetricsRegistry()
    plain = _full_counters(snapshot_document(registry, meta={"source": "replay"}))
    assert validate_snapshot(plain) == []

    service = _full_counters(snapshot_document(registry, meta={"source": "service"}))
    problems = validate_snapshot(service)
    assert len(problems) == len(REQUIRED_SERVICE_COUNTERS)
    assert all("service counter" in problem for problem in problems)

    collect_service(registry, {})
    fixed = _full_counters(snapshot_document(registry, meta={"source": "service"}))
    assert validate_snapshot(fixed) == []
