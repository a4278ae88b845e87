"""Shared-memory column transport: round-trips, lifecycle, equivalence.

The zero-copy replay path has three separable contracts, tested here:

* :meth:`RecordColumns.to_buffers` / :meth:`RecordColumns.from_buffers`
  are exact inverses over any record stream whose values fit int64 --
  including the run table, the sparse immediates/objects members, and
  columns that are themselves memoryview-backed (a re-pack of an attached
  chunk);
* :class:`SegmentPool` owns the segment lifecycle: segments exist exactly
  between ``prepare`` and ``release``/``release_all``, damaged chunks are
  left out of the segment for in-worker fallback, and nothing survives in
  ``/dev/shm`` after any exit path (the autouse ``shm_leak_gate`` fixture
  re-checks this after every test in the suite);
* a shared-memory parallel replay is bit-identical to the sequential
  reference -- stats, reports and quarantine accounting -- and ships
  compact shard results instead of full pickles.
"""

import glob
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import OPTIMIZED_CONFIG
from repro.core.events import EVENT_TYPES, AnnotationRecord, EventType, InstructionRecord
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.isa.machine import Machine
from repro.lba.platform import LBASystem
from repro.lifeguards import AddrCheck, MemCheck, TaintCheck
from repro.trace.codec import RecordColumns
from repro.trace.replay import ParallelReplay, ShardTask, _replay_shard, replay_trace
from repro.trace.shm import (
    SEGMENT_PREFIX,
    SegmentPool,
    attach_segment,
    shared_memory_available,
)
from repro.trace.supervisor import ReplayError, SupervisorPolicy
from repro.trace.tracefile import TraceReader, TraceWriter
from repro.workloads import bugs
from tests.conftest import build_copy_loop

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

_INSTRUCTION_TYPES = [t for t in EVENT_TYPES if not t.is_rare]
_ANNOTATION_TYPES = [t for t in EVENT_TYPES if t.is_rare]

#: Wide but int64-safe operand bound: the packed columns are ``array("q")``,
#: so round-trip streams stay inside int64 (the overflow test goes beyond).
_WIDE = 2 ** 62


def _record_stream(seed: int, count: int):
    """Seeded record mix covering every packed member of the layout."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        addr = rng.randrange(1 << 40)
        if rng.random() < 0.2:
            records.append(AnnotationRecord(
                event_type=rng.choice(_ANNOTATION_TYPES),
                address=rng.choice([None, addr]),
                size=rng.choice([0, 0, 1, 4096]),
                thread_id=rng.randrange(4),
                pc=rng.choice([0, rng.randrange(1 << 32)]),
                payload=rng.choice([None, 0, -1, rng.randrange(-_WIDE, _WIDE)]),
            ))
        else:
            records.append(InstructionRecord(
                pc=rng.randrange(1 << 40),
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
                immediate=rng.choice([None, 0, -1, rng.randrange(-_WIDE, _WIDE)]),
            ))
    return records


def _pack_unpack(columns: RecordColumns) -> RecordColumns:
    """to_buffers -> one contiguous buffer -> from_buffers, like the pool."""
    layout, parts = columns.to_buffers()
    buffer = bytearray(layout.nbytes)
    for (name, typecode, offset, nbytes), part in zip(layout.fields, parts):
        if nbytes:
            buffer[offset:offset + nbytes] = bytes(part)
    return RecordColumns.from_buffers(layout, buffer)


def _assert_columns_equal(rebuilt: RecordColumns, original: RecordColumns) -> None:
    assert rebuilt.n == original.n
    assert rebuilt.records() == original.records()
    assert rebuilt.runs == original.runs
    assert rebuilt.immediates == original.immediates
    assert rebuilt.objects == original.objects


def _shm_segments():
    """Replay segments currently visible in /dev/shm (empty off-Linux)."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def _make_task(path: str, chunks=None, **overrides) -> ShardTask:
    with TraceReader(path) as reader:
        counts = reader.chunk_record_counts()
        if chunks is None:
            chunks = tuple(range(reader.num_chunks))
    return ShardTask(
        trace_path=path,
        lifeguard=AddrCheck.name,
        config=OPTIMIZED_CONFIG,
        chunks=tuple(chunks),
        chunk_records=tuple(counts[i] for i in chunks),
        **overrides,
    )


def _capture(tmp_path, program, chunk_bytes=128):
    path = tmp_path / "run.trace"
    with TraceWriter(path, chunk_bytes=chunk_bytes) as writer:
        live = LBASystem(
            Machine(program), AddrCheck(), OPTIMIZED_CONFIG, trace_writer=writer
        ).run("live")
    return str(path), live


class TestColumnBufferRoundTrip:
    """to_buffers/from_buffers are exact inverses (satellite 4)."""

    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_equals_original(self, seed, count):
        records = _record_stream(seed, count)
        columns = RecordColumns.from_records(records)
        rebuilt = _pack_unpack(columns)
        _assert_columns_equal(rebuilt, columns)
        assert rebuilt.records() == records

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_memoryview_backed_columns_repack(self, seed):
        """A from_buffers instance (memoryview columns) packs again cleanly."""
        columns = RecordColumns.from_records(_record_stream(seed, 60))
        first = _pack_unpack(columns)
        assert any(
            isinstance(getattr(first, name), memoryview)
            for name in ("flags", "pc", "dest_addr")
        )
        second = _pack_unpack(first)
        _assert_columns_equal(second, columns)

    def test_round_trip_empty(self):
        rebuilt = _pack_unpack(RecordColumns.from_records([]))
        assert rebuilt.n == 0
        assert rebuilt.records() == []
        assert rebuilt.runs == []
        assert rebuilt.immediates == {}
        assert rebuilt.objects == {}

    def test_round_trip_real_capture_chunks(self, tmp_path):
        """Every chunk of a real capture survives the pack/unpack cycle."""
        path, _ = _capture(tmp_path, bugs.use_after_free())
        with TraceReader(path) as reader:
            assert reader.num_chunks > 1
            for index in range(reader.num_chunks):
                columns = reader.read_chunk_columns(index)
                _assert_columns_equal(_pack_unpack(columns), columns)

    def test_value_outside_int64_raises_value_error(self):
        record = InstructionRecord(pc=2 ** 63, event_type=_INSTRUCTION_TYPES[0])
        columns = RecordColumns.from_records([record])
        with pytest.raises(ValueError, match="outside int64"):
            columns.to_buffers()

    def test_release_drops_views_and_fails_loudly(self):
        rebuilt = _pack_unpack(RecordColumns.from_records(_record_stream(7, 20)))
        rebuilt.release()
        assert rebuilt.flags == ()
        assert rebuilt.pc == ()
        # Byte-wide columns were materialised, not viewed: they survive.
        assert isinstance(rebuilt.kind, bytearray)
        with pytest.raises(Exception):
            rebuilt.record(0)


@needs_shm
class TestSegmentPool:
    """Segment lifecycle: created on prepare, gone on release (satellite 3)."""

    def test_prepare_packs_and_release_unlinks(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(64))
        pool = SegmentPool()
        before = _shm_segments()
        task = pool.prepare(_make_task(path))
        try:
            assert task.segment is not None
            assert len(task.segment.chunks) == len(task.chunks)
            assert pool.counters()["shm_segments"] == 1
            assert pool.counters()["shm_chunks"] == len(task.chunks)
            if os.path.isdir("/dev/shm"):
                created = set(_shm_segments()) - set(before)
                assert created == {f"/dev/shm/{task.segment.name}"}
            # A worker-side attach sees the same bytes the pool wrote.
            shm = attach_segment(task.segment.name)
            try:
                packed = task.segment.chunks[0]
                region = shm.buf[packed.offset:packed.offset + packed.layout.nbytes]
                columns = RecordColumns.from_buffers(packed.layout, region)
                try:
                    with TraceReader(path) as reader:
                        expected = reader.read_chunk_columns(packed.chunk)
                    _assert_columns_equal(columns, expected)
                    # The zero-copy contract: the segment cannot close while
                    # column views are exported, and can once released.
                    with pytest.raises(BufferError):
                        shm.close()
                finally:
                    columns.release()
                    region.release()
            finally:
                shm.close()
        finally:
            pool.release(task)
            pool.release_all()
        assert _shm_segments() == before
        with pytest.raises(OSError):
            attach_segment(task.segment.name)

    def test_prepare_is_idempotent_across_retries(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(32))
        pool = SegmentPool()
        task = pool.prepare(_make_task(path))
        try:
            assert pool.prepare(task) is task
            assert pool.counters()["shm_segments"] == 1
        finally:
            pool.release_all()

    def test_damaged_chunk_left_for_worker_fallback(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(64))
        with TraceReader(path) as reader:
            damaged = reader.num_chunks // 2
        flip_chunk_bytes(path, damaged, seed=0)
        pool = SegmentPool()
        task = pool.prepare(_make_task(path))
        try:
            assert task.segment is not None
            packed_chunks = {p.chunk for p in task.segment.chunks}
            assert damaged not in packed_chunks
            assert packed_chunks == set(task.chunks) - {damaged}
            assert pool.counters()["shm_fallback_chunks"] == 1
        finally:
            pool.release_all()

    def test_skip_set_chunks_are_not_packed(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(64))
        task = _make_task(path)
        skipped = frozenset(task.chunks[:1])
        pool = SegmentPool()
        task = pool.prepare(_make_task(path, skip=skipped))
        try:
            assert {p.chunk for p in task.segment.chunks} == set(task.chunks) - skipped
        finally:
            pool.release_all()

    def test_disabled_pool_is_inert(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(16))
        pool = SegmentPool(enabled=False)
        task = _make_task(path)
        assert pool.prepare(task) is task
        assert pool.counters() == {}
        pool.release_all()  # must be safe with nothing to do

    def test_release_all_is_reentrant(self, tmp_path):
        path, _ = _capture(tmp_path, build_copy_loop(32))
        pool = SegmentPool()
        before = _shm_segments()
        pool.prepare(_make_task(path))
        pool.release_all()
        pool.release_all()
        assert _shm_segments() == before


@needs_shm
class TestSharedMemoryReplay:
    """Parallel shm replay is bit-identical to the sequential reference."""

    def test_matches_sequential_and_uses_segments(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        replay = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, workers=3, shared_memory=True
        )
        parallel = replay.run()
        sequential = replay.run_sequential()
        assert parallel.dispatch == sequential.dispatch
        assert parallel.accelerator == sequential.accelerator
        assert parallel.reports == sequential.reports
        assert parallel.errors_detected > 0
        assert parallel.records == sequential.records
        assert parallel.fault_counters["shm_segments"] >= 1
        assert parallel.fault_counters["shm_chunks"] == parallel.chunks

    def test_opt_out_matches_and_creates_no_segments(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        with_shm = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, workers=2, shared_memory=True
        ).run()
        without = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, workers=2, shared_memory=False
        ).run()
        assert without.dispatch == with_shm.dispatch
        assert without.accelerator == with_shm.accelerator
        assert without.reports == with_shm.reports
        assert "shm_segments" not in without.fault_counters

    def test_degrade_quarantine_identical_with_shm(self, tmp_path):
        """Damaged chunk: shm and classic replay quarantine identically."""
        path, _ = _capture(tmp_path, bugs.use_after_free())
        with TraceReader(path) as reader:
            damaged = reader.num_chunks // 2
        flip_chunk_bytes(path, damaged, seed=0)
        results = [
            ParallelReplay(
                path, AddrCheck, OPTIMIZED_CONFIG, workers=2,
                quarantine="degrade", shared_memory=shm,
            ).run()
            for shm in (True, False)
        ]
        with_shm, without = results
        assert [c.chunk for c in with_shm.skipped_chunks] == [damaged]
        assert with_shm.records == without.records
        assert with_shm.dispatch == without.dispatch
        assert with_shm.reports == without.reports
        assert with_shm.skipped_records == without.skipped_records
        assert (
            with_shm.fault_counters["records_quarantined"]
            == without.fault_counters["records_quarantined"]
        )

    def test_strict_failure_leaves_no_segments(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        with TraceReader(path) as reader:
            flip_chunk_bytes(path, reader.num_chunks // 2, seed=0)
        before = _shm_segments()
        with pytest.raises(ReplayError):
            ParallelReplay(
                path, AddrCheck, OPTIMIZED_CONFIG, workers=2,
                quarantine="strict", shared_memory=True,
            ).run()
        assert _shm_segments() == before

    def test_timing_breakdown_has_transport_fields(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        result = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, workers=3,
            collect_timing=True, shared_memory=True,
        ).run()
        assert result.worker_timings
        for timing in result.worker_timings:
            assert timing["shm_attach_s"] >= 0.0
            assert timing["predecode_s"] > 0.0
            # Decode moved to the parent: packed shards decode nothing.
            assert timing["decode_s"] == 0.0
            # Per-shard hand-off cost, not the parent's total elapsed time
            # (the old bug): it cannot exceed this shard's own lifetime.
            assert 0.0 <= timing["ipc_s"] < result.wall_seconds

    def test_sequential_reference_has_no_ipc(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        result = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, workers=3, collect_timing=True
        ).run_sequential()
        for timing in result.worker_timings:
            assert timing["ipc_s"] == 0.0

    @pytest.mark.parametrize("lifeguard", [MemCheck, TaintCheck])
    def test_forkserver_workers_release_long_runs(self, tmp_path, lifeguard):
        """Forkserver workers dispatch long same-ordinal runs straight from
        the shared segment and still release every view before closing it
        (a view kept alive past dispatch fails ``SharedMemory.close`` with
        ``BufferError``)."""
        records = []
        for block in range(4):
            base = 0x0900_0000 + block * 0x1000
            records.append(AnnotationRecord(EventType.MALLOC, address=base, size=400))
            records.extend(
                InstructionRecord(
                    pc=0x300, event_type=EventType.MEM_TO_REG, dest_reg=i % 4,
                    src_addr=base + 4 * i, size=4, is_load=True,
                )
                for i in range(100)
            )
        path = str(tmp_path / "runs.trace")
        with TraceWriter(path, chunk_bytes=256) as writer:
            writer.extend(records)
        result = ParallelReplay(
            path, lifeguard, workers=2, shared_memory=True,
            policy=SupervisorPolicy(start_method="forkserver"),
        ).run()
        assert result.failures == []
        assert result.fault_counters["shm_chunks"] > 0
        assert result.records == len(records)
        if lifeguard is TaintCheck:
            # Sharded MemCheck still differs from sequential replay (each
            # shard starts from a fresh lifeguard), so only TaintCheck's
            # reports are compared.
            assert result.reports == replay_trace(path, lifeguard).reports


class TestShardResultTransport:
    """Shard results pickle as compact primitive tuples, not object graphs."""

    def _shard_result(self, tmp_path):
        path, _ = _capture(tmp_path, bugs.use_after_free())
        return _replay_shard(_make_task(path, collect_timing=True))

    def test_pickle_round_trip(self, tmp_path):
        result = self._shard_result(tmp_path)
        assert result.reports  # use-after-free produces at least one report
        clone = pickle.loads(pickle.dumps(result))
        assert clone.records == result.records
        assert clone.dispatch == result.dispatch
        assert clone.accelerator == result.accelerator
        assert clone.reports == result.reports
        assert clone.skipped == result.skipped
        assert clone.timing == result.timing
        assert clone.detail == result.detail

    def test_pickled_state_is_primitive(self, tmp_path):
        state = self._shard_result(tmp_path).__getstate__()
        records, dispatch, accelerator, reports, skipped, _timing, _detail = state
        assert isinstance(records, int)
        assert isinstance(dispatch, tuple)
        assert isinstance(accelerator, tuple)
        for report in reports:
            assert isinstance(report, tuple) and len(report) == 6
            assert all(
                value is None or isinstance(value, (int, str)) for value in report
            )
        assert all(isinstance(chunk, tuple) for chunk in skipped)


@needs_shm
class TestResourceTrackerHygiene:
    """No resource_tracker noise: the fork-shared tracker sees one unlink."""

    def test_replay_process_exits_clean(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        code = (
            "import sys\n"
            "from repro.core.config import OPTIMIZED_CONFIG\n"
            "from repro.isa.machine import Machine\n"
            "from repro.lba.platform import LBASystem\n"
            "from repro.lifeguards import AddrCheck\n"
            "from repro.trace.replay import ParallelReplay\n"
            "from repro.trace.tracefile import TraceWriter\n"
            "from repro.workloads import bugs\n"
            "path = sys.argv[1]\n"
            "with TraceWriter(path, chunk_bytes=128) as writer:\n"
            "    LBASystem(Machine(bugs.use_after_free()), AddrCheck(),\n"
            "              OPTIMIZED_CONFIG, trace_writer=writer).run()\n"
            "result = ParallelReplay(path, AddrCheck, OPTIMIZED_CONFIG,\n"
            "                        workers=2, shared_memory=True).run()\n"
            "assert result.fault_counters.get('shm_segments', 0) >= 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "t.trace")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "leaked" not in proc.stderr
