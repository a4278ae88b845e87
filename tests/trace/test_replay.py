"""Replay tests: capture-once/replay-many must reproduce the live run.

The acceptance bar of the trace subsystem: a program's captured trace,
replayed through a fresh lifeguard, produces the identical error reports
and delivered-event counts as a live run of the program, and a
supervised replay (one worker process) matches :func:`replay_trace` stat
for stat and report for report, in emission order.
"""

import pytest

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.isa.instructions import Imm, Mem, Reg
from repro.isa.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.isa.registers import Register
from repro.isa.threads import ThreadedMachine
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS, AddrCheck, MemCheck, TaintCheck
from repro.lifeguards.base import MetadataMapper
from repro.lifeguards.reports import ErrorKind, report_counts
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.trace.replay import ParallelReplay, replay_trace
from repro.trace.supervisor import ReplayError, SupervisorPolicy
from repro.trace.tracefile import TraceFormatError, TraceReader, TraceWriter
from repro.workloads import attacks, bugs
from repro.workloads.generator import build_fuzz_programs, generate_spec
from tests.conftest import build_copy_loop

#: Supervision knobs for the supervised-replay tests (fast retry backoff).
POLICY = SupervisorPolicy(timeout_seconds=120.0, backoff_seconds=0.01)


def capture(tmp_path, program, lifeguard, config=OPTIMIZED_CONFIG, chunk_bytes=256):
    """Capture a program's records into a trace file, then monitor it live."""
    path = tmp_path / "run.trace"
    with TraceWriter(path, chunk_bytes=chunk_bytes) as writer:
        writer.extend(iter_machine_records(Machine(program)))
    live = LBASystem(iter_machine_records(Machine(program)), lifeguard, config).run("live")
    return str(path), live


class TestCapture:
    def test_trace_captures_every_record(self, tmp_path):
        path, live = capture(tmp_path, build_copy_loop(32), AddrCheck())
        with TraceReader(path) as reader:
            assert reader.num_records == live.producer.records
            assert reader.stats.instructions == live.producer.instructions
            assert reader.stats.annotations == live.producer.annotations


class TestSequentialReplay:
    @pytest.mark.parametrize(
        "program_builder,lifeguard_cls",
        [
            (bugs.use_after_free, AddrCheck),
            (bugs.uninitialized_computation, MemCheck),
            (attacks.buffer_overflow_function_pointer, TaintCheck),
        ],
        ids=["addrcheck", "memcheck", "taintcheck"],
    )
    def test_replay_matches_live_run(self, tmp_path, program_builder, lifeguard_cls):
        path, live = capture(tmp_path, program_builder(), lifeguard_cls())
        replayed = replay_trace(path, lifeguard_cls, OPTIMIZED_CONFIG)
        assert replayed.reports == live.reports
        assert replayed.errors_detected == live.errors_detected > 0
        assert replayed.dispatch.records_consumed == live.dispatch.records_consumed
        assert replayed.dispatch.events_handled == live.dispatch.events_handled
        assert replayed.dispatch.handler_instructions == live.dispatch.handler_instructions
        assert replayed.accelerator == live.accelerator

    def test_replay_respects_config(self, tmp_path):
        path, _ = capture(tmp_path, build_copy_loop(32), MemCheck())
        optimized = replay_trace(path, MemCheck, OPTIMIZED_CONFIG)
        baseline = replay_trace(path, "MemCheck", BASELINE_CONFIG)
        # The baseline pipeline delivers more events (no IT/IF filtering).
        assert baseline.dispatch.events_handled > optimized.dispatch.events_handled

    def test_replay_many_from_one_capture(self, tmp_path):
        path, _ = capture(tmp_path, bugs.use_after_free(), AddrCheck())
        first = replay_trace(path, AddrCheck, OPTIMIZED_CONFIG)
        second = replay_trace(path, AddrCheck, OPTIMIZED_CONFIG)
        assert first.reports == second.reports
        assert first.dispatch == second.dispatch


def assert_same_replay(supervised, reference):
    """Records, DispatchStats, AcceleratorStats and reports, in order."""
    assert supervised.records == reference.records
    assert supervised.dispatch == reference.dispatch
    assert supervised.accelerator == reference.accelerator
    assert supervised.reports == reference.reports


def fuzz_trace(tmp_path, seed):
    """Capture a fuzz program into a trace of small (2 KiB) chunks."""
    path = tmp_path / f"fuzz{seed}.lbatrace"
    records = ThreadedMachine(build_fuzz_programs(generate_spec(seed))).trace()
    with TraceWriter(path, chunk_bytes=2048) as writer:
        writer.extend(records)
    return str(path)


def leak_after_bad_load():
    """``malloc 16; mov esi, eax; mov ebx, 1; add ebx, [esi+4096];
    add ebx, [esi+4]; halt`` -- a load from unallocated heap, then a leak
    that finalization reports last."""
    b = ProgramBuilder("leak_after_bad_load")
    b.malloc(Imm(16))
    b.mov(Reg(Register.ESI), Reg(Register.EAX))
    b.mov(Reg(Register.EBX), Imm(1))
    b.add(Reg(Register.EBX), Mem(base=Register.ESI, disp=4096))
    b.add(Reg(Register.EBX), Mem(base=Register.ESI, disp=4))
    b.halt()
    return b.build()


class TestParallelReplay:
    def test_parallel_matches_sequential_sharded(self, tmp_path):
        """The supervised worker reports exactly what ``replay_trace`` does.

        Seed 0 is clean (a fresh lifeguard per chunk span invents
        MemCheck/AddrCheck errors), seed 5 carries a LockSet race and seed 6
        a TaintCheck violation that only state carried across every chunk
        boundary detects.
        """
        for seed in (0, 5, 6):
            path = fuzz_trace(tmp_path, seed)
            with TraceReader(path) as reader:
                assert reader.num_chunks > 1
            for name in ALL_LIFEGUARDS:
                supervised = ParallelReplay(path, name, policy=POLICY).run()
                reference = replay_trace(path, name)
                assert supervised.chunks == reference.chunks
                assert_same_replay(supervised, reference)
                if name in ("MemCheck", "AddrCheck") and seed == 0:
                    assert supervised.reports == []
        assert replay_trace(fuzz_trace(tmp_path, 5), "LockSet").reports
        assert replay_trace(fuzz_trace(tmp_path, 6), "TaintCheck").reports

    @pytest.mark.parametrize("lifeguard", ["MemCheck", "AddrCheck"])
    def test_reports_keep_emission_order(self, tmp_path, lifeguard):
        """No sort: the check reports come first, the leak found at
        finalization last, exactly as ``replay_trace`` emits them."""
        path = tmp_path / "leak.lbatrace"
        with TraceWriter(path) as writer:
            writer.extend(Machine(leak_after_bad_load()).trace())
        supervised = ParallelReplay(str(path), lifeguard).run()
        reference = replay_trace(str(path), lifeguard)
        assert_same_replay(supervised, reference)
        kinds = [report.kind for report in supervised.reports]
        assert len(kinds) >= 2
        assert kinds[-1] is ErrorKind.MEMORY_LEAK
        assert ErrorKind.MEMORY_LEAK not in kinds[:-1]

    def test_single_worker_is_sequential(self, tmp_path):
        path, _ = capture(tmp_path, build_copy_loop(16), AddrCheck())
        replay = ParallelReplay(path, AddrCheck, OPTIMIZED_CONFIG, workers=1)
        result = replay.run()
        assert_same_replay(result, replay_trace(path, AddrCheck, OPTIMIZED_CONFIG))

    def test_worker_count_validation(self, tmp_path):
        path, _ = capture(tmp_path, build_copy_loop(8), AddrCheck())
        for bad in (0, -1, 2, 4, None):
            with pytest.raises(ValueError, match="workers must be 1"):
                ParallelReplay(path, AddrCheck, workers=bad)
        with pytest.raises(ValueError, match="no shared-memory transport"):
            ParallelReplay(path, AddrCheck, shared_memory=True)
        ParallelReplay(path, AddrCheck, workers=1, shared_memory=False)

    def test_unknown_lifeguard_name(self, tmp_path):
        path, _ = capture(tmp_path, build_copy_loop(8), AddrCheck())
        with pytest.raises(KeyError, match="unknown lifeguard"):
            replay_trace(path, "NotALifeguard")


class TestEmptyTrace:
    """A zero-record capture replays to zeroed stats, never a crash."""

    def _empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        with TraceWriter(path):
            pass
        return str(path)

    def test_sequential_replay_of_empty_trace(self, tmp_path):
        result = replay_trace(self._empty_trace(tmp_path), AddrCheck)
        assert result.records == 0
        assert result.chunks == 0
        assert result.reports == []
        assert not result.degraded and result.skipped_records == 0

    def test_records_per_second_guards_zero_wall(self, tmp_path):
        result = replay_trace(self._empty_trace(tmp_path), AddrCheck)
        result.wall_seconds = 0.0
        assert result.records_per_second == 0.0
        result.wall_seconds = -1.0
        assert result.records_per_second == 0.0

    def test_parallel_replay_of_empty_trace(self, tmp_path):
        path = self._empty_trace(tmp_path)
        replay = ParallelReplay(path, AddrCheck)
        assert replay.num_chunks == 0
        result = replay.run()
        assert result.records == 0
        assert result.records_per_second == 0.0
        assert result.worker_timings == []

    def test_supervised_replay_of_empty_trace(self, tmp_path):
        """An explicit policy forces the supervisor path even with no work."""
        result = ParallelReplay(
            self._empty_trace(tmp_path), AddrCheck,
            policy=SupervisorPolicy(timeout_seconds=5.0),
        ).run()
        assert result.records == 0
        assert result.failures == []


class TestQuarantine:
    """Damaged chunks: strict raises naming the chunk, degrade accounts."""

    def _damaged_capture(self, tmp_path):
        path, live = capture(tmp_path, bugs.use_after_free(), AddrCheck(),
                             chunk_bytes=128)
        with TraceReader(path) as reader:
            chunk = reader.num_chunks // 2
            lost = reader.chunks[chunk].records
            total = reader.num_records
        flip_chunk_bytes(path, chunk, seed=0)
        return path, chunk, lost, total

    def test_invalid_policy_rejected(self, tmp_path):
        path, _ = capture(tmp_path, build_copy_loop(8), AddrCheck())
        with pytest.raises(ValueError, match="quarantine must be one of"):
            replay_trace(path, AddrCheck, quarantine="panic")
        with pytest.raises(ValueError, match="quarantine must be one of"):
            ParallelReplay(path, AddrCheck, quarantine="retry")

    def test_parallel_degrade_quarantines_exactly(self, tmp_path):
        path, chunk, lost, total = self._damaged_capture(tmp_path)
        result = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, quarantine="degrade"
        ).run()
        assert [c.chunk for c in result.skipped_chunks] == [chunk]
        assert result.skipped_chunks[0].reason == "corrupt"
        assert result.skipped_records == lost
        assert result.records == total - lost
        assert result.fault_counters["chunks_quarantined"] == 1
        assert result.fault_counters["records_quarantined"] == lost

    def test_parallel_degrade_matches_sequential_degrade(self, tmp_path):
        path, _chunk, _lost, _total = self._damaged_capture(tmp_path)
        parallel = ParallelReplay(
            path, AddrCheck, OPTIMIZED_CONFIG, quarantine="degrade"
        ).run()
        sequential = replay_trace(path, AddrCheck, OPTIMIZED_CONFIG, quarantine="degrade")
        assert_same_replay(parallel, sequential)
        assert parallel.skipped_chunks == sequential.skipped_chunks

    def test_parallel_strict_raises_replay_error(self, tmp_path):
        """A deterministic worker exception fails fast: no retry storm,
        a ReplayError carrying the chunks and lifeguard, and no leaked
        children (the supervisor's terminate-all teardown)."""
        path, chunk, _lost, _total = self._damaged_capture(tmp_path)
        with pytest.raises(ReplayError) as excinfo:
            ParallelReplay(
                path, AddrCheck, OPTIMIZED_CONFIG, quarantine="strict"
            ).run()
        error = excinfo.value
        assert chunk in error.chunks
        assert error.trace_path == path
        assert error.lifeguard == AddrCheck.name
        assert "TraceFormatError" in str(error)

    def test_sequential_strict_raises_format_error(self, tmp_path):
        path, chunk, _lost, _total = self._damaged_capture(tmp_path)
        with pytest.raises(TraceFormatError, match=f"chunk {chunk}"):
            replay_trace(path, AddrCheck, OPTIMIZED_CONFIG)


class TestSupervisorExports:
    def test_package_exports_supervision_api(self):
        import repro.trace as trace

        for name in ("ReplayError", "SupervisorPolicy", "ShardFailure",
                     "QuarantinedChunk", "QUARANTINE_POLICIES", "ShardTask",
                     "verify_trace", "TraceAudit", "ChunkAudit"):
            assert hasattr(trace, name), name
        assert trace.QUARANTINE_POLICIES == ("strict", "degrade")


class TestReportMerging:
    def test_report_counts(self, tmp_path):
        path, live = capture(tmp_path, bugs.use_after_free(), AddrCheck())
        counts = report_counts(live.reports)
        assert sum(counts.values()) == len(live.reports)


class TestMapperAccessor:
    def test_public_accessor_lazily_creates(self):
        lifeguard = AddrCheck()
        mapper = lifeguard.mapper()
        assert isinstance(mapper, MetadataMapper)
        assert lifeguard.mapper() is mapper

    def test_stats_without_mapper_are_empty(self):
        lifeguard = AddrCheck()
        assert lifeguard.mapper_stats().translations == 0
