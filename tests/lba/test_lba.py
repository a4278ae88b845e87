"""Tests for the LBA substrate: record sizes, timing coupling, platform."""

import dataclasses
import random
import zlib

import pytest

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG, SystemConfig
from repro.core.events import EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.lba.capture import LogProducer, iter_machine_records
from repro.lba.dispatch import EventDispatcher
from repro.lba.platform import LBASystem
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lifeguards import AddrCheck, LockSet, MemCheck, TaintCheck
from repro.trace.codec import ROW_BYTES, RecordEncoder, byte_planes, encode_records
from repro.workloads.base import get_workload
from tests.conftest import build_copy_loop


def machine_records(program):
    """The record stream of a fresh machine running ``program``."""
    return iter_machine_records(Machine(program))


class TestRecordSize:
    def test_sizes_are_exact_integers(self):
        record = InstructionRecord(pc=1, event_type=EventType.REG_TO_REG, dest_reg=0, src_reg=1)
        size = RecordEncoder().encode_into(bytearray(), record)
        assert isinstance(size, int)
        assert size == len(RecordEncoder().encode(record)) == ROW_BYTES

    def test_memory_records_cost_more(self):
        # Every row has the same width; what a record costs is what its
        # byte planes store after zlib, and absent addresses store as runs
        # of zeros.
        plain = [InstructionRecord(pc=4 * i, event_type=EventType.REG_TO_REG)
                 for i in range(64)]
        memory = [InstructionRecord(pc=4 * i, event_type=EventType.MEM_TO_MEM,
                                    dest_addr=0x0900_0000 + 12 * i,
                                    src_addr=0x0A00_0000 + 20 * i, size=4)
                  for i in range(64)]
        assert len(encode_records(memory)) == len(encode_records(plain))
        assert len(zlib.compress(encode_records(memory), 6)) > len(
            zlib.compress(encode_records(plain), 6)
        )

    def test_stream_sizes_exploit_redundancy(self):
        # A loop's records (small pc/address steps) share their high bytes:
        # stored byte plane by byte plane, zlib finds those runs and must
        # beat the same rows compressed one after another.
        records = [
            InstructionRecord(pc=0x4000_0000 + 4 * i, event_type=EventType.MEM_TO_REG,
                              dest_reg=1, src_addr=0x0900_0000 + 4 * i, size=4, is_load=True)
            for i in range(64)
        ]
        rows = b"".join(RecordEncoder().encode(record) for record in records)
        planes = encode_records(records)
        assert planes == byte_planes(rows) != rows
        planes_bytes = len(zlib.compress(planes, 6))
        assert planes_bytes < len(zlib.compress(rows, 6))
        assert planes_bytes / len(records) <= 2.5


def reference_coupling(costs, capacity):
    """The bounded-buffer recurrence over whole lists, stall by stall.

    ``costs`` holds ``(app_cost, lifeguard_cost, syscall_barrier)`` per
    record.  Record ``i`` starts producing once record ``i - 1`` is produced,
    record ``i - capacity`` is consumed (buffer full) and, at a system call,
    record ``i - 1`` is consumed; it starts being consumed once it is
    produced and record ``i - 1`` is consumed.
    """
    produce, consume = [], []
    breakdown = TimingBreakdown(records=len(costs))
    for i, (app, lifeguard, barrier) in enumerate(costs):
        previous_produce = produce[i - 1] if i else 0
        previous_consume = consume[i - 1] if i else 0
        start = previous_produce
        if i >= capacity and consume[i - capacity] > start:
            breakdown.producer_stall_cycles += consume[i - capacity] - start
            start = consume[i - capacity]
        if barrier and previous_consume > start:
            breakdown.syscall_stall_cycles += previous_consume - start
            start = previous_consume
        produce.append(start + app)
        begin = max(previous_consume, produce[i])
        breakdown.consumer_stall_cycles += begin - previous_consume
        consume.append(begin + lifeguard)
        breakdown.app_alone_cycles += app
        breakdown.lifeguard_busy_cycles += lifeguard
    breakdown.app_finish_cycles = produce[-1]
    breakdown.lifeguard_finish_cycles = consume[-1]
    return breakdown


class TestCouplingModel:
    # 1 and 2 keep the buffer full; 1024 exceeds the drive, so it never fills.
    @pytest.mark.parametrize("capacity", [1, 2, 8, 1024])
    def test_matches_reference_recurrence(self, capacity):
        """A seeded 500-record drive equals the reference in every field."""
        rng = random.Random(5)
        costs = [
            (rng.randrange(1, 20), rng.randrange(0, 30), rng.random() < 0.05)
            for _ in range(500)
        ]
        model = CouplingModel(capacity)
        for app, lifeguard, barrier in costs:
            model.observe(app, lifeguard, syscall_barrier=barrier)
        expected = reference_coupling(costs, capacity)
        assert dataclasses.asdict(model.finish()) == dataclasses.asdict(expected)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            CouplingModel(0)

    def test_syscall_barrier_drains_lifeguard_backlog(self):
        model = CouplingModel(buffer_capacity_records=8)
        model.observe(app_cost=1, lifeguard_cost=100)   # the lifeguard falls far behind
        model.observe(app_cost=1, lifeguard_cost=1)
        model.observe(app_cost=1, lifeguard_cost=1, syscall_barrier=True)
        breakdown = model.finish()
        # The barrier waited for the whole backlog (the lifeguard finishes
        # record 1 at cycle 102), not just for the last record.
        assert breakdown.syscall_stall_cycles == 100
        assert breakdown.app_finish_cycles == 103

    def test_fast_lifeguard_tracks_application(self):
        model = CouplingModel(buffer_capacity_records=1000)
        for _ in range(100):
            model.observe(app_cost=2, lifeguard_cost=1)
        breakdown = model.finish()
        assert breakdown.slowdown == pytest.approx(1.0, abs=0.05)

    def test_slow_lifeguard_dominates(self):
        model = CouplingModel(buffer_capacity_records=10)
        for _ in range(100):
            model.observe(app_cost=1, lifeguard_cost=5)
        breakdown = model.finish()
        assert breakdown.slowdown == pytest.approx(5.0, rel=0.1)
        assert breakdown.producer_stall_cycles > 0

    def test_syscall_barrier_stalls_application(self):
        model = CouplingModel(buffer_capacity_records=1000)
        for _ in range(50):
            model.observe(app_cost=1, lifeguard_cost=4)
        before = model.breakdown.app_finish_cycles
        model.observe(app_cost=1, lifeguard_cost=4, syscall_barrier=True)
        assert model.breakdown.syscall_stall_cycles > 0
        assert model.breakdown.app_finish_cycles > before + 1

    def test_buffer_capacity_limits_decoupling(self):
        small = CouplingModel(buffer_capacity_records=2)
        large = CouplingModel(buffer_capacity_records=10_000)
        for _ in range(200):
            small.observe(1, 3)
            large.observe(1, 3)
        assert small.breakdown.application_slowdown > large.breakdown.application_slowdown


class TestProducer:
    def test_producer_counts_costs(self):
        producer = LogProducer()
        stream = list(producer.stream(machine_records(build_copy_loop())))
        assert producer.stats.records == len(stream)
        assert sum(cost for _record, cost in stream) >= producer.stats.instructions


class TestPlatform:
    def test_monitored_run_produces_result(self):
        system = LBASystem(machine_records(build_copy_loop()), AddrCheck(), OPTIMIZED_CONFIG,
                           workload_name="copy_loop")
        result = system.run("opt")
        assert result.slowdown >= 1.0
        assert result.dispatch.events_handled > 0
        assert result.errors_detected == 0
        assert result.workload == "copy_loop"

    def test_baseline_slower_than_optimized(self):
        base = LBASystem(machine_records(build_copy_loop(64)), MemCheck(), BASELINE_CONFIG)
        opt = LBASystem(machine_records(build_copy_loop(64)), MemCheck(), OPTIMIZED_CONFIG)
        base, opt = base.run("base"), opt.run("opt")
        assert base.slowdown > opt.slowdown

    def test_technique_gating_follows_figure2(self):
        system = LBASystem(machine_records(build_copy_loop()), AddrCheck(), OPTIMIZED_CONFIG)
        assert system.accelerator.it is None          # AddrCheck does not use IT
        assert system.accelerator.idempotent_filter is not None
        system = LBASystem(machine_records(build_copy_loop()), TaintCheck(), OPTIMIZED_CONFIG)
        assert system.accelerator.it is not None
        assert system.accelerator.idempotent_filter is None

    def test_baseline_config_disables_all_hardware(self):
        system = LBASystem(machine_records(build_copy_loop()), MemCheck(), BASELINE_CONFIG)
        assert system.accelerator.it is None
        assert system.accelerator.idempotent_filter is None
        assert system.accelerator.mtlb is None

    def test_mtlb_used_when_lma_enabled(self):
        system = LBASystem(machine_records(build_copy_loop(64)), AddrCheck(), OPTIMIZED_CONFIG)
        result = system.run()
        assert result.mapper.mtlb_hits + result.mapper.mtlb_misses == result.mapper.translations
        assert result.mapper.mtlb_hits > 0


class TestLiveAccounting:
    """The live loop makes one call per layer per record.

    The benchmark's layer tracer wraps these methods on their classes, so
    a loop that bypasses one (or calls it twice) would move its time to
    another layer without any simulated number changing.
    """

    @pytest.mark.parametrize(
        "program, lifeguard_cls", [("gzip", MemCheck), ("pbzip2", LockSet)]
    )
    def test_each_layer_runs_once_per_record(self, monkeypatch, program, lifeguard_cls):
        calls = {}
        for cls, name in (
            (LogProducer, "account"),
            (EventDispatcher, "consume"),
            (CouplingModel, "observe"),
        ):
            original = getattr(cls, name)
            calls[name] = 0

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        machine = get_workload(program, scale=0.3).build_machine()
        result = LBASystem(iter_machine_records(machine), lifeguard_cls(), OPTIMIZED_CONFIG).run()
        records = result.producer.records
        assert records > 0
        assert calls == {"account": records, "consume": records, "observe": records}
        assert result.dispatch.records_consumed == records
        assert result.timing.records == records
