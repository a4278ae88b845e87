"""Tests for the LBA substrate: record sizes, timing coupling, platform."""

import dataclasses
import random

import pytest

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG, SystemConfig
from repro.core.events import EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.lba.capture import LogProducer
from repro.lba.platform import LBASystem, run_unmonitored
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lifeguards import AddrCheck, MemCheck, TaintCheck
from repro.trace.codec import RecordEncoder
from tests.conftest import build_copy_loop


class TestRecordSize:
    def test_sizes_are_exact_integers(self):
        record = InstructionRecord(pc=1, event_type=EventType.REG_TO_REG, dest_reg=0, src_reg=1)
        size = len(RecordEncoder().encode(record))
        assert isinstance(size, int)
        assert 1 <= size <= 8

    def test_memory_records_cost_more(self):
        plain = InstructionRecord(pc=1, event_type=EventType.REG_TO_REG)
        memory = InstructionRecord(pc=1, event_type=EventType.MEM_TO_MEM,
                                   dest_addr=1, src_addr=2, size=4)
        assert len(RecordEncoder().encode(memory)) > len(RecordEncoder().encode(plain))

    def test_stream_sizes_exploit_redundancy(self):
        # Consecutive records of a loop (small pc/address deltas) must cost
        # less in stream context than encoded stand-alone.
        records = [
            InstructionRecord(pc=0x4000_0000 + 4 * i, event_type=EventType.MEM_TO_REG,
                              dest_reg=1, src_addr=0x0900_0000 + 4 * i, size=4, is_load=True)
            for i in range(64)
        ]
        encoder = RecordEncoder()
        stream_bytes = sum(len(encoder.encode(record)) for record in records)
        standalone_bytes = sum(len(RecordEncoder().encode(record)) for record in records)
        assert stream_bytes < standalone_bytes
        # Steady-state loop records cost 6 bytes; only the first (cold
        # delta chains) costs more.
        assert stream_bytes / len(records) <= 6.5


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
        producer = LogProducer(Machine(build_copy_loop()))
        stream = list(producer.stream())
        assert producer.stats.records == len(stream)
        assert producer.stats.app_cycles >= producer.stats.instructions
        assert producer.stats.log_bytes > 0


class TestPlatform:
    def test_monitored_run_produces_result(self):
        system = LBASystem(Machine(build_copy_loop()), AddrCheck(), OPTIMIZED_CONFIG)
        result = system.run("opt")
        assert result.slowdown >= 1.0
        assert result.dispatch.events_handled > 0
        assert result.errors_detected == 0
        assert result.workload == "copy_loop"

    def test_baseline_slower_than_optimized(self):
        base = LBASystem(Machine(build_copy_loop(64)), MemCheck(), BASELINE_CONFIG).run("base")
        opt = LBASystem(Machine(build_copy_loop(64)), MemCheck(), OPTIMIZED_CONFIG).run("opt")
        assert base.slowdown > opt.slowdown

    def test_technique_gating_follows_figure2(self):
        system = LBASystem(Machine(build_copy_loop()), AddrCheck(), OPTIMIZED_CONFIG)
        assert system.accelerator.it is None          # AddrCheck does not use IT
        assert system.accelerator.idempotent_filter is not None
        system = LBASystem(Machine(build_copy_loop()), TaintCheck(), OPTIMIZED_CONFIG)
        assert system.accelerator.it is not None
        assert system.accelerator.idempotent_filter is None

    def test_baseline_config_disables_all_hardware(self):
        system = LBASystem(Machine(build_copy_loop()), MemCheck(), BASELINE_CONFIG)
        assert system.accelerator.it is None
        assert system.accelerator.idempotent_filter is None
        assert system.accelerator.mtlb is None

    def test_mtlb_used_when_lma_enabled(self):
        system = LBASystem(Machine(build_copy_loop(64)), AddrCheck(), OPTIMIZED_CONFIG)
        result = system.run()
        assert result.mapper.mtlb_hits + result.mapper.mtlb_misses == result.mapper.translations
        assert result.mapper.mtlb_hits > 0

    def test_run_unmonitored_matches_app_alone(self):
        cycles = run_unmonitored(Machine(build_copy_loop(32)))
        monitored = LBASystem(Machine(build_copy_loop(32)), AddrCheck(), OPTIMIZED_CONFIG).run()
        assert cycles == pytest.approx(monitored.timing.app_alone_cycles, rel=0.05)
