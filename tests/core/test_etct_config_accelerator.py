"""Tests for the ETCT, the configuration dataclasses and the accelerator pipeline."""

import pytest

from repro.core.accelerator import AcceleratorConfig, EventAccelerator, update_event_reduction
from repro.core.config import (
    BASELINE_CONFIG,
    OPTIMIZED_CONFIG,
    CacheConfig,
    IFConfig,
    ITConfig,
    LogBufferConfig,
    MTLBConfig,
    SystemConfig,
)
from repro.core.etct import ETCT, ETCTEntry, InvalidationPolicy
from repro.core.events import AnnotationRecord, DeliveredEvent, EventType, InstructionRecord


class TestETCT:
    def test_register_and_lookup(self):
        etct = ETCT()
        handler = lambda event: None
        entry = etct.register_handler(EventType.MEM_LOAD, handler, handler_instructions=7)
        assert etct.lookup(EventType.MEM_LOAD) is entry
        assert etct.is_registered(EventType.MEM_LOAD)
        assert not etct.is_registered(EventType.MEM_STORE)

    def test_filter_key_uses_cc_and_fields(self):
        etct = ETCT()
        entry = etct.register_handler(
            EventType.MEM_LOAD, lambda e: None, cacheable=True, check_category=7,
            cacheable_fields=("address", "size", "thread_id"),
        )
        event = DeliveredEvent(EventType.MEM_LOAD, src_addr=0x40, size=4, thread_id=2)
        assert etct.filter_key(entry, event) == (7, 0x40, 4, 2)

    def test_filter_key_prefers_dest_address(self):
        etct = ETCT()
        entry = etct.register_handler(EventType.MEM_STORE, lambda e: None, cacheable=True)
        event = DeliveredEvent(EventType.MEM_STORE, dest_addr=0x99, src_addr=0x11, size=2)
        assert etct.filter_key(entry, event)[1] == 0x99

    def test_unknown_cacheable_field_rejected(self):
        with pytest.raises(ValueError):
            ETCTEntry(EventType.MEM_LOAD, cacheable_fields=("bogus",))


class TestConfig:
    def test_table2_defaults(self):
        config = SystemConfig()
        assert config.hierarchy.l1d.size_bytes == 16 * 1024
        assert config.hierarchy.l1d.associativity == 2
        assert config.hierarchy.l2.size_bytes == 512 * 1024
        assert config.hierarchy.l2.latency_cycles == 10
        assert config.hierarchy.memory_latency_cycles == 200
        assert config.log_buffer.size_bytes == 64 * 1024
        assert config.idempotent_filter.num_entries == 32

    def test_with_techniques_toggles(self):
        config = SystemConfig().with_techniques(lma=False, it=False, idempotent_filter=True)
        assert not config.mtlb.enabled
        assert not config.it.enabled
        assert config.idempotent_filter.enabled

    def test_baseline_and_optimized_presets(self):
        assert not BASELINE_CONFIG.mtlb.enabled
        assert not BASELINE_CONFIG.it.enabled
        assert not BASELINE_CONFIG.idempotent_filter.enabled
        assert OPTIMIZED_CONFIG.mtlb.enabled and OPTIMIZED_CONFIG.it.enabled

    def test_cache_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 64, 3, 1)
        assert CacheConfig(16 * 1024, 64, 2, 1).num_sets == 128

    def test_log_buffer_capacity(self):
        assert LogBufferConfig(size_bytes=1024, bytes_per_record=1.0).capacity_records == 1024


def _instruction(event_type, **kwargs):
    return InstructionRecord(pc=0x400, event_type=event_type, **kwargs)


def _etct_with(*event_types, cacheable=(), invalidation=None):
    etct = ETCT()
    calls = []
    for event_type in event_types:
        etct.register_handler(
            event_type, calls.append, handler_instructions=3,
            cacheable=event_type in cacheable, check_category=1,
            invalidation=invalidation or InvalidationPolicy.NONE,
        )
    return etct, calls


class TestAcceleratorPipeline:
    def test_baseline_delivers_registered_propagation(self):
        etct, _ = _etct_with(EventType.REG_TO_MEM)
        acc = EventAccelerator(etct, AcceleratorConfig.baseline())
        delivered = acc.process(_instruction(EventType.REG_TO_MEM, src_reg=0, dest_addr=8, size=4,
                                             is_store=True))
        assert [e.event_type for e in delivered] == [EventType.REG_TO_MEM]

    def test_unregistered_events_not_delivered(self):
        etct, _ = _etct_with(EventType.MEM_LOAD)
        acc = EventAccelerator(etct, AcceleratorConfig.baseline())
        delivered = acc.process(_instruction(EventType.REG_TO_REG, dest_reg=0, src_reg=1))
        assert delivered == []

    def test_it_consumes_copy_events(self):
        etct, _ = _etct_with(EventType.MEM_TO_REG, EventType.REG_TO_MEM, EventType.MEM_TO_MEM,
                             EventType.IMM_TO_MEM)
        acc = EventAccelerator(etct, AcceleratorConfig())
        delivered = acc.process(_instruction(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x80,
                                             size=4, is_load=True))
        assert delivered == []
        assert acc.stats.propagation_events_in == 1
        assert acc.stats.propagation_events_delivered == 0

    def test_check_events_filtered_by_if(self):
        etct, calls = _etct_with(EventType.MEM_LOAD, cacheable={EventType.MEM_LOAD})
        acc = EventAccelerator(etct, AcceleratorConfig())
        record = _instruction(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x80, size=4, is_load=True)
        first = acc.process(record)
        second = acc.process(record)
        assert len(first) == 1 and second == []
        assert acc.stats.check_events_filtered == 1

    def test_rare_event_flush_all_invalidates_filter(self):
        etct, _ = _etct_with(
            EventType.MEM_LOAD, EventType.FREE,
            cacheable={EventType.MEM_LOAD}, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        acc = EventAccelerator(etct, AcceleratorConfig())
        record = _instruction(EventType.MEM_TO_REG, src_addr=0x80, size=4, is_load=True, dest_reg=0)
        acc.process(record)
        acc.process(AnnotationRecord(EventType.FREE, address=0x80, size=4))
        delivered = acc.process(record)
        assert len(delivered) == 1  # re-delivered after invalidation

    def test_rare_event_delivered_to_handler(self):
        etct, calls = _etct_with(EventType.MALLOC)
        acc = EventAccelerator(etct, AcceleratorConfig.baseline())
        delivered = acc.process(AnnotationRecord(EventType.MALLOC, address=0x9000, size=64))
        assert [e.event_type for e in delivered] == [EventType.MALLOC]

    def test_check_classification_covers_all_kinds(self):
        etct, _ = _etct_with(
            EventType.MEM_LOAD, EventType.MEM_STORE, EventType.ADDR_COMPUTE,
            EventType.COND_TEST, EventType.INDIRECT_JUMP,
        )
        acc = EventAccelerator(etct, AcceleratorConfig.baseline())
        record = InstructionRecord(
            pc=1, event_type=EventType.MEM_SELF, dest_addr=0x40, size=4,
            is_load=True, is_store=True, base_reg=4, src_addr=0x40,
        )
        delivered = acc.process(record)
        types = {e.event_type for e in delivered}
        assert EventType.MEM_LOAD in types
        assert EventType.MEM_STORE in types
        assert EventType.ADDR_COMPUTE in types

    def test_indirect_jump_flushes_it_register(self):
        etct, _ = _etct_with(EventType.MEM_TO_REG, EventType.INDIRECT_JUMP)
        acc = EventAccelerator(etct, AcceleratorConfig())
        acc.process(_instruction(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x80, size=4,
                                 is_load=True))
        delivered = acc.process(
            InstructionRecord(pc=2, event_type=EventType.INDIRECT_JUMP, src_reg=0,
                              is_indirect_jump=True)
        )
        types = [e.event_type for e in delivered]
        assert types[0] is EventType.MEM_TO_REG
        assert EventType.INDIRECT_JUMP in types

    def test_reduction_statistics(self):
        etct, _ = _etct_with(EventType.MEM_LOAD, EventType.MEM_TO_REG,
                             cacheable={EventType.MEM_LOAD})
        without_it = EventAccelerator(etct, AcceleratorConfig(it=ITConfig(enabled=False)))
        acc = EventAccelerator(etct, AcceleratorConfig())
        record = _instruction(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x80, size=4, is_load=True)
        for _ in range(4):
            without_it.process(record)
            acc.process(record)
        assert without_it.stats.propagation_events_delivered == 4
        assert acc.stats.propagation_events_delivered == 0
        assert update_event_reduction(without_it.stats, acc.stats) == 1.0
        # nothing delivered without IT: nothing to reduce
        assert update_event_reduction(acc.stats, acc.stats) == 0.0
        assert 0.0 < acc.stats.check_event_reduction < 1.0
