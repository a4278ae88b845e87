"""Batched-columns-vs-per-record dispatch equivalence.

Replay hands the dispatcher one decoded column batch per trace chunk, so
runs are cut wherever a chunk ends.  ``ColumnarEngine.consume_columns``
fed a record stream in fixed-size column batches must produce
*bit-identical* simulated-cycle accounting to a per-record ``consume``
loop -- same :class:`DispatchStats`, same :class:`AcceleratorStats`, same
total lifeguard cycles and same error reports -- for every lifeguard, with
and without a modelled cache hierarchy.
"""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.isa.machine import Machine
from repro.lba.capture import LogProducer
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline
from repro.workloads.base import get_workload
from repro.workloads.bugs import double_free, uninitialized_condition, use_after_free

#: Rows per column batch: small and odd enough to cut runs mid-way.
BATCH_ROWS = 61


def _workload_records(name, scale=0.3):
    workload = get_workload(name, scale=scale)
    producer = LogProducer(workload.build_machine(), None)
    return [record for record, _cost in producer.stream()]


@pytest.fixture(scope="module")
def spec_records():
    """A single-threaded SPEC-analogue record stream (loads/stores/annotations)."""
    return _workload_records("mcf")


@pytest.fixture(scope="module")
def multithreaded_records():
    """A multithreaded stream with lock/unlock and thread events."""
    return _workload_records("pbzip2")


@pytest.fixture(scope="module")
def buggy_records():
    """Record streams that actually trigger lifeguard reports."""
    records = []
    for program in (use_after_free(), double_free(), uninitialized_condition()):
        records.extend(Machine(program).trace())
    return records


def _pipeline(lifeguard, hierarchy):
    accelerator, dispatcher = build_pipeline(lifeguard)
    if hierarchy:
        dispatcher = EventDispatcher(lifeguard, accelerator, MemoryHierarchy(num_cores=2))
    return accelerator, dispatcher


def _run_per_record(records, lifeguard_name, hierarchy=False):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = _pipeline(lifeguard, hierarchy)
    cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _run_batched(records, lifeguard_name, hierarchy=False):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = _pipeline(lifeguard, hierarchy)
    engine = ColumnarEngine(dispatcher)
    assert engine.supported is not hierarchy
    cycles = 0
    for start in range(0, len(records), BATCH_ROWS):
        batch = RecordColumns.from_records(records[start:start + BATCH_ROWS])
        cycles += engine.consume_columns(batch)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _assert_identical(per, batched):
    lifeguard_p, accelerator_p, dispatcher_p, cycles_p = per
    lifeguard_b, accelerator_b, dispatcher_b, cycles_b = batched
    assert dispatcher_p.stats == dispatcher_b.stats
    assert accelerator_p.stats == accelerator_b.stats
    assert cycles_p == cycles_b
    assert cycles_p == dispatcher_p.stats.lifeguard_cycles
    assert lifeguard_p.reports == lifeguard_b.reports


@pytest.mark.parametrize("name", sorted(ALL_LIFEGUARDS))
def test_batched_matches_per_record_on_spec_stream(spec_records, name):
    assert len(spec_records) > BATCH_ROWS
    _assert_identical(
        _run_per_record(spec_records, name), _run_batched(spec_records, name)
    )


def test_batched_matches_per_record_multithreaded_lockset(multithreaded_records):
    _assert_identical(
        _run_per_record(multithreaded_records, "LockSet"),
        _run_batched(multithreaded_records, "LockSet"),
    )


@pytest.mark.parametrize("name", ["AddrCheck", "MemCheck"])
def test_batched_matches_per_record_with_reports(buggy_records, name):
    per = _run_per_record(buggy_records, name)
    batched = _run_batched(buggy_records, name)
    _assert_identical(per, batched)
    assert per[0].reports, "bug workloads should produce reports"


@pytest.mark.parametrize("name", ["MemCheck", "TaintCheck"])
def test_batched_matches_per_record_with_cache_hierarchy(buggy_records, name):
    """Cache-latency charging must also be identical between the two paths."""
    per = _run_per_record(buggy_records, name, hierarchy=True)
    batched = _run_batched(buggy_records, name, hierarchy=True)
    _assert_identical(per, batched)
    assert per[2].hierarchy.memory_accesses == batched[2].hierarchy.memory_accesses
