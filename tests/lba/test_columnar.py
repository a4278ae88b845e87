"""Run-boundary edge cases of the columnar dispatch engine.

The conformance matrix proves the engine bit-identical over whole
workload streams; these tests aim crafted record sequences at the
run-grouping machinery itself -- runs of length one, long same-ordinal
runs, runs spanning trace chunk boundaries and shadow pages, mixed-ordinal
chunks, annotation rows splitting runs, addresses outside int64, and the
scalar fallback paths.  Every case is compared with the per-record
``EventDispatcher.consume`` reference.
"""

import os

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline
from repro.trace.tracefile import TraceReader, TraceWriter

HEAP = 0x0900_0000

LIFEGUARDS = sorted(ALL_LIFEGUARDS)


def _load(i, reg=None):
    return InstructionRecord(
        pc=0x0804_8000 + 4 * i, event_type=EventType.MEM_TO_REG,
        dest_reg=(reg if reg is not None else i % 8),
        src_addr=HEAP + (i % 64) * 4, size=4, is_load=True, base_reg=(i + 1) % 8,
    )


def _store(i):
    return InstructionRecord(
        pc=0x0804_9000 + 4 * i, event_type=EventType.REG_TO_MEM,
        src_reg=i % 8, dest_addr=HEAP + (i % 64) * 4, size=4, is_store=True,
        base_reg=(i + 2) % 8,
    )


def _unary(i):
    return InstructionRecord(
        pc=0x0804_A000 + 4 * i, event_type=EventType.REG_SELF, dest_reg=i % 8,
    )


def _cond(i):
    return InstructionRecord(
        pc=0x0804_B000 + 4 * i, event_type=EventType.COND_TEST,
        src_reg=i % 8, is_cond_test=True,
    )


def _malloc(i):
    return AnnotationRecord(
        event_type=EventType.MALLOC, address=HEAP + 4096 * i, size=256,
        pc=0x0804_7F00,
    )


def _other(i):
    return InstructionRecord(
        pc=0x0804_C000 + 4 * i, event_type=EventType.OTHER,
        dest_reg=i % 8, src_reg=(i + 3) % 8,
    )


def _reference(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _chunks(records, chunk_rows=None):
    """One column set, or ``chunk_rows``-row column sets that cut runs."""
    if chunk_rows is None:
        return [RecordColumns.from_records(records)]
    return [RecordColumns.from_records(records[i:i + chunk_rows])
            for i in range(0, len(records), chunk_rows)]


def _columnar(chunks, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    engine = ColumnarEngine(dispatcher)
    cycles = sum(engine.consume_columns(columns) for columns in chunks)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _assert_matches(ref, col):
    """Reports, stats, cycles, mapper counters and IT/IF/M-TLB state agree."""
    assert col[2].stats.diff(ref[2].stats) == {}
    assert col[1].stats == ref[1].stats
    assert col[3] == ref[3]
    assert col[0].reports == ref[0].reports
    assert col[0].mapper_stats() == ref[0].mapper_stats()
    assert col[1].state_signature() == ref[1].state_signature()


def _assert_identical(records, lifeguard_name, chunk_rows=None):
    _assert_matches(
        _reference(records, lifeguard_name),
        _columnar(_chunks(records, chunk_rows), lifeguard_name),
    )


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_runs_of_length_one(lifeguard):
    """Strictly alternating ordinals: every run is a single record."""
    records = []
    for i in range(40):
        records.append(_load(i))
        records.append(_unary(i))
        records.append(_store(i))
        records.append(_cond(i))
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_mixed_ordinal_chunks(lifeguard):
    """Short runs of every shape mixed with annotations and ``other``."""
    records = [_malloc(0)]
    for i in range(30):
        records.append(_load(i))
        if i % 3 == 0:
            records.append(_store(i))
            records.append(_store(i + 1))
        if i % 5 == 0:
            records.append(_other(i))
        if i % 7 == 0:
            records.append(_malloc(i + 1))
        records.append(_cond(i))
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_annotation_splits_a_run(lifeguard):
    """An annotation row mid-run forces a boundary and a scalar fallback."""
    records = [_malloc(0)] + [_load(i) for i in range(10)]
    records += [_malloc(1)]
    records += [_load(i) for i in range(10, 20)]
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_address_compute_flushes_the_index_register(lifeguard):
    """A check reading an ``addr``-state index register flushes it first."""
    records = [
        _malloc(0),
        InstructionRecord(pc=0x600, event_type=EventType.MEM_TO_REG, dest_reg=3,
                          src_addr=HEAP, size=4, is_load=True),
        InstructionRecord(pc=0x604, event_type=EventType.MEM_TO_REG, dest_reg=4,
                          src_addr=HEAP + 0x10, size=4, is_load=True,
                          base_reg=2, index_reg=3),
    ]
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_store_to_last_inherited_byte_flushes_the_register(lifeguard):
    """A 1-byte store overlapping only the last byte of an inherited range
    still flushes the register, so the later store of it is not transformed."""
    records = [
        _malloc(0),
        InstructionRecord(pc=0x700, event_type=EventType.MEM_TO_REG, dest_reg=3,
                          src_addr=HEAP + 0x20, size=4, is_load=True),
        InstructionRecord(pc=0x704, event_type=EventType.IMM_TO_MEM,
                          dest_addr=HEAP + 0x23, size=1, is_store=True),
        InstructionRecord(pc=0x708, event_type=EventType.REG_TO_MEM, src_reg=3,
                          dest_addr=HEAP + 0x40, size=4, is_store=True),
    ]
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", ["MemCheck", "TaintCheck", "AddrCheck"])
def test_chunk_spanning_runs_via_trace_replay(tmp_path, lifeguard):
    """One long homogeneous run split across trace chunks replays identically.

    Chunk boundaries reset the codec but must not perturb dispatch: the
    engine sees the run as two column sets whose concatenated consumption
    equals the scalar loop over the whole stream.
    """
    records = [_malloc(0)] + [_load(i) for i in range(600)] + [
        _store(i) for i in range(600)
    ]
    path = os.fspath(tmp_path / "span.lbatrace")
    with TraceWriter(path, chunk_bytes=512) as writer:
        writer.extend(records)
    assert writer.stats.chunks > 2, "trace must span several chunks"

    ref = _reference(records, lifeguard)

    lifeguard_obj = ALL_LIFEGUARDS[lifeguard]()
    accelerator, dispatcher = build_pipeline(lifeguard_obj)
    engine = ColumnarEngine(dispatcher)
    cycles = 0
    with TraceReader(path) as reader:
        for index in range(reader.num_chunks):
            cycles += engine.consume_columns(reader.read_chunk_columns(index))
    lifeguard_obj.finalize()

    assert dispatcher.stats == ref[2].stats
    assert accelerator.stats == ref[1].stats
    assert cycles == ref[3]
    assert lifeguard_obj.reports == ref[0].reports


def test_engine_degrades_to_batched_path_with_hierarchy():
    """With a cache hierarchy the engine must fall back (and stay identical)."""
    records = [_malloc(0)] + [_load(i) for i in range(50)] + [_store(i) for i in range(20)]

    def run(columnar):
        lifeguard = ALL_LIFEGUARDS["MemCheck"]()
        accelerator, _ = build_pipeline(lifeguard)
        hierarchy = MemoryHierarchy(num_cores=2)
        dispatcher = EventDispatcher(lifeguard, accelerator, hierarchy)
        if columnar:
            engine = ColumnarEngine(dispatcher)
            assert not engine.supported
            cycles = engine.consume_columns(RecordColumns.from_records(records))
        else:
            cycles = sum(dispatcher.consume(record) for record in records)
        return dispatcher.stats, cycles

    scalar_stats, scalar_cycles = run(columnar=False)
    columnar_stats, columnar_cycles = run(columnar=True)
    assert scalar_stats == columnar_stats
    assert scalar_cycles == columnar_cycles


# ------------------------------------------------------------------ long runs
#
# Captured traces average about 1.3 rows per run.  These streams drive the
# run steps with long same-ordinal runs, each dispatched whole and cut into
# 40-row chunks.

#: Level-1 page size of the two-level shadow maps (level1_bits=16).
L1_PAGE = 1 << 16


def _alloc(base, size):
    return AnnotationRecord(event_type=EventType.MALLOC, address=base, size=size, pc=0x10)


def _store_imm(addr, pc=0x200):
    return InstructionRecord(pc=pc, event_type=EventType.IMM_TO_MEM,
                             dest_addr=addr, size=4, is_store=True)


def _load_reg(addr, reg, pc=0x300):
    return InstructionRecord(pc=pc, event_type=EventType.MEM_TO_REG,
                             dest_reg=reg, src_addr=addr, size=4, is_load=True)


def _cond_test(reg, pc=0x400):
    return InstructionRecord(pc=pc, event_type=EventType.COND_TEST,
                             src_reg=reg, is_cond_test=True)


def _mem_load(addr, pc=0x500):
    return InstructionRecord(pc=pc, event_type=EventType.MEM_LOAD,
                             src_addr=addr, size=4, is_load=True)


def _same_ordinal_runs(n_blocks=3, run=48):
    """Runs of ``run`` rows of four event shapes over disjoint heap blocks."""
    records = []
    for block in range(n_blocks):
        base = HEAP + block * 0x40000
        records.append(_alloc(base, run * 8))
        records.extend(_store_imm(base + 4 * i, pc=0x200 + block) for i in range(run))
        records.extend(_load_reg(base + 4 * i, i % 4, pc=0x300 + block) for i in range(run))
        records.extend(_cond_test(5, pc=0x400 + block) for _ in range(run))
        records.extend(_mem_load(base + 4 * i, pc=0x500 + block) for i in range(run))
    return records


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_same_ordinal_runs_match_consume(lifeguard):
    records = _same_ordinal_runs()
    for chunk_rows in (None, 40):
        _assert_identical(records, lifeguard, chunk_rows)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_page_spanning_runs_match_consume(lifeguard):
    """Runs over a block that straddles a shadow level-1 page boundary."""
    base = HEAP + L1_PAGE - 96
    run = 48
    records = [_alloc(base, run * 4)]
    records.extend(_store_imm(base + 4 * i) for i in range(run))
    records.extend(_load_reg(base + 4 * i, i % 4) for i in range(run))
    records.extend(_mem_load(base + 4 * i) for i in range(run))
    for chunk_rows in (None, 40):
        _assert_identical(records, lifeguard, chunk_rows)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_addresses_beyond_int64_match_consume(lifeguard):
    """``2**64 + HEAP`` is a huge non-heap address: anything that cut it to
    64 bits would alias it back into the heap and diverge here."""
    run = 32
    records = [_alloc(HEAP, 0x1000)]
    records.extend(_store_imm((1 << 64) + HEAP + 4 * i) for i in range(run))
    records.extend(_load_reg((1 << 64) + HEAP + 4 * i, i % 4) for i in range(run))
    records.extend(_mem_load((1 << 63) + 4 * i) for i in range(run))
    for chunk_rows in (None, 40):
        _assert_identical(records, lifeguard, chunk_rows)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_addresses_near_int64_match_consume(lifeguard):
    """Addresses just above ``2**62``, where ``address + size`` nears int64."""
    run = 32
    base = (1 << 62) + 16
    records = [_store_imm(base + 4 * i) for i in range(run)]
    records.extend(_load_reg(base + 4 * i, i % 4) for i in range(run))
    for chunk_rows in (None, 40):
        _assert_identical(records, lifeguard, chunk_rows)


def test_hand_built_columns_get_runs_lazily():
    """Columns without a run table are grouped on first consumption."""
    records = [_load(i) for i in range(8)]
    columns = RecordColumns.from_records(records)
    columns.runs = []
    lifeguard = ALL_LIFEGUARDS["AddrCheck"]()
    _, dispatcher = build_pipeline(lifeguard)
    ColumnarEngine(dispatcher).consume_columns(columns)
    assert columns.runs
    assert dispatcher.stats.records_consumed == len(records)
