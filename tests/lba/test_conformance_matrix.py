"""Differential conformance matrix: every lifeguard × every workload.

Three legs check every cell of the matrix against the per-record dispatch
loop (``EventDispatcher.consume``) over the same cached record stream:

* the run-grouped columnar engine (``ColumnarEngine.consume_columns``
  over a structure-of-arrays flattening of the record stream), under the
  default configuration on every cell and under every Figure-11 technique
  stack (``TECHNIQUE_STACKS``) on two workloads, so software translations
  (LMA off), IT off and IF off are compared too,
* the same engine with a cache hierarchy attached, where
  ``consume_columns`` dispatches the column batch record by record
  through ``consume``, against a ``consume`` loop over the same
  hierarchy (cache-latency charging and cache statistics included),
* the live platform, :meth:`LBASystem.run`, which runs the workload's
  machine afresh and drives each record through the producer, the cache
  hierarchy and the coupling model.

For the two columnar legs "agree" means identical error reports,
identical lifeguard cycle counts and identical statistics --
:class:`DispatchStats`, :class:`AcceleratorStats`, mapper counters and
the *internal* accelerator state (IT table, Idempotent-Filter contents
and LRU order, M-TLB CAM and counters).  The live leg must produce the
same reports in order, the same record count and the same statistics
except lifeguard cycles, which include the live run's cache latencies.

The matrix spans all five lifeguards and *every* registered workload
(the full SPEC-analogue suite plus the multithreaded Table 3 suite), so
any new fast path that diverges from its reference path, on any workload
family, fails here rather than in an experiment eyeball.

Adding a lifeguard: register it in ``repro.lifeguards.ALL_LIFEGUARDS``
and it joins the matrix automatically -- the parametrization below reads
the registry.
"""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import SystemConfig
from repro.experiments.harness import TECHNIQUE_STACKS, make_config
from repro.lba.capture import iter_machine_records
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline
from repro.workloads.base import get_workload, workload_names

#: Small but non-trivial inputs: every workload still exercises its loops,
#: allocations and annotations, and the whole matrix stays CI-friendly.
SCALE = 0.15

LIFEGUARDS = sorted(ALL_LIFEGUARDS)
WORKLOADS = workload_names() + workload_names(multithreaded=True)

#: The technique-stack leg's workloads: a single-threaded program with heap
#: churn and a multithreaded one with locks and heap churn.
STACK_WORKLOADS = ("gap", "pbzip2")
#: ``(lifeguard, stack label, (lma, it, idempotent_filter))`` per bar of
#: Figure 11.
STACKS = [
    (lifeguard, label, (lma, it, idempotent_filter))
    for lifeguard in LIFEGUARDS
    for label, lma, it, idempotent_filter in TECHNIQUE_STACKS[lifeguard]
]


@pytest.fixture(scope="module")
def record_streams():
    """Lazily-built cache of each workload's full record stream."""
    streams = {}

    def build(name):
        if name not in streams:
            machine = get_workload(name, scale=SCALE).build_machine()
            streams[name] = list(iter_machine_records(machine))
        return streams[name]

    return build


def _pipeline(lifeguard, hierarchy, config=None):
    accelerator, dispatcher = build_pipeline(lifeguard, config)
    if hierarchy:
        dispatcher = EventDispatcher(lifeguard, accelerator, MemoryHierarchy(num_cores=2))
    return accelerator, dispatcher


def _run_per_record(records, lifeguard_name, hierarchy=False, config=None):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = _pipeline(lifeguard, hierarchy, config)
    cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _run_batched(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = _pipeline(lifeguard, hierarchy=True)
    engine = ColumnarEngine(dispatcher)
    assert not engine.supported
    cycles = engine.consume_columns(RecordColumns.from_records(records))
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _run_columnar(records, lifeguard_name, config=None):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard, config)
    engine = ColumnarEngine(dispatcher)
    # A shipped lifeguard's replay runs the run steps, not the scalar loop
    # (whose results would be identical, so only this assertion sees it).
    assert engine.supported
    cycles = engine.consume_columns(RecordColumns.from_records(records))
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _assert_accelerator_state_equal(ref, col):
    """Internal accelerator-stack state must match, not just the counters.

    ``state_signature()`` snapshots the IT table, the Idempotent-Filter
    sets *including LRU order* and the M-TLB CAM *including LRU order*
    (with ``None`` for disabled components, which also pins down that both
    pipelines enabled the same techniques).
    """
    assert ref.state_signature() == col.state_signature()
    if ref.it is not None:
        assert ref.it.stats == col.it.stats
    if ref.idempotent_filter is not None:
        assert ref.idempotent_filter.stats == col.idempotent_filter.stats
    if ref.mtlb is not None:
        assert ref.mtlb.stats == col.mtlb.stats


def _cache_signature(hierarchy):
    """Every cache counter of the hierarchy plus its memory accesses."""
    caches = [hierarchy.l2] + [
        cache
        for core in range(hierarchy.num_cores)
        for cache in (hierarchy.core(core).l1i, hierarchy.core(core).l1d)
    ]
    return [cache.stats for cache in caches], hierarchy.memory_accesses


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_batched_dispatch_matches_per_record(record_streams, lifeguard, workload):
    """A column batch with a cache hierarchy attached matches a ``consume`` loop.

    With a hierarchy the engine cannot group runs (each event's metadata
    address feeds the cache model), so ``consume_columns`` rebuilds the
    records from the columns and dispatches them one by one.  Both sides
    model the same hierarchy, so this also pins down the cache-latency
    cycles and every cache counter.
    """
    records = record_streams(workload)
    assert records, f"workload {workload} produced no records"
    per = _run_per_record(records, lifeguard, hierarchy=True)
    batched = _run_batched(records, lifeguard)
    # .diff() names exactly which counters diverged on failure.
    assert per[2].stats.diff(batched[2].stats) == {}  # DispatchStats
    assert per[1].stats == batched[1].stats          # AcceleratorStats
    assert per[3] == batched[3]                      # total lifeguard cycles
    assert per[3] == per[2].stats.lifeguard_cycles
    assert per[0].reports == batched[0].reports      # error reports
    assert per[0].mapper_stats() == batched[0].mapper_stats()
    assert _cache_signature(per[2].hierarchy) == _cache_signature(batched[2].hierarchy)
    _assert_accelerator_state_equal(per[1], batched[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_columnar_dispatch_matches_per_record(record_streams, lifeguard, workload):
    """The columnar engine is bit-identical to a ``consume`` loop on every cell.

    Beyond the externally observable outcome (stats, cycles, reports) this
    also compares the internal accelerator state -- IT table contents, the
    Idempotent Filter's sets *including LRU order*, the M-TLB CAM and the
    mapper counters -- so a fast path that reaches the same totals through
    different hardware-state evolution still fails.
    """
    records = record_streams(workload)
    assert records, f"workload {workload} produced no records"
    _assert_columnar_agrees(
        _run_per_record(records, lifeguard), _run_columnar(records, lifeguard)
    )


@pytest.mark.parametrize("workload", STACK_WORKLOADS)
@pytest.mark.parametrize(
    "lifeguard,label,techniques", STACKS, ids=[f"{lg}-{label}" for lg, label, _ in STACKS]
)
def test_columnar_dispatch_matches_per_record_under_every_stack(
    record_streams, lifeguard, label, techniques, workload
):
    """The columnar engine matches ``consume`` under each Figure-11 stack.

    The engine charges a chunk's translations from the mapper's counters;
    without LMA each one costs the five-instruction walk and two metadata
    accesses, and without IT every propagation row is a fallback
    ``consume`` row whose translations the engine must not charge twice.
    """
    records = record_streams(workload)
    config = make_config(*techniques)
    _assert_columnar_agrees(
        _run_per_record(records, lifeguard, config=config),
        _run_columnar(records, lifeguard, config=config),
    )


def _assert_columnar_agrees(per, columnar):
    """Stats, cycles, reports, mapper counters and accelerator state agree."""
    assert per[2].stats.diff(columnar[2].stats) == {}  # DispatchStats
    assert per[1].stats == columnar[1].stats         # AcceleratorStats
    assert per[3] == columnar[3]                     # total lifeguard cycles
    assert columnar[3] == columnar[2].stats.lifeguard_cycles
    assert per[0].reports == columnar[0].reports     # error reports
    assert per[0].mapper_stats() == columnar[0].mapper_stats()
    _assert_accelerator_state_equal(per[1], columnar[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_live_platform_matches_per_record(record_streams, lifeguard, workload):
    """``LBASystem.run`` reports what a ``consume`` loop over its records reports.

    The live run charges cache latencies to the lifeguard core, so only
    ``lifeguard_cycles`` may differ; every other counter, the mapper
    counters and the reports in order must be equal.
    """
    records = record_streams(workload)
    per = _run_per_record(records, lifeguard)
    live = LBASystem(
        get_workload(workload, scale=SCALE).build_machine(),
        ALL_LIFEGUARDS[lifeguard](),
        SystemConfig(),
        workload_name=workload,
    ).run()
    assert live.reports == per[0].reports
    assert live.dispatch.diff(per[2].stats, ignore=("lifeguard_cycles",)) == {}
    assert live.accelerator == per[1].stats
    assert live.mapper == per[0].mapper_stats()
    assert live.producer.records == len(records)
