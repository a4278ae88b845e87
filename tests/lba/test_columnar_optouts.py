"""LockSet's span paths and TaintCheckDetailed's opt-out match ``consume``.

``TaintCheckDetailed`` is the one shipped lifeguard that registers **no**
span fast handlers (:meth:`Lifeguard.columnar_handlers` returns ``{}``):
its overridden scalar handlers add provenance recording that inherited
fast paths would silently skip, so the columnar engine delivers its events
generically.  ``LockSet`` registers load and store span paths that its
scalar handlers delegate to; its per-word lockset state machine, its
per-thread filter keys and the annotation-driven filter flushes are the
behaviour the fixed workloads exercise least.  For both, the engine must
stay *bit-identical* to the scalar ``consume`` loop: same reports, same
DispatchStats/AcceleratorStats, same cycles, same mapper counters, and the
same internal accelerator state (Idempotent-Filter sets with LRU order for
LockSet, IT table and M-TLB CAM for TaintCheckDetailed).

Fuzzed programs -- multithreaded, tainted, lock-heavy and bug-injected
seeds -- provide the record streams, so both paths are exercised across
annotation splits, cross-thread interleavings and error-reporting paths
rather than just the fixed workloads.
"""

import pytest

from repro.lba.columnar import ColumnarEngine
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline
from repro.isa.threads import ThreadedMachine
from repro.workloads.generator import build_fuzz_programs, generate_spec

LIFEGUARDS = ("LockSet", "TaintCheckDetailed")

#: A structurally diverse seed slice: clean single/multi-threaded, tainted,
#: and every injected bug class (see ``profile_for_seed``).
FUZZ_SEEDS = (0, 1, 2, 3, 5, 6, 7, 13, 14)


@pytest.fixture(scope="module")
def fuzz_streams():
    streams = {}

    def build(seed):
        if seed not in streams:
            streams[seed] = ThreadedMachine(
                build_fuzz_programs(generate_spec(seed))
            ).trace()
        return streams[seed]

    return build


@pytest.mark.parametrize("name", ("TaintCheckDetailed",))
def test_opt_out_registers_no_fast_handlers(name):
    assert ALL_LIFEGUARDS[name]().columnar_handlers() == {}


@pytest.mark.parametrize("name", LIFEGUARDS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fallback_matches_scalar_on_fuzzed_programs(fuzz_streams, name, seed):
    records = fuzz_streams(seed)
    assert records

    scalar_lifeguard = ALL_LIFEGUARDS[name]()
    scalar_accel, scalar_dispatch = build_pipeline(scalar_lifeguard)
    scalar_cycles = sum(scalar_dispatch.consume(record) for record in records)
    scalar_lifeguard.finalize()

    columnar_lifeguard = ALL_LIFEGUARDS[name]()
    columnar_accel, columnar_dispatch = build_pipeline(columnar_lifeguard)
    engine = ColumnarEngine(columnar_dispatch)
    columnar_cycles = engine.consume_columns(RecordColumns.from_records(records))
    columnar_lifeguard.finalize()

    assert columnar_lifeguard.reports == scalar_lifeguard.reports
    assert columnar_dispatch.stats == scalar_dispatch.stats
    assert columnar_accel.stats == scalar_accel.stats
    assert columnar_cycles == scalar_cycles
    assert columnar_lifeguard.mapper_stats() == scalar_lifeguard.mapper_stats()
    assert columnar_accel.state_signature() == scalar_accel.state_signature()


@pytest.mark.parametrize("seed", (5, 13))
def test_lockset_detects_fuzzed_race_through_fallback(fuzz_streams, seed):
    """The race seeds' DATA_RACE report comes through LockSet's span paths."""
    from repro.lifeguards.reports import ErrorKind

    records = fuzz_streams(seed)
    lifeguard = ALL_LIFEGUARDS["LockSet"]()
    _, dispatcher = build_pipeline(lifeguard)
    ColumnarEngine(dispatcher).consume_columns(RecordColumns.from_records(records))
    lifeguard.finalize()
    assert any(report.kind is ErrorKind.DATA_RACE for report in lifeguard.reports)
