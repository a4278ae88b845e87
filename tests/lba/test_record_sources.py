"""The dual-core platform monitors a record stream, whatever its source.

``LBASystem`` sees only records: ``LogProducer.account``,
``EventDispatcher.consume`` and ``CouplingModel.observe`` read nothing
else.  So monitoring a stored trace (a ``TraceReader`` over
``capture_trace``'s file), the profiler's record list and a fresh machine's
records must report the same numbers: the timing breakdown, every cache's
statistics on both cores and the L2, the dispatch, accelerator and mapper
statistics, the producer's counts, and the reports in order.  This pins that the trace
codec round-trips every field the monitoring loop reads.  The caches are
the live golden's small ones, which evict on 13 of the 16 workloads, so an
address that changed in the round trip would move a cache number.
"""

import dataclasses

import pytest

from repro.analysis.profiler import Profiler
from repro.core.config import OPTIMIZED_CONFIG
from repro.experiments.harness import capture_trace
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import LockSet, MemCheck
from repro.trace.tracefile import TraceReader
from repro.workloads.base import get_workload, workload_names
from tests.lba.test_live_golden import SMALL_HIERARCHY, hierarchy_state, monitoring_state

SCALE = 0.3
SPEC = workload_names(multithreaded=False)
MULTITHREADED = workload_names(multithreaded=True)
CONFIG = dataclasses.replace(OPTIMIZED_CONFIG, hierarchy=SMALL_HIERARCHY)


def monitored(records, lifeguard_cls):
    """Every simulated number one monitored run over ``records`` reports."""
    system = LBASystem(records, lifeguard_cls(), CONFIG)
    result = system.run()
    assert result.producer.records > 0 and system.hierarchy.l2.stats.misses > 0
    return monitoring_state(result), hierarchy_state(system.hierarchy)


@pytest.mark.parametrize(
    "workload, lifeguard_cls",
    [(name, MemCheck) for name in SPEC] + [(name, LockSet) for name in MULTITHREADED],
)
def test_trace_and_list_monitor_as_the_machine(tmp_path, workload, lifeguard_cls):
    path = tmp_path / f"{workload}.lbatrace"
    capture_trace(workload, path, scale=SCALE)
    machine = get_workload(workload, scale=SCALE).build_machine()
    live = monitored(iter_machine_records(machine), lifeguard_cls)
    with TraceReader(path) as reader:
        stored = monitored(reader, lifeguard_cls)
    listed = monitored(Profiler().trace(workload, SCALE), lifeguard_cls)
    assert stored == live
    assert listed == live
