"""Shared helpers for the figure-regeneration experiments.

:func:`run_monitored` runs one (lifeguard, benchmark, configuration)
combination on the dual-core platform.  This module also provides the
capture half of the capture-once / replay-many path: :func:`capture_trace`
executes a workload a single time while serializing its log into a chunked
trace file, which :func:`repro.trace.replay.replay_trace` then re-analyses
with any lifeguard without re-running the ISA machine.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.analysis.profiler import Profiler
from repro.core.config import SystemConfig
import repro.lba.capture as capture
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem, MonitoringResult
from repro.lifeguards import (
    ALL_LIFEGUARDS,
    AddrCheck,
    LockSet,
    MemCheck,
    TaintCheck,
    TaintCheckDetailed,
)
from repro.lifeguards.base import Lifeguard
from repro.trace.tracefile import TraceStats, TraceWriter
from repro.workloads.base import get_workload, workload_names

#: Technique stacks applied one by one, per lifeguard (the bars of Figure 11).
#: Each entry is ``(label, lma, it, idempotent_filter)``.
TECHNIQUE_STACKS: Dict[str, List[Tuple[str, bool, bool, bool]]] = {
    AddrCheck.name: [
        ("BASE", False, False, False),
        ("LMA", True, False, False),
        ("LMA+IF", True, False, True),
    ],
    MemCheck.name: [
        ("BASE", False, False, False),
        ("LMA", True, False, False),
        ("LMA+IT", True, True, False),
        ("LMA+IT+IF", True, True, True),
    ],
    TaintCheck.name: [
        ("BASE", False, False, False),
        ("LMA", True, False, False),
        ("LMA+IT", True, True, False),
    ],
    TaintCheckDetailed.name: [
        ("BASE", False, False, False),
        ("LMA", True, False, False),
        ("LMA+IT", True, True, False),
    ],
    LockSet.name: [
        ("BASE", False, False, False),
        ("LMA", True, False, False),
        ("LMA+IF", True, False, True),
    ],
}


def make_config(lma: bool, it: bool, idempotent_filter: bool) -> SystemConfig:
    """Build a :class:`SystemConfig` with the given techniques enabled."""
    return SystemConfig().with_techniques(lma=lma, it=it, idempotent_filter=idempotent_filter)


def benchmarks_for(lifeguard_name: str,
                   benchmarks: Optional[Sequence[str]] = None) -> List[str]:
    """The benchmark list a lifeguard is evaluated on (LOCKSET uses Table 3)."""
    if benchmarks is not None:
        return list(benchmarks)
    return workload_names(multithreaded=lifeguard_name == LockSet.name)


def run_monitored(
    lifeguard_cls: Type[Lifeguard],
    benchmark: str,
    config: SystemConfig,
    scale: float = 1.0,
    config_label: str = "",
    profiler: Optional[Profiler] = None,
) -> MonitoringResult:
    """Run one (lifeguard, benchmark, configuration) combination.

    With a ``profiler`` the run monitors ``profiler.trace(benchmark, scale)``,
    so runs that share it share one execution; records are immutable named
    tuples, so the shared list carries no state from run to run.  Without
    one, the run builds and executes the workload's machine.
    """
    if profiler is None:
        machine = get_workload(benchmark, scale=scale).build_machine()
        # Looked up on the module at call time, so a wrapper installed there
        # (the benchmark's layer tracer) sees the machine's record stream.
        records = capture.iter_machine_records(machine)
    else:
        records = profiler.trace(benchmark, scale)
    system = LBASystem(records, lifeguard_cls(), config, workload_name=benchmark)
    return system.run(config_label or "custom")


def lifeguard_classes(names: Optional[Sequence[str]] = None) -> List[Type[Lifeguard]]:
    """Resolve lifeguard names (default: all five of the paper)."""
    if names is None:
        return list(ALL_LIFEGUARDS.values())
    return [ALL_LIFEGUARDS[name] for name in names]


# --------------------------------------------------------------- trace capture


def trace_path_for(trace_dir: Union[str, os.PathLike], benchmark: str) -> str:
    """Canonical on-disk location of a benchmark's captured trace."""
    return os.path.join(os.fspath(trace_dir), f"{benchmark}.lbatrace")


def capture_trace(
    benchmark: str,
    path: Union[str, os.PathLike],
    scale: float = 1.0,
    compress: bool = True,
    chunk_bytes: int = 64 * 1024,
) -> TraceStats:
    """Run a workload once, capturing its full log into a trace file.

    The capture run needs no lifeguard, no cache hierarchy and no
    application-core cost model -- only the functional record stream
    matters -- so the machine's records go straight into the
    :class:`TraceWriter`, each encoded once.  It is the cheapest way to
    bank a workload for repeated offline analysis: a
    :class:`repro.lba.platform.LBASystem` over a
    :class:`repro.trace.tracefile.TraceReader` of the file reports what it
    reports over the machine, and :func:`repro.trace.replay.replay_trace`
    re-analyses it without the cache and coupling models.
    """
    machine = get_workload(benchmark, scale=scale).build_machine()
    with TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) as writer:
        writer.extend(iter_machine_records(machine))
    return writer.stats
