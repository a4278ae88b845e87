"""Shared helpers for the figure-regeneration experiments.

Besides the live-run helpers this module provides the capture-once /
replay-many path: :func:`capture_trace` executes a workload a single time
while serializing its log into a chunked trace file, and
:func:`replay_captured` re-analyses that stored trace with any lifeguard
(optionally sharded across worker processes) without re-running the ISA
machine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.config import SystemConfig
from repro.lba.capture import iter_machine_records
from repro.lba.multicore import MultiCoreLBASystem, MultiCoreResult
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
from repro.trace.replay import MultiTraceReplay, ParallelReplay, ReplayResult, replay_trace
from repro.trace.supervisor import SupervisorPolicy
from repro.trace.tracefile import TraceStats, TraceWriter
from repro.workloads.base import Workload, get_workload, workload_names

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
) -> MonitoringResult:
    """Run one (lifeguard, benchmark, configuration) combination."""
    workload = get_workload(benchmark, scale=scale)
    machine = workload.build_machine()
    lifeguard = lifeguard_cls()
    system = LBASystem(machine, lifeguard, config, workload_name=benchmark)
    return system.run(config_label or "custom")


def lifeguard_classes(names: Optional[Sequence[str]] = None) -> List[Type[Lifeguard]]:
    """Resolve lifeguard names (default: all five of the paper)."""
    if names is None:
        return list(ALL_LIFEGUARDS.values())
    return [ALL_LIFEGUARDS[name] for name in names]


# ------------------------------------------------------------------- multicore


def build_multicore_machine(workload: Workload, cores: int):
    """Build a workload machine spread over ``cores`` application cores.

    Multithreaded workloads get one worker thread per core (at least their
    default two) unless an explicit ``threads`` was set on the workload;
    single-threaded workloads always run on one application core.  The
    passed workload is never mutated: widening the thread count
    instantiates a fresh workload of the same class.
    """
    if workload.multithreaded and workload.threads is None:
        workload = type(workload)(
            scale=workload.scale, threads=max(workload.default_threads, cores)
        )
    return workload.build_machine(num_cores=cores)


def run_multicore(
    lifeguard_cls: Type[Lifeguard],
    benchmark: str,
    config: Optional[SystemConfig] = None,
    cores: int = 1,
    shard_policy: str = "address",
    scale: float = 1.0,
    threads: Optional[int] = None,
    config_label: str = "",
) -> MultiCoreResult:
    """Run one (lifeguard, benchmark) combination on the multi-core platform."""
    workload = get_workload(benchmark, scale=scale, threads=threads)
    machine = build_multicore_machine(workload, cores)
    system = MultiCoreLBASystem(
        machine,
        lifeguard_cls,
        config or SystemConfig(),
        num_cores=cores,
        shard_policy=shard_policy,
        workload_name=benchmark,
    )
    return system.run(config_label or f"{cores}-core")


def core_scaling_sweep(
    benchmark: str,
    lifeguard: Union[str, Type[Lifeguard]],
    cores_list: Sequence[int] = (1, 2, 4),
    config: Optional[SystemConfig] = None,
    shard_policy: str = "address",
    scale: float = 1.0,
) -> List[Dict[str, float]]:
    """Run a core-count scaling sweep; one row of metrics per core count.

    Each row records the simulated slowdown, the per-shard-max lifeguard
    finish time (the quantity that shrinks as consumption spreads over more
    lifeguard cores), forwarding overhead and the measured wall seconds.
    """
    lifeguard_cls = ALL_LIFEGUARDS[lifeguard] if isinstance(lifeguard, str) else lifeguard
    rows: List[Dict[str, float]] = []
    for cores in cores_list:
        start = time.perf_counter()
        result = run_multicore(
            lifeguard_cls, benchmark, config, cores=cores,
            shard_policy=shard_policy, scale=scale,
        )
        wall = time.perf_counter() - start
        timing = result.merged.timing
        rows.append(
            {
                "cores": cores,
                "records": timing.records,
                "slowdown": round(result.slowdown, 4),
                "lifeguard_finish_cycles": timing.lifeguard_finish_cycles,
                "lifeguard_busy_cycles": timing.lifeguard_busy_cycles,
                "errors": len(result.reports),
                "forwarded_records": result.stats.forwarded_records,
                "wall_seconds": round(wall, 4),
            }
        )
    return rows


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
    max_instructions: int = 5_000_000,
) -> TraceStats:
    """Run a workload once, capturing its full log into a trace file.

    The capture run needs no lifeguard, no cache hierarchy and no
    application-core cost model -- only the functional record stream
    matters -- so the machine's records go straight into the
    :class:`TraceWriter`, each encoded once.  It is the cheapest way to
    bank a workload for repeated offline analysis.  (To capture a *live*
    monitored run instead, attach the writer as the ``trace_writer`` tee
    of its :class:`repro.lba.capture.LogProducer`.)
    """
    workload = get_workload(benchmark, scale=scale)
    machine = workload.build_machine()
    with TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) as writer:
        writer.extend(iter_machine_records(machine, max_instructions))
    return writer.stats


def replay_captured(
    path: Union[str, os.PathLike],
    lifeguard: Union[str, Type[Lifeguard]],
    config: Optional[SystemConfig] = None,
    workers: int = 1,
    quarantine: str = "strict",
    policy: Optional[SupervisorPolicy] = None,
    shared_memory: Optional[bool] = None,
) -> ReplayResult:
    """Replay a captured trace through a lifeguard (replay-many path).

    ``workers > 1`` shards the trace's chunks across supervised processes,
    each with a private lifeguard instance, and merges stats and reports;
    ``workers == 1`` is the faithful single-consumer replay that reproduces
    the live run's reports and event counts exactly.  ``quarantine`` and
    ``policy`` control damaged-chunk handling and worker supervision (see
    :mod:`repro.trace.supervisor`); sharded replays ship pre-decoded
    columns to the workers through shared memory by default --
    ``shared_memory=False`` forces the classic decode-in-worker path.
    """
    if workers <= 1:
        return replay_trace(os.fspath(path), lifeguard, config, quarantine=quarantine)
    return ParallelReplay(
        os.fspath(path), lifeguard, config, workers=workers,
        quarantine=quarantine, policy=policy, shared_memory=shared_memory,
    ).run()


def multicore_trace_paths(
    trace_dir: Union[str, os.PathLike], benchmark: str, cores: int
) -> List[str]:
    """Canonical per-core trace locations of a multi-core capture."""
    return [
        os.path.join(os.fspath(trace_dir), f"{benchmark}.core{core}.lbatrace")
        for core in range(cores)
    ]


def capture_multicore_traces(
    benchmark: str,
    trace_dir: Union[str, os.PathLike],
    cores: int,
    scale: float = 1.0,
    threads: Optional[int] = None,
    compress: bool = True,
    chunk_bytes: int = 64 * 1024,
    max_instructions: int = 5_000_000,
) -> List[TraceStats]:
    """Capture a workload's per-core log channels as one trace file per core.

    Like :func:`capture_trace` this needs no lifeguard and no cache
    hierarchy; records are routed to their application core's channel
    exactly as the multi-core platform routes them, so each file is that
    core's log stream (its own codec delta chain and chunk index).
    """
    workload = get_workload(benchmark, scale=scale, threads=threads)
    machine = build_multicore_machine(workload, cores)
    core_of = getattr(machine, "core_of", None) or (lambda thread_id: thread_id % cores)
    os.makedirs(os.fspath(trace_dir), exist_ok=True)
    paths = multicore_trace_paths(trace_dir, benchmark, cores)
    writers = [
        TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) for path in paths
    ]
    try:
        for record in iter_machine_records(machine, max_instructions):
            writers[core_of(record.thread_id) % cores].append(record)
    finally:
        for writer in writers:
            writer.close()
    return [writer.stats for writer in writers]


def replay_multicore_traces(
    paths: Sequence[Union[str, os.PathLike]],
    lifeguard: Union[str, Type[Lifeguard]],
    config: Optional[SystemConfig] = None,
    workers: Optional[int] = None,
    quarantine: str = "strict",
    policy: Optional[SupervisorPolicy] = None,
    shared_memory: Optional[bool] = None,
) -> ReplayResult:
    """Replay a per-core trace set through sharded lifeguard instances."""
    return MultiTraceReplay(
        [os.fspath(path) for path in paths], lifeguard, config, workers=workers,
        quarantine=quarantine, policy=policy, shared_memory=shared_memory,
    ).run()
