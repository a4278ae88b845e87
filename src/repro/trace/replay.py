"""Offline replay: feed a stored trace through the lifeguard pipeline.

Replay decouples log *production* from log *consumption*: a workload is
executed (and captured) once, then the stored record stream is pushed
through the acceleration pipeline (:class:`EventAccelerator`) and an
:class:`EventDispatcher` without re-running the ISA machine.  Because the
functional event stream is fully determined by the records, a sequential
replay reproduces the live run's delivered events, handler work and error
reports exactly; only cache-latency cycle details differ (replay does not
model the shared application/lifeguard cache hierarchy by default).

Replay has one meaning: one lifeguard instance sees every surviving chunk
of the trace, in order, and carries its shadow metadata and IT/IF/M-TLB
state across chunk boundaries -- the paper's single lifeguard core
consuming the whole log.  :func:`replay_trace` runs that in-process and is
the reference.  :class:`ParallelReplay` runs the same replay in one
*supervised* worker process (see :mod:`repro.trace.supervisor`): worker
crashes, hangs and reader IO errors are retried with exponential backoff,
a trace whose worker keeps dying is bisected to isolate poison chunks, and
every failure is recorded on the result.  Both return the same records,
stats and reports, in emission order.

Damaged chunks are handled per the ``quarantine`` policy: ``strict``
(default) raises :class:`~repro.trace.tracefile.TraceFormatError` /
:class:`~repro.trace.supervisor.ReplayError` naming the chunk, while
``degrade`` skips the chunk, keeps replaying, and reports exact
skipped-chunk/record accounting in :attr:`ReplayResult.skipped_chunks`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Type, Union

from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator
from repro.core.config import SystemConfig
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import DispatchStats, EventDispatcher
from repro.lifeguards import ALL_LIFEGUARDS
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorReport
from repro.obs.runtime import OBS
from repro.trace.supervisor import (
    QUARANTINE_POLICIES,
    QuarantinedChunk,
    ShardFailure,
    ShardSupervisor,
    SupervisorPolicy,
)
from repro.trace.codec import TraceCodecError
from repro.trace.tracefile import TraceFormatError, TraceReader

#: Exceptions that mean "this chunk's bytes are damaged" (as opposed to an
#: environmental IO failure): eligible for quarantine under ``degrade``.
_CHUNK_DAMAGE_ERRORS = (TraceFormatError, TraceCodecError)

LifeguardSpec = Union[str, Type[Lifeguard]]


def _resolve_lifeguard(spec: LifeguardSpec) -> Type[Lifeguard]:
    """Resolve a lifeguard name or class to a class (names stay picklable)."""
    if isinstance(spec, str):
        try:
            return ALL_LIFEGUARDS[spec]
        except KeyError:
            raise KeyError(
                f"unknown lifeguard {spec!r}; known: {sorted(ALL_LIFEGUARDS)}"
            ) from None
    return spec


def build_pipeline(
    lifeguard: Lifeguard, config: Optional[SystemConfig] = None
) -> Tuple[EventAccelerator, EventDispatcher]:
    """Wire a lifeguard to a freshly configured accelerator + dispatcher.

    Applies the same Figure 2 technique gating as the live platform
    (:meth:`SystemConfig.gated_for`).
    """
    effective = (config or SystemConfig()).gated_for(lifeguard)
    accelerator = EventAccelerator(lifeguard.etct, AcceleratorConfig.from_system(effective))
    lifeguard.attach_hardware(accelerator.mtlb)
    dispatcher = EventDispatcher(lifeguard, accelerator)
    return accelerator, dispatcher


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    lifeguard: str
    records: int
    chunks: int
    workers: int
    dispatch: DispatchStats
    accelerator: AcceleratorStats
    reports: List[ErrorReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Wall-time breakdown of the supervised worker (setup/decode/dispatch/
    #: serialize/IPC); populated when timing collection is on.
    worker_timings: List[dict] = field(default_factory=list)
    #: Chunks excluded under ``quarantine="degrade"`` (corrupt, poison or
    #: retry-exhausted), sorted by (trace_path, chunk), with exact record
    #: accounting.  Always empty under ``strict``.
    skipped_chunks: List[QuarantinedChunk] = field(default_factory=list)
    #: Every failed worker attempt the supervisor observed (including ones
    #: that later succeeded on retry).
    failures: List[ShardFailure] = field(default_factory=list)
    #: Supervision counters (worker_retries, worker_timeouts, worker_crashes,
    #: worker_errors, bisections, bisect_probes, fallbacks_inprocess,
    #: chunks_quarantined, records_quarantined).
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def errors_detected(self) -> int:
        """Number of violations reported."""
        return len(self.reports)

    @property
    def records_per_second(self) -> float:
        """Consumption throughput of this replay."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.records / self.wall_seconds

    @property
    def skipped_records(self) -> int:
        """Records lost to quarantined chunks (0 for a clean replay)."""
        return sum(chunk.records for chunk in self.skipped_chunks)

    @property
    def degraded(self) -> bool:
        """True when any chunk was quarantined instead of replayed."""
        return bool(self.skipped_chunks)


def _validate_quarantine(policy: str) -> str:
    if policy not in QUARANTINE_POLICIES:
        raise ValueError(
            f"quarantine must be one of {QUARANTINE_POLICIES}, got {policy!r}"
        )
    return policy


def _finish_pipeline(
    lifeguard: Lifeguard, accelerator: EventAccelerator, dispatcher: EventDispatcher
) -> Tuple[DispatchStats, AcceleratorStats, List[ErrorReport]]:
    """Finalize a consumed pipeline and collect its observable outcome."""
    lifeguard.finalize()
    return dispatcher.stats, accelerator.stats, list(lifeguard.reports)


def replay_records(
    records, lifeguard: Lifeguard, config: Optional[SystemConfig] = None
) -> Tuple[DispatchStats, AcceleratorStats, List[ErrorReport]]:
    """Consume a record sequence through ``lifeguard``; returns the stats.

    Flattens the records into columns and dispatches them through the
    run-grouped columnar engine, which produces bit-identical stats,
    cycles and reports to a per-record ``consume`` loop at a fraction of
    the interpreter overhead.
    """
    accelerator, dispatcher = build_pipeline(lifeguard, config)
    ColumnarEngine(dispatcher).consume_records(records)
    return _finish_pipeline(lifeguard, accelerator, dispatcher)


def replay_trace(
    trace_path: str,
    lifeguard: LifeguardSpec,
    config: Optional[SystemConfig] = None,
    quarantine: str = "strict",
) -> ReplayResult:
    """Sequentially replay a whole stored trace through one lifeguard.

    This is the faithful single-consumer replay: one lifeguard instance
    observes every record in order, so its reports and delivered-event
    counts match the live monitored run exactly.

    ``quarantine="strict"`` (default) raises
    :class:`~repro.trace.tracefile.TraceFormatError` on the first damaged
    chunk; ``"degrade"`` skips damaged chunks and records them in
    :attr:`ReplayResult.skipped_chunks`.
    """
    _validate_quarantine(quarantine)
    lifeguard_cls = _resolve_lifeguard(lifeguard)
    instance = lifeguard_cls()
    tracer = OBS.tracer if OBS.enabled else None
    start = time.perf_counter()
    accelerator, dispatcher = build_pipeline(instance, config)
    engine = ColumnarEngine(dispatcher)
    if tracer is not None:
        tracer.add("replay.setup", "replay", start, time.perf_counter() - start)
    skipped: List[QuarantinedChunk] = []
    with TraceReader(trace_path) as reader:
        chunks = reader.num_chunks
        if tracer is None and quarantine == "strict":
            for index in range(chunks):
                # One column-decoded chunk feeds one run-grouped columnar
                # dispatch call (bit-identical to the scalar consume loop).
                engine.consume_columns(reader.read_chunk_columns(index))
        else:
            for index in range(chunks):
                t_decode = time.perf_counter()
                try:
                    columns = reader.read_chunk_columns(index)
                except _CHUNK_DAMAGE_ERRORS as exc:
                    if quarantine != "degrade":
                        raise
                    skipped.append(QuarantinedChunk(
                        trace_path=str(trace_path), chunk=index,
                        records=reader.chunks[index].records,
                        reason="corrupt", detail=str(exc),
                    ))
                    continue
                t_dispatch = time.perf_counter()
                if tracer is not None:
                    tracer.add("replay.decode", "replay", t_decode, t_dispatch - t_decode)
                engine.consume_columns(columns)
                if tracer is not None:
                    tracer.add(
                        "replay.dispatch", "replay", t_dispatch,
                        time.perf_counter() - t_dispatch,
                    )
    t_finish = time.perf_counter()
    dispatch, accel, reports = _finish_pipeline(instance, accelerator, dispatcher)
    if OBS.enabled:
        if tracer is not None:
            tracer.add("replay.finish", "replay", t_finish, time.perf_counter() - t_finish)
        if OBS.registry is not None:
            from repro.obs.pipeline import collect_pipeline

            registry = OBS.registry
            registry.counter("replay.chunks").inc(chunks)
            registry.counter("replay.records").inc(dispatch.records_consumed)
            if skipped:
                registry.counter("replay.chunks_quarantined").inc(len(skipped))
                registry.counter("replay.records_quarantined").inc(
                    sum(chunk.records for chunk in skipped)
                )
            collect_pipeline(
                registry,
                dispatcher=dispatcher,
                accelerator=accelerator,
                lifeguard=instance,
                recorder=OBS.recorder,
            )
    return ReplayResult(
        lifeguard=lifeguard_cls.name,
        records=dispatch.records_consumed,
        chunks=chunks,
        workers=1,
        dispatch=dispatch,
        accelerator=accel,
        reports=reports,
        wall_seconds=time.perf_counter() - start,
        skipped_chunks=skipped,
    )




# ------------------------------------------------------------------- supervised


@dataclass(frozen=True)
class ShardTask:
    """Picklable unit of supervised replay work: chunks of one trace, in order.

    :class:`ParallelReplay` hands the supervisor one task covering the
    whole trace.  The frozen-dataclass shape is what lets the supervisor
    derive bisection probes (halves, results discarded) and the final
    whole-trace run with poison chunks skipped via
    :func:`dataclasses.replace`.
    """

    trace_path: str
    lifeguard: str
    config: Optional[SystemConfig]
    #: Chunk indices this task replays, in order.
    chunks: Tuple[int, ...]
    #: Record count per chunk (parallel to ``chunks``) for quarantine
    #: accounting without re-opening the trace in the parent.
    chunk_records: Tuple[int, ...]
    collect_timing: bool = False
    quarantine: str = "strict"
    #: Chunks to quarantine without reading (poison chunks isolated by
    #: bisection -- reading them is what killed the workers).
    skip: FrozenSet[int] = frozenset()
    #: Optional :class:`repro.faultinject.FaultPlan`, fired once per chunk
    #: read; ``None`` in production.
    fault_plan: Optional[object] = None


@dataclass
class _ShardResult:
    """Picklable result of replaying one task's chunks through one lifeguard."""

    records: int
    dispatch: DispatchStats
    accelerator: AcceleratorStats
    reports: List[ErrorReport]
    #: chunks this worker quarantined (damage found, or skip-set poison)
    skipped: List[QuarantinedChunk] = field(default_factory=list)
    #: wall-time breakdown of this task (only when timing collection is on)
    timing: Optional[dict] = None
    #: accelerator/mapper/shadow counter detail (only when collection is on):
    #: the live IT/IF/M-TLB objects never cross the process boundary, so the
    #: worker captures their counters as plain dicts for the parent registry
    detail: Optional[dict] = None


def _replay_shard(task: ShardTask) -> _ShardResult:
    """Worker entry point: replay one task's chunks with a fresh lifeguard.

    Runs in a supervised child process (or in-process as the supervisor's
    last-resort fallback).  Under ``quarantine="degrade"`` a damaged chunk
    is skipped and recorded instead of raising; chunks in ``task.skip`` are
    quarantined without being read at all.  When timing collection is on,
    ``monotonic`` start/end are system-wide comparable on Linux, so the
    parent can line the worker's lifetime up against its own clock; the
    serialize cost is measured by pickling the result exactly as the IPC
    return path will (the timing dict itself rides along un-measured).
    """
    mono_start = time.monotonic()
    wall_start = time.perf_counter()
    plan = task.fault_plan
    degrade = task.quarantine == "degrade"
    lifeguard = ALL_LIFEGUARDS[task.lifeguard]()
    accelerator, dispatcher = build_pipeline(lifeguard, task.config)
    engine = ColumnarEngine(dispatcher)
    setup_s = time.perf_counter() - wall_start
    decode_s = 0.0
    dispatch_s = 0.0
    skipped: List[QuarantinedChunk] = []
    reader: Optional[TraceReader] = None
    try:
        for position, index in enumerate(task.chunks):
            if index in task.skip:
                skipped.append(QuarantinedChunk(
                    trace_path=task.trace_path, chunk=index,
                    records=task.chunk_records[position], reason="poison",
                    detail="isolated by span bisection",
                ))
                continue
            if plan is not None:
                plan.fire(index)
            t_decode = time.perf_counter()
            try:
                if reader is None:
                    reader = TraceReader(task.trace_path)
                columns = reader.read_chunk_columns(index)
            except _CHUNK_DAMAGE_ERRORS as exc:
                if not degrade:
                    raise
                skipped.append(QuarantinedChunk(
                    trace_path=task.trace_path, chunk=index,
                    records=task.chunk_records[position], reason="corrupt",
                    detail=str(exc),
                ))
                continue
            t_dispatch = time.perf_counter()
            decode_s += t_dispatch - t_decode
            # One column-decoded chunk feeds one columnar dispatch call.
            engine.consume_columns(columns)
            dispatch_s += time.perf_counter() - t_dispatch
    finally:
        if reader is not None:
            reader.close()
    dispatch, accel, reports = _finish_pipeline(lifeguard, accelerator, dispatcher)
    result = _ShardResult(
        records=dispatch.records_consumed,
        dispatch=dispatch,
        accelerator=accel,
        reports=reports,
        skipped=skipped,
    )
    if not task.collect_timing:
        return result
    from repro.obs.pipeline import shard_detail

    result.detail = shard_detail(accelerator, lifeguard)
    t_serialize = time.perf_counter()
    pickle.dumps(result)
    serialize_s = time.perf_counter() - t_serialize
    result.timing = {
        "pid": os.getpid(),
        "chunks": len(task.chunks),
        "records": result.records,
        "setup_s": setup_s,
        "decode_s": decode_s,
        "dispatch_s": dispatch_s,
        "serialize_s": serialize_s,
        "worker_wall_s": time.perf_counter() - wall_start,
        "mono_start": mono_start,
        "mono_end": time.monotonic(),
    }
    return result


def _worker_timing(timing: dict) -> dict:
    """The worker's timing breakdown with its IPC attribution.

    ``ipc_s`` is the slice of the worker's supervised lifetime it did not
    spend computing: process spawn, task pickling, pipe wait and result
    unpickling.  The supervisor stamps ``mono_launched`` (just before the
    worker process starts) and ``mono_received`` (when its result arrives)
    onto the timing dict, and the worker's own ``mono_start``/``mono_end``
    bracket the compute.  A result produced by the in-process fallback has
    no hand-off, so its ``ipc_s`` is 0.
    """
    timing = dict(timing)
    launched = timing.pop("mono_launched", None)
    received = timing.pop("mono_received", None)
    if launched is not None and received is not None:
        compute = timing.get("mono_end", 0.0) - timing.get("mono_start", 0.0)
        timing["ipc_s"] = max(0.0, (received - launched) - compute)
    else:
        timing["ipc_s"] = 0.0
    return timing


class ParallelReplay:
    """Replay a whole trace in one supervised worker process.

    The worker owns one lifeguard and consumes every chunk in order, so
    ``run()`` reports exactly what :func:`replay_trace` reports: the same
    records, stats and reports in emission order.  The supervisor
    (:class:`~repro.trace.supervisor.ShardSupervisor`) retries a crashed,
    hung or IO-failing worker with backoff; a worker that keeps dying is
    bisected down to the poison chunk, whose probes are discarded, and the
    result comes from a final whole-trace run that skips the poison chunks.
    Under ``quarantine="degrade"`` damaged chunks are skipped with exact
    accounting instead of failing the replay.  ``policy`` tunes the
    supervision knobs; ``fault_plan`` injects deterministic faults into the
    worker (testing only).
    """

    def __init__(
        self,
        trace_path: str,
        lifeguard: LifeguardSpec,
        config: Optional[SystemConfig] = None,
        workers: int = 1,
        collect_timing: bool = False,
        quarantine: str = "strict",
        policy: Optional[SupervisorPolicy] = None,
        fault_plan=None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        # ``workers`` and ``shared_memory`` stay only because perfbench's
        # ``shard_probe`` still passes them; they go with the benchmark
        # change of ROADMAP item 6.  Replay runs one in-order worker and
        # has no shared-memory transport.
        if workers != 1:
            raise ValueError(
                f"workers must be 1: replay runs one in-order worker, got {workers!r}"
            )
        if shared_memory:
            raise ValueError("replay has no shared-memory transport; pass shared_memory=None")
        self.trace_path = str(trace_path)
        self.lifeguard_cls = _resolve_lifeguard(lifeguard)
        self.config = config
        self.collect_timing = collect_timing
        self.quarantine = _validate_quarantine(quarantine)
        self.policy = policy
        self.fault_plan = fault_plan
        with TraceReader(trace_path) as reader:
            self.num_chunks = reader.num_chunks
            self._chunk_records = reader.chunk_record_counts()

    def run(self) -> ReplayResult:
        """Replay the whole trace in one supervised worker process.

        Raises :class:`ReplayError` for an unrecoverable failure under
        ``strict``; never leaks child processes, including on
        ``KeyboardInterrupt``.
        """
        task = ShardTask(
            trace_path=self.trace_path,
            lifeguard=self.lifeguard_cls.name,
            config=self.config,
            chunks=tuple(range(self.num_chunks)),
            chunk_records=self._chunk_records,
            # Timing is on when requested explicitly or telemetry is enabled.
            collect_timing=self.collect_timing or OBS.enabled,
            quarantine=self.quarantine,
            fault_plan=self.fault_plan,
        )
        start = time.perf_counter()
        outcome = ShardSupervisor(
            task, _replay_shard, policy=self.policy, lifeguard=self.lifeguard_cls.name,
        ).run()
        elapsed = time.perf_counter() - start
        # ``None`` only when ``degrade`` gave the whole task up.
        shard: _ShardResult = outcome.result or _ShardResult(
            records=0, dispatch=DispatchStats(), accelerator=AcceleratorStats(), reports=[],
        )
        skipped = sorted(outcome.quarantined + shard.skipped, key=lambda chunk: chunk.chunk)
        counters: Dict[str, int] = dict(outcome.counters)
        if skipped:
            counters["chunks_quarantined"] = len(skipped)
            counters["records_quarantined"] = sum(c.records for c in skipped)
        result = ReplayResult(
            lifeguard=self.lifeguard_cls.name,
            records=shard.records,
            chunks=self.num_chunks,
            workers=1,
            dispatch=shard.dispatch,
            accelerator=shard.accelerator,
            reports=shard.reports,
            wall_seconds=elapsed,
            worker_timings=[_worker_timing(shard.timing)] if shard.timing else [],
            skipped_chunks=skipped,
            failures=list(outcome.failures),
            fault_counters=counters,
        )
        if OBS.enabled and OBS.registry is not None:
            from repro.obs.pipeline import collect_sharded_replay

            # The worker's registry (if any) dies with it, so its IT / IF /
            # M-TLB / mapper / shadow counters travel back as the picklable
            # ``detail`` dict on its result.
            collect_sharded_replay(
                OBS.registry, result, [shard.detail] if shard.detail else [],
            )
        return result
