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

Both run one chunk loop, :func:`_replay_chunks` (skip set, fault plan,
quarantine, stage spans, timing): ``replay_trace`` calls it directly, and
the supervised worker and the supervisor's in-process fallback call it
through :func:`_replay_shard`.  The worker records its telemetry into a
fresh registry and sends back that registry's snapshot, so with telemetry
on a clean supervised replay's snapshot equals ``replay_trace``'s; the
supervision counters (retries, crashes, bisections) are added to it.

Damaged chunks are handled per the ``quarantine`` policy: ``strict``
(default) raises :class:`~repro.trace.tracefile.TraceFormatError` /
:class:`~repro.trace.supervisor.ReplayError` naming the chunk, while
``degrade`` skips the chunk, keeps replaying, and reports exact
skipped-chunk/record accounting in :attr:`ReplayResult.skipped_chunks`.
"""

from __future__ import annotations

import os
import pickle
import threading
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
from repro.obs.runtime import OBS, disable, enable
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

#: Held while :func:`_replay_shard` has swapped the process-wide telemetry
#: state for its own.
_TELEMETRY_SWAP = threading.Lock()

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
    #: Metrics snapshot of a supervised replay that collected telemetry:
    #: the worker's counters (what :func:`replay_trace` records under
    #: telemetry) plus the ``replay.*`` supervision counters.
    metrics: Optional[dict] = None

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


@dataclass(frozen=True)
class ShardTask:
    """Picklable unit of replay work: chunks of one trace, in order.

    :func:`replay_trace` and :class:`ParallelReplay` both describe the
    whole trace with one task.  The frozen-dataclass shape is what lets the
    supervisor derive bisection probes (halves, results discarded) and the
    final whole-trace run with poison chunks skipped via
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
    #: Return the worker's wall-time breakdown and telemetry snapshot.
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
    #: chunks this replay quarantined (damage found, or skip-set poison)
    skipped: List[QuarantinedChunk] = field(default_factory=list)
    #: wall-time breakdown of this task: the loop's setup/decode/dispatch
    #: seconds, completed by the worker when timing collection is on
    timing: Optional[dict] = None
    #: the worker's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    #: (only when timing collection is on)
    metrics: Optional[dict] = None


def _replay_chunks(task: ShardTask, lifeguard: Lifeguard, reader: TraceReader) -> _ShardResult:
    """The one chunk loop: replay ``task.chunks`` of ``reader``, in order.

    Chunks in ``task.skip`` are quarantined without being read; the fault
    plan (if any) fires before each read; under ``quarantine="degrade"`` a
    damaged chunk is skipped and recorded instead of raising.  With
    telemetry on, the loop adds the ``replay.*`` stage spans and collects
    the pipeline's counters into ``OBS.registry``.  The result's ``timing``
    holds the setup/decode/dispatch seconds.
    """
    start = time.perf_counter()
    tracer = OBS.tracer if OBS.enabled else None
    accelerator, dispatcher = build_pipeline(lifeguard, task.config)
    engine = ColumnarEngine(dispatcher)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.add("replay.setup", "replay", start, setup_s)
    decode_s = 0.0
    dispatch_s = 0.0
    skipped: List[QuarantinedChunk] = []
    for index, records in zip(task.chunks, task.chunk_records):
        if index in task.skip:
            skipped.append(QuarantinedChunk(
                trace_path=task.trace_path, chunk=index, records=records,
                reason="poison", detail="isolated by span bisection",
            ))
            continue
        if task.fault_plan is not None:
            task.fault_plan.fire(index)
        t_decode = time.perf_counter()
        try:
            columns = reader.read_chunk_columns(index)
        except _CHUNK_DAMAGE_ERRORS as exc:
            if task.quarantine != "degrade":
                raise
            skipped.append(QuarantinedChunk(
                trace_path=task.trace_path, chunk=index, records=records,
                reason="corrupt", detail=str(exc),
            ))
            continue
        t_dispatch = time.perf_counter()
        # One column-decoded chunk feeds one run-grouped columnar dispatch
        # call (bit-identical to the scalar consume loop).  Dropping the
        # columns before the next read keeps one decoded chunk alive, not two.
        engine.consume_columns(columns)
        del columns
        t_done = time.perf_counter()
        decode_s += t_dispatch - t_decode
        dispatch_s += t_done - t_dispatch
        if tracer is not None:
            tracer.add("replay.decode", "replay", t_decode, t_dispatch - t_decode)
            tracer.add("replay.dispatch", "replay", t_dispatch, t_done - t_dispatch)
    t_finish = time.perf_counter()
    lifeguard.finalize()
    dispatch = dispatcher.stats
    result = _ShardResult(
        records=dispatch.records_consumed,
        dispatch=dispatch,
        accelerator=accelerator.stats,
        reports=list(lifeguard.reports),
        skipped=skipped,
        timing={"setup_s": setup_s, "decode_s": decode_s, "dispatch_s": dispatch_s},
    )
    if tracer is not None:
        tracer.add("replay.finish", "replay", t_finish, time.perf_counter() - t_finish)
    if OBS.enabled and OBS.registry is not None:
        from repro.obs.pipeline import collect_pipeline

        registry = OBS.registry
        registry.counter("replay.chunks").inc(len(task.chunks))
        registry.counter("replay.records").inc(result.records)
        if skipped:
            registry.counter("replay.chunks_quarantined").inc(len(skipped))
            registry.counter("replay.records_quarantined").inc(
                sum(chunk.records for chunk in skipped)
            )
        collect_pipeline(
            registry,
            dispatcher=dispatcher,
            accelerator=accelerator,
            lifeguard=lifeguard,
            recorder=OBS.recorder,
        )
    return result


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
    start = time.perf_counter()
    with TraceReader(trace_path) as reader:
        task = ShardTask(
            trace_path=str(trace_path),
            lifeguard=lifeguard_cls.name,
            config=config,
            chunks=tuple(range(reader.num_chunks)),
            chunk_records=reader.chunk_record_counts(),
            quarantine=quarantine,
        )
        shard = _replay_chunks(task, lifeguard_cls(), reader)
    return ReplayResult(
        lifeguard=lifeguard_cls.name,
        records=shard.records,
        chunks=len(task.chunks),
        dispatch=shard.dispatch,
        accelerator=shard.accelerator,
        reports=shard.reports,
        wall_seconds=time.perf_counter() - start,
        skipped_chunks=shard.skipped,
    )


def _replay_shard(task: ShardTask) -> _ShardResult:
    """Worker entry point: :func:`_replay_chunks` with a fresh lifeguard.

    Runs in a supervised child process (or in-process as the supervisor's
    last-resort fallback).  A forked worker inherits the parent's telemetry
    state, counters so far included, so the loop records into a fresh
    registry -- enabled only when timing collection is on -- and the
    caller's state is restored afterwards.  The swap holds a lock, so two
    in-process fallbacks on different threads (gateway sessions) cannot
    restore each other's state.  With timing collection on, the
    result carries that registry's snapshot and the wall-time breakdown;
    the serialize cost is measured by pickling the result exactly as the
    IPC return path will (the timing dict itself rides along un-measured).
    """
    wall_start = time.perf_counter()
    with _TELEMETRY_SWAP:
        previous = (OBS.enabled, OBS.registry, OBS.tracer, OBS.recorder)
        disable()
        if task.collect_timing:
            enable()
        try:
            with TraceReader(task.trace_path) as reader:
                result = _replay_chunks(task, ALL_LIFEGUARDS[task.lifeguard](), reader)
            if task.collect_timing:
                result.metrics = OBS.registry.snapshot()
        finally:
            OBS.enabled, OBS.registry, OBS.tracer, OBS.recorder = previous
    if not task.collect_timing:
        result.timing = None
        return result
    t_serialize = time.perf_counter()
    pickle.dumps(result)
    result.timing.update(
        pid=os.getpid(),
        chunks=len(task.chunks),
        records=result.records,
        serialize_s=time.perf_counter() - t_serialize,
        worker_wall_s=time.perf_counter() - wall_start,
    )
    return result


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
            # Timing and the worker's snapshot are on when requested
            # explicitly or telemetry is enabled.
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
        if shard.timing is not None:
            # What the worker did not spend computing: process spawn, task
            # hand-off, pipe wait and result unpickling.
            shard.timing["ipc_s"] = max(0.0, outcome.seconds - shard.timing["worker_wall_s"])
        metrics = None
        if task.collect_timing:
            from repro.obs.metrics import MetricsRegistry

            # The worker's snapshot, its ``replay.*`` counters raised to the
            # result's fault counters: what only the supervisor saw (retries,
            # crashes, bisections, chunks it gave up on) is added.
            registry = MetricsRegistry().merge(shard.metrics or {})
            for name, value in counters.items():
                counter = registry.counter(f"replay.{name}")
                counter.inc(value - counter.value)
            metrics = registry.snapshot()
            if OBS.enabled and OBS.registry is not None:
                OBS.registry.merge(metrics)
        return ReplayResult(
            lifeguard=self.lifeguard_cls.name,
            records=shard.records,
            chunks=self.num_chunks,
            dispatch=shard.dispatch,
            accelerator=shard.accelerator,
            reports=shard.reports,
            wall_seconds=elapsed,
            worker_timings=[shard.timing] if shard.timing else [],
            skipped_chunks=skipped,
            failures=list(outcome.failures),
            fault_counters=counters,
            metrics=metrics,
        )
