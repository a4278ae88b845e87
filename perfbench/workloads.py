"""The closed-loop workloads: ``live_monitor`` and ``capture_replay``.

Each runs its pass of seeded rounds (see ``perfbench.ops``), one op at a
time, and repeats the whole pass until the measured op time reaches the
run's length.  Only the ops themselves are timed; checking an op's
output, verifying its trace and computing the sequential reference
happen between or after ops, outside the timed region.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from multiprocessing import forkserver, resource_tracker

from repro.experiments.harness import capture_trace, make_config, run_monitored
from repro.lifeguards import ALL_LIFEGUARDS
from repro.obs import observed
from repro.service.gateway import GatewayConfig
from repro.trace.replay import ParallelReplay, replay_trace
from repro.trace.tracefile import TraceStats, verify_trace

from perfbench.hostspeed import HOST_REF_S, host_speed_s, scaled
from perfbench.layers import LayerTracer
from perfbench.ops import CALIBRATION_ROUNDS, CaptureReplayOp, LiveOp, stack_suffix
from perfbench.perlayer import (
    SELF_TIME, STACK_COUNTS, STACK_LAYERS, layer_metrics, pipeline_counts,
)
from perfbench.reference import Outcome, ReferenceCache, mismatches, outcome_of


@dataclass
class Execution:
    """One executed op: its time and what it produced (or why it failed)."""

    index: int
    seconds: float
    #: (lifeguard, outcome) per lifeguard pass; empty when the op raised
    outcomes: List[Tuple[str, Outcome]] = field(default_factory=list)
    records: int = 0
    #: simulated figures of the op, one entry per lifeguard pass
    cycles_per_record: List[float] = field(default_factory=list)
    slowdown: float = 0.0
    error: Optional[str] = None
    #: trace audit problem (capture_replay only)
    audit: Optional[str] = None
    #: ``TraceStats`` of the captured trace (capture_replay only)
    trace_stats: Optional[TraceStats] = None
    #: pipeline counters of a traced op
    counts: Counter = field(default_factory=Counter)
    #: ``host_speed_s()`` measured just before the op
    host_s: float = HOST_REF_S
    #: peak resident memory of the runner once the op ended, in MiB
    peak_rss_mb: float = 0.0

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, self.host_s)


@dataclass
class RunOutcome:
    """Everything a closed-loop run measured."""

    #: ops in one pass
    pass_size: int
    #: leading ops of a pass that every seed runs (the calibration ops)
    calibration_size: int
    executions: List[Execution]
    failures: Counter

    @property
    def attempted(self) -> int:
        return len(self.executions)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, summed in sorted order so any order of the values gives it exactly."""
    return math.exp(sum(math.log(value) for value in sorted(values)) / len(values))


# ------------------------------------------------------------------- live op


def live_config(op: LiveOp):
    return make_config(op.lma, op.it, op.idempotent_filter)


def run_live_op(op: LiveOp, index: int = 0) -> Execution:
    start = perf_counter()
    result = run_monitored(
        ALL_LIFEGUARDS[op.lifeguard], op.program, live_config(op),
        scale=op.scale, config_label=op.stack,
    )
    seconds = perf_counter() - start
    records = result.dispatch.records_consumed
    return Execution(
        index=index, seconds=seconds,
        outcomes=[(op.lifeguard, outcome_of(result))],
        records=records,
        cycles_per_record=[result.dispatch.lifeguard_cycles / records],
        slowdown=result.slowdown,
    )


def live_reference(op: LiveOp, references: ReferenceCache) -> List[Outcome]:
    return [references.outcome(
        op.program, op.scale, op.lifeguard, live_config(op),
        config_key=(op.lma, op.it, op.idempotent_filter),
    )]


# --------------------------------------------------------- capture/replay op


def run_capture_replay_op(op: CaptureReplayOp, trace_path: str, index: int = 0) -> Execution:
    start = perf_counter()
    trace_stats = capture_trace(op.program, trace_path, scale=op.scale)
    results = [replay_trace(trace_path, lifeguard) for lifeguard in op.lifeguards]
    seconds = perf_counter() - start
    return Execution(
        index=index, seconds=seconds,
        outcomes=[(lifeguard, outcome_of(result))
                  for lifeguard, result in zip(op.lifeguards, results)],
        records=sum(result.records for result in results),
        cycles_per_record=[
            result.dispatch.lifeguard_cycles / result.records for result in results
        ],
        trace_stats=trace_stats,
    )


def audit_trace(trace_path: str) -> Optional[str]:
    """``verify_trace`` problems of a captured trace, or ``None`` when clean."""
    audit = verify_trace(trace_path)
    if audit.ok:
        return None
    return audit.file_error or "; ".join(
        f"chunk {chunk.index}: {chunk.error}" for chunk in audit.bad_chunks
    )


def capture_replay_reference(
    op: CaptureReplayOp, references: ReferenceCache
) -> List[Outcome]:
    return [references.outcome(op.program, op.scale, lifeguard)
            for lifeguard in op.lifeguards]


# ------------------------------------------------------------------ the loop


def run_passes(
    ops: Sequence, execute: Callable[[object, int], Execution], seconds: float,
    after_op: Optional[Callable[[object, Execution], None]] = None,
) -> Tuple[List[Execution], float]:
    """Repeat whole passes over ``ops`` until ``seconds`` of op time (at least one)."""
    executions: List[Execution] = []
    timed = 0.0
    while not executions or timed < seconds:
        for op in ops:
            index = len(executions)
            host_s = host_speed_s()
            try:
                execution = execute(op, index)
            except Exception:  # an op that raises is a failed op, not a dead run
                execution = Execution(index=index, seconds=0.0,
                                      error=traceback.format_exc(limit=3))
            execution.host_s = host_s
            execution.peak_rss_mb = peak_rss_mb()
            timed += execution.seconds
            if after_op is not None and execution.error is None:
                after_op(op, execution)
            executions.append(execution)
    return executions, timed


def check_executions(
    workload: str, ops: Sequence, executions: List[Execution],
    reference_of: Callable[[object], List[Outcome]],
) -> Counter:
    """Compare every execution with the sequential reference; count failures by cause."""
    failures: Counter = Counter()
    for execution in executions:
        if execution.error is not None:
            failures["exception"] += 1
            continue
        if execution.audit is not None:
            failures["trace_audit"] += 1
            continue
        want = reference_of(ops[execution.index % len(ops)])
        if len(want) != len(execution.outcomes) or any(
            mismatches(workload, got, expected)
            for (_lifeguard, got), expected in zip(execution.outcomes, want)
        ):
            failures["mismatch"] += 1
    return failures


def trace_path_in(workdir: str) -> str:
    return os.path.join(workdir, "op.lbatrace")


def measure(
    workload: str, ops: Sequence, seconds: float, workdir: str,
    tracer: Optional[LayerTracer] = None,
) -> Tuple[List[Execution], float, float]:
    """Repeat the pass for ``seconds`` of op time; returns executions and op time."""
    trace_path = trace_path_in(workdir)
    after_op = None
    if workload == "live_monitor":
        def execute(op, index):
            return run_live_op(op, index)
    else:
        def execute(op, index):
            return run_capture_replay_op(op, trace_path, index)

        def after_op(op, execution):
            execution.audit = audit_trace(trace_path)

    if tracer is not None:
        execute = traced_execute(tracer, execute)
    return run_passes(ops, execute, seconds, after_op)


def check(
    workload: str, ops: Sequence, executions: List[Execution],
    references: ReferenceCache,
) -> Counter:
    """Check executions against the sequential reference (outside any timed region)."""
    if workload == "live_monitor":
        def reference_of(op):
            return live_reference(op, references)
    else:
        def reference_of(op):
            return capture_replay_reference(op, references)
    # Grouped by program so each record stream is generated once.
    for op in sorted(set(ops), key=lambda op: op.key):
        reference_of(op)
    return check_executions(workload, ops, executions, reference_of)


def run_closed_loop(
    workload: str, rounds: Sequence[Sequence], seconds: float, workdir: str,
) -> RunOutcome:
    """Measure passes over ``rounds``, then check every execution against the reference."""
    ops = [op for ops_of_round in rounds for op in ops_of_round]
    calibration = sum(len(ops_of_round)
                      for ops_of_round in rounds[:CALIBRATION_ROUNDS[workload]])
    executions, _timed = measure(workload, ops, seconds, workdir)
    failures = check(workload, ops, executions, ReferenceCache())
    return RunOutcome(len(ops), calibration, executions, failures)


def traced_execute(tracer: LayerTracer, execute: Callable) -> Callable:
    """Run each op as a top-level span of ``tracer`` and collect its counters."""
    def traced(op, index):
        tracer.created.clear()
        before = tracer.snapshot()
        execution = tracer.op(index, type(op).__name__, execute, op, index)
        after = tracer.snapshot()
        execution.counts = pipeline_counts(tracer.created)
        tracer.created.clear()
        tracer.per_op.append((op, before, after))
        return execution
    return traced


# -------------------------------------------------------------------- metrics


def end_to_end_metrics(outcome: RunOutcome) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics of a closed-loop run, but for ``setup_s``.

    ``records_per_s`` is one pass's records over the sum of its ops'
    median times across the run's passes, each time scaled to the
    reference host speed (see ``perfbench.hostspeed``).  Scaling removes
    the host's drift; a median over passes removes bursts within an op.
    ``sim_cycles_per_record`` is taken over the calibration ops, which are
    the same for every seed, and ``peak_rss_mb`` once they have run (they
    run first).
    """
    size = outcome.pass_size
    cycles = [value for e in outcome.executions[:outcome.calibration_size]
              for value in e.cycles_per_record]
    records = sum(e.records for e in outcome.executions[:size])
    pass_s = sum(
        statistics.median(e.scaled_seconds for e in outcome.executions[position::size])
        for position in range(size)
    )
    unscaled_s = sum(
        statistics.median(e.seconds for e in outcome.executions[position::size])
        for position in range(size)
    )
    print(f"unscaled records/s: {records / unscaled_s:.1f}; host kernel median "
          f"{statistics.median(e.host_s for e in outcome.executions) * 1e3:.3f} ms",
          file=sys.stderr)
    return {
        "records_per_s": (records / pass_s, "records/s"),
        "sim_cycles_per_record": (geomean(cycles) if cycles else 0.0, "cycles/record"),
        "peak_rss_mb": (outcome.executions[outcome.calibration_size - 1].peak_rss_mb, "MiB"),
    }


def stack_breakdown(tracer: LayerTracer, executions: List[Execution]) -> Dict[str, float]:
    """Accelerator and dispatch figures per Figure-11 stack (live ops only)."""
    totals: Counter = Counter()
    for (op, before, after), execution in zip(tracer.per_op, executions):
        if not isinstance(op, LiveOp):
            continue
        suffix = stack_suffix(op.stack)
        for layer in STACK_LAYERS:
            totals[f"{SELF_TIME[layer]}.{suffix}"] += after[layer] - before[layer]
        for name in STACK_COUNTS:
            totals[f"{name}.{suffix}"] += execution.counts[name]
    return dict(totals)


def traced_counts(executions: List[Execution]) -> Counter:
    """Pipeline counters and trace statistics summed over a traced run."""
    counts: Counter = Counter()
    for execution in executions:
        counts.update(execution.counts)
        stats = execution.trace_stats
        if stats is not None:
            counts["trace.records"] += stats.records
            counts["trace.raw_bytes"] += stats.raw_bytes
            counts["trace.stored_bytes"] += stats.stored_bytes
            counts["codec.bytes_raw"] += stats.raw_bytes * len(execution.outcomes)
    return counts


# ---------------------------------------------------------------- traced run


@dataclass
class TracedRun:
    """Per-layer figures of one traced run and the outcome of its checks."""

    tracer: LayerTracer
    values: Dict[str, float]
    failures: Counter
    attempted: int

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def columnar_run_counts(ops: Sequence, workdir: str) -> Tuple[List[Execution], Counter]:
    """One more round under ``repro.obs.observed()`` for the dispatch-run counters."""
    with observed() as obs:
        executions, _timed = measure("capture_replay", ops, 0, workdir)
        counters = obs.registry.snapshot()["counters"]
    names = ("dispatch.runs_total", "dispatch.records_total", "dispatch.fallback_runs")
    return executions, Counter({name: counters.get(name, 0) for name in names})


#: Per-worker timings a supervised sharded replay reports.
SHARD_TIMINGS = ("setup_s", "predecode_s", "shm_attach_s", "dispatch_s", "serialize_s", "ipc_s")
#: Supervised sharded replays a traced run makes for the ``shard.*`` figures.
SHARD_PROBES = 3


def shard_probe(ops: Sequence, workdir: str) -> Counter:
    """``SHARD_PROBES`` supervised sharded replays, with the gateway's
    default policy and worker count."""
    config = GatewayConfig()
    path = os.path.join(workdir, "shard.lbatrace")
    counts: Counter = Counter()
    done = 0
    try:
        for op in ops:
            if capture_trace(op.program, path, scale=op.scale).chunks < config.workers_per_session:
                continue
            result = ParallelReplay(
                path, op.lifeguards[done % len(op.lifeguards)],
                workers=config.workers_per_session, collect_timing=True,
                policy=config.policy, shared_memory=config.shared_memory,
            ).run()
            for timing in result.worker_timings:
                for key in SHARD_TIMINGS:
                    counts[f"shard.{key}"] += timing.get(key, 0.0)
            counts["replay.worker_retries"] += result.fault_counters.get("worker_retries", 0)
            done += 1
            if done == SHARD_PROBES:
                break
    finally:
        stop_helper_processes()
    return counts


def stop_helper_processes() -> None:
    """Stop and reap the forkserver and resource tracker multiprocessing started."""
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def traced_run(workload: str, ops: Sequence, workdir: str) -> TracedRun:
    """One round untraced, the same round traced, then the count-only passes."""
    plain, _plain_s = measure(workload, ops, 0, workdir)
    tracer = LayerTracer()
    with tracer.installed():
        traced, traced_s = measure(workload, ops, 0, workdir, tracer)
    # Scaled, so host drift between the two rounds does not enter the ratio.
    overhead = (sum(e.scaled_seconds for e in traced)
                / sum(e.scaled_seconds for e in plain))
    counts = traced_counts(traced)
    checked = plain + traced
    if workload == "capture_replay":
        counted, run_counts = columnar_run_counts(ops, workdir)
        checked += counted
        counts.update(run_counts)
        counts.update(shard_probe(ops, workdir))
    failures = check(workload, ops, checked, ReferenceCache())
    values = layer_metrics(tracer, counts, traced_s, overhead, stack_breakdown(tracer, traced))
    slowdowns = [e.slowdown for e in traced if e.error is None and e.slowdown]
    if slowdowns:
        values["timing.sim_slowdown"] = geomean(slowdowns)
    return TracedRun(tracer, values, failures, len(checked))
