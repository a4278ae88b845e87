"""Differential oracle: one fuzzed program, every dispatch engine.

For a fuzz case the oracle captures the log-record stream once, then runs
it through every consumption path of the platform and asserts agreement:

* **record legs** (no cache hierarchy, directly comparable bit for bit):
  the per-record ``consume`` loop (the reference), the run-grouped
  :class:`~repro.lba.columnar.ColumnarEngine` (the one fast path), and
  offline replay of a trace-file round-trip (codec encode -> chunked
  file -> column decode -> columnar dispatch).  Equality covers error
  reports, :class:`DispatchStats`, :class:`AcceleratorStats`, total
  lifeguard cycles and -- for the in-process ``columnar`` leg -- mapper
  counters and the *internal* accelerator state via
  :meth:`EventAccelerator.state_signature` (IT table, Idempotent-Filter
  sets with LRU order, M-TLB CAM with LRU order);
* **full-system legs**: the live dual-core :class:`LBASystem` run (whose
  reports, event counts and mapper counters must match the reference;
  cycle totals legitimately differ because the live run models the shared
  cache hierarchy), the multi-core platform at N=1 (bit-identical to the
  live run, the anchor the conformance matrix enforces), and sharded
  multi-core runs at N>1 (clean seeds must stay silent; shard-exact bug
  classes must still be detected);
* **ground truth**: the spec's :class:`BugManifest` -- every detector
  lifeguard must report one of the expected kinds, and a clean seed must
  produce zero reports from *every* lifeguard on *every* leg.

Any violation raises :class:`FuzzFailure` carrying enough context to
reproduce (seed, leg, lifeguard, message); the CLI turns that into a
replayable repro file.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.lba.columnar import ColumnarEngine
from repro.lba.platform import LBASystem, MonitoringResult
from repro.lba.multicore import MultiCoreLBASystem
from repro.lifeguards import ALL_LIFEGUARDS
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.trace.codec import RecordColumns, TraceCodecError
from repro.trace.replay import build_pipeline, replay_trace
from repro.trace.tracefile import TraceFormatError, TraceReader, TraceWriter
from repro.isa.threads import ThreadedMachine
from repro.workloads.generator import (
    BugManifest,
    FuzzConfig,
    FuzzProgramSpec,
    build_fuzz_programs,
    generate_spec,
    manifest_for,
)

#: Engine legs the oracle knows, in execution order.
DEFAULT_ENGINES = (
    "consume",
    "columnar",
    "trace_replay",
    "live",
    "multicore",
)

#: Core counts for the multi-core leg (1 anchors bit-identity to the live
#: run; 2 and 4 exercise address-sharded monitoring).
DEFAULT_CORES = (1, 2, 4)

#: Lifeguards whose entire detection state is per-address (heap-block
#: tables, accessibility bits, per-word lockset records, with the
#: establishing annotations broadcast to every shard).  Address sharding
#: keeps that state exact, so *these* lifeguards must stay silent on clean
#: seeds at any core count.  Register-inheritance lifeguards (MemCheck,
#: TaintCheck*) are per-shard approximations under N>1 -- a stale IT flush
#: on the thread-routed shard can mark a register uninitialised/tainted
#: from metadata another shard owns -- so the oracle does not assert their
#: silence there (see the sharding note in :mod:`repro.lba.multicore`).
_SHARD_EXACT_LIFEGUARDS = frozenset({"AddrCheck", "LockSet"})



class FuzzFailure(AssertionError):
    """One engine pairing diverged (or ground truth was violated)."""

    def __init__(self, seed: int, leg: str, lifeguard: str, message: str) -> None:
        self.seed = seed
        self.leg = leg
        self.lifeguard = lifeguard
        #: per-leg wall seconds accumulated before the failure (filled in
        #: by :func:`run_case` so repro files can report slow legs)
        self.leg_seconds: Dict[str, float] = {}
        super().__init__(f"seed {seed} [{leg}/{lifeguard}]: {message}")


@dataclass(frozen=True)
class FuzzCase:
    """A spec plus its ground-truth manifest (the unit the oracle checks)."""

    spec: FuzzProgramSpec
    manifest: BugManifest

    @classmethod
    def from_seed(cls, seed: int, config: Optional[FuzzConfig] = None) -> "FuzzCase":
        spec = generate_spec(seed, config)
        return cls(spec=spec, manifest=manifest_for(spec))

    @classmethod
    def from_spec(cls, spec: FuzzProgramSpec) -> "FuzzCase":
        return cls(spec=spec, manifest=manifest_for(spec))

    @property
    def seed(self) -> int:
        return self.spec.seed


@dataclass
class CaseResult:
    """What one oracle pass observed (it returns only if everything agreed)."""

    seed: int
    bug: str
    records: int
    lifeguards: List[str]
    engines: List[str]
    reports_by_lifeguard: Dict[str, int] = field(default_factory=dict)
    detected_by: List[str] = field(default_factory=list)
    #: wall seconds spent per leg (capture + every engine leg, summed
    #: across lifeguards), so slow legs in nightly runs are visible
    leg_seconds: Dict[str, float] = field(default_factory=dict)


@dataclass
class _RecordLegOutcome:
    """Everything a record-stream leg measured (for exact comparison)."""

    cycles: int
    dispatch: object
    accelerator: object
    mapper: object
    state: object
    #: IT, Idempotent-Filter and M-TLB counters (``None`` when disabled)
    hardware_stats: tuple
    reports: List


def _capture_records(spec: FuzzProgramSpec):
    """Run the fuzzed program once and return its full log-record stream."""
    return ThreadedMachine(build_fuzz_programs(spec)).trace()


def _machine(spec: FuzzProgramSpec) -> ThreadedMachine:
    return ThreadedMachine(build_fuzz_programs(spec))


def _finish(lifeguard, accelerator, dispatcher, cycles) -> _RecordLegOutcome:
    lifeguard.finalize()
    return _RecordLegOutcome(
        cycles=cycles,
        dispatch=dispatcher.stats,
        accelerator=accelerator.stats,
        mapper=lifeguard.mapper_stats(),
        state=accelerator.state_signature(),
        hardware_stats=tuple(
            None if unit is None else unit.stats
            for unit in (accelerator.it, accelerator.idempotent_filter, accelerator.mtlb)
        ),
        reports=list(lifeguard.reports),
    )


def _run_consume(records, lifeguard_cls) -> _RecordLegOutcome:
    lifeguard = lifeguard_cls()
    accelerator, dispatcher = build_pipeline(lifeguard)
    cycles = sum(dispatcher.consume(record) for record in records)
    return _finish(lifeguard, accelerator, dispatcher, cycles)


def _run_columnar(records, lifeguard_cls) -> _RecordLegOutcome:
    lifeguard = lifeguard_cls()
    accelerator, dispatcher = build_pipeline(lifeguard)
    engine = ColumnarEngine(dispatcher)
    cycles = engine.consume_columns(RecordColumns.from_records(records))
    return _finish(lifeguard, accelerator, dispatcher, cycles)


def _expect(condition: bool, seed: int, leg: str, lifeguard: str, message: str) -> None:
    if not condition:
        raise FuzzFailure(seed, leg, lifeguard, message)


def _compare_record_leg(seed: int, leg: str, name: str,
                        reference: _RecordLegOutcome, other: _RecordLegOutcome) -> None:
    _expect(other.reports == reference.reports, seed, leg, name,
            f"reports diverge: {len(other.reports)} vs {len(reference.reports)} "
            f"({other.reports[:2]} vs {reference.reports[:2]})")
    dispatch_diff = other.dispatch.diff(reference.dispatch)
    _expect(not dispatch_diff, seed, leg, name,
            f"DispatchStats diverge: {dispatch_diff}")
    _expect(other.accelerator == reference.accelerator, seed, leg, name,
            f"AcceleratorStats diverge: {other.accelerator} vs {reference.accelerator}")
    _expect(other.cycles == reference.cycles, seed, leg, name,
            f"total cycles diverge: {other.cycles} vs {reference.cycles}")
    _expect(other.mapper == reference.mapper, seed, leg, name,
            f"MapperStats diverge: {other.mapper} vs {reference.mapper}")
    _expect(other.state == reference.state, seed, leg, name,
            "internal accelerator state (IT/IF/M-TLB) diverges")
    _expect(other.hardware_stats == reference.hardware_stats, seed, leg, name,
            f"IT/IF/M-TLB stats diverge: {other.hardware_stats} vs "
            f"{reference.hardware_stats}")


def _check_detection(seed: int, leg: str, name: str, manifest: BugManifest,
                     reports: Sequence) -> None:
    """Assert manifest ground truth against one leg's reports."""
    if manifest.is_clean:
        _expect(not reports, seed, leg, name,
                f"clean seed produced {len(reports)} report(s): "
                f"{[str(r) for r in reports[:3]]}")
    elif name in manifest.detectors:
        _expect(
            any(report.kind.value in manifest.kinds for report in reports),
            seed, leg, name,
            f"injected {manifest.bug} not detected "
            f"(expected one of {manifest.kinds}, got "
            f"{sorted({r.kind.value for r in reports})})",
        )


def run_case(
    case: FuzzCase,
    engines: Sequence[str] = DEFAULT_ENGINES,
    lifeguards: Optional[Sequence[str]] = None,
    cores: Sequence[int] = DEFAULT_CORES,
    workdir: Optional[str] = None,
    verify_determinism: bool = False,
    inject_faults: bool = False,
) -> CaseResult:
    """Run one fuzz case through the engine matrix; raise on any divergence.

    Args:
        case: the spec + manifest to check.
        engines: subset of :data:`DEFAULT_ENGINES` to run.  ``consume`` is
            always run (it is the reference every other leg compares to).
        lifeguards: lifeguard names (default: all five).
        cores: core counts for the ``multicore`` leg.
        workdir: directory for the trace-replay leg's temporary trace files
            (a throwaway temporary directory by default).
        verify_determinism: run every sharded (N>1) multi-core configuration
            twice and require bit-identical merged results (the nightly
            block enables this; it doubles the multi-core cost).
        inject_faults: also round-trip the record stream through a
            *deliberately damaged* trace copy and require degrade-mode
            replay to quarantine exactly the damaged chunk (and strict
            mode to raise) -- damage must never pass silently.
    """
    unknown = set(engines) - set(DEFAULT_ENGINES)
    if unknown:
        raise ValueError(f"unknown engines {sorted(unknown)}; known: {DEFAULT_ENGINES}")
    names = sorted(lifeguards if lifeguards is not None else ALL_LIFEGUARDS)
    for name in names:
        if name not in ALL_LIFEGUARDS:
            raise KeyError(f"unknown lifeguard {name!r}; known: {sorted(ALL_LIFEGUARDS)}")
    seed = case.seed
    manifest = case.manifest

    leg_seconds: Dict[str, float] = {}

    def _timed(leg: str, fn):
        started = time.perf_counter()
        value = fn()
        leg_seconds[leg] = leg_seconds.get(leg, 0.0) + (time.perf_counter() - started)
        return value

    records = _timed("capture", lambda: _capture_records(case.spec))
    result = CaseResult(
        seed=seed,
        bug=manifest.bug,
        records=len(records),
        lifeguards=list(names),
        engines=[engine for engine in DEFAULT_ENGINES if engine in engines],
    )

    trace_path = None
    tempdir = None
    if "trace_replay" in engines or inject_faults:
        if workdir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
            workdir = tempdir.name

    if "trace_replay" in engines:
        trace_path = os.path.join(workdir, f"fuzz_{seed}.trace")

        def _write_trace():
            with TraceWriter(trace_path) as writer:
                for record in records:
                    writer.append(record)

        _timed("trace_write", _write_trace)

    damaged_path = None
    damaged_chunk = None
    damaged_records = None
    if inject_faults:
        damaged_path = os.path.join(workdir, f"fuzz_{seed}_damaged.trace")

        def _write_damaged():
            # Size chunks off the raw byte count so the damaged trace has
            # several chunks and the quarantine is a *partial* loss.
            with TraceWriter(damaged_path) as writer:
                writer.extend(records)
            chunk_bytes = max(64, writer.stats.raw_bytes // 6)
            with TraceWriter(damaged_path, chunk_bytes=chunk_bytes) as writer:
                writer.extend(records)
            with TraceReader(damaged_path) as reader:
                chunk = random.Random(seed).randrange(reader.num_chunks)
                lost = reader.chunks[chunk].records
            flip_chunk_bytes(damaged_path, chunk, seed=seed)
            return chunk, lost

        damaged_chunk, damaged_records = _timed("fault_inject", _write_damaged)

    try:
        for name in names:
            lifeguard_cls = ALL_LIFEGUARDS[name]
            reference = _timed("consume", lambda: _run_consume(records, lifeguard_cls))
            result.reports_by_lifeguard[name] = len(reference.reports)
            _expect(reference.cycles == reference.dispatch.lifeguard_cycles,
                    seed, "consume", name,
                    "returned cycles disagree with DispatchStats.lifeguard_cycles")
            _check_detection(seed, "consume", name, manifest, reference.reports)
            if not manifest.is_clean and name in manifest.detectors:
                result.detected_by.append(name)

            if "columnar" in engines:
                outcome = _timed("columnar", lambda: _run_columnar(records, lifeguard_cls))
                _compare_record_leg(seed, "columnar", name, reference, outcome)

            if trace_path is not None:
                replay = _timed("trace_replay", lambda: replay_trace(trace_path, lifeguard_cls))
                _expect(replay.reports == reference.reports, seed, "trace_replay", name,
                        "replayed reports diverge from the live record stream's")
                dispatch_diff = replay.dispatch.diff(reference.dispatch)
                _expect(not dispatch_diff, seed, "trace_replay", name,
                        f"DispatchStats diverge: {dispatch_diff}")
                _expect(replay.accelerator == reference.accelerator, seed, "trace_replay", name,
                        "AcceleratorStats diverge across the codec round-trip")
                _expect(replay.records == len(records), seed, "trace_replay", name,
                        f"record count diverges: {replay.records} vs {len(records)}")

            if damaged_path is not None:
                leg = "fault_replay"
                degraded = _timed(leg, lambda: replay_trace(
                    damaged_path, lifeguard_cls, quarantine="degrade"))
                _expect(
                    [c.chunk for c in degraded.skipped_chunks] == [damaged_chunk],
                    seed, leg, name,
                    f"degrade-mode replay quarantined "
                    f"{[c.chunk for c in degraded.skipped_chunks]}, "
                    f"expected exactly damaged chunk {damaged_chunk}",
                )
                _expect(degraded.skipped_records == damaged_records, seed, leg, name,
                        f"quarantine accounting diverges: {degraded.skipped_records} "
                        f"vs {damaged_records} damaged records")
                _expect(degraded.records == len(records) - damaged_records,
                        seed, leg, name,
                        f"surviving record count diverges: {degraded.records} vs "
                        f"{len(records) - damaged_records}")

                def _strict_raises():
                    try:
                        replay_trace(damaged_path, lifeguard_cls, quarantine="strict")
                    except (TraceFormatError, TraceCodecError):
                        return True
                    return False

                _expect(_timed(leg, _strict_raises), seed, leg, name,
                        "strict replay of the damaged trace did not raise")

            live: Optional[MonitoringResult] = None
            if "live" in engines:
                live = _timed("live", lambda: LBASystem(
                    _machine(case.spec),
                    lifeguard_cls(),
                    SystemConfig(),
                    workload_name=f"fuzz_{seed}",
                ).run())
                _expect(live.reports == reference.reports, seed, "live", name,
                        "live full-system reports diverge from the record legs'")
                # Only the hierarchy-free fields must agree: live cycle
                # totals include the modelled cache latencies.
                live_diff = live.dispatch.diff(
                    reference.dispatch, ignore=("lifeguard_cycles",)
                )
                _expect(not live_diff, seed, "live", name,
                        f"DispatchStats diverge on hierarchy-free fields: {live_diff}")
                _expect(live.accelerator == reference.accelerator, seed, "live", name,
                        "live AcceleratorStats diverge")
                _expect(live.mapper == reference.mapper, seed, "live", name,
                        "live MapperStats diverge")
                _expect(live.producer.records == len(records), seed, "live", name,
                        f"live producer saw {live.producer.records} records, "
                        f"captured stream has {len(records)}")

            if "multicore" in engines:
                for num_cores in cores:
                    multicore = _timed("multicore", lambda: MultiCoreLBASystem(
                        _machine(case.spec),
                        lifeguard_cls,
                        SystemConfig(),
                        num_cores=num_cores,
                        workload_name=f"fuzz_{seed}",
                    ).run())
                    leg = f"multicore[{num_cores}]"
                    _expect(multicore.stats.records == len(records), seed, leg, name,
                            f"routed {multicore.stats.records} records, "
                            f"stream has {len(records)}")
                    if num_cores == 1:
                        if live is not None:
                            _expect(multicore.merged == live, seed, leg, name,
                                    "N=1 multi-core result is not bit-identical "
                                    "to the dual-core LBASystem run")
                        else:
                            _expect(multicore.reports == reference.reports, seed, leg, name,
                                    "N=1 multi-core reports diverge")
                        _check_detection(seed, leg, name, manifest, multicore.reports)
                    elif manifest.is_clean:
                        if name in _SHARD_EXACT_LIFEGUARDS:
                            _expect(not multicore.reports, seed, leg, name,
                                    f"clean seed produced {len(multicore.reports)} "
                                    f"sharded report(s)")
                    elif manifest.shard_exact and name in manifest.detectors:
                        _expect(
                            any(r.kind.value in manifest.kinds for r in multicore.reports),
                            seed, leg, name,
                            f"shard-exact bug {manifest.bug} missed under "
                            f"{num_cores}-way address sharding",
                        )
                    if verify_determinism and num_cores > 1:
                        again = _timed("multicore", lambda: MultiCoreLBASystem(
                            _machine(case.spec),
                            lifeguard_cls,
                            SystemConfig(),
                            num_cores=num_cores,
                            workload_name=f"fuzz_{seed}",
                        ).run())
                        _expect(again.merged == multicore.merged, seed, leg, name,
                                "sharded run is not deterministic "
                                "(two identical runs diverged)")
    except FuzzFailure as failure:
        failure.leg_seconds = {
            leg: round(seconds, 6) for leg, seconds in leg_seconds.items()
        }
        raise
    finally:
        if tempdir is not None:
            tempdir.cleanup()
    result.leg_seconds = {leg: round(seconds, 6) for leg, seconds in leg_seconds.items()}
    return result


def run_seed(
    seed: int,
    engines: Sequence[str] = DEFAULT_ENGINES,
    lifeguards: Optional[Sequence[str]] = None,
    cores: Sequence[int] = DEFAULT_CORES,
    config: Optional[FuzzConfig] = None,
    verify_determinism: bool = False,
    inject_faults: bool = False,
) -> CaseResult:
    """Convenience: build the case for ``seed`` and run the oracle."""
    return run_case(
        FuzzCase.from_seed(seed, config),
        engines=engines,
        lifeguards=lifeguards,
        cores=cores,
        verify_determinism=verify_determinism,
        inject_faults=inject_faults,
    )
