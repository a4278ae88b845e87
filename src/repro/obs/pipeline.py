"""Pipeline-level collection: hot-loop recorder and end-of-run collectors.

Two halves:

* :class:`PipelineRecorder` -- the only telemetry object hot loops touch.
  ``ColumnarEngine`` records one call per *run* (not per record) into
  preallocated per-ordinal arrays; the codec records per-chunk byte and
  record counts.  Nothing here allocates or formats.
* :func:`collect_pipeline` -- reads the pipeline's existing stats objects
  (``AcceleratorStats``, ``ITStats``, ``IFStats``, ``MTLBStats``,
  ``DispatchStats``, ``MapperStats``, shadow-map counters) into a
  :class:`~repro.obs.metrics.MetricsRegistry` at a collection point (end
  of replay).  The accelerators are never hooked: the paper's
  figure-level counters are *read*, exactly as ``state_signature()``
  reads them, so enabling telemetry cannot perturb bit-identity.

:func:`snapshot_document` wraps a registry snapshot in a versioned
JSON-ready document; :func:`validate_snapshot` is the CI schema gate that
fails when required accelerator counters are missing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.events import EVENT_TYPES, NUM_EVENT_TYPES
from repro.obs.metrics import (
    CHUNK_BYTES_BUCKETS,
    RUN_LENGTH_BUCKETS,
    Histogram,
    MetricsRegistry,
)

SNAPSHOT_VERSION = 1
SNAPSHOT_KIND = "repro-metrics-snapshot"

#: Counters every enabled-telemetry replay snapshot must carry -- the
#: paper's accelerator hit/miss story.  CI validates these names exist.
REQUIRED_ACCELERATOR_COUNTERS = (
    "it.events_seen",
    "it.events_delivered",
    "it.events_discarded",
    "if.lookups",
    "if.hits",
    "if.misses",
    "if.evictions",
    "mtlb.lookups",
    "mtlb.hits",
    "mtlb.misses",
)

#: Fault-tolerance counters every replay snapshot must carry -- the
#: supervised-replay health story (retries, crashes, timeouts,
#: bisections, quarantine accounting).  Zero on a clean run, but always
#: present so dashboards and the CI schema gate never miss a regression.
REQUIRED_REPLAY_COUNTERS = (
    "replay.worker_retries",
    "replay.worker_crashes",
    "replay.worker_timeouts",
    "replay.worker_errors",
    "replay.bisections",
    "replay.fallbacks_inprocess",
    "replay.chunks_quarantined",
    "replay.records_quarantined",
)

#: Gateway counters every *service* snapshot must carry -- the
#: multi-tenant health story (admission, shedding, quarantine, recovery,
#: ingest volume).  Required only when the snapshot's ``meta.source`` is
#: ``"service"``, so replay/benchmark snapshots keep their schema.
REQUIRED_SERVICE_COUNTERS = (
    "service.sessions_admitted",
    "service.sessions_shed",
    "service.sessions_settled",
    "service.sessions_failed",
    "service.sessions_quarantined",
    "service.sessions_recovered",
    "service.chunks_received",
    "service.bytes_received",
)


class PipelineRecorder:
    """Preallocated hot-loop accumulators, flushed to a registry later.

    Dispatch run records index per-ordinal arrays at ``ordinal + 1`` so
    the annotation pseudo-ordinal ``-1`` lands at slot 0 without a branch.
    """

    __slots__ = (
        "run_counts",
        "run_records",
        "fallback_runs",
        "fallback_records",
        "run_length_hist",
        "chunks_read",
        "bytes_stored",
        "bytes_raw",
        "records_decoded",
        "chunk_records_hist",
        "chunks_written",
        "bytes_written_stored",
        "bytes_written_raw",
    )

    def __init__(self) -> None:
        self._reset()

    # ------------------------------------------------------------- hot-loop API

    def record_run(self, ordinal: int, length: int, fallback: bool) -> None:
        """One dispatch run: ``ordinal`` -1 for annotations, else event ordinal."""
        index = ordinal + 1
        self.run_counts[index] += 1
        self.run_records[index] += length
        self.run_length_hist.observe(length)
        if fallback:
            self.fallback_runs += 1
            self.fallback_records += length

    def record_chunk_read(self, stored_len: int, raw_len: int) -> None:
        self.chunks_read += 1
        self.bytes_stored += stored_len
        self.bytes_raw += raw_len

    def record_chunk_decoded(self, records: int) -> None:
        self.records_decoded += records
        self.chunk_records_hist.observe(records)

    def record_chunk_written(self, stored_len: int, raw_len: int) -> None:
        self.chunks_written += 1
        self.bytes_written_stored += stored_len
        self.bytes_written_raw += raw_len

    # ----------------------------------------------------------------- flush

    def flush_to(self, registry: MetricsRegistry) -> None:
        """Fold accumulated counts into the registry (collection point)."""
        total_runs = 0
        total_records = 0
        for index in range(NUM_EVENT_TYPES + 1):
            runs = self.run_counts[index]
            if not runs:
                continue
            name = "annotation" if index == 0 else EVENT_TYPES[index - 1].value
            registry.counter(f"dispatch.runs.{name}").inc(runs)
            registry.counter(f"dispatch.records.{name}").inc(self.run_records[index])
            total_runs += runs
            total_records += self.run_records[index]
        registry.counter("dispatch.runs_total").inc(total_runs)
        registry.counter("dispatch.records_total").inc(total_records)
        registry.counter("dispatch.fallback_runs").inc(self.fallback_runs)
        registry.counter("dispatch.fallback_records").inc(self.fallback_records)
        hist = registry.histogram("dispatch.run_length", self.run_length_hist.bounds)
        _merge_histogram(hist, self.run_length_hist)
        if self.chunks_read:
            registry.counter("codec.chunks_read").inc(self.chunks_read)
            registry.counter("codec.bytes_stored").inc(self.bytes_stored)
            registry.counter("codec.bytes_raw").inc(self.bytes_raw)
            registry.counter("codec.records_decoded").inc(self.records_decoded)
            chunk_hist = registry.histogram(
                "codec.chunk_records", self.chunk_records_hist.bounds
            )
            _merge_histogram(chunk_hist, self.chunk_records_hist)
        if self.chunks_written:
            registry.counter("capture.chunks_written").inc(self.chunks_written)
            registry.counter("capture.bytes_stored").inc(self.bytes_written_stored)
            registry.counter("capture.bytes_raw").inc(self.bytes_written_raw)
        self._reset()

    def _reset(self) -> None:
        """Zero the accumulators so each flush contributes only its delta."""
        self.run_counts = [0] * (NUM_EVENT_TYPES + 1)
        self.run_records = [0] * (NUM_EVENT_TYPES + 1)
        self.fallback_runs = 0
        self.fallback_records = 0
        self.run_length_hist = Histogram("dispatch.run_length", RUN_LENGTH_BUCKETS)
        self.chunks_read = 0
        self.bytes_stored = 0
        self.bytes_raw = 0
        self.records_decoded = 0
        self.chunk_records_hist = Histogram("codec.chunk_records", CHUNK_BYTES_BUCKETS)
        self.chunks_written = 0
        self.bytes_written_stored = 0
        self.bytes_written_raw = 0


def _merge_histogram(target: Histogram, source: Histogram) -> None:
    for index, count in enumerate(source.counts):
        target.counts[index] += count
    target.total += source.total
    target.count += source.count


# --------------------------------------------------------------------- collect


def collect_pipeline(
    registry: MetricsRegistry,
    dispatcher=None,
    accelerator=None,
    lifeguard=None,
    shadow=None,
    recorder: Optional[PipelineRecorder] = None,
    engine=None,  # unused; perfbench/perlayer.py still passes it
) -> MetricsRegistry:
    """Read pipeline stats objects into ``registry`` at a collection point.

    ``accelerator`` may have any of ``it`` / ``idempotent_filter`` /
    ``mtlb`` set to ``None``; the required counter names are still emitted
    (as zeros) so snapshot schemas stay stable across configurations.
    """
    if accelerator is not None:
        for name in REQUIRED_ACCELERATOR_COUNTERS:
            registry.counter(name)
        for name in REQUIRED_REPLAY_COUNTERS:
            registry.counter(name)
        acc = accelerator.stats
        registry.counter("accelerator.records_processed").inc(acc.records_processed)
        registry.counter("accelerator.instruction_records").inc(acc.instruction_records)
        registry.counter("accelerator.annotation_records").inc(acc.annotation_records)
        registry.counter("accelerator.propagation_events_in").inc(acc.propagation_events_in)
        registry.counter("accelerator.propagation_events_delivered").inc(
            acc.propagation_events_delivered
        )
        registry.counter("accelerator.check_events_in").inc(acc.check_events_in)
        registry.counter("accelerator.check_events_filtered").inc(acc.check_events_filtered)
        registry.counter("accelerator.check_events_delivered").inc(
            acc.check_events_delivered
        )
        registry.counter("accelerator.rare_events_delivered").inc(acc.rare_events_delivered)
        if accelerator.it is not None:
            it = accelerator.it.stats
            registry.counter("it.events_seen").inc(it.events_seen)
            registry.counter("it.events_delivered").inc(it.events_delivered)
            registry.counter("it.events_discarded").inc(it.events_discarded)
            registry.counter("it.events_transformed").inc(it.events_transformed)
            registry.counter("it.conflict_flushes").inc(it.conflict_flushes)
            registry.counter("it.other_flushes").inc(it.other_flushes)
        if accelerator.idempotent_filter is not None:
            filt = accelerator.idempotent_filter
            if_stats = filt.stats
            registry.counter("if.lookups").inc(if_stats.lookups)
            registry.counter("if.hits").inc(if_stats.hits)
            registry.counter("if.misses").inc(if_stats.misses)
            registry.counter("if.insertions").inc(if_stats.insertions)
            registry.counter("if.evictions").inc(if_stats.evictions)
            registry.counter("if.invalidations_full").inc(if_stats.invalidations_full)
            registry.counter("if.invalidations_selective").inc(
                if_stats.invalidations_selective
            )
            registry.gauge("if.resident_entries").set(filt.resident_entries())
        if accelerator.mtlb is not None:
            mtlb = accelerator.mtlb
            mtlb_stats = mtlb.stats
            registry.counter("mtlb.lookups").inc(mtlb_stats.lookups)
            registry.counter("mtlb.hits").inc(mtlb_stats.hits)
            registry.counter("mtlb.misses").inc(mtlb_stats.misses)
            registry.counter("mtlb.fills").inc(mtlb_stats.fills)
            registry.counter("mtlb.flushes").inc(mtlb_stats.flushes)
            registry.gauge("mtlb.resident_entries").set(mtlb.resident_entries())
    if dispatcher is not None:
        disp = dispatcher.stats
        registry.counter("dispatch.records_consumed").inc(disp.records_consumed)
        registry.counter("dispatch.events_handled").inc(disp.events_handled)
        registry.counter("dispatch.handler_instructions").inc(disp.handler_instructions)
        registry.counter("dispatch.mapping_instructions").inc(disp.mapping_instructions)
        registry.counter("dispatch.miss_handler_instructions").inc(
            disp.miss_handler_instructions
        )
        registry.counter("dispatch.lifeguard_cycles").inc(disp.lifeguard_cycles)
    if lifeguard is not None:
        mapper = lifeguard.mapper_stats()
        if mapper is not None:
            registry.counter("mapper.translations").inc(mapper.translations)
            registry.counter("mapper.mtlb_hits").inc(mapper.mtlb_hits)
            registry.counter("mapper.mtlb_misses").inc(mapper.mtlb_misses)
        if shadow is None:
            shadow = lifeguard.primary_map()
    if shadow is not None:
        registry.counter("shadow.fill_calls").inc(getattr(shadow, "fill_calls", 0))
        registry.counter("shadow.fill_fast_elements").inc(
            getattr(shadow, "fill_fast_elements", 0)
        )
        registry.counter("shadow.writes").inc(getattr(shadow, "writes", 0))
        registry.counter("shadow.reads").inc(getattr(shadow, "reads", 0))
        if hasattr(shadow, "materialized_buffers"):
            registry.gauge("shadow.materialized_buffers").set(shadow.materialized_buffers())
    if recorder is not None:
        recorder.flush_to(registry)
    return registry


def shard_detail(accelerator=None, lifeguard=None) -> Dict[str, object]:
    """Picklable counter detail of a supervised replay worker.

    Worker processes have no access to the parent's registry, and the
    :class:`ReplayResult` only carries the ``DispatchStats`` /
    ``AcceleratorStats`` -- the IT / IF / M-TLB / mapper / shadow detail
    lives in live objects that never cross the process boundary.  This
    captures that detail as plain dicts of counter values; the parent folds
    them in with :func:`collect_sharded_replay`.
    """
    from repro.core.stats import stats_as_dict

    detail: Dict[str, object] = {}
    if accelerator is not None:
        if accelerator.it is not None:
            detail["it"] = stats_as_dict(accelerator.it.stats)
        if accelerator.idempotent_filter is not None:
            detail["if"] = stats_as_dict(accelerator.idempotent_filter.stats)
            detail["if_resident"] = accelerator.idempotent_filter.resident_entries()
        if accelerator.mtlb is not None:
            detail["mtlb"] = stats_as_dict(accelerator.mtlb.stats)
            detail["mtlb_resident"] = accelerator.mtlb.resident_entries()
    if lifeguard is not None:
        mapper = lifeguard.mapper_stats()
        if mapper is not None:
            detail["mapper"] = stats_as_dict(mapper)
        shadow = lifeguard.primary_map()
        if shadow is not None:
            detail["shadow"] = {
                "fill_calls": getattr(shadow, "fill_calls", 0),
                "fill_fast_elements": getattr(shadow, "fill_fast_elements", 0),
                "writes": getattr(shadow, "writes", 0),
                "reads": getattr(shadow, "reads", 0),
            }
            if hasattr(shadow, "materialized_buffers"):
                detail["shadow_materialized"] = shadow.materialized_buffers()
    return detail


def collect_sharded_replay(registry: MetricsRegistry, result, details) -> MetricsRegistry:
    """Fold a supervised replay's result and worker details into ``registry``.

    ``result`` is the :class:`~repro.trace.replay.ReplayResult`; ``details``
    are the worker's :func:`shard_detail` dicts (empty when the caller has
    none).  Emits the same counter names as :func:`collect_pipeline`, so
    snapshots from in-process and supervised replays share one schema.
    """
    for name in REQUIRED_ACCELERATOR_COUNTERS:
        registry.counter(name)
    for name in REQUIRED_REPLAY_COUNTERS:
        registry.counter(name)
    registry.counter("replay.chunks").inc(result.chunks)
    registry.counter("replay.records").inc(result.records)
    registry.gauge("replay.workers").set(result.workers)
    # Supervision outcome: every fault counter the supervisor bumped, plus
    # quarantine accounting (``replay.`` prefix keeps one flat namespace).
    counters = getattr(result, "fault_counters", None) or {}
    for name, value in counters.items():
        registry.counter(f"replay.{name}").inc(value)
    skipped = getattr(result, "skipped_chunks", None) or []
    if skipped and "chunks_quarantined" not in counters:
        registry.counter("replay.chunks_quarantined").inc(len(skipped))
        registry.counter("replay.records_quarantined").inc(
            sum(chunk.records for chunk in skipped)
        )
    disp = result.dispatch
    registry.counter("dispatch.records_consumed").inc(disp.records_consumed)
    registry.counter("dispatch.events_handled").inc(disp.events_handled)
    registry.counter("dispatch.handler_instructions").inc(disp.handler_instructions)
    registry.counter("dispatch.mapping_instructions").inc(disp.mapping_instructions)
    registry.counter("dispatch.miss_handler_instructions").inc(
        disp.miss_handler_instructions
    )
    registry.counter("dispatch.lifeguard_cycles").inc(disp.lifeguard_cycles)
    acc = result.accelerator
    registry.counter("accelerator.records_processed").inc(acc.records_processed)
    registry.counter("accelerator.instruction_records").inc(acc.instruction_records)
    registry.counter("accelerator.annotation_records").inc(acc.annotation_records)
    registry.counter("accelerator.propagation_events_in").inc(acc.propagation_events_in)
    registry.counter("accelerator.propagation_events_delivered").inc(
        acc.propagation_events_delivered
    )
    registry.counter("accelerator.check_events_in").inc(acc.check_events_in)
    registry.counter("accelerator.check_events_filtered").inc(acc.check_events_filtered)
    registry.counter("accelerator.check_events_delivered").inc(acc.check_events_delivered)
    registry.counter("accelerator.rare_events_delivered").inc(acc.rare_events_delivered)
    if_resident = 0
    mtlb_resident = 0
    shadow_materialized = 0
    for detail in details:
        for prefix in ("it", "if", "mtlb", "mapper"):
            for field, value in (detail.get(prefix) or {}).items():
                registry.counter(f"{prefix}.{field}").inc(value)
        for field, value in (detail.get("shadow") or {}).items():
            registry.counter(f"shadow.{field}").inc(value)
        if_resident += detail.get("if_resident", 0)
        mtlb_resident += detail.get("mtlb_resident", 0)
        shadow_materialized += detail.get("shadow_materialized", 0)
    if any("if" in detail for detail in details):
        registry.gauge("if.resident_entries").set(if_resident)
    if any("mtlb" in detail for detail in details):
        registry.gauge("mtlb.resident_entries").set(mtlb_resident)
    if any("shadow_materialized" in detail for detail in details):
        registry.gauge("shadow.materialized_buffers").set(shadow_materialized)
    return registry


def collect_service(
    registry: MetricsRegistry,
    counters: Dict[str, int],
    last: Optional[Dict[str, int]] = None,
) -> MetricsRegistry:
    """Fold the gateway's service counters into ``registry``.

    The gateway keeps plain monotonically-growing ints (cheap to bump on
    the event loop); registry counters are inc-only, so this emits the
    *delta* since the previous flush.  ``last`` is the caller-owned
    flush watermark, updated in place -- pass the same dict every time.
    Always emits every :data:`REQUIRED_SERVICE_COUNTERS` name so service
    snapshots validate even before the first session arrives.
    """
    for name in REQUIRED_SERVICE_COUNTERS:
        registry.counter(name)
    watermark = last if last is not None else {}
    for key, value in counters.items():
        delta = value - watermark.get(key, 0)
        if delta > 0:
            registry.counter(f"service.{key}").inc(delta)
        watermark[key] = value
    return registry


# -------------------------------------------------------------------- document


def snapshot_document(
    registry: MetricsRegistry, meta: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Versioned, JSON-ready snapshot document (no timestamps: deterministic)."""
    snapshot = registry.snapshot()
    return {
        "version": SNAPSHOT_VERSION,
        "kind": SNAPSHOT_KIND,
        "meta": dict(meta or {}),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
    }


def validate_snapshot(document: Dict[str, object]) -> List[str]:
    """Schema-check a snapshot document; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if document.get("kind") != SNAPSHOT_KIND:
        problems.append(f"kind is {document.get('kind')!r}, expected {SNAPSHOT_KIND!r}")
    if document.get("version") != SNAPSHOT_VERSION:
        problems.append(
            f"version is {document.get('version')!r}, expected {SNAPSHOT_VERSION}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(section), dict):
            problems.append(f"missing section {section!r}")
    counters = document.get("counters")
    if isinstance(counters, dict):
        for name in REQUIRED_ACCELERATOR_COUNTERS:
            if name not in counters:
                problems.append(f"missing required accelerator counter {name!r}")
        for name in REQUIRED_REPLAY_COUNTERS:
            if name not in counters:
                problems.append(f"missing required replay counter {name!r}")
        meta = document.get("meta")
        if isinstance(meta, dict) and meta.get("source") == "service":
            for name in REQUIRED_SERVICE_COUNTERS:
                if name not in counters:
                    problems.append(f"missing required service counter {name!r}")
    histograms = document.get("histograms")
    if isinstance(histograms, dict):
        for name, data in histograms.items():
            if not isinstance(data, dict) or not {"bounds", "counts", "sum", "count"} <= set(
                data
            ):
                problems.append(f"histogram {name!r} missing bounds/counts/sum/count")
                continue
            if len(data["counts"]) != len(data["bounds"]) + 1:
                problems.append(f"histogram {name!r} counts/bounds length mismatch")
    return problems
