"""Pipeline observability: metrics registry, stage spans, exporters.

The telemetry layer the paper's hardware-counter stories map onto: IT
transition mixes, Idempotent-Filter probe outcomes, M-TLB CAM behaviour,
codec/dispatch/replay stage timings -- surfaced live instead of only
through ``state_signature()`` and ad-hoc ints.

Three design rules keep it out of the hot path's way:

* **no-op fast path** -- a single module-level :data:`~repro.obs.runtime.OBS`
  object with an ``enabled`` flag (default ``False``); hot loops test that
  one attribute per *chunk*, never per record or per run, so disabled
  telemetry costs one branch per ``consume_columns`` call;
* **deterministic snapshots** -- histograms use fixed bucket boundaries
  and every export sorts its keys, so two identical runs produce
  byte-identical JSON;
* **collection, not hooking** -- accelerator counters (IT/IF/M-TLB) are
  *read* from the existing stats objects at collection points (end of a
  replay), never incremented through telemetry calls in the event loops.

Exports: JSON metric snapshots, Prometheus text exposition, Chrome
trace-event JSON (Perfetto-loadable) and folded-stack text.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, prometheus_text
from repro.obs.pipeline import (
    REQUIRED_ACCELERATOR_COUNTERS,
    REQUIRED_REPLAY_COUNTERS,
    REQUIRED_SERVICE_COUNTERS,
    collect_pipeline,
    collect_service,
    snapshot_document,
    validate_snapshot,
)
from repro.obs.runtime import OBS, disable, enable, observed
from repro.obs.spans import SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "REQUIRED_ACCELERATOR_COUNTERS",
    "REQUIRED_REPLAY_COUNTERS",
    "REQUIRED_SERVICE_COUNTERS",
    "SpanTracer",
    "collect_pipeline",
    "collect_service",
    "disable",
    "enable",
    "observed",
    "prometheus_text",
    "snapshot_document",
    "validate_snapshot",
]
