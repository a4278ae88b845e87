"""Per-layer metrics of a traced run.

Times come from the :class:`~perfbench.layers.LayerTracer`; counts come
from the stats objects the program already keeps (folded through the
existing ``repro.obs`` collectors) and from the results it returns.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.obs import MetricsRegistry, collect_pipeline

from perfbench.layers import LAYERS, PLATFORM, LayerTracer

#: Live-run figures also broken down by Figure-11 technique stack.
STACK_LAYERS = ("accelerator", "dispatch")
STACK_COUNTS = ("dispatch.events_handled", "dispatch.lifeguard_cycles")
STACK_SUFFIXES = ("base", "lma", "lma_it", "lma_if", "lma_it_if")

COUNT_UNITS = {
    "isa.instructions": "count",
    "capture.log_bytes": "bytes",
    "codec.encodes": "count",
    "cache.accesses": "count",
    "cache.l1_miss_rate": "fraction",
    "cache.l2_miss_rate": "fraction",
    "dispatch.events_handled": "count",
    "dispatch.handler_instructions": "count",
    "dispatch.mapping_instructions": "count",
    "dispatch.miss_handler_instructions": "count",
    "dispatch.lifeguard_cycles": "cycles",
    "it.events_seen": "count",
    "it.events_discarded": "count",
    "if.lookups": "count",
    "if.hits": "count",
    "if.evictions": "count",
    "mtlb.lookups": "count",
    "mtlb.misses": "count",
    "mapper.translations": "count",
    "shadow.writes": "count",
    "shadow.fill_fast_elements": "count",
    "shadow.materialized_buffers": "count",
    "timing.producer_stall_cycles": "cycles",
    "timing.consumer_stall_cycles": "cycles",
    "timing.syscall_stall_cycles": "cycles",
    "timing.sim_slowdown": "x",
    "tracefile.bytes_per_record": "bytes/record",
    "tracefile.compression_ratio": "x",
    "codec.bytes_raw": "bytes",
    "columnar.runs": "count",
    "columnar.mean_run_length": "records/run",
    "columnar.fallback_runs": "count",
    "columnar.kernel_runs": "count",
    "shard.setup_s": "s",
    "shard.predecode_s": "s",
    "shard.shm_attach_s": "s",
    "shard.dispatch_s": "s",
    "shard.serialize_s": "s",
    "shard.ipc_s": "s",
    "replay.worker_retries": "count",
    "gateway.upload_s": "s",
    "gateway.commit_s": "s",
    "gateway.wait_s": "s",
    "service.queue_high_water": "count",
    "service.sessions_shed": "count",
    "gateway.failed_mismatch": "count",
    "gateway.failed_reply": "count",
    "gateway.failed_refused": "count",
    "bench.generator_lag_p90_s": "s",
    "bench.trace_overhead": "x",
    "bench.coverage": "fraction",
    "bench.failed_share": "fraction",
}

#: Self-time metric name of each traced layer.
SELF_TIME = {
    "workload": "workload.self_s",
    "isa": "isa.self_s",
    "capture": "capture.self_s",
    "codec.encode": "codec.encode_s",
    "cache": "cache.self_s",
    "dispatch": "dispatch.self_s",
    "accelerator": "accelerator.self_s",
    "lifeguard": "lifeguard.self_s",
    "timing": "timing.self_s",
    "tracefile.write": "tracefile.write_s",
    "tracefile.read": "tracefile.read_s",
    "codec.decode": "codec.decode_s",
    "columnar": "columnar.self_s",
    PLATFORM: "platform.self_s",
}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in ``BENCHMARK.json`` order."""
    names = [(SELF_TIME[layer], "s") for layer in LAYERS + (PLATFORM,)]
    names += list(COUNT_UNITS.items())
    for suffix in STACK_SUFFIXES:
        names += [(f"{SELF_TIME[layer]}.{suffix}", "s") for layer in STACK_LAYERS]
        names += [(f"{name}.{suffix}", COUNT_UNITS[name]) for name in STACK_COUNTS]
    return names


def pipeline_counts(created: Dict[str, list]) -> Counter:
    """Counters of the pipelines one op built, via ``repro.obs.collect_pipeline``."""
    counts: Counter = Counter()
    pipelines = [
        (system.dispatcher, system.accelerator, system.lifeguard, None)
        for system in created.get("LBASystem", [])
    ] + [
        (engine.dispatcher, engine.accelerator, engine.lifeguard, engine)
        for engine in created.get("ColumnarEngine", [])
    ]
    for dispatcher, accelerator, lifeguard, engine in pipelines:
        registry = MetricsRegistry()
        collect_pipeline(registry, dispatcher=dispatcher, accelerator=accelerator,
                         lifeguard=lifeguard, engine=engine)
        snapshot = registry.snapshot()
        counts.update(snapshot["counters"])
        counts.update(snapshot["gauges"])
    for producer in created.get("LogProducer", []):
        counts["isa.instructions"] += producer.stats.instructions
        counts["capture.log_bytes"] += producer.stats.log_bytes
    for system in created.get("LBASystem", []):
        hierarchy = system.hierarchy
        for core in range(hierarchy.num_cores):
            caches = hierarchy.core(core)
            for cache in (caches.l1i, caches.l1d):
                counts["cache.l1_accesses"] += cache.stats.accesses
                counts["cache.l1_misses"] += cache.stats.misses
        counts["cache.l2_accesses"] += hierarchy.l2.stats.accesses
        counts["cache.l2_misses"] += hierarchy.l2.stats.misses
        timing = system.coupling.breakdown
        counts["timing.producer_stall_cycles"] += timing.producer_stall_cycles
        counts["timing.consumer_stall_cycles"] += timing.consumer_stall_cycles
        counts["timing.syscall_stall_cycles"] += timing.syscall_stall_cycles
    return counts


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer, counts: Counter, traced_s: float, overhead: float,
    stack_counts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer values of a traced closed-loop run (missing ones are 0)."""
    values: Dict[str, float] = {
        SELF_TIME[layer]: tracer.self_seconds(layer) for layer in LAYERS + (PLATFORM,)
    }
    for name in COUNT_UNITS:
        if name in counts:
            values[name] = counts[name]
    values["cache.accesses"] = counts["cache.l1_accesses"]
    values["cache.l1_miss_rate"] = ratio(counts["cache.l1_misses"], counts["cache.l1_accesses"])
    values["cache.l2_miss_rate"] = ratio(counts["cache.l2_misses"], counts["cache.l2_accesses"])
    values["tracefile.bytes_per_record"] = ratio(
        counts["trace.stored_bytes"], counts["trace.records"])
    values["tracefile.compression_ratio"] = ratio(
        counts["trace.raw_bytes"], counts["trace.stored_bytes"])
    values["codec.bytes_raw"] = counts["codec.bytes_raw"]
    values["codec.encodes"] = tracer.calls("codec.encode")
    values["columnar.runs"] = counts["dispatch.runs_total"]
    values["columnar.mean_run_length"] = ratio(
        counts["dispatch.records_total"], counts["dispatch.runs_total"])
    values["columnar.fallback_runs"] = counts["dispatch.fallback_runs"]
    values["columnar.kernel_runs"] = counts["dispatch.kernel_runs"]
    values["bench.trace_overhead"] = overhead
    values["bench.coverage"] = ratio(tracer.covered_seconds(), traced_s)
    values.update(stack_counts)
    return values


def complete(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; layers that did not run read 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in metric_names()}
