"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately small: flat dot-separated metric names (no
label dicts -- a labelled variant is just another name), integer/float
counters and gauges, and histograms whose bucket boundaries are fixed at
creation so a snapshot of the same run is always byte-identical.

Snapshots are plain dicts (JSON-ready, keys sorted); the Prometheus text
exposition is rendered *from a snapshot*, so stored snapshot files can be
re-rendered by the CLI without the live registry.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram boundaries for dispatch run lengths (rows per run).
RUN_LENGTH_BUCKETS: Tuple[Number, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Default histogram boundaries for per-chunk byte counts.
CHUNK_BYTES_BUCKETS: Tuple[Number, ...] = (
    1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """A monotonically increasing numeric metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram with Prometheus ``le`` bucket semantics.

    ``bounds`` are the upper-inclusive bucket edges; an implicit ``+Inf``
    bucket catches everything above the last edge.  Boundaries are frozen
    at construction, which is what makes snapshots deterministic across
    runs and mergeable across registries.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[Number]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        ordered = tuple(bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        # bisect_left: a value equal to an edge lands in that edge's
        # bucket, matching the ``le`` (<=) bucket convention.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    def merge(self, data: Dict[str, object]) -> None:
        """Add another histogram's :meth:`as_dict`, over the same bounds."""
        for index, count in enumerate(data["counts"]):
            self.counts[index] += count
        self.total += data["sum"]
        self.count += data["count"]


class MetricsRegistry:
    """Get-or-create store of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ access

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: Optional[Sequence[Number]] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, bounds or RUN_LENGTH_BUCKETS)
        elif bounds is not None and tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name} already registered with bounds {metric.bounds}, "
                f"requested {tuple(bounds)}"
            )
        return metric

    def _check_free(self, name: str, own: Dict[str, object]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric name {name!r} already used with a different type")

    def merge(self, snapshot: Dict[str, object]) -> "MetricsRegistry":
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the snapshot's value, and histograms add
        bucket by bucket (their bounds must match).  A supervised replay
        worker's counters reach the parent's registry this way.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, data["bounds"]).merge(data)
        return self

    # ------------------------------------------------------------------ export

    def snapshot(self) -> Dict[str, object]:
        """Deterministic plain-dict snapshot (sorted keys, JSON-ready)."""
        return {
            "counters": {name: self._counters[name].value for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict() for name in sorted(self._histograms)
            },
        }

    def to_prometheus(self, prefix: str = "repro_") -> str:
        return prometheus_text(self.snapshot(), prefix=prefix)


def _prom_name(prefix: str, name: str) -> str:
    sanitized = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    return prefix + sanitized


def prometheus_text(snapshot: Dict[str, object], prefix: str = "repro_") -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, data in snapshot.get("histograms", {}).items():
        metric = _prom_name(prefix, name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += data["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {data['sum']}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n"
