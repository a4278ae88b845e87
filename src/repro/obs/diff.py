"""Explain deltas between two metrics snapshots or two BENCH files.

``python -m repro.obs diff A.json B.json`` accepts either two registry
snapshot documents (``"counters"`` key) or two benchmark result files
(``"stages"`` key, the ``BENCH_*.json`` format).  For BENCH files it
reports per-stage rec/s deltas and, when the matching ``*.metrics.json``
sidecars exist next to the inputs, attributes the throughput change to
accelerator behaviour ("M-TLB hit rate down 9.0pts").
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: (numerator, denominator, label) hit-rate triples surfaced by bench diffs.
#: IT has none: its reduction compares a run with IT against one without
#: (``core.accelerator.update_event_reduction``), which one snapshot cannot
#: hold, and a discard rate over every event IT saw would be a second,
#: larger number (it counts the self events no configuration delivers).
_HIT_RATES: Tuple[Tuple[str, str, str], ...] = (
    ("if.hits", "if.lookups", "IF hit rate"),
    ("mtlb.hits", "mtlb.lookups", "M-TLB hit rate"),
)


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _rate(counters: Dict[str, float], num: str, den: str) -> Optional[float]:
    total = counters.get(den) or 0
    if not total:
        return None
    return (counters.get(num) or 0) / total


def _pct(delta: float) -> str:
    return f"{delta:+.1%}".replace("%", "%")


def diff_snapshots(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Human-readable lines describing counter/gauge/hit-rate changes A -> B."""
    lines: List[str] = []
    a_counters: Dict[str, float] = dict(a.get("counters") or {})
    b_counters: Dict[str, float] = dict(b.get("counters") or {})
    for num, den, label in _HIT_RATES:
        rate_a = _rate(a_counters, num, den)
        rate_b = _rate(b_counters, num, den)
        if rate_a is None and rate_b is None:
            continue
        if rate_a is None or rate_b is None:
            lines.append(f"{label}: only one side has {den} activity")
            continue
        delta = rate_b - rate_a
        if abs(delta) >= 0.0005:
            direction = "up" if delta > 0 else "down"
            lines.append(
                f"{label} {direction} {abs(delta) * 100:.1f}pts "
                f"({rate_a:.1%} -> {rate_b:.1%})"
            )
    for name in sorted(set(a_counters) | set(b_counters)):
        before = a_counters.get(name, 0)
        after = b_counters.get(name, 0)
        if before == after:
            continue
        if before:
            lines.append(f"{name}: {before} -> {after} ({_pct((after - before) / before)})")
        else:
            lines.append(f"{name}: {before} -> {after}")
    a_gauges: Dict[str, float] = dict(a.get("gauges") or {})
    b_gauges: Dict[str, float] = dict(b.get("gauges") or {})
    for name in sorted(set(a_gauges) | set(b_gauges)):
        before = a_gauges.get(name, 0)
        after = b_gauges.get(name, 0)
        if before != after:
            lines.append(f"{name} (gauge): {before} -> {after}")
    if not lines:
        lines.append("no metric differences")
    return lines


def _sidecar_path(bench_path: str) -> str:
    base = bench_path[:-5] if bench_path.endswith(".json") else bench_path
    return base + ".metrics.json"


def diff_bench(
    a: Dict[str, object], b: Dict[str, object], path_a: str, path_b: str
) -> List[str]:
    """Per-stage rec/s deltas, with sidecar-based hit-rate attribution."""
    lines: List[str] = []
    stages_a: Dict[str, float] = dict(a.get("stages") or {})
    stages_b: Dict[str, float] = dict(b.get("stages") or {})
    units = dict(a.get("units") or {})
    units.update(b.get("units") or {})
    for stage in sorted(set(stages_a) | set(stages_b)):
        rec_a = stages_a.get(stage)
        rec_b = stages_b.get(stage)
        if rec_a is None or rec_b is None:
            lines.append(f"{stage}: present in only one file")
            continue
        unit = units.get(stage, "records/s")
        if rec_a:
            lines.append(
                f"{stage}: {rec_a:,.0f} -> {rec_b:,.0f} {unit} "
                f"({_pct((rec_b - rec_a) / rec_a)})"
            )
        else:
            lines.append(f"{stage}: {rec_a:,.0f} -> {rec_b:,.0f} {unit}")
    side_a, side_b = _sidecar_path(path_a), _sidecar_path(path_b)
    if os.path.exists(side_a) and os.path.exists(side_b):
        lines.append(f"accelerator attribution ({os.path.basename(side_a)}):")
        lines.extend("  " + line for line in diff_snapshots(_load(side_a), _load(side_b)))
    else:
        lines.append("(no metrics sidecars found; run benchmarks with telemetry for attribution)")
    return lines


def diff_files(path_a: str, path_b: str) -> List[str]:
    """Dispatch on file shape: BENCH results vs metrics snapshots."""
    a, b = _load(path_a), _load(path_b)
    if "stages" in a or "stages" in b:
        return diff_bench(a, b, path_a, path_b)
    return diff_snapshots(a, b)
