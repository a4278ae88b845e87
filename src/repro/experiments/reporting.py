"""Shared table/series formatting for the experiment harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned ASCII table."""
    rows = [list(map(_fmt, row)) for row in rows]
    headers = list(map(str, headers))
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_percent(value: float) -> str:
    """Render a ``[0, 1]`` fraction as a percentage string."""
    return f"{100.0 * value:.1f}%"


def range_string(values: Sequence[float], as_percent: bool = True) -> str:
    """Render the min-max range of a sequence (the style of Figure 12)."""
    if not values:
        return "n/a"
    low, high = min(values), max(values)
    if as_percent:
        return f"{100 * low:.1f}%-{100 * high:.1f}%"
    return f"{low:.2f}-{high:.2f}"
