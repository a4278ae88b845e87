"""Figure 11: applying the three techniques one by one.

For every lifeguard, the average slowdown over its benchmark suite is
measured for each configuration in its technique stack (BASE, then +LMA,
then +IT and/or +IF in the order of the paper's Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.profiler import Profiler
from repro.experiments.harness import (
    TECHNIQUE_STACKS,
    benchmarks_for,
    lifeguard_classes,
    make_config,
    run_monitored,
)
from repro.experiments.reporting import format_table


@dataclass
class Figure11Result:
    """Average slowdown per lifeguard and technique stack step."""

    #: ``{lifeguard: {stack label: average slowdown}}`` (insertion ordered)
    averages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``{lifeguard: {stack label: {benchmark: slowdown}}}``
    per_benchmark: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def monotonic_improvement(self, lifeguard: str) -> bool:
        """True if each added technique did not increase the average slowdown."""
        values = list(self.averages[lifeguard].values())
        return all(later <= earlier * 1.02 for earlier, later in zip(values, values[1:]))


def run_figure11(
    lifeguards: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    profiler: Optional[Profiler] = None,
) -> Figure11Result:
    """Run the Figure 11 experiment.

    All runs monitor one execution per benchmark: ``profiler``'s immutable
    record list (see :func:`~repro.experiments.harness.run_monitored`).
    """
    profiler = profiler or Profiler()
    result = Figure11Result()
    for lifeguard_cls in lifeguard_classes(lifeguards):
        name = lifeguard_cls.name
        stack = TECHNIQUE_STACKS[name]
        result.averages[name] = {}
        result.per_benchmark[name] = {}
        suite = benchmarks_for(name, benchmarks)
        for label, lma, it, idempotent_filter in stack:
            config = make_config(lma, it, idempotent_filter)
            slowdowns = {}
            for benchmark in suite:
                run = run_monitored(lifeguard_cls, benchmark, config, scale, label, profiler)
                slowdowns[benchmark] = run.slowdown
            result.per_benchmark[name][label] = slowdowns
            result.averages[name][label] = sum(slowdowns.values()) / len(slowdowns)
    return result


def format_figure11(result: Figure11Result) -> str:
    """Render the technique-by-technique average slowdowns."""
    rows: List[List[object]] = []
    for lifeguard, averages in result.averages.items():
        for label, value in averages.items():
            rows.append([lifeguard, label, value])
    return format_table(
        ["lifeguard", "configuration", "avg slowdown"], rows,
        title="Figure 11: applying LMA, IT and IF one by one (average slowdowns)",
    )
