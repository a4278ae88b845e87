"""Figure 10: per-benchmark slowdowns, LBA baseline vs LBA optimised.

For each of the five lifeguards and each benchmark program the monitored
run's slowdown (monitored completion time over unmonitored application
time) is measured twice: once on the LBA baseline (no acceleration) and once
with the full framework (LMA plus whichever of IT/IF applies per Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.profiler import Profiler
from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.experiments.harness import benchmarks_for, lifeguard_classes, run_monitored
from repro.experiments.reporting import format_table


@dataclass
class Figure10Result:
    """Slowdowns per lifeguard, configuration and benchmark."""

    #: ``{lifeguard: {config_label: {benchmark: slowdown}}}``
    slowdowns: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: ``{lifeguard: {config_label: {benchmark: errors reported}}}``
    errors: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)

    def average(self, lifeguard: str, config_label: str) -> float:
        """Average slowdown of a lifeguard under one configuration."""
        values = list(self.slowdowns[lifeguard][config_label].values())
        return sum(values) / len(values) if values else 0.0

    def improvement(self, lifeguard: str) -> float:
        """Baseline-over-optimised average slowdown ratio."""
        optimized = self.average(lifeguard, "LBA Optimized")
        return self.average(lifeguard, "LBA Baseline") / optimized if optimized else 0.0


_CONFIGS = (("LBA Baseline", BASELINE_CONFIG), ("LBA Optimized", OPTIMIZED_CONFIG))


def run_figure10(
    lifeguards: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    profiler: Optional[Profiler] = None,
) -> Figure10Result:
    """Run the Figure 10 experiment.

    All runs monitor one execution per benchmark: ``profiler``'s immutable
    record list (see :func:`~repro.experiments.harness.run_monitored`).
    """
    profiler = profiler or Profiler()
    result = Figure10Result()
    for lifeguard_cls in lifeguard_classes(lifeguards):
        name = lifeguard_cls.name
        result.slowdowns[name] = {}
        result.errors[name] = {}
        for config_label, config in _CONFIGS:
            result.slowdowns[name][config_label] = {}
            result.errors[name][config_label] = {}
            for benchmark in benchmarks_for(name, benchmarks):
                run = run_monitored(lifeguard_cls, benchmark, config, scale, config_label,
                                    profiler)
                result.slowdowns[name][config_label][benchmark] = run.slowdown
                result.errors[name][config_label][benchmark] = run.errors_detected
    return result


def format_figure10(result: Figure10Result) -> str:
    """Render per-benchmark slowdowns, one table per lifeguard."""
    sections: List[str] = []
    for lifeguard, configs in result.slowdowns.items():
        benchmarks = list(next(iter(configs.values())).keys())
        rows = []
        for benchmark in benchmarks:
            rows.append(
                [benchmark]
                + [configs[label].get(benchmark, float("nan")) for label in configs]
            )
        rows.append(["Avg"] + [result.average(lifeguard, label) for label in configs])
        sections.append(
            format_table(
                ["benchmark"] + list(configs), rows,
                title=f"Figure 10 ({lifeguard}): slowdowns",
            )
        )
    return "\n\n".join(sections)
