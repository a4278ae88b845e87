"""Figure 13: IT and IF profiling sweeps (the PIN-analysis study).

Each panel replays the profiled records through the accelerator on one
lifeguard's own ETCT (M-TLB off, no handler invoked):

* (a) under TAINTCHECK, the fraction of update events Inheritance Tracking
  removes, per benchmark: ``1 - delivered with IT / delivered without IT``,
  the definition Figure 12 uses;
* (b) under ADDRCHECK, the average fraction of check events removed by the
  Idempotent Filter as a function of filter entries and associativity, with
  loads and stores sharing one check categorisation;
* (c) the same sweep under LOCKSET, whose loads and stores are categorised
  separately and whose key includes the accessing thread.

The base of (b) and (c) is every check event the lifeguard registers,
which is what it receives with the filter off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.profiler import Profiler
from repro.analysis.sweeps import (
    IF_ASSOCIATIVITY_SWEEP,
    IF_ENTRY_SWEEP,
    sweep_if_design_space,
    sweep_it_reduction,
)
from repro.experiments.reporting import format_percent, format_table
from repro.lifeguards import AddrCheck, LockSet


@dataclass
class Figure13Result:
    """IT reduction per benchmark and IF reduction sweeps."""

    #: ``{benchmark: fraction of update events removed}`` under TaintCheck
    it_reduction: Dict[str, float] = field(default_factory=dict)
    #: ``{associativity: {entries: avg reduction}}`` under AddrCheck
    #: (loads and stores share a categorisation)
    if_combined: Dict[int, Dict[int, float]] = field(default_factory=dict)
    #: same under LockSet (separate load/store categorisation)
    if_separate: Dict[int, Dict[int, float]] = field(default_factory=dict)


def run_figure13(
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    entries: Sequence[int] = IF_ENTRY_SWEEP,
    associativities: Sequence[int] = IF_ASSOCIATIVITY_SWEEP,
    profiler: Optional[Profiler] = None,
) -> Figure13Result:
    """Run the Figure 13 sweeps."""
    profiler = profiler or Profiler()
    result = Figure13Result()
    result.it_reduction = sweep_it_reduction(profiler, benchmarks, scale)
    result.if_combined = sweep_if_design_space(
        profiler, AddrCheck.name, benchmarks, entries, associativities, scale
    )
    result.if_separate = sweep_if_design_space(
        profiler, LockSet.name, benchmarks, entries, associativities, scale
    )
    return result


def _format_if_sweep(sweep: Dict[int, Dict[int, float]], title: str) -> str:
    entries = sorted({e for per in sweep.values() for e in per})
    rows: List[List[object]] = []
    for associativity, per_entries in sweep.items():
        label = "fully-assoc" if associativity == 0 else f"{associativity}-way"
        rows.append(
            [label] + [format_percent(per_entries.get(e, 0.0)) if e in per_entries else "-"
                       for e in entries]
        )
    return format_table(["assoc \\ entries"] + entries, rows, title=title)


def format_figure13(result: Figure13Result) -> str:
    """Render the three panels of Figure 13."""
    panel_a = format_table(
        ["benchmark", "reduced update events"],
        [[name, format_percent(value)] for name, value in result.it_reduction.items()],
        title="Figure 13(a): IT reduction of propagation events",
    )
    panel_b = _format_if_sweep(
        result.if_combined, "Figure 13(b): IF reduction, combined loads and stores"
    )
    panel_c = _format_if_sweep(
        result.if_separate, "Figure 13(c): IF reduction, separate loads and stores"
    )
    return "\n\n".join([panel_a, panel_b, panel_c])
