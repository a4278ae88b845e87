"""Figure 12: reduction statistics across the benchmarks.

The paper's Figure 12 is a table of min-max ranges over the benchmarks:

* **LMA: reduced dynamic instructions** -- how much smaller the lifeguard's
  dynamic instruction count becomes when the five-instruction software
  metadata mapping is replaced by the single ``lma`` instruction;
* **IT: reduced update events** -- the fraction of the update events the
  BASE run (IT off) delivers that the OPT run (IT on) no longer delivers,
  :func:`repro.core.accelerator.update_event_reduction` of the two runs;
* **IF: reduced check events** -- the fraction of checking events the
  Idempotent Filter discards in the OPT run
  (:attr:`AcceleratorStats.check_event_reduction`); BASE delivers every
  checking event, so the base is the same.

Figure 13 replays the same records through the same accelerator, so its
panel (a) equals this IT column per benchmark, and the 32-entry
fully-associative cells of its panels (b)/(c) equal the AddrCheck and
LockSet IF columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.profiler import Profiler
from repro.core.accelerator import update_event_reduction
from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.experiments.harness import benchmarks_for, lifeguard_classes, make_config, run_monitored
from repro.experiments.reporting import format_table, range_string


@dataclass
class Figure12Result:
    """Per-lifeguard, per-benchmark reduction fractions."""

    #: ``{lifeguard: {benchmark: fraction}}`` for each of the three columns
    lma_instruction_reduction: Dict[str, Dict[str, float]] = field(default_factory=dict)
    it_update_reduction: Dict[str, Dict[str, float]] = field(default_factory=dict)
    if_check_reduction: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def ranges(self) -> List[List[str]]:
        """Rows of the Figure 12 table (min-max percentage ranges)."""
        rows = []
        for lifeguard in self.lma_instruction_reduction:
            lma_values = list(self.lma_instruction_reduction[lifeguard].values())
            it_values = list(self.it_update_reduction.get(lifeguard, {}).values())
            if_values = list(self.if_check_reduction.get(lifeguard, {}).values())
            rows.append(
                [
                    lifeguard,
                    range_string(lma_values),
                    range_string(it_values) if it_values else "-",
                    range_string(if_values) if if_values else "-",
                ]
            )
        return rows


def run_figure12(
    lifeguards: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    profiler: Optional[Profiler] = None,
) -> Figure12Result:
    """Run the Figure 12 experiment.

    All runs monitor one execution per benchmark: ``profiler``'s immutable
    record list (see :func:`~repro.experiments.harness.run_monitored`).
    """
    profiler = profiler or Profiler()
    result = Figure12Result()
    lma_only = make_config(lma=True, it=False, idempotent_filter=False)
    for lifeguard_cls in lifeguard_classes(lifeguards):
        name = lifeguard_cls.name
        result.lma_instruction_reduction[name] = {}
        if lifeguard_cls.uses_it:
            result.it_update_reduction[name] = {}
        if lifeguard_cls.uses_if:
            result.if_check_reduction[name] = {}
        for benchmark in benchmarks_for(name, benchmarks):
            base = run_monitored(lifeguard_cls, benchmark, BASELINE_CONFIG, scale, "BASE",
                                 profiler)
            lma = run_monitored(lifeguard_cls, benchmark, lma_only, scale, "LMA", profiler)
            optimized = run_monitored(lifeguard_cls, benchmark, OPTIMIZED_CONFIG, scale, "OPT",
                                      profiler)
            base_instr = base.dispatch.total_instructions
            lma_instr = lma.dispatch.total_instructions
            reduction = 1.0 - lma_instr / base_instr if base_instr else 0.0
            result.lma_instruction_reduction[name][benchmark] = reduction
            if lifeguard_cls.uses_it:
                result.it_update_reduction[name][benchmark] = update_event_reduction(
                    base.accelerator, optimized.accelerator
                )
            if lifeguard_cls.uses_if:
                result.if_check_reduction[name][benchmark] = (
                    optimized.accelerator.check_event_reduction
                )
    return result


def format_figure12(result: Figure12Result) -> str:
    """Render the Figure 12 reduction table."""
    return format_table(
        ["lifeguard", "LMA: reduced dyn. instr", "IT: reduced update events",
         "IF: reduced check events"],
        result.ranges(),
        title="Figure 12: reduced instructions and events across the benchmarks",
    )
