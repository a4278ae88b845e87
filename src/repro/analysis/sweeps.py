"""Design-space sweeps for the profiling study (Section 7.3).

IT and IF reductions come from :class:`repro.core.accelerator.EventAccelerator`
itself: each profiled record list is replayed through an accelerator built on
one lifeguard's own ETCT, with the M-TLB off and no handler invoked, and the
reduction is read from its counters.  The live figures read the same
counters, so Figure 12 and Figure 13 report one number per mechanism.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.mtlb_model import choose_flexible_level1_bits, mtlb_miss_rate
from repro.analysis.profiler import Profiler, Record
from repro.core.accelerator import (
    AcceleratorConfig,
    AcceleratorStats,
    EventAccelerator,
    update_event_reduction,
)
from repro.core.config import IFConfig, ITConfig, MTLBConfig
from repro.lifeguards import ALL_LIFEGUARDS, AddrCheck, TaintCheck
from repro.workloads.base import workload_names

#: Filter-entry counts swept in Figure 13(b)/(c).
IF_ENTRY_SWEEP = (8, 16, 32, 64, 128, 256)
#: Associativities swept in Figure 13(b)/(c); 0 denotes fully associative.
IF_ASSOCIATIVITY_SWEEP = (1, 2, 4, 8, 16, 0)
#: Level-1 bit counts swept in Figure 14(a).
MTLB_LEVEL1_SWEEP = tuple(range(20, 7, -1))
#: M-TLB entry counts swept in Figure 14.
MTLB_ENTRY_SWEEP = (16, 32, 64, 128, 256)


def _benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    return list(benchmarks) if benchmarks else workload_names(multithreaded=False)


def _accelerate(
    lifeguard: str, records: List[Record], it: bool, idempotent_filter: IFConfig
) -> AcceleratorStats:
    """Replay ``records`` through an accelerator on ``lifeguard``'s own ETCT."""
    accelerator = EventAccelerator(
        ALL_LIFEGUARDS[lifeguard]().etct,
        AcceleratorConfig(
            it=ITConfig(enabled=it),
            idempotent_filter=idempotent_filter,
            mtlb=MTLBConfig(enabled=False),
        ),
    )
    process = accelerator.process
    for record in records:
        process(record)
    return accelerator.stats


def sweep_it_reduction(
    profiler: Profiler,
    benchmarks: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, float]:
    """Figure 13(a): ``{benchmark: update-event reduction}`` under TaintCheck.

    Each benchmark's records run through TaintCheck's ETCT with IT off and
    on; the reduction is :func:`update_event_reduction` of the two runs.
    """
    no_filter = IFConfig(enabled=False)
    reductions: Dict[str, float] = {}
    for name in _benchmarks(benchmarks):
        records = profiler.trace(name, scale)
        reductions[name] = update_event_reduction(
            _accelerate(TaintCheck.name, records, it=False, idempotent_filter=no_filter),
            _accelerate(TaintCheck.name, records, it=True, idempotent_filter=no_filter),
        )
    return reductions


def sweep_if_design_space(
    profiler: Profiler,
    lifeguard: str = AddrCheck.name,
    benchmarks: Optional[Sequence[str]] = None,
    entries: Iterable[int] = IF_ENTRY_SWEEP,
    associativities: Iterable[int] = IF_ASSOCIATIVITY_SWEEP,
    scale: float = 1.0,
) -> Dict[int, Dict[int, float]]:
    """Figure 13(b)/(c): average IF reduction vs entries and associativity.

    The filter keys, check categories and invalidations are those of
    ``lifeguard``'s ETCT (AddrCheck for panel (b), LockSet for (c)); each
    cell is the mean of ``check_event_reduction`` over the benchmarks.
    Returns ``{associativity: {entries: average reduction}}`` with
    associativity ``0`` meaning fully associative.
    """
    names = _benchmarks(benchmarks)
    results: Dict[int, Dict[int, float]] = {}
    for associativity in associativities:
        per_entries: Dict[int, float] = {}
        for num_entries in entries:
            ways = num_entries if associativity == 0 else associativity
            if ways > num_entries or num_entries % ways:
                continue
            config = IFConfig(num_entries=num_entries, associativity=associativity)
            reductions = [
                _accelerate(
                    lifeguard, profiler.trace(name, scale), it=False, idempotent_filter=config
                ).check_event_reduction
                for name in names
            ]
            per_entries[num_entries] = sum(reductions) / len(reductions)
        results[associativity] = per_entries
    return results


def sweep_mtlb_design_space(
    profiler: Profiler,
    benchmarks: Optional[Sequence[str]] = None,
    level1_bits: Iterable[int] = MTLB_LEVEL1_SWEEP,
    entries: Iterable[int] = MTLB_ENTRY_SWEEP,
    scale: float = 1.0,
) -> Dict[int, Dict[int, Dict[str, float]]]:
    """Figure 14(a): M-TLB miss rate vs level-1 bits and entry count.

    Returns ``{entries: {level1_bits: {"max": ..., "avg": ...}}}`` over the
    benchmarks (the paper plots the maximum and the average).
    """
    names = _benchmarks(benchmarks)
    results: Dict[int, Dict[int, Dict[str, float]]] = {}
    for num_entries in entries:
        per_bits: Dict[int, Dict[str, float]] = {}
        for bits in level1_bits:
            rates = [
                mtlb_miss_rate(
                    name, profiler.trace(name, scale),
                    level1_bits=bits, num_entries=num_entries,
                ).miss_rate
                for name in names
            ]
            per_bits[bits] = {"max": max(rates), "avg": sum(rates) / len(rates)}
        results[num_entries] = per_bits
    return results


def sweep_mtlb_flexible_vs_fixed(
    profiler: Profiler,
    benchmarks: Optional[Sequence[str]] = None,
    fixed_bits: int = 20,
    entries: Iterable[int] = (16, 64, 256),
    scale: float = 1.0,
) -> Dict[str, Dict[str, object]]:
    """Figure 14(b): fixed 20-bit level-1 vs per-benchmark flexible level-1 bits.

    Returns ``{benchmark: {"flexible_bits": int, "fixed": {entries: rate},
    "flexible": {entries: rate}}}``.
    """
    names = _benchmarks(benchmarks)
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        records = profiler.trace(name, scale)
        flexible_bits = choose_flexible_level1_bits(records)
        fixed_rates = {}
        flexible_rates = {}
        for num_entries in entries:
            fixed_rates[num_entries] = mtlb_miss_rate(
                name, records, level1_bits=fixed_bits, num_entries=num_entries
            ).miss_rate
            flexible_rates[num_entries] = mtlb_miss_rate(
                name, records, level1_bits=flexible_bits, num_entries=num_entries
            ).miss_rate
        results[name] = {
            "flexible_bits": flexible_bits,
            "fixed": fixed_rates,
            "flexible": flexible_rates,
        }
    return results
