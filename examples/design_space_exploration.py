#!/usr/bin/env python3
"""Design-space exploration: the profiling study of Section 7.3 in miniature.

Replays a few benchmark traces through the accelerator (IT under
TAINTCHECK's ETCT, IF under ADDRCHECK's) and a stand-alone M-TLB, and
prints how the reductions and miss rates move as the hardware parameters
change (filter entries, M-TLB level-1 bits), plus the per-benchmark
flexible level-1 bit choice of Figure 14(b).

Run with::

    python examples/design_space_exploration.py [scale]
"""

import sys

from repro.analysis import (
    Profiler,
    choose_flexible_level1_bits,
    mtlb_miss_rate,
    sweep_if_design_space,
    sweep_it_reduction,
)
from repro.analysis.sweeps import IF_ENTRY_SWEEP

BENCHMARKS = ["bzip2", "gcc", "mcf", "twolf"]


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    profiler = Profiler()

    print("=== Inheritance Tracking: update events removed (Figure 13a) ===")
    for name, reduction in sweep_it_reduction(profiler, BENCHMARKS, scale).items():
        print(f"  {name:8s} {reduction:6.1%}")

    print("\n=== Idempotent Filter: checks removed vs filter size (Figure 13b) ===")
    print(f"  {'entries':>8s}" + "".join(f"{e:>8d}" for e in IF_ENTRY_SWEEP))
    for name in BENCHMARKS:
        row = sweep_if_design_space(profiler, "AddrCheck", [name], entries=IF_ENTRY_SWEEP,
                                    associativities=(0,), scale=scale)[0]
        print(f"  {name:>8s}" + "".join(f"{row[e]:8.0%}" for e in IF_ENTRY_SWEEP))

    print("\n=== M-TLB: miss rate vs level-1 bits, 64 entries (Figure 14a) ===")
    print(f"  {'bits':>8s}" + "".join(f"{bits:>8d}" for bits in (20, 16, 12, 8)))
    for name in BENCHMARKS:
        row = [
            mtlb_miss_rate(name, profiler.trace(name, scale), level1_bits=bits,
                           num_entries=64).miss_rate
            for bits in (20, 16, 12, 8)
        ]
        print(f"  {name:>8s}" + "".join(f"{value:8.2%}" for value in row))

    print("\n=== Flexible level-1 sizing (Figure 14b) ===")
    for name in BENCHMARKS:
        records = profiler.trace(name, scale)
        bits = choose_flexible_level1_bits(records)
        fixed = mtlb_miss_rate(name, records, level1_bits=20, num_entries=16).miss_rate
        flexible = mtlb_miss_rate(name, records, level1_bits=bits, num_entries=16).miss_rate
        print(f"  {name:8s} chooses {bits:2d} level-1 bits: "
              f"miss rate {fixed:.2%} (fixed 20 bits) -> {flexible:.2%} (flexible)")


if __name__ == "__main__":
    main()
