#!/usr/bin/env python3
"""Data-race detection with LOCKSET on two-thread workloads.

Monitors three two-thread programs with the accelerated LOCKSET lifeguard:
an unprotected shared counter (a race), the same counter consistently
protected by a lock (race-free), and the pbzip2-style parallel-compression
workload from the paper's Table 3 suite (race-free).  Also shows how the
Idempotent Filter cuts the number of checks LOCKSET has to perform.

Run with::

    python examples/data_race_detection.py
"""

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.isa import ThreadedMachine
from repro.lba import LBASystem, iter_machine_records
from repro.lifeguards import LockSet
from repro.workloads import get_workload
from repro.workloads.bugs import locked_counter_programs, racy_counter_programs


def monitor(machine, name, config=OPTIMIZED_CONFIG):
    lifeguard = LockSet()
    result = LBASystem(iter_machine_records(machine), lifeguard, config,
                       workload_name=name).run()
    races = [r for r in result.reports]
    verdict = f"{len(races)} race(s) reported" if races else "race-free"
    print(f"{name:28s} slowdown={result.slowdown:5.2f}x  "
          f"checks filtered={result.accelerator.check_event_reduction:5.0%}  {verdict}")
    for report in races[:2]:
        print(f"    {report}")
    return result


def main():
    print("=== LockSet with IF + M-TLB acceleration ===")
    monitor(ThreadedMachine(racy_counter_programs()), "unprotected counter")
    monitor(ThreadedMachine(locked_counter_programs()), "lock-protected counter")
    monitor(get_workload("pbzip2", scale=0.5).build_machine(), "pbzip2 (Table 3 analogue)")

    print("\n=== Acceleration benefit on pbzip2 ===")
    baseline = monitor(get_workload("pbzip2", scale=0.5).build_machine(),
                       "pbzip2, LBA baseline", BASELINE_CONFIG)
    optimized = monitor(get_workload("pbzip2", scale=0.5).build_machine(),
                        "pbzip2, LBA optimised", OPTIMIZED_CONFIG)
    print(f"\nLockSet monitoring overhead reduced "
          f"{baseline.slowdown / optimized.slowdown:.1f}x by the framework")


if __name__ == "__main__":
    main()
