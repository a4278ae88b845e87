#!/usr/bin/env python3
"""Memory debugging with ADDRCHECK and MEMCHECK.

Runs the library's buggy-program scenarios (use-after-free, heap overflow,
double free, invalid free, leaks, uses of uninitialised values) under
ADDRCHECK and MEMCHECK with the full acceleration framework, and prints what
each lifeguard reports -- the Table 1 semantics in action.

Run with::

    python examples/memory_debugging.py
"""

from repro.core.config import OPTIMIZED_CONFIG
from repro.isa import Machine
from repro.lba import LBASystem, iter_machine_records
from repro.lifeguards import AddrCheck, MemCheck
from repro.workloads.bugs import BUG_SCENARIOS, harmless_uninitialized_copy


def check(program, lifeguard_cls):
    lifeguard = lifeguard_cls()
    result = LBASystem(iter_machine_records(Machine(program)), lifeguard, OPTIMIZED_CONFIG,
                       workload_name=program.name).run()
    return result


def main():
    print(f"{'scenario':35s} {'AddrCheck':28s} {'MemCheck'}")
    print("-" * 95)
    scenarios = dict(BUG_SCENARIOS)
    scenarios["harmless_uninit_copy (clean)"] = harmless_uninitialized_copy
    for name, builder in scenarios.items():
        findings = []
        for lifeguard_cls in (AddrCheck, MemCheck):
            result = check(builder(), lifeguard_cls)
            kinds = sorted({report.kind.value for report in result.reports})
            findings.append(",".join(kinds) if kinds else "clean")
        print(f"{name:35s} {findings[0]:28s} {findings[1]}")

    print("\nDetailed reports for the use-after-free scenario (MemCheck):")
    result = check(BUG_SCENARIOS["use_after_free"](), MemCheck)
    for report in result.reports:
        print(f"  {report}")


if __name__ == "__main__":
    main()
