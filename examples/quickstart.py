#!/usr/bin/env python3
"""Quickstart: monitor a small program with TAINTCHECK on the LBA platform.

Builds a tiny application against the ``repro`` ISA, runs it unmonitored,
then monitors it with TAINTCHECK on the LBA baseline and with the full
acceleration framework (Inheritance Tracking + M-TLB), and prints the
slowdowns and event statistics -- a miniature of the paper's Figure 10.

Run with::

    python examples/quickstart.py
"""

from repro.core.accelerator import update_event_reduction
from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.isa import Cond, Imm, Machine, Mem, ProgramBuilder, Reg, Register, SyscallKind
from repro.lba import LBASystem
from repro.lifeguards import TaintCheck


def build_application():
    """A toy server loop: read a request, transform it, write a response."""
    b = ProgramBuilder("quickstart_app")
    b.malloc(Imm(256))                                   # request buffer
    b.mov(Reg(Register.EBP), Reg(Register.EAX))
    b.malloc(Imm(256))                                   # response buffer
    b.mov(Reg(Register.EDI), Reg(Register.EAX))
    b.syscall(SyscallKind.RECV, Reg(Register.EBP), Imm(256))   # tainted input
    # transform request into response, word by word
    b.mov(Reg(Register.ESI), Reg(Register.EBP))
    b.mov(Reg(Register.EAX), Reg(Register.EDI))
    b.mov(Reg(Register.ECX), Imm(64))
    b.label("loop")
    b.mov(Reg(Register.EBX), Mem(base=Register.ESI))
    b.xor(Reg(Register.EBX), Imm(0x2A))
    b.mov(Mem(base=Register.EAX), Reg(Register.EBX))
    b.add(Reg(Register.ESI), Imm(4))
    b.add(Reg(Register.EAX), Imm(4))
    b.sub(Reg(Register.ECX), Imm(1))
    b.cmp(Reg(Register.ECX), Imm(0))
    b.jcc(Cond.NE, "loop")
    b.syscall(SyscallKind.WRITE, Reg(Register.EDI), Imm(256))  # send response
    b.free(Reg(Register.EBP))
    b.free(Reg(Register.EDI))
    b.halt()
    return b.build()


def monitor(config, label):
    lifeguard = TaintCheck()
    system = LBASystem(Machine(build_application()), lifeguard, config,
                       workload_name="quickstart_app")
    result = system.run(label)
    print(f"\n--- {label} ---")
    print(f"slowdown:                 {result.slowdown:.2f}x")
    print(f"application cycles:       {result.timing.app_alone_cycles}")
    print(f"lifeguard busy cycles:    {result.timing.lifeguard_busy_cycles}")
    print(f"events delivered:         {result.accelerator.events_delivered}")
    print(f"M-TLB hit rate:           "
          f"{(1 - result.mapper.mtlb_misses / result.mapper.translations) if result.mapper.translations and config.mtlb.enabled else 0:.0%}")
    print(f"violations reported:      {result.errors_detected}")
    return result


def main():
    print("Monitoring a toy request-processing loop with TaintCheck")
    baseline = monitor(BASELINE_CONFIG, "LBA baseline (no acceleration)")
    optimized = monitor(OPTIMIZED_CONFIG, "LBA + IT + M-TLB (this paper)")
    removed = update_event_reduction(baseline.accelerator, optimized.accelerator)
    print(f"\nInheritance Tracking removed {removed:.0%} of the update events "
          f"the baseline delivered")
    print(f"Acceleration reduced the monitoring slowdown "
          f"{baseline.slowdown / optimized.slowdown:.1f}x "
          f"({baseline.slowdown:.2f}x -> {optimized.slowdown:.2f}x)")


if __name__ == "__main__":
    main()
