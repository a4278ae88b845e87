#!/usr/bin/env python3
"""Capture a monitored run once, then replay it many times.

The LBA premise is a *log*: the application core streams compressed records
to the lifeguard core.  This example makes the log tangible:

1. run a toy request-processing server once, writing every record it emits
   into a chunked, zlib-compressed trace file;
2. monitor the stored trace under TAINTCHECK on the dual-core platform and
   check it reports exactly what monitoring a fresh run of the program
   reports: slowdown, cycles, cache, dispatch and accelerator statistics;
3. replay the stored trace sequentially through a fresh TAINTCHECK --
   without re-executing the program -- and check the replay reproduces the
   live run's taint violations and delivered-event counts exactly;
4. replay it again in one supervised worker process
   (:class:`ParallelReplay`: retries, timeouts, quarantine), whose single
   lifeguard sees every chunk in order, and check it reports exactly what
   the in-process replay reports.

Run with::

    python examples/trace_replay.py
"""

import os
import tempfile

from repro.core.config import OPTIMIZED_CONFIG
from repro.isa import Cond, Imm, Machine, Mem, ProgramBuilder, Reg, Register, SyscallKind
from repro.lba import LBASystem, iter_machine_records
from repro.lifeguards import TaintCheck
from repro.trace import ParallelReplay, TraceReader, TraceWriter, replay_trace


def build_application(requests=24):
    """A toy server loop: read tainted requests, transform, dispatch on them."""
    b = ProgramBuilder("trace_replay_app")
    b.malloc(Imm(256))                                    # request buffer
    b.mov(Reg(Register.EBP), Reg(Register.EAX))
    b.mov(Reg(Register.EDX), Imm(requests))
    b.label("serve")
    b.syscall(SyscallKind.RECV, Reg(Register.EBP), Imm(256))    # tainted input
    b.mov(Reg(Register.ESI), Reg(Register.EBP))
    b.mov(Reg(Register.ECX), Imm(64))
    b.label("loop")
    b.mov(Reg(Register.EBX), Mem(base=Register.ESI))
    b.xor(Reg(Register.EBX), Imm(0x2A))
    b.mov(Mem(base=Register.ESI), Reg(Register.EBX))
    b.add(Reg(Register.ESI), Imm(4))
    b.sub(Reg(Register.ECX), Imm(1))
    b.cmp(Reg(Register.ECX), Imm(0))
    b.jcc(Cond.NE, "loop")
    b.syscall(SyscallKind.WRITE, Reg(Register.EBP), Imm(256))
    b.sub(Reg(Register.EDX), Imm(1))
    b.cmp(Reg(Register.EDX), Imm(0))
    b.jcc(Cond.NE, "serve")
    # Finally dispatch through a "handler pointer" taken straight from the
    # tainted request -- the exploit TAINTCHECK exists to catch.
    b.mov(Reg(Register.EAX), Mem(base=Register.EBP))
    b.call_indirect(Reg(Register.EAX))
    b.free(Reg(Register.EBP))
    b.halt()
    return b.build()


def cache_stats(system):
    """Every cache's statistics on both cores and the shared L2."""
    hierarchy = system.hierarchy
    cores = [hierarchy.core(core) for core in range(hierarchy.num_cores)]
    return [cache.stats for caches in cores for cache in (caches.l1i, caches.l1d)] + [
        hierarchy.l2.stats
    ]


def main():
    trace_path = os.path.join(tempfile.mkdtemp(prefix="lba_trace_"), "app.lbatrace")

    # --- 1. capture: run the program once into a trace file -----------------
    with TraceWriter(trace_path, chunk_bytes=4096, compress=True) as writer:
        writer.extend(iter_machine_records(Machine(build_application())))
    stats = writer.stats
    print("--- capture (one execution, written to a trace) ---")
    print(f"records captured:     {stats.records}")
    print(f"raw codec bytes:      {stats.raw_bytes} "
          f"({stats.raw_bytes / max(stats.records, 1):.2f} B/record)")
    print(f"stored bytes:         {stats.stored_bytes} "
          f"({stats.bytes_per_record:.2f} B/record after zlib, "
          f"{stats.chunks} chunks)")

    # --- 2. the dual-core platform over the trace and over the machine ------
    live_system = LBASystem(iter_machine_records(Machine(build_application())),
                            TaintCheck(), OPTIMIZED_CONFIG)
    live = live_system.run("live")
    with TraceReader(trace_path) as reader:
        stored_system = LBASystem(reader, TaintCheck(), OPTIMIZED_CONFIG)
        stored = stored_system.run("stored trace")
    print("\n--- dual-core run over the stored trace ---")
    print(f"slowdown:             {stored.slowdown:.2f}x")
    print(f"events handled:       {stored.dispatch.events_handled}")
    print(f"violations:           {stored.errors_detected}")
    assert stored.producer.records == stats.records
    assert stored.timing == live.timing, "the trace must price exactly as the machine"
    assert stored.dispatch == live.dispatch
    assert stored.accelerator == live.accelerator
    assert stored.mapper == live.mapper
    assert stored.producer == live.producer
    assert stored.reports == live.reports
    assert cache_stats(stored_system) == cache_stats(live_system)
    print("the run over the trace matches the run over the machine exactly.")

    # --- 3. sequential replay from the stored trace -------------------------
    replayed = replay_trace(trace_path, TaintCheck, OPTIMIZED_CONFIG)
    print("\n--- sequential replay (no re-execution) ---")
    print(f"records replayed:     {replayed.records}")
    print(f"events handled:       {replayed.dispatch.events_handled}")
    print(f"violations:           {replayed.errors_detected}")
    print(f"throughput:           {replayed.records_per_second:,.0f} records/s")
    assert replayed.reports == live.reports, "replay must reproduce the live reports"
    assert replayed.dispatch.events_handled == live.dispatch.events_handled
    print("replay matches the live run exactly.")

    # --- 4. supervised replay in a worker process ---------------------------
    supervised = ParallelReplay(trace_path, TaintCheck, OPTIMIZED_CONFIG).run()
    print("\n--- supervised replay (one worker process, every chunk in order) ---")
    print(f"chunks replayed:      {supervised.chunks}")
    print(f"records replayed:     {supervised.records}")
    print(f"events handled:       {supervised.dispatch.events_handled}")
    print(f"violations:           {supervised.errors_detected}")
    assert supervised.dispatch == replayed.dispatch, "supervised must match replay_trace"
    assert supervised.accelerator == replayed.accelerator
    assert supervised.reports == replayed.reports
    print("supervised replay matches replay_trace exactly.")

    print(f"\ntrace kept at: {trace_path}")


if __name__ == "__main__":
    main()
