#!/usr/bin/env python3
"""Lifeguard-as-a-service: the monitoring gateway end to end.

The LBA paper couples one producer to one consumer through a bounded log
buffer.  The gateway generalises that coupling to *tenants*: many clients
stream captured traces into one long-running service, each through its
own bounded ingest queue, each replayed under supervision, each settled
with a durable report.  This demo walks the whole story in-process:

1. capture the application's run into a trace file (the offline
   pipeline) and monitor the stored trace on the dual-core platform;
2. start a gateway on an ephemeral port and upload the trace from three
   concurrent tenants -- plus one tenant whose upload is deliberately
   corrupted, admitted under the ``degrade`` quarantine policy;
3. check every clean report is bit-identical to an offline
   ``replay_trace`` of the same trace, and the damaged one accounts for
   exactly the chunk it lost;
4. kill the gateway mid-upload, restart it on the same store, and watch
   crash recovery resume the interrupted session at its exact byte
   offset.

Run with::

    python examples/service_demo.py
"""

import asyncio
import os
import shutil
import tempfile

from repro.core.config import OPTIMIZED_CONFIG
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.isa import Cond, Imm, Machine, Mem, ProgramBuilder, Reg, Register, SyscallKind
from repro.lba import LBASystem, iter_machine_records
from repro.lifeguards import MemCheck
from repro.service import GatewayClient, GatewayConfig, MonitoringGateway, upload_trace
from repro.service.gateway import report_document
from repro.trace import TraceReader, TraceWriter, replay_trace
from repro.trace.supervisor import SupervisorPolicy


def build_application(rounds=40):
    """A small allocate/work/free loop with one dangling write at the end."""
    b = ProgramBuilder("service_demo_app")
    b.mov(Reg(Register.EDX), Imm(rounds))
    b.label("round")
    b.malloc(Imm(64))
    b.mov(Reg(Register.EBP), Reg(Register.EAX))
    b.syscall(SyscallKind.RECV, Reg(Register.EBP), Imm(64))
    b.mov(Reg(Register.EBX), Mem(base=Register.EBP))
    b.add(Reg(Register.EBX), Imm(1))
    b.mov(Mem(base=Register.EBP), Reg(Register.EBX))
    b.free(Reg(Register.EBP))
    b.sub(Reg(Register.EDX), Imm(1))
    b.cmp(Reg(Register.EDX), Imm(0))
    b.jcc(Cond.NE, "round")
    b.mov(Mem(base=Register.EBP), Imm(0xDEAD))  # use after free
    return b.build()


def capture_trace(path):
    """Run the app once into ``path``, then monitor the trace under MemCheck."""
    with TraceWriter(path, chunk_bytes=2048) as writer:
        writer.extend(iter_machine_records(Machine(build_application())))
    stats = writer.stats
    with TraceReader(path) as reader:
        result = LBASystem(reader, MemCheck(), OPTIMIZED_CONFIG).run("service-demo capture")
    print(f"captured {stats.records} records, {stats.chunks} chunks, "
          f"{result.errors_detected} error(s) on the dual-core platform")
    return path


def offline_baseline(trace_path):
    """The determinism reference: offline in-order replay of the trace."""
    return report_document(replay_trace(trace_path, "MemCheck"))["result"]


def gateway_config(store_dir):
    return GatewayConfig(
        store_dir=store_dir,
        lifeguard="MemCheck",
        pool_size=2,
        quarantine="strict",
        policy=SupervisorPolicy(backoff_seconds=0.01, start_method="forkserver"),
    )


async def multi_tenant_round(store_dir, trace_path, damaged_path, victim_chunk,
                             baseline):
    gateway = MonitoringGateway(gateway_config(store_dir))
    await gateway.start()
    try:
        port = gateway.port
        print(f"\ngateway up on 127.0.0.1:{port}")
        replies = await asyncio.gather(
            *(upload_trace("127.0.0.1", port, trace_path,
                           session_id=f"tenant-{n}", chunk_bytes=1024)
              for n in range(3)),
            upload_trace("127.0.0.1", port, damaged_path,
                         session_id="tenant-dmg", quarantine="degrade",
                         chunk_bytes=1024),
        )
        for reply in replies[:3]:
            assert reply["state"] == "settled", reply
            assert reply["report"]["result"] == baseline
            print(f"  {reply['session_id']}: settled, "
                  f"{reply['report']['result']['errors_detected']} error(s), "
                  f"result bit-identical to offline replay")
        dmg = replies[3]["report"]["result"]
        skipped = [c["chunk"] for c in dmg["skipped_chunks"]]
        assert skipped == [victim_chunk], skipped
        print(f"  tenant-dmg: settled degraded, quarantined exactly "
              f"chunk {victim_chunk} ({dmg['skipped_records']} records lost)")

        async with GatewayClient("127.0.0.1", port) as admin:
            snapshot = (await admin.metrics())["snapshot"]
        print(f"  service counters: "
              f"settled={snapshot['counters']['service.sessions_settled']} "
              f"quarantined={snapshot['counters']['service.sessions_quarantined']}")
    finally:
        await gateway.drain("demo round done")


async def crash_and_recover(store_dir, trace_path, baseline):
    blob = open(trace_path, "rb").read()
    half = len(blob) // 2

    # Life 1: a tenant uploads half a trace, then the process "crashes"
    # (we stop the gateway without committing anything).
    gateway = MonitoringGateway(gateway_config(store_dir))
    await gateway.start()
    async with GatewayClient("127.0.0.1", gateway.port) as client:
        await client.begin(session_id="tenant-lazarus")
        await client.send_chunk("tenant-lazarus", blob[:half])
        while (await client.status("tenant-lazarus"))["bytes_received"] < half:
            await asyncio.sleep(0.01)
    await gateway.stop()  # no drain, no checkpoint: a hard crash
    print(f"\nlife 1 crashed with {half} of {len(blob)} bytes uploaded")

    # Life 2: same store.  Recovery scans the store and re-arms the
    # session; the client resumes at the exact byte offset and settles.
    gateway = MonitoringGateway(gateway_config(store_dir))
    await gateway.start()
    try:
        async with GatewayClient("127.0.0.1", gateway.port) as client:
            resumed = await client.begin(session_id="tenant-lazarus", resume=True)
            offset = resumed["resume_offset"]
            assert offset == half, (offset, half)
            print(f"life 2 recovered the session; resuming at byte {offset}")
            await client.upload_file("tenant-lazarus", trace_path, offset=offset)
            await client.commit("tenant-lazarus")
            reply = await client.report("tenant-lazarus", wait=True)
        assert reply["ok"] and reply["report"]["result"] == baseline
        print("resumed session settled -- report still bit-identical "
              "to the offline replay")
    finally:
        await gateway.drain("demo over")


def main():
    workdir = tempfile.mkdtemp(prefix="service_demo_")
    try:
        trace_path = capture_trace(os.path.join(workdir, "app.lbatrace"))
        baseline = offline_baseline(trace_path)

        damaged_path = os.path.join(workdir, "app_damaged.lbatrace")
        shutil.copyfile(trace_path, damaged_path)
        with TraceReader(damaged_path) as reader:
            victim_chunk = reader.num_chunks // 2
        flip_chunk_bytes(damaged_path, victim_chunk, seed=1)

        asyncio.run(multi_tenant_round(
            os.path.join(workdir, "store"), trace_path, damaged_path,
            victim_chunk, baseline,
        ))
        asyncio.run(crash_and_recover(
            os.path.join(workdir, "store2"), trace_path, baseline,
        ))
        print("\nservice demo: all invariants held")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
