"""Chaos suite: prove supervised replay survives injected faults.

Each scenario builds on the same seeded workload trace and asserts one
fault-tolerance invariant end to end:

* **recoverable faults** (a worker SIGKILL, ``os._exit``, hang, or
  transient IO error) must leave the supervised :class:`ReplayResult`
  *bit-identical* to a clean :func:`~repro.trace.replay.replay_trace` --
  same record counts, dispatch/accelerator stats and error reports, in
  order -- with the failures visible in ``result.failures`` /
  ``result.fault_counters``;
* **unrecoverable faults** (a poison chunk that kills every worker that
  reads it, corrupt chunk bytes, a truncated file) must produce a precise
  quarantine report under ``degrade`` and a precise error under
  ``strict`` -- never a silently wrong result;
* **nothing hangs**: every scenario runs under attempt timeouts, so the
  suite itself is a bounded smoke test fit for CI.

Run it via ``python -m repro.faultinject`` (see
:mod:`repro.faultinject.cli`).
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.faultinject.corrupt import flip_chunk_bytes, truncate_trace
from repro.faultinject.plan import FaultPlan
from repro.isa.threads import ThreadedMachine
from repro.trace.replay import ParallelReplay, ReplayResult, replay_trace
from repro.trace.supervisor import ReplayError, SupervisorPolicy
from repro.trace.tracefile import TraceFormatError, TraceReader, TraceWriter, verify_trace
from repro.workloads.generator import build_fuzz_programs, generate_spec

#: Lifeguard every scenario replays through (unredacted metadata flow,
#: deterministic reports).
CHAOS_LIFEGUARD = "MemCheck"


class ChaosViolation(AssertionError):
    """A chaos scenario's fault-tolerance invariant did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosViolation(message)


def build_chaos_trace(path: str, seed: int, min_chunks: int = 10) -> int:
    """Write the seeded chaos workload trace; returns its chunk count.

    The record stream comes from the fuzz workload generator (same seeds
    as the differential oracle), and ``chunk_bytes`` is sized off the raw
    byte count so the trace always has enough chunks for span bisection
    to be meaningful.
    """
    spec = generate_spec(seed)
    records = ThreadedMachine(build_fuzz_programs(spec)).trace()
    with TraceWriter(path) as writer:
        writer.extend(records)
    chunk_bytes = max(64, writer.stats.raw_bytes // min_chunks)
    with TraceWriter(path, chunk_bytes=chunk_bytes) as writer:
        writer.extend(records)
    with TraceReader(path) as reader:
        return reader.num_chunks


@dataclass
class ChaosContext:
    """Shared fixtures for one chaos run."""

    seed: int
    workdir: str
    trace_path: str
    num_chunks: int
    chunk_records: List[int]
    #: :func:`replay_trace` of the clean trace: the bit-identity reference.
    baseline: ReplayResult

    def state_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, f"state_{name}")
        os.makedirs(path, exist_ok=True)
        return path

    def trace_copy(self, name: str) -> str:
        path = os.path.join(self.workdir, f"{name}.lbatrace")
        shutil.copyfile(self.trace_path, path)
        return path

    def target_chunk(self, salt: str) -> int:
        """Seeded per-scenario chunk choice (stable across runs)."""
        return random.Random(f"{self.seed}:{salt}").randrange(self.num_chunks)


def _policy(
    timeout: Optional[float] = 30.0,
    max_attempts: int = 3,
    fallback: bool = True,
    bisect: bool = True,
) -> SupervisorPolicy:
    """Supervision knobs tightened for fast, bounded chaos runs."""
    return SupervisorPolicy(
        timeout_seconds=timeout,
        max_attempts=max_attempts,
        backoff_seconds=0.01,
        backoff_multiplier=2.0,
        bisect=bisect,
        in_process_fallback=fallback,
        poll_seconds=0.005,
    )


def _same_outcome(result: ReplayResult, baseline: ReplayResult) -> None:
    """Assert a replay is bit-identical to the clean baseline."""
    _check(result.records == baseline.records,
           f"records diverged: {result.records} != {baseline.records}")
    _check(result.dispatch == baseline.dispatch, "dispatch stats diverged")
    _check(result.accelerator == baseline.accelerator, "accelerator stats diverged")
    _check(result.reports == baseline.reports, "error reports diverged")
    _check(not result.skipped_chunks,
           f"clean-equivalent replay quarantined {result.skipped_chunks}")


def _recoverable(ctx: ChaosContext, name: str, kind: str, times: int,
                 timeout: Optional[float], expect_counter: str) -> Dict[str, object]:
    """Shared body of the recoverable-fault scenarios."""
    plan = FaultPlan.from_seed(
        ctx.state_dir(name), seed=ctx.seed, num_chunks=ctx.num_chunks,
        kinds=[kind], times=times, hang_seconds=60.0,
    )
    result = ParallelReplay(
        ctx.trace_path, CHAOS_LIFEGUARD,
        policy=_policy(timeout=timeout), fault_plan=plan,
    ).run()
    _same_outcome(result, ctx.baseline)
    fired = plan.fired()
    _check(fired == times, f"expected {times} fault firing(s), saw {fired}")
    count = result.fault_counters.get(expect_counter, 0)
    _check(count >= times,
           f"expected {expect_counter} >= {times}, counters: {result.fault_counters}")
    _check(result.fault_counters.get("worker_retries", 0) >= times,
           f"expected retries, counters: {result.fault_counters}")
    _check(len(result.failures) >= times, "failures list missing attempts")
    return {
        "target_chunks": [spec.chunk for spec in plan.specs],
        "fired": fired,
        "counters": result.fault_counters,
        "records": result.records,
    }


def scenario_sigkill_recovers(ctx: ChaosContext) -> Dict[str, object]:
    """A SIGKILL'd worker is retried; the result matches the clean run."""
    return _recoverable(ctx, "sigkill", "sigkill", times=1,
                        timeout=30.0, expect_counter="worker_crashes")


def scenario_exit_recovers(ctx: ChaosContext) -> Dict[str, object]:
    """An ``os._exit`` worker (no result, no cleanup) is retried."""
    return _recoverable(ctx, "exit", "exit", times=1,
                        timeout=30.0, expect_counter="worker_crashes")


def scenario_hang_recovers(ctx: ChaosContext) -> Dict[str, object]:
    """A hung worker hits the attempt timeout, is killed and retried."""
    return _recoverable(ctx, "hang", "hang", times=1,
                        timeout=1.0, expect_counter="worker_timeouts")


def scenario_io_error_recovers(ctx: ChaosContext) -> Dict[str, object]:
    """Two transient reader IO errors are retried within max_attempts=3."""
    return _recoverable(ctx, "io_error", "io_error", times=2,
                        timeout=30.0, expect_counter="worker_errors")


def _poison_plan(ctx: ChaosContext, name: str) -> FaultPlan:
    chunk = ctx.target_chunk("poison")
    return FaultPlan.single(ctx.state_dir(name), "sigkill", chunk, times=None)


def scenario_poison_degrade(ctx: ChaosContext) -> Dict[str, object]:
    """A chunk that kills *every* reader is isolated and quarantined.

    Span bisection must pin the blame on exactly the poison chunk, the
    surviving chunks must replay normally, and the record accounting must
    be exact.  The in-process fallback is disabled -- replaying a poison
    chunk in the parent would take the supervisor down with it.
    """
    plan = _poison_plan(ctx, "poison_degrade")
    chunk = plan.specs[0].chunk
    result = ParallelReplay(
        ctx.trace_path, CHAOS_LIFEGUARD,
        quarantine="degrade",
        policy=_policy(timeout=10.0, max_attempts=2, fallback=False),
        fault_plan=plan,
    ).run()
    _check([c.chunk for c in result.skipped_chunks] == [chunk],
           f"expected exactly chunk {chunk} quarantined, got {result.skipped_chunks}")
    quarantined = result.skipped_chunks[0]
    _check(quarantined.records == ctx.chunk_records[chunk],
           f"quarantine accounting wrong: {quarantined.records} != "
           f"{ctx.chunk_records[chunk]}")
    _check(result.records == ctx.baseline.records - ctx.chunk_records[chunk],
           "surviving record count wrong")
    _check(result.fault_counters.get("bisections", 0) >= 1,
           f"expected a bisection, counters: {result.fault_counters}")
    _check(result.degraded and result.skipped_records == quarantined.records,
           "degraded/skipped_records properties inconsistent")
    return {
        "poison_chunk": chunk,
        "quarantined_records": quarantined.records,
        "counters": result.fault_counters,
    }


def scenario_poison_strict(ctx: ChaosContext) -> Dict[str, object]:
    """Under ``strict`` the same poison chunk raises ReplayError naming it."""
    plan = _poison_plan(ctx, "poison_strict")
    chunk = plan.specs[0].chunk
    try:
        ParallelReplay(
            ctx.trace_path, CHAOS_LIFEGUARD,
            quarantine="strict",
            policy=_policy(timeout=10.0, max_attempts=2, fallback=False),
            fault_plan=plan,
        ).run()
    except ReplayError as exc:
        _check(chunk in exc.chunks,
               f"ReplayError blames chunks {exc.chunks}, not poison chunk {chunk}")
        _check(exc.trace_path == str(ctx.trace_path), "ReplayError lost the trace path")
        _check(exc.lifeguard == CHAOS_LIFEGUARD, "ReplayError lost the lifeguard")
        return {"poison_chunk": chunk, "error": str(exc)}
    raise ChaosViolation("strict replay of a poison chunk did not raise ReplayError")


def scenario_corrupt_degrade(ctx: ChaosContext) -> Dict[str, object]:
    """Flipped chunk bytes are caught by CRC and quarantined exactly."""
    path = ctx.trace_copy("corrupt_degrade")
    chunk = ctx.target_chunk("corrupt")
    flip_chunk_bytes(path, chunk, seed=ctx.seed)
    supervised = ParallelReplay(
        path, CHAOS_LIFEGUARD,
        quarantine="degrade", policy=_policy(),
    ).run()
    sequential = replay_trace(path, CHAOS_LIFEGUARD, quarantine="degrade")
    for result in (supervised, sequential):
        _check([c.chunk for c in result.skipped_chunks] == [chunk],
               f"expected chunk {chunk} quarantined, got {result.skipped_chunks}")
        _check(result.skipped_chunks[0].reason == "corrupt", "wrong quarantine reason")
        _check(result.records == ctx.baseline.records - ctx.chunk_records[chunk],
               "surviving record count wrong")
    _check(supervised.dispatch == sequential.dispatch
           and supervised.accelerator == sequential.accelerator
           and supervised.reports == sequential.reports,
           "supervised degrade replay diverged from replay_trace")
    audit = verify_trace(path)
    _check([c.index for c in audit.bad_chunks] == [chunk],
           f"verify_trace blamed {audit.bad_chunks}, expected chunk {chunk}")
    return {"corrupt_chunk": chunk, "records": supervised.records}


def scenario_corrupt_strict(ctx: ChaosContext) -> Dict[str, object]:
    """Under ``strict`` the corrupt chunk raises, naming itself."""
    path = ctx.trace_copy("corrupt_strict")
    chunk = ctx.target_chunk("corrupt")
    flip_chunk_bytes(path, chunk, seed=ctx.seed)
    try:
        replay_trace(path, CHAOS_LIFEGUARD, quarantine="strict")
    except TraceFormatError as exc:
        _check(f"chunk {chunk}" in str(exc),
               f"error does not name chunk {chunk}: {exc}")
        return {"corrupt_chunk": chunk, "error": str(exc)}
    raise ChaosViolation("strict replay of a corrupt chunk did not raise")


def scenario_truncation_detected(ctx: ChaosContext) -> Dict[str, object]:
    """A truncated capture is rejected at open, and verify reports it."""
    path = ctx.trace_copy("truncated")
    kept = truncate_trace(path, fraction=0.5)
    try:
        TraceReader(path)
    except TraceFormatError as exc:
        audit = verify_trace(path)
        _check(audit.file_error is not None and not audit.ok,
               "verify_trace did not flag the truncated file")
        return {"kept_bytes": kept, "error": str(exc)}
    raise ChaosViolation("truncated trace opened without error")


# ------------------------------------------------------------ gateway scenarios
#
# The monitoring gateway (:mod:`repro.service`) stacks session lifecycle,
# backpressure and crash recovery on top of supervised replay.  These
# scenarios drive a real in-process gateway over real sockets and assert
# the service-level invariants: per-session outcomes are exact, and one
# tenant's fault never bleeds into another's session ("zero cross-session
# blast radius").  Report bit-identity is judged against the offline
# reference (``ctx.baseline``, a :func:`replay_trace` of the same trace).


def _gateway_config(ctx: ChaosContext, store: str, **overrides) -> "GatewayConfig":
    import dataclasses

    from repro.service.gateway import GatewayConfig

    defaults = dict(
        store_dir=store,
        lifeguard=CHAOS_LIFEGUARD,
        pool_size=2,
        # forkserver: the gateway parent is threaded (see GatewayConfig).
        policy=dataclasses.replace(_policy(timeout=30.0), start_method="forkserver"),
        drain_grace=60.0,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def _run_gateway(ctx: ChaosContext, name: str, body, **overrides) -> Dict[str, object]:
    """Start a gateway on a scenario-private store, run ``body``, drain."""
    import asyncio

    from repro.service.gateway import MonitoringGateway

    store = os.path.join(ctx.workdir, f"gw_{name}")
    config = _gateway_config(ctx, store, **overrides)

    async def runner():
        gateway = MonitoringGateway(config)
        await gateway.start()
        try:
            return await asyncio.wait_for(body(gateway), timeout=240.0)
        finally:
            await gateway.drain()

    return asyncio.run(runner())


def _result_section(reply: Dict[str, object]) -> Dict[str, object]:
    report = reply.get("report") or {}
    return report.get("result") or {}


def scenario_gateway_worker_sigkill(ctx: ChaosContext) -> Dict[str, object]:
    """A replay worker SIGKILL'd mid-stream is invisible to the tenant.

    The victim session's report must be bit-identical to the offline
    baseline, the crash must be visible in its supervision section, and a
    bystander session uploading concurrently must settle clean.
    """
    from repro.service.client import upload_trace

    victim_chunk = ctx.target_chunk("gw_sigkill")
    state_dir = ctx.state_dir("gw_sigkill")

    def fault_plan_factory(session_id: str):
        if session_id != "victim":
            return None
        return FaultPlan.single(state_dir, "sigkill", victim_chunk, times=1)

    async def body(gateway):
        import asyncio

        return await asyncio.gather(
            upload_trace("127.0.0.1", gateway.port, ctx.trace_path,
                         session_id="victim"),
            upload_trace("127.0.0.1", gateway.port, ctx.trace_path,
                         session_id="bystander"),
        )

    victim, bystander = _run_gateway(
        ctx, "sigkill", body, fault_plan_factory=fault_plan_factory
    )
    baseline = _offline_result_section(ctx)
    for reply in (victim, bystander):
        _check(reply.get("state") == "settled",
               f"session {reply.get('session_id')} did not settle: {reply}")
        _check(_result_section(reply) == baseline,
               f"session {reply.get('session_id')} report diverged from offline replay")
    supervision = victim["report"]["supervision"]
    _check(supervision["fault_counters"].get("worker_crashes", 0) >= 1,
           f"victim supervision missing the crash: {supervision}")
    _check(victim.get("worker_failures", 0) >= 1,
           "victim session machine did not count the worker failure")
    bystander_sup = bystander["report"]["supervision"]
    _check(bystander_sup["fault_counters"].get("worker_crashes", 0) == 0,
           f"bystander saw a crash that was not its own: {bystander_sup}")
    return {
        "victim_chunk": victim_chunk,
        "victim_counters": supervision["fault_counters"],
    }


def _offline_result_section(ctx: ChaosContext) -> Dict[str, object]:
    from repro.service.gateway import report_document

    return report_document(ctx.baseline)["result"]


def scenario_gateway_corrupt_upload(ctx: ChaosContext) -> Dict[str, object]:
    """Corrupt uploaded chunks are quarantined exactly, per session policy.

    A ``degrade`` tenant settles with exactly the damaged chunk skipped; a
    ``strict`` tenant is failed at commit with an error naming the chunk;
    a clean bystander is untouched by either.
    """
    from repro.service.client import GatewayError, upload_trace

    corrupt_path = ctx.trace_copy("gw_corrupt")
    chunk = ctx.target_chunk("gw_corrupt")
    flip_chunk_bytes(corrupt_path, chunk, seed=ctx.seed)

    async def body(gateway):
        import asyncio

        degrade, clean = await asyncio.gather(
            upload_trace("127.0.0.1", gateway.port, corrupt_path,
                         session_id="degrade", quarantine="degrade"),
            upload_trace("127.0.0.1", gateway.port, ctx.trace_path,
                         session_id="clean"),
        )
        try:
            strict = await upload_trace(
                "127.0.0.1", gateway.port, corrupt_path,
                session_id="strict", quarantine="strict",
            )
        except GatewayError as exc:
            strict = dict(exc.reply)
        return degrade, clean, strict

    degrade, clean, strict = _run_gateway(ctx, "corrupt", body)
    _check(degrade.get("state") == "settled",
           f"degrade session did not settle: {degrade}")
    skipped = [c["chunk"] for c in _result_section(degrade)["skipped_chunks"]]
    _check(skipped == [chunk],
           f"degrade session quarantined {skipped}, expected exactly [{chunk}]")
    _check(
        _result_section(degrade)["skipped_records"] == ctx.chunk_records[chunk],
        "degrade quarantine record accounting wrong",
    )
    _check(strict.get("state") == "failed",
           f"strict session should fail at commit: {strict}")
    reason = strict.get("reason", "") or strict.get("error", "")
    _check(str(chunk) in reason,
           f"strict failure does not name chunk {chunk}: {reason!r}")
    _check(clean.get("state") == "settled" and
           _result_section(clean) == _offline_result_section(ctx),
           "clean bystander affected by other tenants' corruption")
    return {"corrupt_chunk": chunk, "strict_reason": reason}


def scenario_gateway_hanging_client(ctx: ChaosContext) -> Dict[str, object]:
    """A client that stalls mid-upload is reaped; other tenants never wait."""
    from repro.service.client import GatewayClient, upload_trace

    async def body(gateway):
        import asyncio

        hanging = GatewayClient("127.0.0.1", gateway.port)
        await hanging.connect()
        await hanging.begin(session_id="hanging")
        with open(ctx.trace_path, "rb") as handle:
            await hanging.send_chunk("hanging", handle.read(4096))
        # ... and then silence: no more chunks, no commit, socket open.
        healthy = await upload_trace(
            "127.0.0.1", gateway.port, ctx.trace_path, session_id="healthy"
        )
        # The reaper must fail the hung session on its own clock.
        deadline = asyncio.get_running_loop().time() + 30.0
        while asyncio.get_running_loop().time() < deadline:
            session = gateway.sessions["hanging"]
            if session.machine.closed:
                break
            await asyncio.sleep(0.05)
        status = gateway.sessions["hanging"].status()
        await hanging.close()
        return healthy, status, dict(gateway.counters)

    healthy, hung_status, counters = _run_gateway(
        ctx, "hanging", body,
        session_idle_timeout=0.6, reap_interval=0.1,
    )
    _check(healthy.get("state") == "settled" and
           _result_section(healthy) == _offline_result_section(ctx),
           f"healthy tenant was impacted by the hanging client: {healthy.get('state')}")
    _check(hung_status["state"] == "failed" and "idle" in hung_status["reason"],
           f"hanging session not reaped: {hung_status}")
    _check(counters.get("sessions_timed_out", 0) >= 1,
           f"timeout not counted: {counters}")
    return {"hung_status": hung_status}


def scenario_gateway_pool_exhaustion(ctx: ChaosContext) -> Dict[str, object]:
    """Admission control sheds past capacity and recovers after release."""
    from repro.service.client import GatewayClient, GatewayError

    async def body(gateway):
        a = GatewayClient("127.0.0.1", gateway.port)
        b = GatewayClient("127.0.0.1", gateway.port)
        c = GatewayClient("127.0.0.1", gateway.port)
        await a.connect()
        await b.connect()
        await c.connect()
        try:
            await a.begin(session_id="tenant-a")
            await b.begin(session_id="tenant-b")
            try:
                await c.begin(session_id="tenant-c")
                shed = None
            except GatewayError as exc:
                shed = exc.reply
            ready_full = await c.ready()
            await a.cancel("tenant-a")
            ready_after = await c.ready()
            after = await c.begin(session_id="tenant-c")
            return shed, ready_full, after, ready_after, dict(gateway.counters)
        finally:
            await a.close()
            await b.close()
            await c.close()

    shed, ready_full, after, ready_after, counters = _run_gateway(
        ctx, "exhaustion", body, max_sessions=2,
    )
    _check(shed is not None and shed.get("code") == 503,
           f"third session was not shed with 503: {shed}")
    _check(not ready_full.get("ready"), "readiness probe did not report saturation")
    _check(after.get("ok"), f"admission did not recover after release: {after}")
    _check(ready_after.get("ready"), "readiness probe stuck after release")
    _check(counters.get("sessions_shed", 0) >= 1, f"shed not counted: {counters}")
    return {"shed": shed, "counters": counters}


def scenario_gateway_drain_recovers(ctx: ChaosContext) -> Dict[str, object]:
    """SIGTERM-style drain + restart loses nothing.

    One gateway checkpoints a half-finished upload on drain; the store is
    additionally seeded with two crash shapes -- a committed trace whose
    replay never ran, and a committed trace truncated mid-footer.  A
    second gateway on the same store must resume the upload at its exact
    byte offset, replay the committed trace to a baseline-identical
    report, and repair + settle the truncated one.
    """
    import asyncio
    import shutil as _shutil

    from repro.service.client import GatewayClient, upload_trace
    from repro.service.session import SessionState
    from repro.service.store import SessionStore

    store_dir = os.path.join(ctx.workdir, "gw_drain_store")
    trace_bytes = open(ctx.trace_path, "rb").read()
    half = len(trace_bytes) // 2

    async def first_life(gateway):
        client = GatewayClient("127.0.0.1", gateway.port)
        await client.connect()
        await client.begin(session_id="partial")
        # Transport step well under half the file, so the checkpointed
        # upload is genuinely partial regardless of trace size.
        step = max(64, half // 4)
        chunks = [trace_bytes[start:start + step] for start in range(0, half, step)]
        for payload in chunks:
            await client.send_chunk("partial", payload)
        sent = sum(len(payload) for payload in chunks)
        # Wait until every sent byte is persisted, so the checkpointed
        # resume offset is exact (not racing the ingest queue).
        deadline = asyncio.get_running_loop().time() + 30.0
        while asyncio.get_running_loop().time() < deadline:
            if gateway.sessions["partial"].meta.bytes_received >= sent:
                break
            await asyncio.sleep(0.02)
        await client.close()
        return gateway.sessions["partial"].meta.bytes_received

    uploaded = _run_gateway(ctx, "drain_store", first_life, store_dir=store_dir)
    _check(uploaded > 0, "first gateway persisted no upload bytes")

    # Seed two crash shapes directly into the (now quiescent) store.
    store = SessionStore(store_dir)
    meta = store.create("committed")
    _shutil.copyfile(ctx.trace_path, store.trace_path("committed"))
    meta.state = SessionState.REPLAYING.value
    store.save_meta(meta)
    meta = store.create("truncated")
    _shutil.copyfile(ctx.trace_path, store.trace_path("truncated"))
    trace_size = os.path.getsize(store.trace_path("truncated"))
    truncate_trace(str(store.trace_path("truncated")), keep_bytes=trace_size - 6)
    meta.state = SessionState.REPLAYING.value
    store.save_meta(meta)

    async def second_life(gateway):
        partial = gateway.sessions["partial"]
        resume_offset = partial.resume_offset
        reply = await upload_trace(
            "127.0.0.1", gateway.port, ctx.trace_path, session_id="partial",
        )
        for session_id in ("committed", "truncated"):
            await asyncio.wait_for(
                gateway.sessions[session_id].done.wait(), timeout=120.0
            )
        async with GatewayClient("127.0.0.1", gateway.port) as admin:
            committed = await admin.report("committed")
            truncated = await admin.report("truncated")
        return resume_offset, reply, committed, truncated, dict(gateway.counters)

    resume_offset, resumed, committed, truncated, counters = _run_gateway(
        ctx, "drain_restart", second_life, store_dir=store_dir,
    )
    _check(resume_offset == uploaded,
           f"resume offset {resume_offset} != checkpointed bytes {uploaded}")
    baseline = _offline_result_section(ctx)
    _check(resumed.get("state") == "settled" and _result_section(resumed) == baseline,
           "resumed session did not settle to the baseline report")
    _check(committed.get("state") == "settled" and
           _result_section(committed) == baseline,
           "recovered committed session did not settle to the baseline report")
    _check(truncated.get("state") == "settled",
           f"truncated session not repaired + settled: {truncated.get('state')}")
    _check(_result_section(truncated)["records"] == ctx.baseline.records,
           "mid-footer repair should keep every chunk's records")
    _check(counters.get("sessions_recovered", 0) >= 3,
           f"recovery counter too low: {counters}")
    return {
        "resume_offset": resume_offset,
        "recovered": counters.get("sessions_recovered", 0),
    }


#: Scenario registry, in execution order.
SCENARIOS: Dict[str, Callable[[ChaosContext], Dict[str, object]]] = {
    "sigkill_recovers": scenario_sigkill_recovers,
    "exit_recovers": scenario_exit_recovers,
    "hang_recovers": scenario_hang_recovers,
    "io_error_recovers": scenario_io_error_recovers,
    "poison_degrade": scenario_poison_degrade,
    "poison_strict": scenario_poison_strict,
    "corrupt_degrade": scenario_corrupt_degrade,
    "corrupt_strict": scenario_corrupt_strict,
    "truncation_detected": scenario_truncation_detected,
    "gateway_worker_sigkill": scenario_gateway_worker_sigkill,
    "gateway_corrupt_upload": scenario_gateway_corrupt_upload,
    "gateway_hanging_client": scenario_gateway_hanging_client,
    "gateway_pool_exhaustion": scenario_gateway_pool_exhaustion,
    "gateway_drain_recovers": scenario_gateway_drain_recovers,
}


@dataclass
class ScenarioReport:
    """Outcome of one chaos scenario."""

    name: str
    ok: bool
    seconds: float
    detail: Dict[str, object] = field(default_factory=dict)
    failure: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
            "failure": self.failure,
        }


def run_chaos(
    seed: int,
    workdir: str,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the chaos suite; returns a JSON-able report document."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; known: {list(SCENARIOS)}")
    os.makedirs(workdir, exist_ok=True)
    trace_path = os.path.join(workdir, "chaos.lbatrace")
    num_chunks = build_chaos_trace(trace_path, seed)
    with TraceReader(trace_path) as reader:
        chunk_records = [info.records for info in reader.chunks]
    baseline = replay_trace(trace_path, CHAOS_LIFEGUARD)
    ctx = ChaosContext(
        seed=seed, workdir=workdir, trace_path=trace_path,
        num_chunks=num_chunks, chunk_records=chunk_records,
        baseline=baseline,
    )
    reports: List[ScenarioReport] = []
    for name in names:
        start = time.perf_counter()
        try:
            detail = SCENARIOS[name](ctx)
            reports.append(ScenarioReport(
                name=name, ok=True, seconds=time.perf_counter() - start,
                detail=detail,
            ))
        except ChaosViolation as exc:
            reports.append(ScenarioReport(
                name=name, ok=False, seconds=time.perf_counter() - start,
                failure=str(exc),
            ))
    return {
        "seed": seed,
        "lifeguard": CHAOS_LIFEGUARD,
        "trace": {
            "path": trace_path,
            "chunks": num_chunks,
            "records": baseline.records,
        },
        "scenarios": [report.to_dict() for report in reports],
        "ok": all(report.ok for report in reports),
    }
