"""The resilient multi-tenant monitoring gateway.

One long-running asyncio process accepts chunked trace uploads from many
concurrent clients and runs each committed trace through the supervised
columnar replay stack (:class:`~repro.trace.replay.ParallelReplay`: one
worker process per session replays every chunk in order), persisting
traces and reports to a :class:`~repro.service.store.SessionStore`.

Resilience model, layer by layer:

* **Per-session lifecycle** -- every session is a
  :class:`~repro.service.session.SessionMachine`; all transitions happen
  on the event loop, invalid client commands are rejected not raised, and
  the persisted state is idempotently resumable after a crash.
* **Backpressure** -- each session owns a *bounded* ingest queue (the
  paper's bounded log buffer, applied per tenant).  Chunk frames carry no
  acks: the client pipelines, and when a session's queue is full the
  connection handler blocks on ``queue.put``, stops reading that one
  socket, and the kernel's TCP window throttles exactly that producer.
  Slow consumers never stall other tenants.
* **Admission control** -- new sessions are shed with a 503-style error
  once ``max_sessions`` live sessions or ``max_replay_backlog`` queued
  replays are reached, and always while draining.
* **Supervised replay** -- replays run under the gateway's
  :class:`~repro.trace.supervisor.SupervisorPolicy` (timeouts, seeded
  jittered backoff, bisection), so a sigkilled worker mid-stream is
  retried and the session's report is bit-identical to an offline
  :func:`~repro.trace.replay.replay_trace` of the same trace.
* **Quarantine** -- committed uploads are audited through the CRC32 path
  (:func:`~repro.trace.tracefile.verify_trace`) before replay: ``strict``
  sessions fail naming the exact damaged chunks, ``degrade`` sessions
  replay around them with exact skipped accounting.
* **Graceful drain** -- SIGTERM stops admissions (new uploads get the
  503 error), checkpoints accepting sessions, gives in-flight replays
  ``drain_grace`` seconds to finish, and exits 0.
* **Crash recovery** -- startup scans the store: settled/failed sessions
  are untouched, interrupted replays are re-audited (and repaired via
  :func:`~repro.trace.tracefile.repair_trace` when damaged) then
  resumed, and partial uploads become resumable at their exact byte
  offset -- deterministically, every time.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.stats import stats_as_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import collect_service, snapshot_document
from repro.service.protocol import (
    ProtocolError,
    chunk_crc,
    encode_document,
    read_message,
    write_message,
)
from repro.service.session import SessionMachine, SessionState
from repro.service.store import SessionMeta, SessionStore, StoreError
from repro.trace.replay import ParallelReplay, ReplayResult
from repro.trace.supervisor import (
    QUARANTINE_POLICIES,
    ReplayError,
    SupervisorPolicy,
)
from repro.trace.tracefile import TraceFormatError, repair_trace, verify_trace

REPORT_VERSION = 1
REPORT_KIND = "lifeguard-replay-report"

#: Service counter names (the ``service.`` prefix is added at collection).
SERVICE_COUNTERS = (
    "sessions_admitted",
    "sessions_shed",
    "sessions_settled",
    "sessions_failed",
    "sessions_quarantined",
    "sessions_recovered",
    "sessions_cancelled",
    "sessions_timed_out",
    "chunks_received",
    "bytes_received",
    "chunks_rejected",
    "replays_completed",
)


@dataclass
class GatewayConfig:
    """Tuning knobs of one gateway process."""

    store_dir: str = "gateway-store"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on ``gateway.port``
    #: Lifeguard every session replays through (per-session override via
    #: the ``begin`` frame).
    lifeguard: str = "AddrCheck"
    #: Concurrent replay slots (sessions replaying at once); each session
    #: replays its whole trace in one supervised worker process.
    pool_size: int = 2
    #: Unannotated class constants, not fields: kept only because
    #: perfbench's ``shard_probe`` still reads them; they go with the
    #: benchmark change of ROADMAP item 6.
    workers_per_session = 1
    shared_memory = None
    #: Bound of each session's ingest queue (chunks) -- the per-tenant
    #: bounded buffer that implements backpressure.
    ingest_queue_depth: int = 8
    #: Live (non-closed) sessions admitted before shedding.
    max_sessions: int = 64
    #: Committed-but-unreplayed sessions tolerated before shedding.
    max_replay_backlog: int = 64
    #: Accepting sessions idle longer than this are failed by the reaper.
    session_idle_timeout: float = 60.0
    #: Default damaged-chunk policy for sessions that do not choose one.
    quarantine: str = "strict"
    #: Supervision knobs for every session replay; jitter defaults on so
    #: simultaneous retries across tenants do not stampede, and workers
    #: are forkserver-spawned because the gateway parent is threaded
    #: (plain fork from a threaded process can deadlock the child).
    policy: SupervisorPolicy = field(
        default_factory=lambda: SupervisorPolicy(
            timeout_seconds=60.0,
            backoff_seconds=0.02,
            backoff_jitter=0.25,
            start_method="forkserver",
        )
    )
    #: Seconds in-flight replays get to finish during a drain.
    drain_grace: float = 30.0
    #: Testing hook: build a :class:`repro.faultinject.FaultPlan` per
    #: session (fault injection inside that session's replay workers).
    fault_plan_factory: Optional[Callable[[str], object]] = None
    #: Testing hook: seconds the ingest consumer sleeps per chunk, to
    #: make a slow consumer (and a full queue) reproducible.
    ingest_delay: float = 0.0
    #: Reaper poll interval.
    reap_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.quarantine not in QUARANTINE_POLICIES:
            raise ValueError(
                f"quarantine must be one of {QUARANTINE_POLICIES}, "
                f"got {self.quarantine!r}"
            )
        if self.ingest_queue_depth < 1:
            raise ValueError("ingest_queue_depth must be >= 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")


def report_document(result: ReplayResult, session_id: str = "") -> dict:
    """Persistable replay report.

    The ``result`` section is a pure function of the trace bytes and the
    lifeguard -- no wall times, worker counts or retry history -- so a
    gateway session that survived worker crashes produces a ``result``
    bit-identical to an offline :func:`~repro.trace.replay.replay_trace`
    of the same trace.  Everything operational (supervision counters,
    failures) lives in the separate ``supervision`` section.
    """
    return {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "session_id": session_id,
        "result": {
            "lifeguard": result.lifeguard,
            "records": result.records,
            "chunks": result.chunks,
            "errors_detected": result.errors_detected,
            "reports": [
                [r.kind.value, r.lifeguard, r.pc, r.address, r.thread_id, r.message]
                for r in result.reports
            ],
            "dispatch": stats_as_dict(result.dispatch),
            "accelerator": stats_as_dict(result.accelerator),
            "degraded": result.degraded,
            "skipped_chunks": [
                {"chunk": c.chunk, "records": c.records, "reason": c.reason}
                for c in result.skipped_chunks
            ],
            "skipped_records": result.skipped_records,
        },
        "supervision": {
            "fault_counters": dict(result.fault_counters),
            "failures": len(result.failures),
        },
    }


class _Session:
    """Runtime half of one session: machine + queue + consumer task."""

    __slots__ = (
        "machine",
        "meta",
        "queue",
        "ingest_task",
        "attached",
        "last_activity",
        "done",
        "resume_offset",
    )

    def __init__(
        self,
        machine: SessionMachine,
        meta: SessionMeta,
        queue: Optional[asyncio.Queue],
    ) -> None:
        self.machine = machine
        self.meta = meta
        self.queue = queue
        self.ingest_task: Optional[asyncio.Task] = None
        self.attached = False
        self.last_activity = time.monotonic()
        self.done = asyncio.Event()
        self.resume_offset = 0
        if machine.closed:
            self.done.set()

    @property
    def session_id(self) -> str:
        return self.machine.session_id

    def status(self) -> dict:
        return {
            "session_id": self.session_id,
            "state": self.machine.state.value,
            "checkpointed": self.machine.checkpointed,
            "reason": self.machine.reason,
            "chunks_received": self.meta.chunks_received,
            "bytes_received": self.meta.bytes_received,
            "worker_failures": self.machine.worker_failures,
            "rejected_events": self.machine.rejected_events,
        }


class MonitoringGateway:
    """Accept, supervise, persist: the lifeguard pipeline as a service."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config or GatewayConfig()
        self.store = SessionStore(self.config.store_dir)
        self.sessions: Dict[str, _Session] = {}
        self.counters: Dict[str, int] = {name: 0 for name in SERVICE_COUNTERS}
        self.registry = MetricsRegistry()
        self._flushed: Dict[str, int] = {}
        self._queue_high_water = 0
        self._replay_queue: asyncio.Queue = asyncio.Queue()
        self._inflight_replays = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool_tasks: List[asyncio.Task] = []
        self._reaper_task: Optional[asyncio.Task] = None
        self._replay_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.pool_size, thread_name_prefix="gw-replay"
        )
        self._io_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="gw-io"
        )
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Recover the store, then open the listener and worker pool."""
        await self._recover()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        for _ in range(self.config.pool_size):
            self._pool_tasks.append(asyncio.create_task(self._pool_worker()))
        self._reaper_task = asyncio.create_task(self._reaper())

    async def serve_until_drained(self) -> None:
        await self._drained.wait()

    async def drain(self, reason: str = "drain requested") -> None:
        """Stop admissions, checkpoint uploads, let replays finish, stop."""
        if self._draining:
            return
        self._draining = True
        # Checkpoint every still-accepting session: its partial upload is
        # durable and resumes at the exact byte offset after restart.
        for session in list(self.sessions.values()):
            if session.machine.state is SessionState.ACCEPTING and not session.machine.closed:
                session.machine.apply("shutdown", reason)
                session.meta.reason = reason
                await self._save_meta(session)
                session.done.set()
        # Give committed work a bounded chance to finish.
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            if self._replay_queue.empty() and self._inflight_replays == 0:
                break
            await asyncio.sleep(0.02)
        # Whatever is still replaying gets checkpointed: its persisted
        # state says "replaying", and startup recovery re-runs it.
        for session in list(self.sessions.values()):
            if not session.machine.closed:
                session.machine.apply("shutdown", reason)
                await self._save_meta(session)
                session.done.set()
        await self.stop()
        self._drained.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._pool_tasks:
            task.cancel()
        if self._reaper_task is not None:
            self._reaper_task.cancel()
        for session in self.sessions.values():
            if session.ingest_task is not None:
                session.ingest_task.cancel()
        await asyncio.gather(
            *self._pool_tasks,
            *(t for t in [self._reaper_task] if t),
            *(s.ingest_task for s in self.sessions.values() if s.ingest_task),
            return_exceptions=True,
        )
        self._pool_tasks.clear()
        self._replay_executor.shutdown(wait=False)
        self._io_executor.shutdown(wait=False)

    # ------------------------------------------------------------------- recovery

    async def _recover(self) -> None:
        """Deterministically resolve every session the store holds."""
        for meta in self.store.scan():
            state = meta.state
            if state in (SessionState.SETTLED.value, SessionState.FAILED.value):
                # Terminal sessions are history: reports stay readable from
                # the store, no runtime state is rebuilt.
                continue
            if state in (SessionState.REPLAYING.value, SessionState.REPORTING.value):
                await self._recover_committed(meta)
                continue
            await self._recover_accepting(meta)

    async def _recover_committed(self, meta: SessionMeta) -> None:
        """An interrupted replay: re-audit, repair if damaged, re-run or fail."""
        session_id = meta.session_id
        trace = self.store.trace_path(session_id)
        if not trace.exists():
            # Crash between the commit transition and the rename: the
            # rename is idempotent, finish it now.
            try:
                trace = self.store.commit_upload(session_id)
            except StoreError as exc:
                self._recover_failed(meta, f"trace lost in crash: {exc}")
                return
        audit = verify_trace(trace, decode=False)
        repaired = False
        if not audit.ok:
            repair = repair_trace(trace)
            if not repair.ok:
                self._recover_failed(
                    meta, f"trace unrecoverable after crash: {repair.detail}"
                )
                return
            repaired = repair.changed
            audit = verify_trace(trace, decode=False)
            if not audit.ok:
                self._recover_failed(meta, "trace still damaged after repair")
                return
        meta.state = SessionState.REPLAYING.value
        meta.recovered += 1
        if repaired:
            meta.extra["repaired_on_recovery"] = True
        machine = SessionMachine(meta.session_id, SessionState.REPLAYING)
        session = _Session(machine, meta, queue=None)
        self.sessions[session_id] = session
        self.store.save_meta(meta)
        self.counters["sessions_recovered"] += 1
        await self._replay_queue.put(session_id)

    async def _recover_accepting(self, meta: SessionMeta) -> None:
        """An interrupted upload: promote if already complete, else resume."""
        session_id = meta.session_id
        part = self.store.part_path(session_id)
        if part.exists() and verify_trace(part, decode=False).ok:
            # The client had finished the byte stream but the commit never
            # landed: promote it instead of making the client re-upload.
            self.store.commit_upload(session_id)
            meta.state = SessionState.REPLAYING.value
            meta.recovered += 1
            machine = SessionMachine(session_id, SessionState.REPLAYING)
            session = _Session(machine, meta, queue=None)
            self.sessions[session_id] = session
            self.store.save_meta(meta)
            self.counters["sessions_recovered"] += 1
            await self._replay_queue.put(session_id)
            return
        if meta.state == SessionState.FAILED.value:
            return
        session = self._make_accepting_session(meta)
        session.resume_offset = self.store.part_size(session_id)
        meta.bytes_received = session.resume_offset
        self.store.save_meta(meta)
        self.counters["sessions_recovered"] += 1

    def _recover_failed(self, meta: SessionMeta, reason: str) -> None:
        meta.state = SessionState.FAILED.value
        meta.reason = reason
        self.store.save_meta(meta)
        self.counters["sessions_failed"] += 1

    # ----------------------------------------------------------------- admission

    def _live_sessions(self) -> int:
        return sum(1 for s in self.sessions.values() if not s.machine.closed)

    def _shed_reason(self) -> Optional[str]:
        if self._draining:
            return "draining"
        if self._live_sessions() >= self.config.max_sessions:
            return "session limit reached"
        if self._replay_queue.qsize() >= self.config.max_replay_backlog:
            return "replay backlog full"
        return None

    def _make_accepting_session(self, meta: SessionMeta) -> _Session:
        machine = SessionMachine(meta.session_id, SessionState.ACCEPTING)
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.ingest_queue_depth)
        session = _Session(machine, meta, queue)
        session.ingest_task = asyncio.create_task(self._ingest_loop(session))
        ingest_task = session.ingest_task

        def _release() -> None:
            # Free the bounded buffer so a producer blocked on put() (or
            # the consumer blocked on get()) cannot outlive the session.
            while True:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item[0] == "commit" and not item[1].done():
                    item[1].set_result(session.status())
            # The hook may fire *from inside* the ingest task (a commit
            # that fails the session): cancelling ourselves here would
            # lose the client's pending commit reply -- the loop exits on
            # its own right after.
            if (
                session.machine.state is not SessionState.REPLAYING
                and asyncio.current_task() is not ingest_task
            ):
                ingest_task.cancel()

        machine.add_release_hook(_release)
        self.sessions[meta.session_id] = session
        return session

    # ------------------------------------------------------------------- ingest

    async def _ingest_loop(self, session: _Session) -> None:
        """Single consumer of one session's bounded ingest queue."""
        loop = asyncio.get_running_loop()
        while True:
            item = await session.queue.get()
            kind = item[0]
            if kind == "chunk":
                payload = item[1]
                if self.config.ingest_delay:
                    await asyncio.sleep(self.config.ingest_delay)
                if session.machine.closed or (
                    session.machine.state is not SessionState.ACCEPTING
                ):
                    self.counters["chunks_rejected"] += 1
                    continue
                size = await loop.run_in_executor(
                    self._io_executor,
                    self.store.append_chunk,
                    session.session_id,
                    payload,
                )
                session.machine.apply("chunk")
                session.meta.chunks_received += 1
                session.meta.bytes_received = size
                session.last_activity = time.monotonic()
                self.counters["chunks_received"] += 1
                self.counters["bytes_received"] += len(payload)
                await self._save_meta(session)
            elif kind == "commit":
                future = item[1]
                try:
                    status = await self._commit(session)
                except Exception as exc:  # noqa: BLE001 -- reported to client
                    self._fail_session(session, f"commit failed: {exc}")
                    await self._save_meta(session)
                    status = session.status()
                if not future.done():
                    future.set_result(status)
                if session.machine.state is not SessionState.ACCEPTING:
                    return  # committed (or failed): this queue is finished

    async def _commit(self, session: _Session) -> dict:
        """Audit + durably promote a finished upload, then enqueue replay."""
        loop = asyncio.get_running_loop()
        session_id = session.session_id
        if session.machine.closed or session.machine.state is not SessionState.ACCEPTING:
            return session.status()
        part = self.store.part_path(session_id)
        if not part.exists() or part.stat().st_size == 0:
            self._fail_session(session, "commit of empty upload")
            await self._save_meta(session)
            return session.status()
        quarantine = session.meta.quarantine or self.config.quarantine
        audit = await loop.run_in_executor(
            self._io_executor, lambda: verify_trace(part, decode=False)
        )
        if audit.file_error is not None:
            self._fail_session(session, f"uploaded trace invalid: {audit.file_error}")
            await self._save_meta(session)
            return session.status()
        if audit.bad_chunks:
            bad = [c.index for c in audit.bad_chunks]
            self.counters["sessions_quarantined"] += 1
            session.meta.extra["quarantined_chunks"] = bad
            if quarantine == "strict":
                self._fail_session(
                    session,
                    f"damaged chunks {bad} in uploaded trace (strict quarantine)",
                )
                await self._save_meta(session)
                return session.status()
            # degrade: admit the trace; the supervised replay will skip
            # exactly these chunks with full accounting in the report.
        await loop.run_in_executor(
            self._io_executor, self.store.commit_upload, session_id
        )
        session.machine.apply("commit")
        session.meta.state = SessionState.REPLAYING.value
        session.meta.committed_bytes = session.meta.bytes_received
        await self._save_meta(session)
        await self._replay_queue.put(session_id)
        return session.status()

    # -------------------------------------------------------------------- replay

    async def _pool_worker(self) -> None:
        """One replay slot: pull committed sessions, replay, report."""
        loop = asyncio.get_running_loop()
        while True:
            session_id = await self._replay_queue.get()
            session = self.sessions.get(session_id)
            if session is None or session.machine.closed:
                continue
            self._inflight_replays += 1
            try:
                result = await loop.run_in_executor(
                    self._replay_executor, self._run_replay, session
                )
            except (ReplayError, TraceFormatError, OSError, ValueError) as exc:
                session.machine.apply("replay_fail", f"{type(exc).__name__}: {exc}")
                session.meta.state = SessionState.FAILED.value
                session.meta.reason = session.machine.reason
                self.counters["sessions_failed"] += 1
                await self._save_meta(session)
                session.done.set()
                continue
            finally:
                self._inflight_replays -= 1
            if session.machine.closed:
                continue  # drained / cancelled while replaying
            faults = result.fault_counters
            crashes = (
                faults.get("worker_crashes", 0)
                + faults.get("worker_timeouts", 0)
                + faults.get("worker_errors", 0)
            )
            for _ in range(crashes):
                session.machine.apply("worker_fail")
            session.meta.worker_failures = session.machine.worker_failures
            session.machine.apply("replay_ok")
            session.meta.state = SessionState.REPORTING.value
            self.counters["replays_completed"] += 1
            document = report_document(result, session_id=session_id)
            try:
                await loop.run_in_executor(
                    self._io_executor, self.store.write_report, session_id, document
                )
            except OSError as exc:
                session.machine.apply("report_fail", f"report write failed: {exc}")
                session.meta.state = SessionState.FAILED.value
                session.meta.reason = session.machine.reason
                self.counters["sessions_failed"] += 1
                await self._save_meta(session)
                session.done.set()
                continue
            session.machine.apply("report_ok")
            session.meta.state = SessionState.SETTLED.value
            self.counters["sessions_settled"] += 1
            await self._save_meta(session)
            # Fold the replay's own counters (the worker's snapshot plus the
            # supervision counters) into the service registry (loop thread
            # only -- the registry is not thread-safe).
            self.registry.merge(result.metrics)
            session.done.set()

    def _run_replay(self, session: _Session) -> ReplayResult:
        """Executor thread: supervised in-order replay of one session."""
        fault_plan = None
        if self.config.fault_plan_factory is not None:
            fault_plan = self.config.fault_plan_factory(session.session_id)
        replay = ParallelReplay(
            str(self.store.trace_path(session.session_id)),
            session.meta.extra.get("lifeguard") or self.config.lifeguard,
            # Timing collection also brings the worker's metrics snapshot.
            collect_timing=True,
            quarantine=session.meta.quarantine or self.config.quarantine,
            policy=self.config.policy,
            fault_plan=fault_plan,
        )
        return replay.run()

    # -------------------------------------------------------------------- reaper

    async def _reaper(self) -> None:
        """Fail accepting sessions that have gone silent.

        This is what bounds a hanging client's blast radius to itself: the
        session is failed, its queue is released, and every other tenant
        keeps streaming.
        """
        while True:
            await asyncio.sleep(self.config.reap_interval)
            now = time.monotonic()
            for session in list(self.sessions.values()):
                if session.machine.closed:
                    continue
                if session.machine.state is not SessionState.ACCEPTING:
                    continue
                if now - session.last_activity > self.config.session_idle_timeout:
                    self._fail_session(session, "idle timeout", kind="timeout")
                    await self._save_meta(session)

    def _fail_session(self, session: _Session, reason: str, kind: str = "fail") -> None:
        event = "cancel" if kind == "cancel" else "fail"
        session.machine.apply(event, reason)
        session.meta.state = SessionState.FAILED.value
        session.meta.reason = reason
        if kind == "cancel":
            self.counters["sessions_cancelled"] += 1
        elif kind == "timeout":
            self.counters["sessions_timed_out"] += 1
        self.counters["sessions_failed"] += 1
        session.done.set()

    async def _save_meta(self, session: _Session) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._io_executor, self.store.save_meta, session.meta
        )

    # --------------------------------------------------------------- connections

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        attached: Optional[_Session] = None
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                header, payload = message
                op = header.get("op")
                if op == "chunk":
                    # Fire-and-forget: flow control is the bounded queue.
                    await self._op_chunk(header, payload)
                    continue
                reply = await self._dispatch(op, header, writer)
                if op == "begin" and reply.get("ok"):
                    attached = self.sessions.get(reply["session_id"])
                    if attached is not None:
                        attached.attached = True
                payload = b""
                if op == "report":
                    payload = encode_document(reply.pop("report", None))
                write_message(writer, reply, payload)
                await writer.drain()
        except ProtocolError as exc:
            try:
                write_message(writer, {"ok": False, "error": str(exc)})
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            if attached is not None:
                attached.attached = False
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, op, header, writer) -> dict:
        if op == "begin":
            return await self._op_begin(header)
        if op == "commit":
            return await self._op_commit(header)
        if op == "status":
            return self._op_status(header)
        if op == "report":
            return await self._op_report(header)
        if op == "cancel":
            return await self._op_cancel(header)
        if op == "health":
            return self._op_health()
        if op == "ready":
            return self._op_ready()
        if op == "metrics":
            return self._op_metrics()
        if op == "drain":
            asyncio.get_running_loop().create_task(self.drain())
            return {"ok": True, "draining": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _op_begin(self, header: dict) -> dict:
        session_id = header.get("session_id") or ""
        resume = bool(header.get("resume"))
        if resume:
            session = self.sessions.get(session_id)
            if session is None or session.machine.state is not SessionState.ACCEPTING:
                return {
                    "ok": False,
                    "error": f"session {session_id!r} is not resumable",
                }
            if session.attached:
                return {"ok": False, "error": "session already has a connection"}
            session.machine.checkpointed = False  # re-armed by reconnect
            session.last_activity = time.monotonic()
            return {
                "ok": True,
                "session_id": session_id,
                "resume_offset": self.store.part_size(session_id),
            }
        shed = self._shed_reason()
        if shed is not None:
            self.counters["sessions_shed"] += 1
            return {"ok": False, "error": shed, "code": 503}
        quarantine = header.get("quarantine") or ""
        if quarantine and quarantine not in QUARANTINE_POLICIES:
            return {"ok": False, "error": f"unknown quarantine {quarantine!r}"}
        try:
            meta = self.store.create(
                session_id, client=str(header.get("client") or ""),
                quarantine=quarantine,
            )
        except StoreError as exc:
            return {"ok": False, "error": str(exc)}
        if header.get("lifeguard"):
            meta.extra["lifeguard"] = str(header["lifeguard"])
            self.store.save_meta(meta)
        self._make_accepting_session(meta)
        self.counters["sessions_admitted"] += 1
        return {"ok": True, "session_id": session_id, "resume_offset": 0}

    async def _op_chunk(self, header: dict, payload: bytes) -> None:
        session = self.sessions.get(header.get("session_id") or "")
        if (
            session is None
            or session.machine.closed
            or session.machine.state is not SessionState.ACCEPTING
        ):
            self.counters["chunks_rejected"] += 1
            return
        crc = header.get("crc")
        if crc is not None and crc != chunk_crc(payload):
            # Transport-level damage: refuse the frame, let the client
            # retry; the stored-trace CRC audit still guards commit.
            self.counters["chunks_rejected"] += 1
            return
        depth = session.queue.qsize()
        if depth > self._queue_high_water:
            self._queue_high_water = depth
        # Bounded-buffer backpressure: this await is what stops reading
        # this one connection while its consumer is behind.
        await session.queue.put(("chunk", payload))
        session.last_activity = time.monotonic()

    async def _op_commit(self, header: dict) -> dict:
        session = self.sessions.get(header.get("session_id") or "")
        if session is None:
            return {"ok": False, "error": "unknown session"}
        if session.machine.closed:
            return {"ok": False, "error": "session closed", **session.status()}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await session.queue.put(("commit", future))
        status = await future
        ok = status["state"] in (
            SessionState.REPLAYING.value,
            SessionState.REPORTING.value,
            SessionState.SETTLED.value,
        )
        return {"ok": ok, **status}

    def _session_or_store_status(self, session_id: str) -> Optional[dict]:
        session = self.sessions.get(session_id)
        if session is not None:
            return session.status()
        try:
            meta = self.store.load_meta(session_id)
        except StoreError:
            return None
        return {
            "session_id": session_id,
            "state": meta.state,
            "reason": meta.reason,
            "chunks_received": meta.chunks_received,
            "bytes_received": meta.bytes_received,
            "worker_failures": meta.worker_failures,
        }

    def _op_status(self, header: dict) -> dict:
        status = self._session_or_store_status(header.get("session_id") or "")
        if status is None:
            return {"ok": False, "error": "unknown session"}
        return {"ok": True, **status}

    async def _op_report(self, header: dict) -> dict:
        session_id = header.get("session_id") or ""
        session = self.sessions.get(session_id)
        if session is not None and header.get("wait"):
            timeout = float(header.get("timeout") or 120.0)
            try:
                await asyncio.wait_for(session.done.wait(), timeout)
            except asyncio.TimeoutError:
                return {"ok": False, "error": "timed out waiting", **session.status()}
        status = self._session_or_store_status(session_id)
        if status is None:
            return {"ok": False, "error": "unknown session"}
        report = self.store.load_report(session_id)
        ok = status["state"] == SessionState.SETTLED.value and report is not None
        return {"ok": ok, "report": report, **status}

    async def _op_cancel(self, header: dict) -> dict:
        session = self.sessions.get(header.get("session_id") or "")
        if session is None:
            return {"ok": False, "error": "unknown session"}
        if not session.machine.closed:
            self._fail_session(session, "cancelled by client", kind="cancel")
            await self._save_meta(session)
        return {"ok": True, **session.status()}

    def _op_health(self) -> dict:
        return {
            "ok": True,
            "status": "draining" if self._draining else "ok",
            "sessions_active": self._live_sessions(),
            "replay_backlog": self._replay_queue.qsize(),
            "inflight_replays": self._inflight_replays,
        }

    def _op_ready(self) -> dict:
        shed = self._shed_reason()
        return {"ok": shed is None, "ready": shed is None, "reason": shed or ""}

    def _op_metrics(self) -> dict:
        self.registry.gauge("service.sessions_active").set(self._live_sessions())
        self.registry.gauge("service.replay_backlog").set(self._replay_queue.qsize())
        self.registry.gauge("service.queue_high_water").set(self._queue_high_water)
        self.registry.gauge("service.queue_depth").set(
            sum(s.queue.qsize() for s in self.sessions.values() if s.queue)
        )
        collect_service(self.registry, self.counters, last=self._flushed)
        document = snapshot_document(self.registry, meta={"source": "service"})
        return {"ok": True, "snapshot": document}
