"""The open-loop ``gateway_upload`` workload.

Set-up captures the seed's traces and starts ``python -m repro.service
serve`` exactly as shipped (default configuration).  One load generator
then uploads sessions at the seed's Poisson arrival times through
``GatewayClient``, keeping at most ``os.cpu_count()`` connections open; a
session due while every connection is busy waits, and that wait counts
in its settle time.  Each session's report is checked against the
sequential reference (reports and record count), then the gateway is
drained with SIGTERM and must exit 0.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import capture_trace
from repro.service.client import GatewayClient, GatewayError
from repro.service.protocol import ProtocolError

from perfbench import ops as op_mix
from perfbench import perlayer
from perfbench.children import finish, read_line
from perfbench.layers import chrome_trace
from perfbench.reference import Outcome, ReferenceCache, mismatches
from perfbench.workloads import geomean, shard_probe

READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0
REPORT_TIMEOUT_S = 120.0
MAX_CONNECTIONS = os.cpu_count() or 2


@dataclass
class Session:
    """What the load generator saw of one gateway session."""

    due: float
    lag_s: float = 0.0
    settle_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    #: (phase, start, end) in ``perf_counter`` seconds
    spans: List[Tuple[str, float, float]] = field(default_factory=list)
    reply: Optional[dict] = None
    cause: Optional[str] = None


class ServedGateway:
    """One ``python -m repro.service serve`` process with a private store."""

    def __init__(self, workdir: str) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--store", os.path.join(workdir, "store"), "--port", "0"],
            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = read_line(self.process, READY_TIMEOUT_S)
        if "listening on" not in line:
            self.process.kill()
            finish(self.process, DRAIN_TIMEOUT_S)
            raise RuntimeError(f"gateway failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    async def wait_ready(self) -> None:
        deadline = perf_counter() + READY_TIMEOUT_S
        while True:
            async with GatewayClient("127.0.0.1", self.port) as client:
                if (await client.ready()).get("ready"):
                    return
            if perf_counter() > deadline:
                raise RuntimeError("gateway never became ready")
            await asyncio.sleep(0.05)

    async def metrics(self) -> dict:
        async with GatewayClient("127.0.0.1", self.port) as client:
            return (await client.metrics())["snapshot"]

    def peak_rss_mb(self) -> float:
        """The gateway process's own peak resident memory so far (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("the gateway's status has no VmHWM line")

    def drain(self) -> Optional[int]:
        """SIGTERM the gateway and reap it; its exit code, or ``None`` if it
        did not exit within ``DRAIN_TIMEOUT_S`` and was killed."""
        self.process.send_signal(signal.SIGTERM)
        return finish(self.process, DRAIN_TIMEOUT_S)


def capture_traces(seed: int, workdir: str) -> List[Tuple[str, float, str]]:
    """Capture the seed's traces; returns ``(program, scale, path)`` triples."""
    traces = []
    for index, (program, scale) in enumerate(op_mix.gateway_traces(seed)):
        path = os.path.join(workdir, f"trace{index}.lbatrace")
        capture_trace(program, path, scale=scale)
        traces.append((program, scale, path))
    return traces


def start(seed: int, workdir: str) -> Tuple[List[Tuple[str, float, str]], ServedGateway]:
    """Everything before the first session: traces captured, gateway ready."""
    traces = capture_traces(seed, workdir)
    gateway = ServedGateway(workdir)
    try:
        asyncio.run(gateway.wait_ready())
    except BaseException:
        gateway.drain()
        raise
    return traces, gateway


async def upload(port: int, path: str, lifeguard: str, session: Session) -> None:
    """One session through the client phases: begin+upload, commit, report.

    Each phase's time is recorded as it ends, so a session that fails
    part-way still accounts for the time it spent.
    """
    phase, mark = "gateway.upload_s", perf_counter()

    def next_phase(name: str) -> None:
        nonlocal phase, mark
        now = perf_counter()
        session.phases[phase] = now - mark
        session.spans.append((phase, mark, now))
        phase, mark = name, now

    try:
        async with GatewayClient("127.0.0.1", port) as client:
            begun = await client.begin(lifeguard=lifeguard)
            await client.upload_file(begun["session_id"], path)
            next_phase("gateway.commit_s")
            await client.commit(begun["session_id"])
            next_phase("gateway.wait_s")
            session.reply = await client.report(
                begun["session_id"], wait=True, timeout=REPORT_TIMEOUT_S)
    finally:
        now = perf_counter()
        session.phases[phase] = now - mark
        session.spans.append((phase, mark, now))


async def drive(
    schedule: Sequence[op_mix.GatewaySession], traces, port: int,
) -> Tuple[List[Session], float]:
    """Open loop: each session starts at its due time, or when a connection frees."""
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    origin = perf_counter()

    async def one(planned: op_mix.GatewaySession) -> Session:
        due = origin + planned.due_s
        session = Session(due=due)
        await asyncio.sleep(max(0.0, due - perf_counter()))
        async with slots:
            session.lag_s = perf_counter() - due
            try:
                await upload(port, traces[planned.trace][2], planned.lifeguard, session)
            except GatewayError as exc:
                session.cause = "refused" if exc.code == 503 else "session_failed"
            except (ValueError, ProtocolError, ConnectionError, asyncio.IncompleteReadError):
                # e.g. a report line longer than the stream reader's limit
                session.cause = "reply"
            session.settle_s = perf_counter() - due
        return session

    sessions = await asyncio.gather(*(one(planned) for planned in schedule))
    return list(sessions), perf_counter() - origin


def session_outcome(reply: dict) -> Outcome:
    result = reply["report"]["result"]
    return Outcome(
        records=result["records"],
        events_handled=result["dispatch"]["events_handled"],
        accelerator=tuple(result["accelerator"].values()),
        dispatch=tuple(result["dispatch"].values()),
        reports=tuple(tuple(row) for row in result["reports"]),
    )


def check_sessions(schedule, sessions: List[Session], traces) -> Counter:
    """Classify every session; the reference is computed here, after the schedule."""
    references = ReferenceCache()
    wanted = sorted({(traces[p.trace][0], traces[p.trace][1], p.lifeguard) for p in schedule})
    for program, scale, lifeguard in wanted:
        references.outcome(program, scale, lifeguard)
    failures: Counter = Counter()
    for planned, session in zip(schedule, sessions):
        if session.cause is None and not (session.reply or {}).get("ok"):
            session.cause = "session_failed"
        if session.cause is None:
            program, scale, _path = traces[planned.trace]
            want = references.outcome(program, scale, planned.lifeguard)
            if mismatches("gateway_upload", session_outcome(session.reply), want):
                session.cause = "mismatch"
        if session.cause is not None:
            failures[session.cause] += 1
    return failures


def session_spans(sessions: List[Session]) -> List[dict]:
    """Each session as a span (op id = session index) with its phases as children."""
    origin = min(session.due for session in sessions)
    spans: List[dict] = []
    for op, session in enumerate(sessions):
        parent = len(spans)
        spans.append({"id": parent, "name": "session", "layer": "bench", "op": op,
                      "parent": None, "start": session.due - origin,
                      "end": session.due + session.settle_s - origin})
        for name, start, end in session.spans:
            spans.append({"id": len(spans), "name": name, "layer": "service", "op": op,
                          "parent": parent, "start": start - origin, "end": end - origin})
    return spans


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def run(args, workdir: str):
    """Run the schedule; returns failures, attempted, metrics (but for
    ``setup_s``), per-layer table, trace."""
    traces, gateway = start(args.seed, workdir)
    schedule = op_mix.gateway_schedule(args.seed, args.seconds)
    try:
        sessions, window_s = asyncio.run(drive(schedule, traces, gateway.port))
        snapshot = asyncio.run(gateway.metrics())
        peak_rss = gateway.peak_rss_mb()
    finally:
        drain_code = gateway.drain()
    failures = check_sessions(schedule, sessions, traces)
    if drain_code != 0:
        failures["drain_exit"] += 1
    ok = [s for s in sessions if s.cause is None]
    settles = [s.settle_s for s in sessions]
    attempted = len(sessions)
    failed = sum(failures.values())
    if not args.trace:
        cycles = [
            s.reply["report"]["result"]["dispatch"]["lifeguard_cycles"]
            / s.reply["report"]["result"]["records"] for s in ok
        ]
        return failures, attempted, {
            "records_per_s": (
                sum(s.reply["report"]["result"]["records"] for s in ok) / window_s,
                "records/s"),
            "sim_cycles_per_record": (
                geomean(cycles) if cycles else 0.0,
                "cycles/record"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "settle_p50_s": (statistics.median(settles), "s"),
            "settle_p90_s": (p90(settles), "s"),
            "failed_share": (failed / attempted, "fraction"),
        }, None, None

    values: Dict[str, float] = Counter()
    for session in sessions:
        values.update(session.phases)
    gauges, counters = snapshot.get("gauges", {}), snapshot.get("counters", {})
    values["service.queue_high_water"] = gauges.get("service.queue_high_water", 0)
    values["service.sessions_shed"] = counters.get("service.sessions_shed", 0)
    values["gateway.failed_mismatch"] = failures["mismatch"]
    values["gateway.failed_reply"] = failures["reply"]
    values["gateway.failed_refused"] = failures["refused"]
    values["bench.generator_lag_p90_s"] = p90([s.lag_s for s in sessions])
    values["bench.failed_share"] = failed / attempted
    busy = sum(s.settle_s - s.lag_s for s in sessions)
    values["bench.coverage"] = (
        sum(sum(s.phases.values()) for s in sessions) / busy if busy else 0.0)
    values.update(shard_probe(
        [op_mix.CaptureReplayOp(p, s, op_mix.replay_lifeguards(p)) for p, s, _ in traces],
        workdir,
    ))
    values = dict(values)
    document = chrome_trace(session_spans(sessions), {"table": values})
    return failures, attempted, perlayer.complete(values), values, document
