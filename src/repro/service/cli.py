"""``python -m repro.service`` -- run and smoke-test the gateway.

Two subcommands::

    python -m repro.service serve --store DIR [--port N] [...]

runs one gateway process.  It prints ``gateway listening on HOST:PORT``
once ready (machine-parseable; with ``--port 0`` this is how callers
discover the bound port), recovers the store before accepting traffic,
and treats SIGTERM/SIGINT as a graceful drain: admissions stop with a
503-style error, accepting sessions are checkpointed for resume,
in-flight replays get ``--drain-grace`` seconds, and the process exits 0.

::

    python -m repro.service selftest --workdir DIR

is the end-to-end smoke CI runs: it spawns a real ``serve`` subprocess,
uploads several traces concurrently -- one deliberately corrupted --
asserts every clean session settles with a report and the corrupted one
is quarantined on exactly the damaged chunk, validates the service
metrics snapshot schema, then SIGTERMs the server and asserts it drains
to exit code 0 under a hard timeout.  Each run serves a fresh store
directory inside DIR, so reruns into one DIR are independent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Optional, Sequence

from repro.service.gateway import GatewayConfig, MonitoringGateway


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant monitoring gateway (lifeguard-as-a-service).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one gateway process")
    serve.add_argument("--store", required=True, help="session store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed on stdout)")
    serve.add_argument("--lifeguard", default="AddrCheck")
    serve.add_argument("--pool-size", type=int, default=2,
                       help="concurrent session replays")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="per-session bounded ingest queue (chunks)")
    serve.add_argument("--max-sessions", type=int, default=64)
    serve.add_argument("--quarantine", default="strict",
                       choices=("strict", "degrade"))
    serve.add_argument("--idle-timeout", type=float, default=60.0)
    serve.add_argument("--drain-grace", type=float, default=30.0)

    selftest = sub.add_parser(
        "selftest", help="end-to-end gateway smoke (spawns a serve subprocess)"
    )
    selftest.add_argument("--workdir", required=True)
    selftest.add_argument("--seed", type=int, default=1234)
    selftest.add_argument("--clients", type=int, default=3,
                          help="concurrent clean uploads")
    selftest.add_argument("--timeout", type=float, default=180.0,
                          help="hard wall-clock bound for the whole smoke")
    selftest.add_argument("--json", action="store_true",
                          help="emit the smoke outcome as JSON")
    return parser


# ----------------------------------------------------------------------- serve


def _config_from_args(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(
        store_dir=args.store,
        host=args.host,
        port=args.port,
        lifeguard=args.lifeguard,
        pool_size=args.pool_size,
        ingest_queue_depth=args.queue_depth,
        max_sessions=args.max_sessions,
        quarantine=args.quarantine,
        session_idle_timeout=args.idle_timeout,
        drain_grace=args.drain_grace,
    )


async def _serve(config: GatewayConfig) -> int:
    gateway = MonitoringGateway(config)
    await gateway.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum,
            lambda s=signum: asyncio.ensure_future(
                gateway.drain(f"signal {signal.Signals(s).name}")
            ),
        )
    print(f"gateway listening on {config.host}:{gateway.port}", flush=True)
    await gateway.serve_until_drained()
    print("gateway drained, exiting", flush=True)
    return 0


# -------------------------------------------------------------------- selftest


def _spawn_server(store: str, quarantine: str) -> "tuple[subprocess.Popen, int]":
    env = dict(os.environ)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--store", store, "--port", "0",
            "--lifeguard", "MemCheck",
            "--quarantine", quarantine,
            "--drain-grace", "60",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


async def _selftest_uploads(
    port: int, trace_path: str, corrupt_path: str, corrupt_chunk: int, clients: int
) -> dict:
    from repro.service.client import GatewayClient, upload_trace

    clean = [
        upload_trace("127.0.0.1", port, trace_path,
                     session_id=f"clean-{index}", chunk_bytes=16 * 1024)
        for index in range(clients)
    ]
    corrupt = upload_trace(
        "127.0.0.1", port, corrupt_path,
        session_id="corrupt-0", quarantine="degrade", chunk_bytes=16 * 1024,
    )
    replies = await asyncio.gather(*clean, corrupt)
    problems = []
    for reply in replies[:-1]:
        if reply.get("state") != "settled" or not reply.get("report"):
            problems.append(f"clean session {reply.get('session_id')} "
                            f"did not settle: {reply}")
    bad = replies[-1]
    skipped = [
        entry["chunk"]
        for entry in (bad.get("report") or {}).get("result", {}).get(
            "skipped_chunks", []
        )
    ]
    if bad.get("state") != "settled":
        problems.append(f"degrade session did not settle: {bad}")
    elif skipped != [corrupt_chunk]:
        problems.append(
            f"expected exactly chunk {corrupt_chunk} quarantined, got {skipped}"
        )
    async with GatewayClient("127.0.0.1", port) as admin:
        metrics = await admin.metrics()
    from repro.obs.pipeline import validate_snapshot

    snapshot = metrics["snapshot"]
    problems.extend(validate_snapshot(snapshot))
    settled = snapshot["counters"].get("service.sessions_settled", 0)
    if settled < clients + 1:
        problems.append(f"expected >= {clients + 1} settled sessions, "
                        f"counter says {settled}")
    return {"problems": problems, "snapshot": snapshot}


def _selftest(args: argparse.Namespace) -> int:
    from repro.faultinject.chaos import build_chaos_trace
    from repro.faultinject.corrupt import flip_chunk_bytes

    deadline = time.monotonic() + args.timeout
    os.makedirs(args.workdir, exist_ok=True)
    trace_path = os.path.join(args.workdir, "smoke.lbatrace")
    num_chunks = build_chaos_trace(trace_path, args.seed)
    corrupt_path = os.path.join(args.workdir, "smoke_corrupt.lbatrace")
    import shutil

    shutil.copyfile(trace_path, corrupt_path)
    corrupt_chunk = num_chunks // 2
    flip_chunk_bytes(corrupt_path, corrupt_chunk, seed=args.seed)

    # A store of its own per run, so a rerun into the same DIR starts clean.
    store = tempfile.mkdtemp(prefix="store-", dir=args.workdir)
    proc, port = _spawn_server(store, quarantine="strict")
    problems = []
    snapshot = None
    try:
        outcome = asyncio.run(_selftest_uploads(
            port, trace_path, corrupt_path, corrupt_chunk, args.clients
        ))
        problems = outcome["problems"]
        snapshot = outcome["snapshot"]
    finally:
        # The drain half of the smoke: SIGTERM must exit 0 in bounded time.
        proc.send_signal(signal.SIGTERM)
        remaining = max(5.0, deadline - time.monotonic())
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            problems.append(f"server did not drain within {remaining:.0f}s of SIGTERM")
            code = -9
        if code != 0:
            problems.append(f"server exited {code} after SIGTERM drain, expected 0")
    document = {
        "ok": not problems,
        "problems": problems,
        "chunks": num_chunks,
        "corrupt_chunk": corrupt_chunk,
        "settled": (snapshot or {}).get("counters", {}).get(
            "service.sessions_settled"
        ),
    }
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        print("gateway selftest " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(_config_from_args(args)))
    return _selftest(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
