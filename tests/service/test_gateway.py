"""End-to-end gateway tests: upload, backpressure, shedding, drain, recovery.

Each test runs a real :class:`MonitoringGateway` on an ephemeral port
inside ``asyncio.run`` and talks to it through :class:`GatewayClient`
over a live socket -- the same wire path production clients use.  The
replay-bearing tests assert the service's core determinism contract: the
``result`` section of a gateway report is bit-identical to an offline
:func:`~repro.trace.replay.replay_trace` of the same trace.
"""

import asyncio
import json
import shutil

import pytest

from repro.core.events import EventType, InstructionRecord
from repro.faultinject.chaos import CHAOS_LIFEGUARD, build_chaos_trace
from repro.faultinject.corrupt import flip_chunk_bytes
from repro.obs.pipeline import validate_snapshot
from repro.service.client import GatewayClient, GatewayError, upload_trace
from repro.service.gateway import GatewayConfig, MonitoringGateway, report_document
from repro.service.protocol import MAX_HEADER_BYTES, ProtocolError, read_message
from repro.service.session import SessionState
from repro.service.store import SessionStore
from repro.trace.replay import replay_trace
from repro.trace.supervisor import SupervisorPolicy
from repro.trace.tracefile import TraceReader, TraceWriter

POLICY = SupervisorPolicy(
    timeout_seconds=60.0, backoff_seconds=0.01, start_method="forkserver"
)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "workload.lbatrace")
    build_chaos_trace(path, seed=77)
    return path


@pytest.fixture(scope="module")
def baseline(trace):
    """Offline in-order replay: the bit-identity reference."""
    return report_document(replay_trace(trace, CHAOS_LIFEGUARD))["result"]


def _config(tmp_path, **overrides):
    defaults = dict(
        store_dir=str(tmp_path / "store"),
        lifeguard=CHAOS_LIFEGUARD,
        pool_size=2,
        policy=POLICY,
        drain_grace=60.0,
        session_idle_timeout=60.0,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def _run(config, body, timeout=180.0):
    """Start a gateway, run ``body(gateway)``, always drain cleanly."""

    async def main():
        gateway = MonitoringGateway(config)
        await gateway.start()
        try:
            return await asyncio.wait_for(body(gateway), timeout=timeout)
        finally:
            await gateway.drain("test teardown")

    return asyncio.run(main())


class TestUploadAndReplay:
    def test_upload_settles_bit_identical_to_offline_replay(
        self, tmp_path, trace, baseline
    ):
        async def body(gateway):
            reply = await upload_trace(
                "127.0.0.1", gateway.port, trace, session_id="tenant-a",
                chunk_bytes=256,
            )
            assert reply["ok"] and reply["state"] == SessionState.SETTLED.value
            assert reply["report"]["result"] == baseline
            assert gateway.counters["sessions_settled"] == 1
            assert gateway.counters["chunks_received"] > 1
            # The report is durable, not just in the reply.
            stored = SessionStore(gateway.config.store_dir).load_report("tenant-a")
            assert stored["result"] == baseline

        _run(_config(tmp_path), body)

    def test_concurrent_tenants_all_settle_identically(
        self, tmp_path, trace, baseline
    ):
        async def body(gateway):
            replies = await asyncio.gather(*(
                upload_trace(
                    "127.0.0.1", gateway.port, trace,
                    session_id=f"tenant-{n}", chunk_bytes=200 + 64 * n,
                )
                for n in range(3)
            ))
            for reply in replies:
                assert reply["ok"]
                assert reply["report"]["result"] == baseline

        _run(_config(tmp_path), body)

    def test_report_larger_than_a_header_line_arrives_intact(self, tmp_path):
        # Every load touches unallocated heap, so every load is a finding
        # and the report document outgrows the 64 KiB header-line limit.
        # A jump after each load keeps runs of same-type rows as short as
        # in captured traces.
        loads = 1000
        path = str(tmp_path / "findings.lbatrace")
        with TraceWriter(path) as writer:
            for i in range(loads):
                pc = 0x0804_8000 + 8 * i
                writer.append(InstructionRecord(
                    pc, EventType.MEM_TO_REG, dest_reg=0,
                    src_addr=0x0900_0000 + 16 * i, size=4, is_load=True,
                ))
                writer.append(InstructionRecord(pc + 4, EventType.CONTROL))
        expected = report_document(replay_trace(path, CHAOS_LIFEGUARD))["result"]
        assert len(expected["reports"]) == loads
        assert len(json.dumps(expected)) > MAX_HEADER_BYTES

        async def body(gateway):
            reply = await upload_trace(
                "127.0.0.1", gateway.port, path, session_id="findings"
            )
            assert reply["ok"] and reply["state"] == SessionState.SETTLED.value
            assert reply["report"]["result"] == expected
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                again = await client.report("findings")
                missing = await client.report("no-such-session")
            assert again["ok"] and again["report"] == reply["report"]
            assert not missing["ok"] and missing["report"] is None

        _run(_config(tmp_path), body)


class TestFraming:
    def test_header_line_over_the_limit_is_a_protocol_error(self):
        async def read(line):
            reader = asyncio.StreamReader()
            reader.feed_data(line)
            reader.feed_eof()
            return await read_message(reader)

        assert asyncio.run(read(b'{"op": "health"}\n')) == ({"op": "health"}, b"")
        oversized = json.dumps({"op": "x", "pad": "x" * MAX_HEADER_BYTES}).encode() + b"\n"
        with pytest.raises(ProtocolError, match="header too large"):
            asyncio.run(read(oversized))


class TestBackpressure:
    def test_queue_high_water_bounded_by_depth(self, tmp_path, trace):
        # A deliberately slow consumer: the client can pipeline chunks,
        # but the bounded queue must cap the buffered backlog -- excess
        # waits in the socket, not in gateway memory.
        depth = 3
        config = _config(
            tmp_path, ingest_queue_depth=depth, ingest_delay=0.01,
        )

        async def body(gateway):
            reply = await upload_trace(
                "127.0.0.1", gateway.port, trace, session_id="slow",
                chunk_bytes=64,
            )
            assert reply["ok"]
            assert gateway.counters["chunks_received"] >= 20
            assert 0 < gateway._queue_high_water <= depth

        _run(config, body)


class TestAdmissionControl:
    def test_shed_at_session_limit_with_503(self, tmp_path):
        config = _config(tmp_path, max_sessions=1)

        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as a:
                await a.begin(session_id="tenant-a")
                async with GatewayClient("127.0.0.1", gateway.port) as b:
                    assert (await b.ready())["ready"] is False
                    with pytest.raises(GatewayError) as exc:
                        await b.begin(session_id="tenant-b")
                    assert exc.value.code == 503
                    assert "session limit" in str(exc.value)
                    # Releasing the slot re-opens admission.
                    await b.cancel("tenant-a")
                    assert (await b.ready())["ready"] is True
                    await b.begin(session_id="tenant-b")
            assert gateway.counters["sessions_shed"] == 1
            assert gateway.counters["sessions_cancelled"] == 1

        _run(config, body)

    def test_draining_gateway_sheds_new_sessions(self, tmp_path):
        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.drain()
                assert (await client.ready())["reason"] == "draining"
                with pytest.raises(GatewayError) as exc:
                    await client.begin(session_id="late")
                assert exc.value.code == 503
            await asyncio.wait_for(gateway.serve_until_drained(), timeout=30)

        _run(_config(tmp_path), body)


class TestQuarantine:
    @pytest.fixture
    def damaged(self, trace, tmp_path):
        path = str(tmp_path / "damaged.lbatrace")
        shutil.copyfile(trace, path)
        with TraceReader(path) as reader:
            victim = reader.num_chunks // 2
        flip_chunk_bytes(path, victim, seed=5)
        return path, victim

    def test_strict_commit_fails_naming_exact_chunks(self, tmp_path, damaged):
        path, victim = damaged

        async def body(gateway):
            with pytest.raises(GatewayError) as exc:
                await upload_trace(
                    "127.0.0.1", gateway.port, path, session_id="dirty",
                    quarantine="strict", chunk_bytes=256,
                )
            assert f"damaged chunks [{victim}]" in str(exc.value)
            assert "strict quarantine" in str(exc.value)
            assert gateway.counters["sessions_quarantined"] == 1
            assert gateway.counters["sessions_failed"] == 1
            assert gateway.counters["replays_completed"] == 0

        _run(_config(tmp_path), body)

    def test_degrade_replays_around_damage_with_accounting(
        self, tmp_path, trace, damaged
    ):
        path, victim = damaged
        with TraceReader(trace) as reader:
            total_records = sum(i.records for i in reader.chunks)
            victim_records = reader.chunks[victim].records

        async def body(gateway):
            reply = await upload_trace(
                "127.0.0.1", gateway.port, path, session_id="dirty",
                quarantine="degrade", chunk_bytes=256,
            )
            assert reply["ok"] and reply["state"] == SessionState.SETTLED.value
            result = reply["report"]["result"]
            assert result["degraded"] is True
            assert [c["chunk"] for c in result["skipped_chunks"]] == [victim]
            assert result["skipped_records"] == victim_records
            assert result["records"] == total_records - victim_records
            assert gateway.counters["sessions_quarantined"] == 1

        _run(_config(tmp_path), body)


class TestResumeAndRecovery:
    def test_interrupted_upload_resumes_at_exact_offset(self, tmp_path, trace, baseline):
        blob = open(trace, "rb").read()
        half = len(blob) // 2

        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as first:
                await first.begin(session_id="tenant-a")
                await first.send_chunk("tenant-a", blob[:half])
                # Wait until the byte is durably appended, then vanish
                # without committing (client crash).
                while True:
                    status = await first.status("tenant-a")
                    if status["bytes_received"] >= half:
                        break
                    await asyncio.sleep(0.01)
            async with GatewayClient("127.0.0.1", gateway.port) as second:
                reply = await second.begin(session_id="tenant-a", resume=True)
                assert reply["resume_offset"] == half
                await second.upload_file("tenant-a", trace, offset=half)
                await second.commit("tenant-a")
                reply = await second.report("tenant-a", wait=True)
            assert reply["ok"]
            assert reply["report"]["result"] == baseline

        _run(_config(tmp_path), body)

    def test_restart_recovers_committed_and_partial_sessions(
        self, tmp_path, trace, baseline
    ):
        store_dir = tmp_path / "store"
        store = SessionStore(store_dir)
        blob = open(trace, "rb").read()
        # A crash mid-replay: committed trace, meta says replaying.
        meta = store.create("committed")
        store.append_chunk("committed", blob)
        store.commit_upload("committed")
        meta.state = SessionState.REPLAYING.value
        store.save_meta(meta)
        # A crash mid-upload: half the bytes, meta says accepting.
        meta = store.create("partial")
        store.append_chunk("partial", blob[: len(blob) // 2])
        store.save_meta(meta)

        async def body(gateway):
            # The interrupted replay restarts by itself and settles.
            reply = None
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                reply = await client.report("committed", wait=True)
            assert reply["ok"] and reply["report"]["result"] == baseline
            # The interrupted upload is resumable at its exact offset.
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                resumed = await client.begin(session_id="partial", resume=True)
                assert resumed["resume_offset"] == len(blob) // 2
            assert gateway.counters["sessions_recovered"] == 2

        _run(_config(tmp_path, store_dir=str(store_dir)), body)

    def test_drain_checkpoints_accepting_sessions(self, tmp_path, trace):
        blob = open(trace, "rb").read()

        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.begin(session_id="tenant-a")
                await client.send_chunk("tenant-a", blob[:512])
                while (await client.status("tenant-a"))["bytes_received"] < 512:
                    await asyncio.sleep(0.01)
            await gateway.drain("sigterm test")
            await asyncio.wait_for(gateway.serve_until_drained(), timeout=30)
            machine = gateway.sessions["tenant-a"].machine
            assert machine.checkpointed and not machine.terminal
            # The persisted state is resumable by the next process life.
            meta = SessionStore(gateway.config.store_dir).load_meta("tenant-a")
            assert meta.state == SessionState.ACCEPTING.value
            assert meta.bytes_received == 512

        _run(_config(tmp_path), body)


class TestProbesAndMetrics:
    def test_health_ready_and_validated_snapshot(self, tmp_path, trace):
        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                health = await client.health()
                assert health["status"] == "ok"
                assert (await client.ready())["ready"] is True
                await upload_trace(
                    "127.0.0.1", gateway.port, trace, session_id="tenant-a",
                    chunk_bytes=256,
                )
                snapshot = (await client.metrics())["snapshot"]
            assert validate_snapshot(snapshot) == []
            assert snapshot["meta"]["source"] == "service"
            counters = snapshot["counters"]
            assert counters["service.sessions_settled"] == 1
            assert counters["service.bytes_received"] > 0
            # Replay pipeline counters are folded into the same snapshot.
            assert counters["replay.records"] > 0
            assert counters["dispatch.records_consumed"] > 0

        _run(_config(tmp_path), body)

    def test_idle_sessions_are_reaped(self, tmp_path):
        config = _config(tmp_path, session_idle_timeout=0.2, reap_interval=0.05)

        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                await client.begin(session_id="ghost")
                session = gateway.sessions["ghost"]
                await asyncio.wait_for(session.done.wait(), timeout=10)
                status = await client.status("ghost")
            assert status["state"] == SessionState.FAILED.value
            assert "idle" in status["reason"]
            assert gateway.counters["sessions_timed_out"] == 1

        _run(config, body)

    def test_status_of_unknown_session(self, tmp_path):
        async def body(gateway):
            async with GatewayClient("127.0.0.1", gateway.port) as client:
                reply = await client.status("nope")
            assert reply["ok"] is False
            assert reply["error"] == "unknown session"

        _run(_config(tmp_path), body)
