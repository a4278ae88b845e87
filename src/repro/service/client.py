"""Async (and sync convenience) client for the monitoring gateway.

:class:`GatewayClient` speaks the framed protocol of
:mod:`repro.service.protocol` over one TCP connection.  Chunk frames are
pipelined without per-chunk acks: the client keeps writing until the
transport blocks, which happens exactly when the gateway has stopped
reading because that session's bounded ingest queue is full -- the
paper's producer/consumer coupling, end to end.

:func:`upload_trace` is the one-call path: begin (or resume) a session,
stream a trace file in transport chunks, commit, optionally wait for the
replay report.  :func:`upload_trace_sync` wraps it for non-async callers
(tests, CLI, chaos scenarios).
"""

from __future__ import annotations

import asyncio
import os
import uuid
from typing import Optional, Tuple

from repro.service.protocol import chunk_crc, decode_document, read_message, write_message

DEFAULT_CHUNK_BYTES = 64 * 1024


class GatewayError(RuntimeError):
    """A gateway reply with ``ok: false`` surfaced as an exception."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply.get("error") or f"gateway refused: {reply}")
        self.reply = reply

    @property
    def code(self) -> Optional[int]:
        return self.reply.get("code")


class GatewayClient:
    """One connection to a gateway; use as an async context manager."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    # ------------------------------------------------------------------ raw ops

    async def _exchange(self, header: dict, payload: bytes = b"") -> Tuple[dict, bytes]:
        """Send one frame and read the reply frame (not for chunk frames)."""
        assert self._writer is not None, "client not connected"
        write_message(self._writer, header, payload)
        await self._writer.drain()
        message = await read_message(self._reader)
        if message is None:
            raise ConnectionError("gateway closed the connection")
        return message

    async def _call(self, header: dict, payload: bytes = b"") -> dict:
        """Send one frame and return its reply header."""
        return (await self._exchange(header, payload))[0]

    async def _call_ok(self, header: dict) -> dict:
        reply = await self._call(header)
        if not reply.get("ok"):
            raise GatewayError(reply)
        return reply

    # ----------------------------------------------------------------- sessions

    async def begin(
        self,
        session_id: Optional[str] = None,
        quarantine: str = "",
        lifeguard: str = "",
        client: str = "",
        resume: bool = False,
    ) -> dict:
        session_id = session_id or f"s-{uuid.uuid4().hex[:16]}"
        return await self._call_ok({
            "op": "begin",
            "session_id": session_id,
            "quarantine": quarantine,
            "lifeguard": lifeguard,
            "client": client,
            "resume": resume,
        })

    async def send_chunk(self, session_id: str, payload: bytes) -> None:
        """Pipeline one chunk frame; no reply (backpressure is the transport)."""
        assert self._writer is not None, "client not connected"
        write_message(
            self._writer,
            {"op": "chunk", "session_id": session_id, "crc": chunk_crc(payload)},
            payload,
        )
        await self._writer.drain()

    async def upload_file(
        self,
        session_id: str,
        path: os.PathLike,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        offset: int = 0,
    ) -> int:
        """Stream a trace file from ``offset``; returns bytes sent."""
        sent = 0
        with open(path, "rb") as handle:
            handle.seek(offset)
            while True:
                payload = handle.read(chunk_bytes)
                if not payload:
                    break
                await self.send_chunk(session_id, payload)
                sent += len(payload)
        return sent

    async def commit(self, session_id: str) -> dict:
        return await self._call_ok({"op": "commit", "session_id": session_id})

    async def status(self, session_id: str) -> dict:
        return await self._call({"op": "status", "session_id": session_id})

    async def report(
        self, session_id: str, wait: bool = False, timeout: float = 120.0
    ) -> dict:
        """The session's status; ``reply["report"]`` is its report or None.

        The report travels as the reply frame's payload (it can outgrow a
        header line) and is decoded back under ``report``.
        """
        reply, payload = await self._exchange({
            "op": "report", "session_id": session_id,
            "wait": wait, "timeout": timeout,
        })
        reply["report"] = decode_document(payload)
        return reply

    async def cancel(self, session_id: str) -> dict:
        return await self._call({"op": "cancel", "session_id": session_id})

    # -------------------------------------------------------------------- admin

    async def health(self) -> dict:
        return await self._call({"op": "health"})

    async def ready(self) -> dict:
        return await self._call({"op": "ready"})

    async def metrics(self) -> dict:
        return await self._call_ok({"op": "metrics"})

    async def drain(self) -> dict:
        return await self._call({"op": "drain"})


async def upload_trace(
    host: str,
    port: int,
    trace_path: os.PathLike,
    session_id: Optional[str] = None,
    quarantine: str = "",
    lifeguard: str = "",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    wait: bool = True,
    timeout: float = 120.0,
) -> dict:
    """Begin-or-resume, stream, commit; returns the final report reply."""
    async with GatewayClient(host, port) as client:
        try:
            begun = await client.begin(
                session_id, quarantine=quarantine, lifeguard=lifeguard
            )
        except GatewayError as exc:
            if session_id is None or "already exists" not in str(exc):
                raise
            begun = await client.begin(session_id, resume=True)
        session_id = begun["session_id"]
        await client.upload_file(
            session_id, trace_path, chunk_bytes,
            offset=int(begun.get("resume_offset") or 0),
        )
        committed = await client.commit(session_id)
        if not wait:
            return committed
        return await client.report(session_id, wait=True, timeout=timeout)


def upload_trace_sync(*args, **kwargs) -> dict:
    """Blocking wrapper around :func:`upload_trace` (own event loop)."""
    return asyncio.run(upload_trace(*args, **kwargs))
