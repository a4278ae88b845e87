"""Framed wire protocol for the monitoring gateway.

The container ships no third-party HTTP stack, so the gateway speaks a
deliberately small framed protocol over plain TCP (stdlib asyncio
streams):

* one frame = a single JSON header line (UTF-8, ``\\n``-terminated)
  optionally followed by ``header["length"]`` bytes of binary payload;
* the header carries ``op`` plus op-specific fields; replies carry
  ``ok`` and either result fields or ``error``;
* a reply that returns a document (the ``report`` op's replay report)
  sends it JSON-encoded as the frame's payload, not in the header: a
  report with many findings is far longer than a header line may be.

Chunk frames are *fire and forget* -- the client pipelines them without
waiting for acks.  Flow control is the transport itself: when a
session's bounded ingest queue fills, the gateway stops reading that
connection, the kernel's TCP window closes, and only that producer
stalls.  This is the paper's bounded-buffer producer/consumer coupling
applied per tenant.
"""

from __future__ import annotations

import asyncio
import json
import zlib
from typing import Optional, Tuple

#: Upper bound on a JSON header line -- anything larger is an attack or a bug.
MAX_HEADER_BYTES = 64 * 1024
#: Upper bound on a single binary payload (one upload chunk).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Raised when a peer violates the framing rules."""


async def read_message(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[dict, bytes]]:
    """Read one frame; returns ``None`` on clean EOF before a header."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    except ValueError as exc:  # the line overran the stream reader's limit
        raise ProtocolError(f"header too large: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(line)} bytes)")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    length = header.get("length", 0)
    if not isinstance(length, int) or length < 0 or length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"invalid payload length {length!r}")
    payload = b""
    if length:
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise ProtocolError("connection closed mid-payload") from exc
    return header, payload


def write_message(
    writer: asyncio.StreamWriter, header: dict, payload: bytes = b""
) -> None:
    """Queue one frame on the writer (caller drains)."""
    header = dict(header)
    if payload:
        header["length"] = len(payload)
    writer.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    if payload:
        writer.write(payload)


def encode_document(document: Optional[dict]) -> bytes:
    """Payload bytes of a reply document (empty when there is none)."""
    if document is None:
        return b""
    return json.dumps(document, sort_keys=True).encode()


def decode_document(payload: bytes) -> Optional[dict]:
    """Inverse of :func:`encode_document`."""
    if not payload:
        return None
    try:
        return json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed document payload: {exc}") from exc


def chunk_crc(payload: bytes) -> int:
    """CRC32 a chunk payload; clients stamp it, the gateway audits it."""
    return zlib.crc32(payload) & 0xFFFFFFFF
