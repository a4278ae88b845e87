"""On-disk store for gateway sessions.

Layout under the store root::

    sessions/<session_id>/
        session.json    -- SessionMeta, atomically rewritten on every change
        upload.part     -- raw trace bytes appended chunk by chunk
        trace.lbatrace  -- upload.part renamed here on commit (after fsync)
        report.json     -- final replay report, written atomically

Durability rules the gateway's crash-recovery contract depends on:

* ``session.json`` and ``report.json`` are written temp + fsync +
  ``os.replace`` so a crash leaves either the old or the new document,
  never a torn one;
* ``upload.part`` is append-only, so after a crash its size *is* the
  resume offset for an interrupted upload;
* the ``upload.part`` -> ``trace.lbatrace`` rename happens only after an
  fsync, so a committed trace is durable before the session claims to be
  replaying.

Session ids double as directory names; they are validated against a
conservative charset so a hostile client cannot traverse out of the
store root.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.session import SessionState

_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

META_NAME = "session.json"
PART_NAME = "upload.part"
TRACE_NAME = "trace.lbatrace"
REPORT_NAME = "report.json"


class StoreError(RuntimeError):
    """Raised for invalid ids or inconsistent on-disk session state."""


def validate_session_id(session_id: str) -> str:
    if not _SESSION_ID_RE.match(session_id or ""):
        raise StoreError(
            f"invalid session id {session_id!r}: must match "
            f"{_SESSION_ID_RE.pattern}"
        )
    return session_id


@dataclass
class SessionMeta:
    """The persisted view of one session, mirrored into ``session.json``."""

    session_id: str
    state: str = SessionState.ACCEPTING.value
    client: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0
    chunks_received: int = 0
    bytes_received: int = 0
    committed_bytes: int = 0
    quarantine: str = ""
    reason: str = ""
    worker_failures: int = 0
    recovered: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionMeta":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class SessionStore:
    """Filesystem-backed persistence for gateway sessions."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.sessions_dir = self.root / "sessions"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------- paths

    def session_dir(self, session_id: str) -> Path:
        return self.sessions_dir / validate_session_id(session_id)

    def meta_path(self, session_id: str) -> Path:
        return self.session_dir(session_id) / META_NAME

    def part_path(self, session_id: str) -> Path:
        return self.session_dir(session_id) / PART_NAME

    def trace_path(self, session_id: str) -> Path:
        return self.session_dir(session_id) / TRACE_NAME

    def report_path(self, session_id: str) -> Path:
        return self.session_dir(session_id) / REPORT_NAME

    # ---------------------------------------------------------------- lifecycle

    def create(self, session_id: str, client: str = "",
               quarantine: str = "") -> SessionMeta:
        directory = self.session_dir(session_id)
        if directory.exists():
            raise StoreError(f"session {session_id!r} already exists")
        directory.mkdir(parents=True)
        now = time.time()
        meta = SessionMeta(
            session_id=session_id,
            client=client,
            quarantine=quarantine,
            created_at=now,
            updated_at=now,
        )
        self.save_meta(meta)
        return meta

    def save_meta(self, meta: SessionMeta) -> None:
        meta.updated_at = time.time()
        payload = json.dumps(meta.to_dict(), sort_keys=True, indent=2)
        _atomic_write(self.meta_path(meta.session_id), payload.encode())

    def load_meta(self, session_id: str) -> SessionMeta:
        path = self.meta_path(session_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise StoreError(f"session {session_id!r} not found") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"session {session_id!r} metadata unreadable: {exc}"
            ) from exc
        return SessionMeta.from_dict(data)

    def exists(self, session_id: str) -> bool:
        try:
            return self.meta_path(session_id).exists()
        except StoreError:
            return False

    # ------------------------------------------------------------------ upload

    def append_chunk(self, session_id: str, payload: bytes) -> int:
        """Append raw bytes to the partial upload; returns the new size."""
        path = self.part_path(session_id)
        with open(path, "ab") as handle:
            handle.write(payload)
        return path.stat().st_size

    def part_size(self, session_id: str) -> int:
        try:
            return self.part_path(session_id).stat().st_size
        except FileNotFoundError:
            return 0

    def commit_upload(self, session_id: str) -> Path:
        """Durably promote ``upload.part`` to the committed trace file."""
        part = self.part_path(session_id)
        trace = self.trace_path(session_id)
        if not part.exists():
            if trace.exists():  # idempotent re-commit after a crash
                return trace
            raise StoreError(f"session {session_id!r} has no uploaded bytes")
        with open(part, "rb+") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(part, trace)
        return trace

    def write_report(self, session_id: str, document: dict) -> Path:
        path = self.report_path(session_id)
        payload = json.dumps(document, sort_keys=True, indent=2)
        _atomic_write(path, payload.encode())
        return path

    def load_report(self, session_id: str) -> Optional[dict]:
        try:
            with open(self.report_path(session_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    # ----------------------------------------------------------------- scanning

    def list_sessions(self) -> List[str]:
        if not self.sessions_dir.exists():
            return []
        out = []
        for entry in sorted(self.sessions_dir.iterdir()):
            if entry.is_dir() and _SESSION_ID_RE.match(entry.name):
                out.append(entry.name)
        return out

    def scan(self) -> List[SessionMeta]:
        """Load every readable session's metadata (recovery entry point)."""
        metas = []
        for session_id in self.list_sessions():
            try:
                metas.append(self.load_meta(session_id))
            except StoreError:
                # A crash between mkdir and the first save_meta leaves a
                # bare directory; recovery fails such sessions explicitly
                # rather than silently skipping them.
                metas.append(
                    SessionMeta(
                        session_id=session_id,
                        state=SessionState.FAILED.value,
                        reason="metadata unreadable after crash",
                    )
                )
        return metas
