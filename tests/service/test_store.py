"""SessionStore: durable layout, resume offsets, hostile ids, recovery scan."""

import json
import os

import pytest

from repro.service.session import SessionState
from repro.service.store import (
    SessionMeta,
    SessionStore,
    StoreError,
    validate_session_id,
)


@pytest.fixture
def store(tmp_path):
    return SessionStore(tmp_path / "store")


class TestSessionIds:
    def test_accepts_conservative_charset(self):
        assert validate_session_id("s-1.ok_2") == "s-1.ok_2"

    @pytest.mark.parametrize(
        "bad", ["", "../evil", "a/b", "a\\b", "x" * 65, "sp ace", "s\n1"]
    )
    def test_rejects_traversal_and_junk(self, bad, store):
        with pytest.raises(StoreError, match="invalid session id"):
            store.session_dir(bad)


class TestMetaRoundtrip:
    def test_create_and_load(self, store):
        meta = store.create("s-1", client="10.0.0.1:999", quarantine="strict")
        loaded = store.load_meta("s-1")
        assert loaded.session_id == "s-1"
        assert loaded.client == "10.0.0.1:999"
        assert loaded.quarantine == "strict"
        assert loaded.state == SessionState.ACCEPTING.value
        assert loaded.created_at == pytest.approx(meta.created_at)

    def test_duplicate_create_refused(self, store):
        store.create("s-1")
        with pytest.raises(StoreError, match="already exists"):
            store.create("s-1")

    def test_load_missing_session(self, store):
        with pytest.raises(StoreError, match="not found"):
            store.load_meta("ghost")

    def test_save_is_atomic_no_temp_left(self, store):
        meta = store.create("s-1")
        meta.chunks_received = 7
        store.save_meta(meta)
        names = os.listdir(store.session_dir("s-1"))
        assert not any(name.endswith(".tmp") for name in names)
        assert store.load_meta("s-1").chunks_received == 7

    def test_from_dict_ignores_unknown_fields(self, store):
        # Forward compatibility: a newer gateway's extra keys must not
        # brick recovery on an older one.
        store.create("s-1")
        path = store.meta_path("s-1")
        data = json.loads(path.read_text())
        data["from_the_future"] = True
        path.write_text(json.dumps(data))
        assert store.load_meta("s-1").session_id == "s-1"


class TestUploadLifecycle:
    def test_append_is_the_resume_offset(self, store):
        store.create("s-1")
        assert store.part_size("s-1") == 0
        assert store.append_chunk("s-1", b"abc") == 3
        assert store.append_chunk("s-1", b"defg") == 7
        assert store.part_size("s-1") == 7
        assert store.part_path("s-1").read_bytes() == b"abcdefg"

    def test_commit_promotes_part_to_trace(self, store):
        store.create("s-1")
        store.append_chunk("s-1", b"payload")
        trace = store.commit_upload("s-1")
        assert trace.read_bytes() == b"payload"
        assert not store.part_path("s-1").exists()

    def test_commit_is_idempotent_after_crash(self, store):
        store.create("s-1")
        store.append_chunk("s-1", b"payload")
        first = store.commit_upload("s-1")
        # Crash between rename and meta save: the retry must succeed.
        again = store.commit_upload("s-1")
        assert again == first and again.read_bytes() == b"payload"

    def test_commit_without_bytes_refused(self, store):
        store.create("s-1")
        with pytest.raises(StoreError, match="no uploaded bytes"):
            store.commit_upload("s-1")

    def test_report_roundtrip(self, store):
        store.create("s-1")
        assert store.load_report("s-1") is None
        store.write_report("s-1", {"kind": "lifeguard-replay-report", "n": 3})
        assert store.load_report("s-1")["n"] == 3


class TestRecoveryScan:
    def test_scan_returns_all_sessions_sorted(self, store):
        for sid in ("s-b", "s-a", "s-c"):
            store.create(sid)
        assert [m.session_id for m in store.scan()] == ["s-a", "s-b", "s-c"]

    def test_bare_directory_scans_as_explicit_failure(self, store):
        # Crash between mkdir and the first save_meta: recovery must fail
        # the session deterministically, not silently skip it.
        store.create("s-ok")
        (store.sessions_dir / "s-torn").mkdir()
        metas = {m.session_id: m for m in store.scan()}
        assert metas["s-torn"].state == SessionState.FAILED.value
        assert "unreadable" in metas["s-torn"].reason
        assert metas["s-ok"].state == SessionState.ACCEPTING.value

    def test_corrupt_meta_scans_as_failure(self, store):
        store.create("s-1")
        store.meta_path("s-1").write_text("{not json")
        (meta,) = store.scan()
        assert meta.state == SessionState.FAILED.value


    def test_foreign_entries_ignored(self, store, tmp_path):
        store.create("s-1")
        (store.sessions_dir / "not a session!").mkdir()
        (store.sessions_dir / "stray.txt").write_text("x")
        assert store.list_sessions() == ["s-1"]


def test_meta_dataclass_roundtrip():
    meta = SessionMeta(
        session_id="s-9",
        state="replaying",
        chunks_received=4,
        extra={"lifeguard": "MemCheck"},
    )
    assert SessionMeta.from_dict(meta.to_dict()) == meta
