"""Trace repair: recover the valid prefix of damaged files, atomically.

``repair_trace`` (and ``python -m repro.trace verify --repair``) must
truncate a damaged trace to its longest CRC-valid chunk prefix and
rewrite the footer atomically.  Covered damage shapes: a corrupted
middle chunk, truncation mid-chunk (the capture died writing payload),
truncation mid-footer (the capture died writing the index/totals), and
the unrecoverable cases -- with the repaired file always passing a full
``verify_trace`` audit and replaying cleanly afterwards.
"""

import json
import os
import random
import shutil

import pytest

import repro.trace.tracefile as tracefile_module
from repro.core.events import AnnotationRecord
from repro.faultinject.corrupt import flip_chunk_bytes, truncate_trace
from repro.trace.cli import main as trace_cli
from repro.trace.replay import replay_trace
from repro.trace.tracefile import (
    _HEADER,
    TraceReader,
    TraceWriter,
    repair_trace,
    verify_trace,
)
from tests.trace.test_codec import _random_record


def _write_trace(path, count=400, seed=7, chunk_bytes=512, compress=True):
    rng = random.Random(seed)
    with TraceWriter(path, chunk_bytes=chunk_bytes, compress=compress) as writer:
        writer.extend(_random_record(rng) for _ in range(count))
    return writer.stats


def _index_offset(path):
    with open(path, "rb") as handle:
        return _HEADER.unpack(handle.read(_HEADER.size))[4]


@pytest.fixture
def trace(tmp_path):
    path = str(tmp_path / "base.lbatrace")
    _write_trace(path)
    with TraceReader(path) as reader:
        assert reader.num_chunks >= 4, "damage shapes need several chunks"
    return path


def _copy(trace, tmp_path, name):
    path = str(tmp_path / name)
    shutil.copyfile(trace, path)
    return path


class TestRepairShapes:
    def test_intact_file_is_left_untouched(self, trace):
        before = open(trace, "rb").read()
        repair = repair_trace(trace)
        assert repair.action == "intact"
        assert repair.ok and not repair.changed
        assert repair.lost_chunks == 0 and repair.lost_records == 0
        assert open(trace, "rb").read() == before

    def test_damaged_middle_chunk_truncates_to_valid_prefix(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "dmg.lbatrace")
        with TraceReader(path) as reader:
            chunks = reader.num_chunks
            records = [info.records for info in reader.chunks]
        victim = chunks // 2
        flip_chunk_bytes(path, victim, seed=3)
        repair = repair_trace(path)
        assert repair.action == "repaired" and repair.changed
        # Everything before the damaged chunk survives; it and everything
        # after it (unverifiable against the live stream) is dropped.
        assert repair.kept_chunks == victim
        assert repair.kept_records == sum(records[:victim])
        assert repair.lost_chunks == chunks - victim
        assert repair.lost_records == sum(records[victim:])
        audit = verify_trace(path)
        assert audit.ok and len(audit.chunks) == victim

    def test_mid_chunk_truncation_recovers_whole_chunks(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "midchunk.lbatrace")
        # Cut inside the chunk payload region, before any index survives.
        truncate_trace(path, keep_bytes=_index_offset(path) // 2)
        repair = repair_trace(path)
        assert repair.action == "repaired"
        assert repair.kept_chunks >= 1
        # The index was lost with the tail, so the damage extent is unknown.
        assert repair.lost_chunks is None and repair.lost_records is None
        audit = verify_trace(path)
        assert audit.ok and len(audit.chunks) == repair.kept_chunks

    def test_mid_footer_truncation_loses_no_chunk(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "midfooter.lbatrace")
        with TraceReader(path) as reader:
            chunks = reader.num_chunks
            total_records = sum(info.records for info in reader.chunks)
        # Cut inside the totals footer: every chunk and index entry survives.
        truncate_trace(path, keep_bytes=os.path.getsize(path) - 6)
        assert not verify_trace(path).ok
        repair = repair_trace(path)
        assert repair.action == "repaired"
        assert repair.kept_chunks == chunks
        assert repair.kept_records == total_records
        # The totals footer itself was destroyed, so the original population
        # is unknowable even though every chunk survived.
        assert repair.lost_chunks is None
        assert verify_trace(path).ok

    @pytest.mark.parametrize("cut", ["mid_chunk", "mid_footer"])
    def test_repair_decodes_each_kept_chunk_once(self, trace, tmp_path, monkeypatch, cut):
        path = _copy(trace, tmp_path, f"{cut}.lbatrace")
        with TraceReader(path) as reader:
            last = reader.chunks[-1]
        if cut == "mid_chunk":
            keep = last.offset + last.stored_len // 2
        else:  # inside the totals footer
            keep = os.path.getsize(path) - 6
        truncate_trace(path, keep_bytes=keep)
        decodes = []
        decode_records = tracefile_module.decode_records

        def counting_decode(*args, **kwargs):
            decodes.append(1)
            return decode_records(*args, **kwargs)

        monkeypatch.setattr(tracefile_module, "decode_records", counting_decode)
        repair = repair_trace(path)
        monkeypatch.undo()
        assert repair.action == "repaired"
        assert len(decodes) == repair.kept_chunks
        # The index totals the repair wrote still describe the kept chunks.
        with TraceReader(path) as reader:
            records = list(reader)
            annotations = sum(isinstance(r, AnnotationRecord) for r in records)
            assert annotations, "the trace must hold annotation records"
            assert reader.stats.records == len(records) == repair.kept_records
            assert reader.stats.annotations == annotations
            assert reader.stats.instructions == len(records) - annotations

    def test_repaired_file_replays_cleanly(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "replayable.lbatrace")
        truncate_trace(path, keep_bytes=_index_offset(path) // 2)
        repair = repair_trace(path)
        assert repair.ok
        result = replay_trace(path, "MemCheck")
        assert result.chunks == repair.kept_chunks
        assert result.records == repair.kept_records

    def test_unrecoverable_when_no_chunk_survives(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "hopeless.lbatrace")
        truncate_trace(path, keep_bytes=_HEADER.size + 3)
        repair = repair_trace(path)
        assert repair.action == "unrecoverable"
        assert not repair.ok and not repair.changed

    def test_uncompressed_truncation_is_unrecoverable(self, tmp_path):
        # Raw chunks are not self-terminating streams: once the index is
        # gone there is no boundary evidence, and repair must say so
        # rather than guess.
        path = str(tmp_path / "raw.lbatrace")
        _write_trace(path, compress=False)
        truncate_trace(path, keep_bytes=_index_offset(path) // 2)
        repair = repair_trace(path)
        assert repair.action == "unrecoverable"
        assert "uncompressed" in repair.detail

    def test_repair_is_atomic_no_temp_left_behind(self, trace, tmp_path):
        path = _copy(trace, tmp_path, "atomic.lbatrace")
        flip_chunk_bytes(path, 1, seed=5)
        repair_trace(path)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".repair")]
        assert leftovers == []
        assert verify_trace(path).ok


class TestRepairCli:
    def test_verify_repair_fixes_and_exits_zero(self, trace, tmp_path, capsys):
        path = _copy(trace, tmp_path, "cli.lbatrace")
        truncate_trace(path, keep_bytes=os.path.getsize(path) - 6)
        assert trace_cli(["verify", path]) == 1
        capsys.readouterr()
        assert trace_cli(["verify", "--repair", path]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "ok" in out
        # Idempotent: a second repair pass finds an intact file.
        assert trace_cli(["verify", "--repair", path]) == 0

    def test_verify_repair_json_document(self, trace, tmp_path, capsys):
        path = _copy(trace, tmp_path, "clijson.lbatrace")
        flip_chunk_bytes(path, 2, seed=9)
        assert trace_cli(["verify", "--repair", "--json", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"]
        assert document["repair"]["action"] == "repaired"
        assert document["repair"]["kept_chunks"] == document["chunks"]

    def test_unrecoverable_file_still_fails_command(self, trace, tmp_path, capsys):
        path = _copy(trace, tmp_path, "clibad.lbatrace")
        truncate_trace(path, keep_bytes=_HEADER.size + 1)
        assert trace_cli(["verify", "--repair", path]) == 1
        assert "unrecoverable" in capsys.readouterr().out
