"""The ``python -m repro.obs`` CLI: diff, validate, prom."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.diff import diff_files, diff_snapshots
from repro.obs.pipeline import (
    REQUIRED_ACCELERATOR_COUNTERS,
    REQUIRED_REPLAY_COUNTERS,
    SNAPSHOT_KIND,
    SNAPSHOT_VERSION,
)


def _snapshot(counters, gauges=None):
    document = {
        "version": SNAPSHOT_VERSION,
        "kind": SNAPSHOT_KIND,
        "meta": {},
        "counters": dict(counters),
        "gauges": dict(gauges or {}),
        "histograms": {},
    }
    for name in REQUIRED_ACCELERATOR_COUNTERS + REQUIRED_REPLAY_COUNTERS:
        document["counters"].setdefault(name, 0)
    return document


def _write(path, document):
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return str(path)


class TestDiffSnapshots:
    def test_hit_rate_attribution(self):
        a = _snapshot({"mtlb.lookups": 1000, "mtlb.hits": 950})
        b = _snapshot({"mtlb.lookups": 1000, "mtlb.hits": 860})
        lines = diff_snapshots(a, b)
        assert any("M-TLB hit rate down 9.0pts" in line for line in lines)

    def test_no_it_rate_only_its_counters(self):
        # TaintCheck on bzip2 at scale 0.3 discards 2,426 of the 3,499
        # events IT sees (69.3%), but its reduction is 43.2%: a rate from
        # one snapshot would print a second number for IT's effect.
        a = _snapshot({"it.events_seen": 3499, "it.events_discarded": 2426})
        b = _snapshot({"it.events_seen": 3499, "it.events_discarded": 1200})
        lines = diff_snapshots(a, b)
        assert not any(line.startswith("IT ") for line in lines), lines
        assert "it.events_discarded: 2426 -> 1200 (-50.5%)" in lines

    def test_counter_delta_with_percentage(self):
        a = _snapshot({"dispatch.records_total": 100})
        b = _snapshot({"dispatch.records_total": 150})
        lines = diff_snapshots(a, b)
        assert "dispatch.records_total: 100 -> 150 (+50.0%)" in lines

    def test_gauge_change(self):
        a = _snapshot({}, gauges={"if.resident_entries": 3})
        b = _snapshot({}, gauges={"if.resident_entries": 5})
        assert "if.resident_entries (gauge): 3 -> 5" in diff_snapshots(a, b)

    def test_identical_snapshots(self):
        a = _snapshot({"x": 1})
        assert diff_snapshots(a, a) == ["no metric differences"]


class TestDiffBench:
    def test_stage_deltas_and_sidecar_attribution(self, tmp_path):
        bench_a = {"stages": {"replay_MemCheck": 100_000}, "units": {}}
        bench_b = {"stages": {"replay_MemCheck": 80_000}, "units": {}}
        path_a = _write(tmp_path / "a.json", bench_a)
        path_b = _write(tmp_path / "b.json", bench_b)
        _write(tmp_path / "a.metrics.json",
               _snapshot({"mtlb.lookups": 100, "mtlb.hits": 90}))
        _write(tmp_path / "b.metrics.json",
               _snapshot({"mtlb.lookups": 100, "mtlb.hits": 50}))
        lines = diff_files(path_a, path_b)
        assert any("replay_MemCheck: 100,000 -> 80,000 records/s (-20.0%)" in line
                   for line in lines)
        assert any("M-TLB hit rate down 40.0pts" in line for line in lines)

    def test_without_sidecars(self, tmp_path):
        path_a = _write(tmp_path / "a.json", {"stages": {"s": 10}, "units": {}})
        path_b = _write(tmp_path / "b.json", {"stages": {"s": 20}, "units": {}})
        lines = diff_files(path_a, path_b)
        assert any("no metrics sidecars" in line for line in lines)


class TestCli:
    def test_diff_prints_lines(self, tmp_path, capsys):
        path_a = _write(tmp_path / "a.json", _snapshot({"if.lookups": 10, "if.hits": 9}))
        path_b = _write(tmp_path / "b.json", _snapshot({"if.lookups": 10, "if.hits": 5}))
        assert main(["diff", path_a, path_b]) == 0
        out = capsys.readouterr().out
        assert "IF hit rate down 40.0pts" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = _write(tmp_path / "snap.json", _snapshot({}))
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_missing_counters(self, tmp_path, capsys):
        document = _snapshot({})
        del document["counters"]["mtlb.hits"]
        path = _write(tmp_path / "bad.json", document)
        assert main(["validate", path]) == 1
        assert "mtlb.hits" in capsys.readouterr().err

    def test_prom_renders(self, tmp_path, capsys):
        path = _write(tmp_path / "snap.json", _snapshot({"it.events_seen": 7}))
        assert main(["prom", path]) == 0
        out = capsys.readouterr().out
        assert "repro_it_events_seen 7" in out

    def test_prom_custom_prefix(self, tmp_path, capsys):
        path = _write(tmp_path / "snap.json", _snapshot({"it.events_seen": 7}))
        assert main(["prom", path, "--prefix", "lba_"]) == 0
        assert "lba_it_events_seen 7" in capsys.readouterr().out
