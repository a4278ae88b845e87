"""Per-leg wall-time accounting in the fuzz oracle and repro files."""

import json

from repro.fuzz.cli import _describe_repro, _format_leg_seconds
from repro.fuzz.oracle import FuzzCase, FuzzFailure, run_case
from repro.fuzz.shrink import save_repro


def test_run_case_records_leg_seconds():
    case = FuzzCase.from_seed(0)
    result = run_case(case, engines=["consume", "columnar"])
    assert set(result.leg_seconds) >= {"capture", "consume", "columnar"}
    assert all(seconds >= 0 for seconds in result.leg_seconds.values())


def test_repro_file_carries_leg_seconds(tmp_path):
    case = FuzzCase.from_seed(0)
    failure = FuzzFailure(0, "columnar", "MemCheck", "synthetic divergence")
    failure.leg_seconds = {"capture": 0.1, "consume": 0.2, "columnar": 0.3}
    path = save_repro(str(tmp_path / "seed_0.json"), case, failure=failure)
    document = json.loads((tmp_path / "seed_0.json").read_text())
    assert document["leg_seconds"] == {"capture": 0.1, "consume": 0.2, "columnar": 0.3}
    assert document["failure"]["leg"] == "columnar"
    assert path.endswith("seed_0.json")


def test_describe_repro_prints_leg_timing(tmp_path, capsys):
    case = FuzzCase.from_seed(0)
    path = save_repro(str(tmp_path / "seed_0.json"), case,
                      leg_seconds={"consume": 1.5, "live": 4.0})
    assert _describe_repro(path) == 0
    out = capsys.readouterr().out
    assert "leg wall time: live 4.00s, consume 1.50s" in out


def test_format_leg_seconds_sorts_slowest_first():
    text = _format_leg_seconds({"a": 0.5, "b": 2.0, "c": 1.0})
    assert text == "b 2.00s, c 1.00s, a 0.50s"
    assert _format_leg_seconds({}) == ""
    assert _format_leg_seconds(None) == ""
