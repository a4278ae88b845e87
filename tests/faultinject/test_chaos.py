"""Chaos-suite tests: every fault-tolerance invariant holds end to end.

Runs the real scenario registry (worker SIGKILL / ``os._exit`` / hang /
IO error, poison chunks, corrupt bytes, truncation) against a seeded
workload trace through actual supervised worker processes -- the same
suite CI runs via ``python -m repro.faultinject``.
"""

import json
import os

import pytest

from repro.faultinject.chaos import SCENARIOS, build_chaos_trace, run_chaos
from repro.faultinject.cli import main as chaos_cli
from repro.trace.tracefile import TraceReader

#: One full-suite run per module: the scenarios are independent (each
#: gets its own trace copy / claim dir) so a single document covers all.
CHAOS_SEED = 0
#: Seed-0 supervision and service counters of every scenario that reports
#: them: retries, crashes, timeouts, bisection probes and quarantine
#: accounting pin the supervisor's behaviour, not just its invariants.
GOLDEN_COUNTERS = os.path.join(
    os.path.dirname(__file__), "golden", "chaos_seed0_counters.json"
)


@pytest.fixture(scope="module")
def chaos_report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chaos")
    return run_chaos(CHAOS_SEED, str(workdir))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_invariant_holds(chaos_report, name):
    (scenario,) = [s for s in chaos_report["scenarios"] if s["name"] == name]
    assert scenario["ok"], f"{name}: {scenario['failure']}"


def test_report_document_shape(chaos_report):
    assert chaos_report["ok"]
    assert chaos_report["seed"] == CHAOS_SEED
    assert chaos_report["trace"]["chunks"] >= 4  # sharding must be meaningful
    assert chaos_report["trace"]["records"] > 0
    assert len(chaos_report["scenarios"]) == len(SCENARIOS)
    json.dumps(chaos_report)  # CI uploads this: must be JSON-able


def test_counters_match_golden(chaos_report):
    counters = {}
    for scenario in chaos_report["scenarios"]:
        for key in ("counters", "victim_counters"):
            if key in scenario["detail"]:
                counters[scenario["name"]] = scenario["detail"][key]
    with open(GOLDEN_COUNTERS) as handle:
        assert counters == json.load(handle)


def test_chaos_trace_is_deterministic(tmp_path):
    first = str(tmp_path / "a.lbatrace")
    second = str(tmp_path / "b.lbatrace")
    assert build_chaos_trace(first, seed=3) == build_chaos_trace(second, seed=3)
    with TraceReader(first) as one, TraceReader(second) as two:
        assert [(c.records, c.crc) for c in one.chunks] == [
            (c.records, c.crc) for c in two.chunks
        ]


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario"):
        run_chaos(0, str(tmp_path), scenarios=["warp_core_breach"])


class TestCli:
    def test_list_prints_registry(self, capsys):
        assert chaos_cli(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(SCENARIOS)

    def test_single_scenario_run_and_json_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = chaos_cli([
            "--seed", "0", "--scenarios", "truncation_detected",
            "--workdir", str(tmp_path / "work"), "--json", str(report_path),
        ])
        assert rc == 0
        assert "all invariants held" in capsys.readouterr().out
        with open(report_path) as handle:
            document = json.load(handle)
        assert [s["name"] for s in document["scenarios"]] == ["truncation_detected"]
        assert document["ok"]
