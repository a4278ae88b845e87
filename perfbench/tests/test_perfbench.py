"""Tests of the benchmark itself: tiny runs, teeth of the checks, seeding."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.isa.machine import Machine
from repro.lba.dispatch import EventDispatcher

from perfbench import children, gateway, ops, perlayer, run, workloads
from perfbench.layers import LayerTracer
from perfbench.reference import Outcome, ReferenceCache, mismatches

TINY_LIVE = ops.LiveOp("gzip", 0.25, "MemCheck", "LMA+IT+IF", True, True, True)
TINY_CAPTURE = ops.CaptureReplayOp("parser", 0.25, ("AddrCheck", "TaintCheck"))
SPURIOUS = ("uninitialized-read", "MemCheck", 0x40, 0x1000, 0, "spurious report")


def test_live_monitor_runs_and_checks_clean(tmp_path):
    executions, timed = workloads.measure("live_monitor", [TINY_LIVE], 0, str(tmp_path))
    failures = workloads.check("live_monitor", [TINY_LIVE], executions, ReferenceCache())
    assert len(executions) == 1 and timed > 0 and executions[0].peak_rss_mb > 0
    assert not failures
    assert executions[0].records > 0 and executions[0].slowdown > 1.0


def test_capture_replay_runs_and_checks_clean(tmp_path):
    executions, _timed = workloads.measure(
        "capture_replay", [TINY_CAPTURE], 0, str(tmp_path))
    failures = workloads.check("capture_replay", [TINY_CAPTURE], executions, ReferenceCache())
    assert not failures
    assert executions[0].audit is None
    assert len(executions[0].outcomes) == len(TINY_CAPTURE.lifeguards)


def test_gateway_upload_runs_and_drains(tmp_path):
    traces = [("parser", 0.25, str(tmp_path / "trace0.lbatrace"))]
    workloads.capture_trace("parser", traces[0][2], scale=0.25)
    served = gateway.ServedGateway(str(tmp_path))
    try:
        asyncio.run(served.wait_ready())
        schedule = [ops.GatewaySession(0, 0.0, 0, "TaintCheck"),
                    ops.GatewaySession(1, 0.05, 0, "AddrCheck")]
        sessions, _window = asyncio.run(gateway.drive(schedule, traces, served.port))
    finally:
        drain_code = served.drain()
    assert drain_code == 0
    failures = gateway.check_sessions(schedule, sessions, traces)
    assert not failures
    assert all(s.reply["report"]["result"]["records"] > 0 for s in sessions)


def test_traced_op_attributes_time_to_layers_and_restores(tmp_path):
    tracer = LayerTracer()
    with tracer.installed():
        executions, timed = workloads.measure(
            "live_monitor", [TINY_LIVE], 0, str(tmp_path), tracer)
    assert Machine.step.__qualname__ == "Machine.step"
    assert EventDispatcher.consume.__qualname__ == "EventDispatcher.consume"
    for layer in ("isa", "capture", "cache", "dispatch", "accelerator", "lifeguard", "timing"):
        assert tracer.self_seconds(layer) > 0, layer
    assert tracer.calls("isa") >= executions[0].counts["isa.instructions"] > 0
    assert 0.5 < tracer.covered_seconds() / timed <= 1.0
    assert executions[0].counts["dispatch.events_handled"] > 0
    assert tracer.chrome_trace()["traceEvents"]


def test_a_spurious_report_fails_the_op(tmp_path):
    executions, _timed = workloads.measure("live_monitor", [TINY_LIVE], 0, str(tmp_path))
    lifeguard, outcome = executions[0].outcomes[0]
    executions[0].outcomes = [
        (lifeguard, dataclasses.replace(outcome, reports=outcome.reports + (SPURIOUS,)))
    ]
    failures = workloads.check("live_monitor", [TINY_LIVE], executions, ReferenceCache())
    assert failures == {"mismatch": 1}


def test_a_dropped_report_or_record_is_a_mismatch():
    want = Outcome(records=10, events_handled=4, accelerator=(1, 2), dispatch=(3, 4),
                   reports=(SPURIOUS,))
    assert mismatches("gateway_upload", dataclasses.replace(want, reports=()), want) == ["reports"]
    assert mismatches("capture_replay", dataclasses.replace(want, records=9), want) == ["records"]
    assert mismatches("capture_replay", want, want) == []


def test_an_op_that_raises_is_counted_not_fatal():
    def explode(op, index):
        raise RuntimeError("boom")

    executions, _timed = workloads.run_passes([TINY_LIVE], explode, 0)
    failures = workloads.check_executions("live_monitor", [TINY_LIVE], executions, None)
    assert failures == {"exception": 1}


def test_a_hanging_child_is_killed_after_its_timeout():
    with subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                          stdout=subprocess.PIPE, text=True) as child:
        assert children.read_line(child, 0.2) == ""
        assert children.finish(child, 0.2) is None
        assert child.poll() is not None


def test_same_seed_same_mix_other_seed_other_mix():
    for draw in (ops.live_rounds, ops.capture_replay_rounds, ops.gateway_traces):
        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
    assert ops.gateway_schedule(3, 30) == ops.gateway_schedule(3, 30)
    assert ops.gateway_schedule(3, 30) != ops.gateway_schedule(4, 30)


def test_rounds_are_stratified():
    live = ops.live_rounds(5)
    assert len(live) == 1 + ops.SEEDED_LIVE_ROUNDS
    for ops_of_round in live:
        assert len({(op.lifeguard, op.stack) for op in ops_of_round}) == len(ops_of_round) == 16
    programs = ops.SPEC_PROGRAMS + ops.MT_PROGRAMS
    rounds = ops.capture_replay_rounds(5)
    for ops_of_round in rounds:
        assert sorted(op.program for op in ops_of_round) == sorted(programs)
        scales = Counter(op.scale for op in ops_of_round)
        assert set(scales.values()) == {len(programs) // len(ops.SCALES)}


def test_calibration_rounds_hold_the_same_ops_for_every_seed():
    def calibration(seed, draw, workload):
        rounds = draw(seed)[:ops.CALIBRATION_ROUNDS[workload]]
        return sorted(op.key for ops_of_round in rounds for op in ops_of_round)

    for draw, workload in ((ops.live_rounds, "live_monitor"),
                           (ops.capture_replay_rounds, "capture_replay")):
        assert calibration(3, draw, workload) == calibration(4, draw, workload)
    # capture_replay's calibration is every program at every scale.
    assert len(set(calibration(3, ops.capture_replay_rounds, "capture_replay"))) == (
        len(ops.SPEC_PROGRAMS + ops.MT_PROGRAMS) * len(ops.SCALES))


def test_benchmark_json_lists_what_the_runner_prints():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    seeds = f"default {ops.DEFAULT_SEED}, held out {ops.HELD_OUT_SEED}"
    assert any(seeds in w["why"] for w in doc["workloads"])
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == perlayer.metric_names()
    execution = workloads.Execution(index=0, seconds=1.0, records=10, cycles_per_record=[2.0])
    outcome = workloads.RunOutcome(1, 1, [execution], Counter())
    printed = workloads.end_to_end_metrics(outcome)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [("setup_s", "s")] + [
        (name, unit) for name, (_value, unit) in printed.items()
    ]


def test_records_per_s_is_scaled_to_the_reference_host_speed():
    def execution(seconds, host_s):
        return workloads.Execution(index=0, seconds=seconds, records=100,
                                   cycles_per_record=[2.0], host_s=host_s)

    ref = workloads.HOST_REF_S
    steady = workloads.RunOutcome(1, 1, [execution(1.0, ref)] * 3, Counter())
    # The same op on a host running at half speed takes twice as long.
    slowed = workloads.RunOutcome(1, 1, [execution(2.0, 2 * ref)] * 3, Counter())
    assert workloads.end_to_end_metrics(slowed)["records_per_s"] == (100.0, "records/s")
    assert workloads.end_to_end_metrics(steady)["records_per_s"] == (100.0, "records/s")
