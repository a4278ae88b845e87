"""Hot-path throughput benchmarks with a tracked JSON trajectory.

Measures the consumer pipeline stage by stage -- codec encode/decode
(reference and columnar), shadow-map writes and fills, per-record vs
columnar dispatch, and end-to-end trace replay -- and writes the
results to ``BENCH_hotpath.json`` so the perf trajectory is tracked
in-repo.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py              # hot path
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke      # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick --check
    PYTHONPATH=src python benchmarks/run_benchmarks.py --output out.json

The ``--smoke`` mode shrinks every record count so the whole suite finishes
in a few seconds; it exists so CI can prove the benchmark entrypoints still
run, not to produce meaningful numbers.  ``--quick`` runs the real mcf
workload with fewer timing repeats (comparable numbers, a fraction of the
wall time), and ``--check`` turns the run into a regression guard: it
fails (exit code 1) if any replay stage drops more than
``CHECK_TOLERANCE`` below the committed ``BENCH_hotpath.json`` values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.lba.columnar import ColumnarEngine
from repro.lifeguards import ALL_LIFEGUARDS
from repro.memory.shadow import TwoLevelShadowMap
from repro.trace.codec import (
    RecordColumns,
    decode_record_columns,
    decode_records,
    encode_records,
)
from repro.obs import observed, snapshot_document
from repro.trace.replay import build_pipeline, replay_trace
from repro.trace.tracefile import TraceReader, TraceWriter

#: Pre-PR (dict-backed, per-record, enum-dict dispatch) throughput, measured
#: on the same container right before the hot-path overhaul landed, on a
#: captured ``mcf`` (scale 1.0) trace -- the workload the full run also
#: measures, so the speedups are apples to apples.  Kept in-repo so every
#: future run reports its speedup against the original baseline, not just
#: against the previous run.
BASELINE_PRE_PR = {
    "codec_encode": 558_609,
    "shadow_write": 1_206_519,
    "shadow_fill_bytes": 5_676_075,
    "replay_TaintCheck": 79_899,
    "replay_MemCheck": 53_674,
}

#: Unit per stage (everything else is records/second).
STAGE_UNITS = {
    "shadow_write": "elements/s",
    "shadow_fill_bytes": "app_bytes/s",
}

#: Stages the ``--check`` regression guard compares against the committed
#: BENCH_hotpath.json, and the allowed fraction of the committed value.
CHECK_STAGES = (
    "replay_MemCheck",
    "replay_TaintCheck",
)
CHECK_TOLERANCE = 0.70


def synthetic_records(count):
    """A loop-like stream mixing propagation, checks and rare annotations."""
    records = []
    heap = 0x0900_0000
    for i in range(count):
        if i % 512 == 0:
            records.append(
                AnnotationRecord(
                    event_type=EventType.MALLOC, address=heap + (i // 512) * 4096,
                    size=2048, pc=0x0804_7F00, thread_id=0,
                )
            )
        slot = heap + (i % 512) * 4
        if i % 3:
            records.append(
                InstructionRecord(
                    pc=0x0804_8000 + 4 * (i % 64), event_type=EventType.MEM_TO_REG,
                    dest_reg=i % 8, src_addr=slot, size=4, is_load=True,
                    base_reg=(i + 1) % 8,
                )
            )
        else:
            records.append(
                InstructionRecord(
                    pc=0x0804_8000 + 4 * (i % 64), event_type=EventType.REG_TO_MEM,
                    src_reg=i % 8, dest_addr=slot, size=4, is_store=True,
                    base_reg=(i + 2) % 8,
                )
            )
    return records


def _best_of(repeats, func):
    """Best wall-clock of ``repeats`` runs (rates use the fastest run)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_codec(records, repeats):
    stages = {}
    elapsed, data = _best_of(repeats, lambda: encode_records(records))
    stages["codec_encode"] = round(len(records) / elapsed)

    # The reference decoder: one record object per row.
    elapsed, decoded = _best_of(repeats, lambda: decode_records(data, len(records)))
    assert decoded == records, "reference decode diverged"
    stages["codec_decode_per_record"] = round(len(records) / elapsed)

    elapsed, columns = _best_of(
        repeats, lambda: decode_record_columns(data, len(records))
    )
    assert columns.records() == records, "columnar decode diverged"
    stages["codec_decode_columns"] = round(len(records) / elapsed)
    return stages


def bench_shadow(element_writes, fill_rounds, repeats):
    stages = {}

    def writes():
        shadow = TwoLevelShadowMap(16, 14, 1)
        write_element = shadow.write_element
        for i in range(element_writes):
            write_element(0x0900_0000 + (i % 65536) * 4, i & 0xFF)
        return shadow

    elapsed, _ = _best_of(repeats, writes)
    stages["shadow_write"] = round(element_writes / elapsed)

    fill_span = 256 * 1024

    def fills():
        shadow = TwoLevelShadowMap(16, 14, 1)
        for _ in range(fill_rounds):
            shadow.fill_bits(0x0900_0000, fill_span, 2, 0b01)
        return shadow

    elapsed, _ = _best_of(repeats, fills)
    stages["shadow_fill_bytes"] = round(fill_rounds * fill_span / elapsed)
    return stages


def bench_dispatch(records, lifeguard_name, repeats):
    """Per-record vs columnar dispatch over an in-memory record list."""
    stages = {}

    def per_record():
        lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
        _, dispatcher = build_pipeline(lifeguard)
        consume = dispatcher.consume
        for record in records:
            consume(record)
        return dispatcher.stats

    elapsed, per_stats = _best_of(repeats, per_record)
    stages[f"dispatch_per_record_{lifeguard_name}"] = round(len(records) / elapsed)

    columns = RecordColumns.from_records(records)

    def columnar():
        lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
        _, dispatcher = build_pipeline(lifeguard)
        ColumnarEngine(dispatcher).consume_columns(columns)
        return dispatcher.stats

    elapsed, columnar_stats = _best_of(repeats, columnar)
    stages[f"dispatch_columnar_{lifeguard_name}"] = round(len(records) / elapsed)
    assert per_stats == columnar_stats, "columnar dispatch diverged from per-record"
    return stages


def bench_replay(trace_path, total_records, lifeguards, repeats):
    stages = {}
    for name in lifeguards:
        elapsed, result = _best_of(repeats, lambda name=name: replay_trace(trace_path, name))
        assert result.records == total_records
        stages[f"replay_{name}"] = round(total_records / elapsed)
    return stages


def run(smoke=False, scale=1.0, quick=False):
    # Best-of-N timing: N=9 rides out scheduler noise on small containers
    # (each stage pass is well under a second, so this stays cheap).
    # Quick mode keeps the real workload but trims the repeats -- numbers
    # stay comparable, the wall time drops to a CI-friendly handful of
    # seconds.
    repeats = 1 if smoke else (3 if quick else 9)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "hotpath.lbatrace")
        if smoke:
            # Smoke mode: a small synthetic stream; proves the entrypoints
            # run, numbers are not comparable to the tracked baseline.
            workload = "synthetic"
            records = synthetic_records(8_000)
            with TraceWriter(trace_path, chunk_bytes=64 * 1024) as writer:
                writer.extend(records)
        else:
            # Full mode: the same captured mcf workload the pre-PR baseline
            # was measured on.
            workload = "mcf"
            capture_trace("mcf", trace_path, scale=scale)
            with TraceReader(trace_path) as reader:
                records = list(reader.iter_records())

        stages = {}
        stages.update(bench_codec(records, repeats))
        stages.update(
            bench_shadow(
                element_writes=20_000 if smoke else 200_000,
                fill_rounds=2 if smoke else 20,
                repeats=repeats,
            )
        )
        stages.update(bench_dispatch(records, "TaintCheck", repeats))
        stages.update(bench_dispatch(records, "MemCheck", repeats))
        stages.update(
            bench_replay(trace_path, len(records), ("TaintCheck", "MemCheck"), repeats)
        )

        # One extra, untimed replay pass with telemetry on: the timed
        # stages above keep the historical zero-overhead numbers, while
        # this pass produces the metrics/trace sidecars that explain
        # them (written next to the BENCH JSON by main()).
        with observed() as obs:
            replay_trace(trace_path, "MemCheck")
            replay_trace(trace_path, "TaintCheck")
            metrics_snapshot = snapshot_document(
                obs.registry,
                meta={
                    "tool": "benchmarks/run_benchmarks.py",
                    "benchmark": "hotpath",
                    "workload": workload,
                    "lifeguards": ["MemCheck", "TaintCheck"],
                },
            )
            trace_snapshot = obs.tracer.to_chrome_trace()

    # Speedups are only meaningful for the workload the baseline used.
    speedup = {}
    if not smoke:
        speedup = {
            stage: round(stages[stage] / baseline, 2)
            for stage, baseline in BASELINE_PRE_PR.items()
            if stages.get(stage)
        }
    return {
        "benchmark": "hotpath",
        "mode": "smoke" if smoke else ("quick" if quick else "full"),
        "workload": workload,
        "records": len(records),
        "units": {stage: STAGE_UNITS.get(stage, "records/s") for stage in stages},
        "stages": stages,
        "baseline_pre_pr": dict(BASELINE_PRE_PR),
        "speedup_vs_pre_pr_baseline": speedup,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Sidecar payloads: popped by main() and written to
        # <output>.metrics.json / <output>.trace.json, never into the
        # BENCH file itself.
        "metrics_snapshot": metrics_snapshot,
        "trace_snapshot": trace_snapshot,
    }


def check_regression(results, committed):
    """Fail (return non-zero) if a replay stage regressed past the tolerance.

    Compares the just-measured replay stages against the committed
    ``BENCH_hotpath.json`` stage values (loaded *before* the run, since
    the run may rewrite that file); a stage below ``CHECK_TOLERANCE``
    times its committed value means the hot path lost more throughput
    than run-to-run noise explains.
    """
    failures = []
    for stage in CHECK_STAGES:
        reference = committed.get(stage)
        measured = results["stages"].get(stage)
        if not reference or not measured:
            continue
        floor = reference * CHECK_TOLERANCE
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  check {stage}: {measured:,} vs committed {reference:,} "
            f"(floor {round(floor):,}) {status}"
        )
        if measured < floor:
            failures.append(stage)
    if failures:
        print(f"benchmark check FAILED: {', '.join(failures)} below "
              f"{CHECK_TOLERANCE:.0%} of the committed throughput")
        return 1
    print("benchmark check passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny record counts: proves the entrypoints run (CI), numbers meaningless",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="real workload, fewer timing repeats: comparable numbers, CI-friendly wall time",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail if replay throughput drops >30%% below the committed BENCH_hotpath.json",
    )
    parser.add_argument(
        "--check-baseline", default=None,
        help="baseline JSON for --check (default: the committed BENCH_hotpath.json)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale for the captured mcf trace in full mode (default 1.0)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON results (default: repo-root BENCH_hotpath.json)",
    )
    args = parser.parse_args(argv)
    if args.check and args.smoke:
        # --check compares the replay stages against the committed
        # full-mode baseline; smoke numbers are not comparable, so the
        # combination would always fail.
        parser.error("--check requires full or --quick mode")
    if args.output:
        output = args.output
    elif args.smoke or args.quick:
        # Don't let a lower-fidelity run silently replace the committed
        # baseline at the repo root.
        output = os.path.join(tempfile.gettempdir(), "BENCH_hotpath.json")
    else:
        output = os.path.join(_ROOT, "BENCH_hotpath.json")

    committed = None
    if args.check:
        # Load the committed baseline before running: the default output
        # path is the baseline file itself.
        baseline_path = args.check_baseline or os.path.join(_ROOT, "BENCH_hotpath.json")
        try:
            with open(baseline_path) as handle:
                committed = json.load(handle).get("stages", {})
        except OSError as exc:
            print(f"benchmark check: cannot read baseline {baseline_path}: {exc}")
            return 1

    results = run(smoke=args.smoke, scale=args.scale, quick=args.quick)

    # Telemetry sidecars ride next to the BENCH file, not inside it: the
    # BENCH JSON stays a small tracked trajectory while the sidecars hold
    # the full counter snapshot and Perfetto-loadable span trace that
    # explain its numbers (compare runs with ``python -m repro.obs diff``).
    base = output[:-len(".json")] if output.endswith(".json") else output
    metrics_snapshot = results.pop("metrics_snapshot", None)
    trace_snapshot = results.pop("trace_snapshot", None)
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if metrics_snapshot is not None:
        with open(base + ".metrics.json", "w") as handle:
            json.dump(metrics_snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace_snapshot is not None:
        with open(base + ".trace.json", "w") as handle:
            json.dump(trace_snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(f"wrote {output}")
    if metrics_snapshot is not None:
        print(f"wrote {base}.metrics.json (+ {base}.trace.json)")
    width = max(len(stage) for stage in results["stages"])
    for stage, rate in sorted(results["stages"].items()):
        unit = results["units"][stage]
        note = ""
        if stage in results["speedup_vs_pre_pr_baseline"]:
            note = f"   ({results['speedup_vs_pre_pr_baseline'][stage]}x vs pre-PR)"
        print(f"  {stage:<{width}}  {rate:>14,} {unit}{note}")
    if args.check:
        return check_regression(results, committed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
