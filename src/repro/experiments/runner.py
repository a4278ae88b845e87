"""Run every experiment and print (or save) the regenerated tables/figures.

Installed as the ``repro-experiments`` console script::

    repro-experiments                # run everything at the default scale
    repro-experiments --quick        # smaller benchmark subset, faster
    repro-experiments --output out.txt

Capture-once/replay-many: workloads can be executed a single time into
chunked trace files, then re-analysed repeatedly without re-running them::

    repro-experiments --capture-traces traces/          # bank the workloads
    repro-experiments --replay-traces traces/

Multi-core platform (N application cores streaming per-core logs to N
lifeguard cores through a shard router)::

    repro-experiments --cores 4                  # multi-core report
    repro-experiments --cores 8 --core-sweep     # scaling curve 1..8 cores
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.analysis.profiler import Profiler
from repro.experiments.figure02 import format_figure02, run_figure02
from repro.experiments.figure10 import format_figure10, run_figure10
from repro.experiments.figure11 import format_figure11, run_figure11
from repro.experiments.figure12 import format_figure12, run_figure12
from repro.experiments.figure13 import format_figure13, run_figure13
from repro.experiments.figure14 import format_figure14, run_figure14
from repro.experiments.harness import (
    capture_trace,
    core_scaling_sweep,
    lifeguard_classes,
    run_multicore,
    trace_path_for,
)
from repro.trace.replay import replay_trace
from repro.trace.supervisor import QUARANTINE_POLICIES
from repro.workloads.base import workload_names

#: Benchmark subset used by ``--quick`` (spans memory-bound and CPU-bound).
QUICK_SPEC = ("bzip2", "gcc", "mcf", "crafty")
QUICK_MT = ("pbzip2", "water_nq")

#: Lifeguards replayed over stored traces by default (single-threaded suite).
REPLAY_LIFEGUARDS = ("AddrCheck", "MemCheck", "TaintCheck")


def capture_all(trace_dir: str, quick: bool = False, scale: float = 1.0) -> List[str]:
    """Capture every (single-threaded) benchmark into ``trace_dir`` once."""
    os.makedirs(trace_dir, exist_ok=True)
    benchmarks = list(QUICK_SPEC) if quick else workload_names(multithreaded=False)
    lines = [f"captured traces -> {trace_dir}", ""]
    for benchmark in benchmarks:
        path = trace_path_for(trace_dir, benchmark)
        stats = capture_trace(benchmark, path, scale=scale)
        lines.append(
            f"  {benchmark:<12} {stats.records:>9} records  "
            f"{stats.stored_bytes:>9} bytes stored  "
            f"({stats.bytes_per_record:.2f} B/record, "
            f"x{stats.compression_ratio:.1f} zlib, {stats.chunks} chunks)"
        )
    return lines


def replay_all(
    trace_dir: str,
    lifeguards: Sequence[str] = REPLAY_LIFEGUARDS,
    quarantine: str = "strict",
) -> List[str]:
    """Replay every stored trace through each lifeguard; returns report lines."""
    paths = sorted(glob.glob(os.path.join(trace_dir, "*.lbatrace")))
    if not paths:
        raise FileNotFoundError(f"no *.lbatrace files in {trace_dir!r} (run --capture-traces)")
    lines = [f"replaying {len(paths)} traces from {trace_dir}", ""]
    for path in paths:
        benchmark = os.path.splitext(os.path.basename(path))[0]
        for name in lifeguards:
            result = replay_trace(path, name, quarantine=quarantine)
            quarantined = (
                f"  [{len(result.skipped_chunks)} chunks / "
                f"{result.skipped_records} records quarantined]"
                if result.skipped_chunks else ""
            )
            lines.append(
                f"  {benchmark:<12} {name:<18} {result.records:>9} records  "
                f"{result.dispatch.events_handled:>9} events  "
                f"{result.errors_detected:>3} errors  "
                f"{result.records_per_second:>12,.0f} rec/s{quarantined}"
            )
    return lines


def multicore_report(
    cores: int,
    shard_policy: str = "address",
    quick: bool = False,
    scale: float = 1.0,
    lifeguards: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run every lifeguard on the multi-core platform; returns report lines."""
    lines = [
        f"multi-core platform: {cores} application + {cores} lifeguard cores "
        f"(shard policy: {shard_policy})"
    ]
    if cores > 1:
        lines.append(
            "  note: sharded monitoring gives each lifeguard core a private "
            "metadata view (shared-state annotations are broadcast), so "
            "stateful lifeguards' reports are per-shard approximations; "
            "N=1 reproduces the dual-core reports exactly"
        )
    lines.append("")
    for lifeguard_cls in lifeguard_classes(lifeguards):
        multithreaded = lifeguard_cls.name == "LockSet"
        benchmarks = (
            list(QUICK_MT if multithreaded else QUICK_SPEC)
            if quick
            else workload_names(multithreaded=multithreaded)
        )
        for benchmark in benchmarks:
            result = run_multicore(
                lifeguard_cls, benchmark, cores=cores,
                shard_policy=shard_policy, scale=scale,
            )
            timing = result.merged.timing
            lines.append(
                f"  {benchmark:<12} {lifeguard_cls.name:<18} "
                f"slowdown {result.slowdown:>6.2f}x  "
                f"{timing.records:>8} records  "
                f"{result.stats.forwarded_records:>6} forwarded  "
                f"{len(result.reports):>3} errors"
            )
    return lines


def core_sweep_report(
    cores_list: Sequence[int],
    benchmark: str = "mcf",
    lifeguard: str = "MemCheck",
    shard_policy: str = "address",
    scale: float = 1.0,
) -> List[str]:
    """Core-count scaling sweep over one (benchmark, lifeguard) pair."""
    lines = [
        f"core-count scaling sweep: {benchmark} under {lifeguard} "
        f"(shard policy: {shard_policy})",
        "",
        f"  {'cores':>5} {'records':>9} {'slowdown':>9} {'lg finish cycles':>17} "
        f"{'forwarded':>10} {'wall s':>8}",
    ]
    for row in core_scaling_sweep(
        benchmark, lifeguard, cores_list=cores_list,
        shard_policy=shard_policy, scale=scale,
    ):
        lines.append(
            f"  {row['cores']:>5} {row['records']:>9} {row['slowdown']:>9.2f} "
            f"{row['lifeguard_finish_cycles']:>17,} {row['forwarded_records']:>10} "
            f"{row['wall_seconds']:>8.2f}"
        )
    return lines


def run_all(quick: bool = False, scale: float = 1.0) -> List[str]:
    """Run every experiment and return the formatted sections."""
    spec = list(QUICK_SPEC) if quick else None
    sections: List[str] = []
    profiler = Profiler()

    sections.append(format_figure02(run_figure02()))

    # Figures 10-12 use the per-lifeguard benchmark suites.  Under --quick
    # the SPEC suite is narrowed for the four single-threaded lifeguards and
    # LOCKSET is run separately on a narrowed multithreaded suite (an
    # explicit benchmark list applies to every lifeguard it is passed with).
    if quick:
        spec_lifeguards = ["AddrCheck", "MemCheck", "TaintCheck", "TaintCheckDetailed"]
        figure10 = run_figure10(lifeguards=spec_lifeguards, benchmarks=spec, scale=scale)
        lockset10 = run_figure10(lifeguards=["LockSet"], benchmarks=list(QUICK_MT), scale=scale)
        figure10.slowdowns.update(lockset10.slowdowns)
        figure10.errors.update(lockset10.errors)
        figure11 = run_figure11(lifeguards=spec_lifeguards, benchmarks=spec, scale=scale)
        lockset11 = run_figure11(lifeguards=["LockSet"], benchmarks=list(QUICK_MT), scale=scale)
        figure11.averages.update(lockset11.averages)
        figure11.per_benchmark.update(lockset11.per_benchmark)
        figure12 = run_figure12(lifeguards=spec_lifeguards, benchmarks=spec, scale=scale)
        lockset12 = run_figure12(lifeguards=["LockSet"], benchmarks=list(QUICK_MT), scale=scale)
        figure12.lma_instruction_reduction.update(lockset12.lma_instruction_reduction)
        figure12.if_check_reduction.update(lockset12.if_check_reduction)
    else:
        figure10 = run_figure10(scale=scale)
        figure11 = run_figure11(scale=scale)
        figure12 = run_figure12(scale=scale)
    sections.append(format_figure10(figure10))
    sections.append(format_figure11(figure11))
    sections.append(format_figure12(figure12))
    sections.append(format_figure13(run_figure13(benchmarks=spec, scale=scale, profiler=profiler)))
    sections.append(format_figure14(run_figure14(benchmarks=spec, scale=scale, profiler=profiler)))
    return sections


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use a reduced benchmark subset for a faster run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--output", type=str, default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--capture-traces", metavar="DIR", default=None,
                        help="capture each benchmark's log into DIR once and exit")
    parser.add_argument("--replay-traces", metavar="DIR", default=None,
                        help="replay previously captured traces from DIR and exit")
    parser.add_argument("--lifeguards", nargs="+", default=list(REPLAY_LIFEGUARDS),
                        help="lifeguards used with --replay-traces")
    parser.add_argument("--quarantine", choices=QUARANTINE_POLICIES, default="strict",
                        help="damaged-chunk policy for --replay-traces: 'strict' "
                             "fails on the first corrupt chunk, 'degrade' skips "
                             "it and reports exact record accounting")
    parser.add_argument("--cores", type=int, default=1,
                        help="application/lifeguard core pairs; >1 runs the "
                             "multi-core platform report instead of the figures")
    parser.add_argument("--shard-policy", choices=("address", "thread"), default="address",
                        help="record-to-lifeguard-core routing policy for --cores")
    parser.add_argument("--core-sweep", action="store_true",
                        help="run a core-count scaling sweep up to --cores and exit")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="enable pipeline telemetry and write the metrics "
                             "snapshot (JSON) to FILE when the run finishes")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="enable pipeline telemetry and write the stage spans "
                             "as Chrome trace-event JSON (Perfetto-loadable) to FILE")
    args = parser.parse_args(argv)
    if args.cores < 1:
        parser.error("--cores must be >= 1")
    telemetry = args.metrics_out is not None or args.trace_out is not None
    if telemetry:
        from repro.obs import enable

        enable()

    start = time.time()
    if args.capture_traces:
        sections = ["\n".join(capture_all(args.capture_traces, quick=args.quick,
                                          scale=args.scale))]
    elif args.replay_traces:
        sections = ["\n".join(replay_all(args.replay_traces, lifeguards=args.lifeguards,
                                         quarantine=args.quarantine))]
    elif args.core_sweep:
        cores_list = [c for c in (1, 2, 4, 8, 16) if c <= max(args.cores, 1)]
        if cores_list[-1] != args.cores:
            cores_list.append(args.cores)
        sections = ["\n".join(core_sweep_report(cores_list,
                                                shard_policy=args.shard_policy,
                                                scale=args.scale))]
    elif args.cores > 1:
        sections = ["\n".join(multicore_report(args.cores,
                                               shard_policy=args.shard_policy,
                                               quick=args.quick, scale=args.scale))]
    else:
        sections = run_all(quick=args.quick, scale=args.scale)
    report = "\n\n" + "\n\n".join(sections) + "\n"
    report += f"\n(total experiment time: {time.time() - start:.1f}s)\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    if telemetry:
        import json

        from repro.obs import snapshot_document
        from repro.obs.runtime import OBS

        if args.metrics_out and OBS.registry is not None:
            if OBS.recorder is not None:
                OBS.recorder.flush_to(OBS.registry)
            document = snapshot_document(
                OBS.registry, meta={"tool": "repro.experiments.runner"}
            )
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics snapshot written to {args.metrics_out}", file=sys.stderr)
        if args.trace_out and OBS.tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(OBS.tracer.to_chrome_trace(), handle)
                handle.write("\n")
            print(f"chrome trace written to {args.trace_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
