"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload live_monitor --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (each
metric a ``{"value", "unit"}`` pair).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that reports the per-layer metrics and writes a Chrome trace under
``perfbench/out/``.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.ops import DEFAULT_SEED  # noqa: E402  (needs the paths above)

WORKLOADS = ("live_monitor", "capture_replay", "gateway_upload")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
#: Half run before the timed region and the rest after it, so that one
#: slow spell of the host does not take them all.
SETUP_PROBES = {"live_monitor": 9, "capture_replay": 9, "gateway_upload": 3}
PROBE_TIMEOUT_S = 120


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="op time to measure (at least one whole pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args()


def closed_loop_setup(workload: str, workdir: str) -> None:
    """Imports plus one fixed warm-up op: what precedes the first timed op."""
    from perfbench import ops, workloads

    if workload == "live_monitor":
        workloads.run_live_op(ops.warmup_live_op())
    else:
        workloads.run_capture_replay_op(
            ops.warmup_capture_replay_op(), workloads.trace_path_in(workdir))


def probe_setup(workload: str, seed: int, workdir: str) -> Tuple[float, float]:
    """Seconds from starting a fresh process until it is ready to time an op.

    Returns them as measured and as scaled to the reference host speed by
    the reference process, timed just before and just after the probe
    (see ``perfbench.hostspeed``).
    """
    from perfbench.children import finish, read_line
    from perfbench.hostspeed import PROCESS_REF_S, process_speed_s

    before = process_speed_s()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=workdir, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = read_line(child, PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        code = finish(child, PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed, elapsed * PROCESS_REF_S / ((before + process_speed_s()) / 2)


def run_setup_probe(workload: str, seed: int) -> int:
    """Set up, say ``ready``, then release what set-up started."""
    workdir = os.getcwd()
    if workload != "gateway_upload":
        closed_loop_setup(workload, workdir)
        print("ready", flush=True)
        return 0
    from perfbench import gateway

    _traces, served = gateway.start(seed, workdir)
    print("ready", flush=True)
    return 0 if served.drain() == 0 else 1


def run_closed_loop_workload(args, workdir: str):
    """Returns failures, attempted, metrics, and for traced runs the table and trace."""
    from perfbench import ops as op_mix
    from perfbench import perlayer, workloads

    closed_loop_setup(args.workload, workdir)
    rounds = (op_mix.live_rounds(args.seed) if args.workload == "live_monitor"
              else op_mix.capture_replay_rounds(args.seed))
    if not args.trace:
        outcome = workloads.run_closed_loop(args.workload, rounds, args.seconds, workdir)
        return (outcome.failures, outcome.attempted,
                workloads.end_to_end_metrics(outcome), None, None)

    # One seeded round is enough for the per-layer figures.
    traced = workloads.traced_run(args.workload, rounds[-1], workdir)
    values = dict(traced.values)
    values["bench.failed_share"] = traced.failed / traced.attempted
    document = traced.tracer.chrome_trace({"table": values})
    return traced.failures, traced.attempted, perlayer.complete(values), values, document


def finish(args, failures, attempted: int, metrics: dict, table, document) -> None:
    """Chrome trace to a file; failures and per-layer table to stderr; result line."""
    if document is not None:
        document["otherData"].update(workload=args.workload, seed=args.seed)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        print(f"chrome trace: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    if table is not None:
        print(f"per-layer table: {args.workload}", file=sys.stderr)
        for name in sorted(table):
            print(f"  {name:42s} {table[name]:.6g}", file=sys.stderr)
    for cause, count in sorted(failures.items()):
        print(f"FAILED {count} op(s): {cause}", file=sys.stderr)
    failed = sum(failures.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


def main() -> int:
    args = parse_args()
    if args.setup_probe:
        return run_setup_probe(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # The traced run reports no set-up time, so it probes none.
        probes = 0 if args.trace else SETUP_PROBES[args.workload]
        setup = [probe_setup(args.workload, args.seed, workdir) for _ in range(probes // 2)]
        if args.workload == "gateway_upload":
            from perfbench import gateway

            failures, attempted, metrics, table, document = gateway.run(args, workdir)
        else:
            failures, attempted, metrics, table, document = run_closed_loop_workload(
                args, workdir)
        if probes:
            setup += [probe_setup(args.workload, args.seed, workdir)
                      for _ in range(probes - len(setup))]
            print(f"unscaled setup_s: {statistics.median(raw for raw, _ in setup):.4f}",
                  file=sys.stderr)
            setup_s = statistics.median(scaled for _raw, scaled in setup)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
        finish(args, failures, attempted, metrics, table, document)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
