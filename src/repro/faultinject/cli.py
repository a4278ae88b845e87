"""``python -m repro.faultinject`` -- run the replay chaos suite.

Examples::

    python -m repro.faultinject                        # full suite, seed 0
    python -m repro.faultinject --seed 7 --json out.json
    python -m repro.faultinject --scenarios sigkill_recovers,poison_degrade
    python -m repro.faultinject --list

Exit status is non-zero when any scenario's invariant fails, so the
command slots directly into CI as a fault-tolerance smoke gate.  The
``--json`` report is the artifact to upload on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Optional, Sequence

from repro.faultinject.chaos import SCENARIOS, run_chaos


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faultinject",
        description="Deterministic fault-injection chaos suite for "
                    "supervised trace replay.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + fault-targeting seed (default 0)")
    parser.add_argument("--scenarios", default=None, metavar="A,B,...",
                        help="comma-separated scenario subset (default: all)")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="keep traces/claim state in DIR instead of a "
                             "temporary directory")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full report document to PATH "
                             "('-' for stdout)")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    return parser


def _emit(report: dict, json_path: Optional[str]) -> None:
    if json_path == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for scenario in report["scenarios"]:
        status = "ok  " if scenario["ok"] else "FAIL"
        line = f"{status} {scenario['name']} ({scenario['seconds']:.2f}s)"
        if scenario["failure"]:
            line += f": {scenario['failure']}"
        print(line)
    trace = report["trace"]
    verdict = "all invariants held" if report["ok"] else "INVARIANT VIOLATED"
    print(
        f"chaos seed {report['seed']}: {len(report['scenarios'])} scenario(s) "
        f"over {trace['chunks']} chunks / {trace['records']} records -- {verdict}"
    )
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {json_path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    scenarios = args.scenarios.split(",") if args.scenarios else None
    if args.workdir is not None:
        report = run_chaos(args.seed, args.workdir, scenarios)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            report = run_chaos(args.seed, workdir, scenarios)
    _emit(report, args.json)
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
