"""``python -m repro.fuzz`` -- the differential-fuzzing harness CLI.

Runs seed blocks through the engine-pairing oracle, minimises failures by
instruction-window bisection, and emits replayable repro files:

* ``python -m repro.fuzz --seeds 0:25`` -- the tier-1 block;
* ``python -m repro.fuzz --seeds 0:500 --shrink`` -- the nightly block (failing seeds are shrunk and written to
  ``--repro-dir``);
* ``python -m repro.fuzz --replay fuzz-repros/seed_42.json`` -- re-run a
  stored repro deterministically (add ``--describe`` to print the stored
  failure context and per-leg timing without running anything);
* ``python -m repro.fuzz --seeds 0:8 --describe`` -- print the seed ->
  scenario mapping without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    FuzzCase,
    FuzzFailure,
    run_case,
)
from repro.fuzz.shrink import (
    oracle_failure_predicate,
    replay_repro,
    save_repro,
    shrink_spec,
)
from repro.lifeguards import ALL_LIFEGUARDS
from repro.workloads.generator import generate_spec, manifest_for, profile_for_seed


def _parse_seeds(text: str) -> List[int]:
    """Parse ``A:B`` (half-open range) or a comma-separated seed list."""
    if ":" in text:
        start_text, stop_text = text.split(":", 1)
        start, stop = int(start_text or 0), int(stop_text)
        if stop <= start:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(start, stop))
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing: seeded programs through every "
                    "dispatch engine, with ground-truth bug manifests.",
    )
    parser.add_argument("--seeds", type=_parse_seeds, default=None, metavar="A:B|a,b,c",
                        help="seed range (half-open A:B) or comma list (default 0:25)")
    parser.add_argument("--engines", nargs="+", choices=DEFAULT_ENGINES,
                        default=list(DEFAULT_ENGINES), metavar="ENGINE",
                        help=f"engine legs to run (default: all of {', '.join(DEFAULT_ENGINES)})")
    parser.add_argument("--lifeguards", nargs="+", choices=sorted(ALL_LIFEGUARDS),
                        default=None, metavar="NAME",
                        help="lifeguards to check (default: all five)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimise failing seeds by op-window bisection before "
                             "writing their repro files")
    parser.add_argument("--repro-dir", default="fuzz-repros", metavar="DIR",
                        help="directory for repro files of failing seeds "
                             "(default: fuzz-repros)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay one stored repro file instead of a seed block")
    parser.add_argument("--inject-faults", action="store_true",
                        help="also damage a copy of each seed's round-trip "
                             "trace and require degrade-mode replay to "
                             "quarantine exactly the damaged chunk (strict "
                             "mode must raise)")
    parser.add_argument("--describe", action="store_true",
                        help="print the seed -> scenario mapping and exit")
    parser.add_argument("--max-failures", type=int, default=10, metavar="N",
                        help="stop after N failing seeds (default 10)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failures and the final summary")
    return parser


def _format_leg_seconds(leg_seconds: Optional[Dict[str, float]]) -> str:
    if not leg_seconds:
        return ""
    parts = [f"{leg} {seconds:.2f}s" for leg, seconds in
             sorted(leg_seconds.items(), key=lambda item: -item[1])]
    return ", ".join(parts)


def _describe_repro(path: str) -> int:
    """Print a stored repro's context (failure, per-leg timing) and exit."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    print(f"repro {path}: seed {document.get('seed')} "
          f"(version {document.get('version')})")
    failure = document.get("failure")
    if failure:
        print(f"  failure: [{failure.get('leg')}/{failure.get('lifeguard')}] "
              f"{failure.get('message')}")
    else:
        print("  failure: none recorded")
    timing = _format_leg_seconds(document.get("leg_seconds"))
    if timing:
        print(f"  leg wall time: {timing}")
    note = document.get("note")
    if note:
        print(f"  note: {note}")
    return 0


def _describe(seeds: Sequence[int]) -> None:
    for seed in seeds:
        config = profile_for_seed(seed)
        spec = generate_spec(seed)
        manifest = manifest_for(spec)
        scenario = manifest.bug or "clean"
        taint = "+taint" if config.tainted_input else ""
        print(f"seed {seed:>5}: {scenario:<22} threads={config.threads}{taint} "
              f"ops={spec.total_ops()}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.replay is not None:
        if args.describe:
            return _describe_repro(args.replay)
        try:
            result = replay_repro(args.replay, engines=args.engines,
                                  lifeguards=args.lifeguards)
        except FuzzFailure as failure:
            print(f"REPLAY FAIL {args.replay}: {failure}")
            timing = _format_leg_seconds(failure.leg_seconds)
            if timing:
                print(f"  leg wall time: {timing}")
            return 1
        print(f"REPLAY OK {args.replay}: seed {result.seed} "
              f"({result.bug or 'clean'}), {result.records} records, "
              f"engines {', '.join(result.engines)}")
        timing = _format_leg_seconds(result.leg_seconds)
        if timing:
            print(f"  leg wall time: {timing}")
        return 0

    seeds = args.seeds if args.seeds is not None else list(range(25))
    if args.describe:
        _describe(seeds)
        return 0

    failures: List[FuzzFailure] = []
    leg_totals: Dict[str, float] = {}
    started = time.perf_counter()
    checked = 0
    for seed in seeds:
        checked += 1
        case = FuzzCase.from_seed(seed)
        seed_started = time.perf_counter()
        try:
            result = run_case(case, engines=args.engines, lifeguards=args.lifeguards,
                              inject_faults=args.inject_faults)
        except Exception as error:
            if isinstance(error, FuzzFailure):
                failure = error
            else:
                # An engine crashed outright instead of diverging -- exactly
                # the class of bug a fuzzer exists to record.  Wrap it so the
                # seed still gets a repro file and the block keeps going.
                failure = FuzzFailure(
                    seed, "crash", "-",
                    f"{type(error).__name__}: {error}")
            for leg, seconds in (failure.leg_seconds or {}).items():
                leg_totals[leg] = leg_totals.get(leg, 0.0) + seconds
            failures.append(failure)
            print(f"FAIL {failure}")
            spec = case.spec
            if args.shrink:
                predicate = oracle_failure_predicate(
                    args.engines, args.lifeguards, match=failure)
                try:
                    spec = shrink_spec(spec, predicate)
                    print(f"  shrunk seed {seed}: {case.spec.total_ops()} -> "
                          f"{spec.total_ops()} ops")
                except ValueError:
                    # Flaky or crash failures may not reproduce under the
                    # predicate; keep the unshrunk spec rather than dying.
                    print(f"  seed {seed} did not reproduce under the shrink "
                          f"predicate; writing the unshrunk repro")
            os.makedirs(args.repro_dir, exist_ok=True)
            path = os.path.join(args.repro_dir, f"seed_{seed}.json")
            save_repro(path, FuzzCase.from_spec(spec), failure=failure)
            print(f"  repro written to {path}")
            if len(failures) >= args.max_failures:
                print(f"stopping after {len(failures)} failures")
                break
            continue
        for leg, seconds in result.leg_seconds.items():
            leg_totals[leg] = leg_totals.get(leg, 0.0) + seconds
        if not args.quiet:
            elapsed = time.perf_counter() - seed_started
            detected = f" detected by {', '.join(result.detected_by)}" if result.detected_by else ""
            print(f"ok seed {seed:>5}: {result.bug or 'clean':<22} "
                  f"{result.records:>6} records {elapsed:6.2f}s{detected}")

    elapsed = time.perf_counter() - started
    if leg_totals and not args.quiet:
        print(f"leg wall time: {_format_leg_seconds(leg_totals)}")
    rate = f", {checked / elapsed:.2f} seeds/s" if elapsed > 0 else ""
    print(f"{checked - len(failures)}/{checked} seeds agree across "
          f"{len(args.engines)} engine legs in {elapsed:.1f}s{rate}"
          + (f"; {len(failures)} FAILING" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
