"""Failing-program minimisation and replayable repro files.

Shrinking operates on the op-level IR (:class:`FuzzProgramSpec`), not on
lowered instructions: removing any subset of ops and re-lowering always
yields a well-formed program (prologue, epilogue and label tables are
regenerated), so the shrinker can bisect aggressively without ever
producing an unrunnable candidate.

The algorithm is instruction-window bisection (a ddmin variant): for each
thread, windows of half the op count are dropped first, halving the window
on failure to reproduce, down to single ops, and the whole sweep repeats
until a fixpoint.  The predicate decides "still failing" -- typically
"the oracle still raises :class:`FuzzFailure`" or "the injected bug is
still detected".

A **repro file** is a small JSON document carrying the exact spec (plus
the failure context when known).  ``load_repro`` + ``replay_repro`` re-run
the oracle on it deterministically; the nightly CI job uploads these for
every failing seed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Optional, Sequence, Tuple

from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    CaseResult,
    FuzzCase,
    FuzzFailure,
    run_case,
)
from repro.workloads.generator import FuzzProgramSpec, manifest_for, spec_digest

#: Repro-file format version (bumped on incompatible spec changes).
REPRO_VERSION = 1

Predicate = Callable[[FuzzProgramSpec], bool]


def _with_thread_ops(spec: FuzzProgramSpec, thread: int,
                     thread_ops: Tuple) -> FuzzProgramSpec:
    ops = list(spec.ops)
    ops[thread] = tuple(thread_ops)
    return replace(spec, ops=tuple(ops))


def _shrink_thread(spec: FuzzProgramSpec, thread: int, predicate: Predicate) -> FuzzProgramSpec:
    """Window-bisect one thread's op list down to a local minimum."""
    ops = list(spec.ops[thread])
    window = max(1, len(ops) // 2)
    while window >= 1:
        start = 0
        progressed = False
        while start < len(ops):
            if any(op.kind.startswith("bug_") for op in ops[start:start + window]):
                # Never drop the injected defect: the spec's ``bug`` field
                # (and hence the manifest) is immutable across shrinking, so
                # a candidate without the bug op would fail the detection
                # assertion vacuously and could hijack the predicate.
                start += window
                continue
            candidate_ops = ops[:start] + ops[start + window:]
            candidate = _with_thread_ops(spec, thread, tuple(candidate_ops))
            if predicate(candidate):
                ops = candidate_ops
                spec = candidate
                progressed = True
                # same ``start``: the next window slid into place
            else:
                start += window
        if window == 1 and not progressed:
            break
        window = window // 2 if window > 1 else (1 if progressed else 0)
    return spec


def shrink_spec(spec: FuzzProgramSpec, predicate: Predicate,
                max_rounds: int = 8) -> FuzzProgramSpec:
    """Minimise ``spec`` while ``predicate(spec)`` keeps holding.

    The predicate must hold for the input spec; the returned spec is
    1-minimal per window sweep (no single remaining window of any tried
    size can be removed), reached in at most ``max_rounds`` full sweeps.
    """
    if not predicate(spec):
        raise ValueError("predicate does not hold for the unshrunk spec")
    for _round in range(max_rounds):
        before = spec.total_ops()
        for thread in range(spec.threads):
            spec = _shrink_thread(spec, thread, predicate)
        if spec.total_ops() == before:
            break
    return spec


def oracle_failure_predicate(
    engines: Sequence[str] = DEFAULT_ENGINES,
    lifeguards: Optional[Sequence[str]] = None,
    match: Optional[FuzzFailure] = None,
) -> Predicate:
    """Predicate: "the differential oracle still fails on this spec".

    With ``match`` the failure must reproduce on the *same* leg and
    lifeguard as the original.  Without it, any failure counts -- which is
    almost never what shrinking wants: dropping a bug-injection op makes
    the manifest's detection assertion fail too, so an unpinned shrink can
    happily trade the original engine divergence for that unrelated
    failure and minimise the reproducer away.
    """

    def predicate(spec: FuzzProgramSpec) -> bool:
        try:
            run_case(FuzzCase.from_spec(spec), engines=engines,
                     lifeguards=lifeguards)
        except FuzzFailure as failure:
            if match is None:
                return True
            return (failure.leg == match.leg
                    and failure.lifeguard == match.lifeguard)
        except Exception:
            # An outright engine crash still counts as "failing" -- for a
            # pinned predicate only when the original failure was a crash
            # (the CLI wraps those with leg == "crash").
            return match is None or match.leg == "crash"
        return False

    return predicate


# ------------------------------------------------------------------ repro files


def save_repro(path: str, case: FuzzCase, failure: Optional[FuzzFailure] = None,
               note: str = "", leg_seconds: Optional[dict] = None) -> str:
    """Write a replayable repro file for ``case``; returns ``path``.

    ``leg_seconds`` (defaulting to the timing the failure carries) records
    the per-leg wall time of the run that failed, so slow legs in nightly
    runs are visible straight from the repro artifact.
    """
    if leg_seconds is None and failure is not None:
        leg_seconds = getattr(failure, "leg_seconds", None) or None
    document = {
        "version": REPRO_VERSION,
        "seed": case.seed,
        "digest": spec_digest(case.spec),
        "spec": case.spec.to_dict(),
        "failure": None
        if failure is None
        else {
            "leg": failure.leg,
            "lifeguard": failure.lifeguard,
            "message": str(failure),
        },
        "leg_seconds": leg_seconds,
        "note": note,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path: str) -> FuzzCase:
    """Rebuild the fuzz case stored in a repro file.

    The stored program digest is re-verified against the re-lowered spec,
    so a repro silently invalidated by a generator change fails loudly
    instead of replaying a different program.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("version")
    if version != REPRO_VERSION:
        raise ValueError(f"unsupported repro version {version!r} in {path}")
    spec = FuzzProgramSpec.from_dict(document["spec"])
    stored = document.get("digest")
    actual = spec_digest(spec)
    if stored is not None and stored != actual:
        raise ValueError(
            f"repro {path} digest mismatch: stored {stored[:12]}..., "
            f"re-lowered {actual[:12]}... (generator changed since capture?)"
        )
    return FuzzCase(spec=spec, manifest=manifest_for(spec))


def replay_repro(
    path: str,
    engines: Sequence[str] = DEFAULT_ENGINES,
    lifeguards: Optional[Sequence[str]] = None,
) -> CaseResult:
    """Load a repro file and run the oracle on it (raises on divergence)."""
    return run_case(load_repro(path), engines=engines, lifeguards=lifeguards)
