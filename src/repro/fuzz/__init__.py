"""Differential fuzzing subsystem.

Machine-generated scenario coverage with a ground-truth oracle: seeded,
structurally diverse (optionally multithreaded, optionally buggy) programs
from :mod:`repro.workloads.generator` are pushed through every dispatch
engine the platform offers -- the per-record loop (the reference), the
run-grouped columnar engine, offline trace replay and the live platform.
The oracle asserts that every leg reports what the reference reports, in
order, with equal dispatch and accelerator statistics (the live leg, which
also models the cache hierarchy, leaves out lifeguard cycles); the
columnar leg must also match the internal accelerator state (IT table,
Idempotent-Filter sets with LRU order, M-TLB CAM).  Against ground truth,
every injected bug class must be detected by its matching lifeguard, and
on a clean seed the reference, and so every leg, must stay silent.

Entry points:

* :func:`repro.fuzz.oracle.run_case` -- run one fuzz case through the
  engine matrix (raises :class:`FuzzFailure` on any divergence);
* :func:`repro.fuzz.shrink.shrink_spec` -- minimise a failing program by
  instruction-window bisection over the op IR;
* ``python -m repro.fuzz --seeds 0:25`` -- the CLI harness (seed blocks,
  shrinking, replayable repro files).
"""

from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    CaseResult,
    FuzzCase,
    FuzzFailure,
    run_case,
    run_seed,
)
from repro.fuzz.shrink import (
    load_repro,
    replay_repro,
    save_repro,
    shrink_spec,
)
from repro.workloads.generator import (
    BUG_CLASSES,
    BugManifest,
    FuzzConfig,
    FuzzProgramSpec,
    build_fuzz_programs,
    generate_spec,
    manifest_for,
    profile_for_seed,
    program_digest,
    spec_digest,
)

__all__ = [
    "BUG_CLASSES",
    "BugManifest",
    "CaseResult",
    "DEFAULT_ENGINES",
    "FuzzCase",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzProgramSpec",
    "build_fuzz_programs",
    "generate_spec",
    "load_repro",
    "manifest_for",
    "profile_for_seed",
    "program_digest",
    "replay_repro",
    "run_case",
    "run_seed",
    "save_repro",
    "shrink_spec",
    "spec_digest",
]
