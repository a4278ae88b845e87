"""Differential fuzzing subsystem.

Machine-generated scenario coverage with a ground-truth oracle: seeded,
structurally diverse (optionally multithreaded, optionally buggy) programs
from :mod:`repro.workloads.generator` are pushed through *every* dispatch
engine the platform offers -- the per-record loop, the run-grouped
columnar engine, offline trace replay, the full live platform and the
multi-core platform -- and
the oracle asserts that they agree bit for bit (reports, statistics,
cycles, and the internal accelerator state: IT table, Idempotent-Filter
sets with LRU order, M-TLB CAM), that every injected bug class is detected
by its matching lifeguard, and that clean seeds stay completely silent.

Entry points:

* :func:`repro.fuzz.oracle.run_case` -- run one fuzz case through the
  engine matrix (raises :class:`FuzzFailure` on any divergence);
* :func:`repro.fuzz.shrink.shrink_spec` -- minimise a failing program by
  instruction-window bisection over the op IR;
* ``python -m repro.fuzz --seeds 0:25`` -- the CLI harness (seed blocks,
  shrinking, replayable repro files).
"""

from repro.fuzz.oracle import (
    DEFAULT_CORES,
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
    "DEFAULT_CORES",
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
