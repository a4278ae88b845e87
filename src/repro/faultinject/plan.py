"""Deterministic worker-fault plans for supervised replay.

A :class:`FaultPlan` is attached to replay work via
``ShardTask.fault_plan`` and fired by the replay worker once per chunk
read (:func:`repro.trace.replay._replay_shard`).  Each :class:`FaultSpec`
names a *chunk index* and a fault kind:

* ``sigkill`` -- the worker kills itself with ``SIGKILL`` (no cleanup, no
  exit message: the supervisor must detect the crash from the exit code);
* ``exit``    -- the worker dies via ``os._exit`` (skips ``finally``
  blocks and the result pipe, like a segfaulting C extension);
* ``hang``    -- the worker sleeps for :attr:`FaultPlan.hang_seconds`
  (exercises the per-attempt timeout path);
* ``io_error`` -- the worker raises ``OSError`` (environmental IO
  failure: the one *exception* class the supervisor retries).

Determinism is the whole point: chaos tests must reproduce byte-identical
outcomes run after run.  Two mechanisms provide it:

1. **Seeded targeting** -- :meth:`FaultPlan.from_seed` picks target chunks
   and kinds with ``random.Random(seed)``, so a seed plus trace geometry
   fully determines the plan.
2. **Cross-process claim files** -- ``times=N`` means "the first N
   attempts that reach this chunk fire".  Worker processes cannot share
   memory (and a SIGKILL'd worker cannot update anything), so attempts
   claim a slot by creating ``fault<i>_try<n>.claim`` files in
   :attr:`FaultPlan.state_dir` with ``O_CREAT | O_EXCL`` -- an atomic
   filesystem test-and-set that is exact even when attempts race.
   ``times=None`` means "every attempt fires" (a permanently poison
   chunk) and needs no claims.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Worker-fault kinds a plan can inject (file-level damage lives in
#: :mod:`repro.faultinject.corrupt`).
FAULT_KINDS = ("sigkill", "exit", "hang", "io_error")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *kind* fires when a worker reads *chunk*."""

    kind: str
    chunk: int
    #: How many attempts fire (claimed atomically across processes);
    #: ``None`` = every attempt, i.e. a permanently poison chunk.
    times: Optional[int] = 1
    #: Exit status used by the ``exit`` kind.
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultSpec` plus the shared claim state."""

    specs: Tuple[FaultSpec, ...]
    #: Directory for claim files; must exist and be shared by every worker
    #: attempt (it is what makes ``times`` exact across processes).
    state_dir: str
    #: Sleep length of the ``hang`` kind; far longer than any sane
    #: attempt timeout so a hang never resolves on its own.
    hang_seconds: float = 3600.0

    @classmethod
    def single(
        cls,
        state_dir: str,
        kind: str,
        chunk: int,
        times: Optional[int] = 1,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Plan with exactly one fault -- the common chaos-test shape."""
        return cls(
            specs=(FaultSpec(kind=kind, chunk=chunk, times=times),),
            state_dir=state_dir,
            hang_seconds=hang_seconds,
        )

    @classmethod
    def from_seed(
        cls,
        state_dir: str,
        seed: int,
        num_chunks: int,
        kinds: Sequence[str] = FAULT_KINDS,
        faults: int = 1,
        times: Optional[int] = 1,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Seeded plan: deterministically pick ``faults`` distinct chunks."""
        if num_chunks < 1:
            raise ValueError("cannot target a trace with no chunks")
        rng = random.Random(seed)
        chunks = sorted(rng.sample(range(num_chunks), min(faults, num_chunks)))
        specs = tuple(
            FaultSpec(kind=rng.choice(list(kinds)), chunk=chunk, times=times)
            for chunk in chunks
        )
        return cls(specs=specs, state_dir=state_dir, hang_seconds=hang_seconds)

    # ------------------------------------------------------------------ firing

    def fire(self, chunk: int) -> None:
        """Called by the worker before reading ``chunk``; may not return."""
        for index, spec in enumerate(self.specs):
            if spec.chunk == chunk and self._claim(index, spec):
                self._execute(spec)

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        """Atomically claim one firing slot; False when all are spent."""
        if spec.times is None:
            return True
        for slot in range(spec.times):
            path = os.path.join(self.state_dir, f"fault{index}_try{slot}.claim")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, f"{os.getpid()}\n".encode())
            os.close(fd)
            return True
        return False

    def _execute(self, spec: FaultSpec) -> None:
        if spec.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "exit":
            os._exit(spec.exit_code)
        elif spec.kind == "hang":
            time.sleep(self.hang_seconds)
        elif spec.kind == "io_error":
            raise OSError(
                f"injected IO error reading chunk {spec.chunk} "
                f"(pid {os.getpid()})"
            )

    # -------------------------------------------------------------- inspection

    def fired(self, index: Optional[int] = None) -> int:
        """Number of claimed firings (all specs, or just spec ``index``).

        ``times=None`` specs fire without claiming, so they never count
        here.
        """
        prefix = "fault" if index is None else f"fault{index}_"
        return sum(
            1
            for name in os.listdir(self.state_dir)
            if name.startswith(prefix) and name.endswith(".claim")
        )
