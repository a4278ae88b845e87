"""Replay supervision: run a replay task in a worker process that is
allowed to crash, hang or report corruption -- and survive all three.

The :class:`ShardSupervisor` runs one :class:`multiprocessing` process
*per attempt*, one at a time, each reporting through its own pipe.  Each
attempt waits on ``multiprocessing.connection.wait`` for the result pipe
or the process sentinel, under the attempt timeout.  :meth:`ShardSupervisor.run`
is straight-line code:

* **attempts with backoff** -- crashes (exit without a result), timeouts
  (a worker exceeding :attr:`SupervisorPolicy.timeout_seconds` is
  terminated) and IO errors (``OSError`` from the reader) are retried up
  to :attr:`SupervisorPolicy.max_attempts` times, waiting
  ``backoff_seconds * backoff_multiplier**(attempt-1)`` between attempts;
* **bisection** -- a multi-chunk task that keeps dying is split into
  probe halves, recursively, to isolate the poison chunk(s); probe
  results are discarded;
* **final run** -- the full task is re-run with the poison chunks
  skipped, so every surviving chunk still passes through a single
  lifeguard, in order, exactly like an in-worker quarantine would;
* **graceful fallback** -- a task whose workers are spent is replayed
  in-process as a last resort (disable via
  :attr:`SupervisorPolicy.in_process_fallback` when hunting poison chunks
  that would kill the parent too);
* **structured failure records** -- every attempt that dies produces a
  :class:`ShardFailure`; unrecoverable tasks either raise
  :class:`ReplayError` (``strict``) or quarantine their chunks with exact
  record accounting (``degrade``).

Deterministic worker *exceptions* are not retried: a
:class:`~repro.trace.tracefile.TraceFormatError` escaping a strict-mode
worker will fail identically on every attempt, so the supervisor raises
:class:`ReplayError` immediately, naming the task.  Only ``OSError``
(environmental IO) is treated as retryable among exceptions.

The supervisor is generic over the task type: tasks must be frozen
dataclasses exposing ``trace_path``, ``chunks``, ``chunk_records``,
``skip``, ``quarantine`` and ``collect_timing`` (see
``repro.trace.replay.ShardTask``), and ``runner(task)`` must be a
picklable module-level callable.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Quarantine policies: ``strict`` raises on any damaged/poison chunk,
#: ``degrade`` skips it and reports exact skipped-chunk/record accounting.
QUARANTINE_POLICIES = ("strict", "degrade")


class ReplayError(RuntimeError):
    """A replay failed unrecoverably.

    Carries the failing task's trace path, chunks and lifeguard so
    callers (and operators reading logs) know exactly what was lost.
    """

    def __init__(
        self,
        message: str,
        trace_path: Optional[str] = None,
        chunks: Sequence[int] = (),
        lifeguard: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.trace_path = trace_path
        self.chunks = tuple(chunks)
        self.lifeguard = lifeguard


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the replay supervision loop."""

    #: Wall-clock budget per worker attempt; ``None`` disables timeouts.
    timeout_seconds: Optional[float] = 300.0
    #: Attempts per task (first run + retries) before bisection/fallback.
    max_attempts: int = 3
    #: Base delay before the first retry of a task.
    backoff_seconds: float = 0.05
    #: Multiplier applied to the backoff for each further retry.
    backoff_multiplier: float = 2.0
    #: Replay a task in-process once its retries are spent.
    #: Turn off when a poison chunk could take the parent down with it.
    in_process_fallback: bool = True
    #: Fractional jitter applied to each backoff delay, spreading the
    #: retries of simultaneously-failing replays (say, gateway sessions) so
    #: they do not stampede a shared resource (disk, gateway worker slot)
    #: in lockstep.  ``0.25`` means each delay lands uniformly in
    #: ``[0.75x, 1.25x]`` of the exponential schedule.  The jitter is
    #: *seeded*: a fixed :attr:`jitter_seed` plus the caller's ``salt``
    #: (task identity) and the attempt number fully determine every
    #: delay, so retry schedules are reproducible run after run.
    backoff_jitter: float = 0.0
    #: Seed anchoring the deterministic jitter sequence.
    jitter_seed: int = 0
    #: ``multiprocessing`` start method for worker processes (``None`` =
    #: platform default).  Callers that spawn replays from *threaded*
    #: parents (the monitoring gateway's executor) should use
    #: ``"forkserver"``: plain ``fork`` from a multi-threaded process can
    #: clone held locks into the child and deadlock it, which then costs a
    #: full attempt timeout to recover.
    start_method: Optional[str] = None

    def attempts_for(self, phase: str) -> int:
        """Attempts a phase gets, at least one; probes get one fewer: they
        exist to fail fast."""
        if phase == "probe":
            return max(1, self.max_attempts - 1)
        return max(1, self.max_attempts)

    def backoff_for(self, attempt: int, salt: int = 0) -> float:
        """Delay before retry number ``attempt`` (1-based) of task ``salt``.

        ``salt`` distinguishes tasks retrying at the same attempt number:
        with jitter enabled, distinct salts draw distinct (but seeded,
        hence reproducible) delays from the same exponential base.
        """
        delay = self.backoff_seconds * (self.backoff_multiplier ** max(0, attempt - 1))
        if self.backoff_jitter:
            if not 0.0 < self.backoff_jitter <= 1.0:
                raise ValueError(
                    f"backoff_jitter must be in (0, 1], got {self.backoff_jitter}"
                )
            rng = random.Random(f"{self.jitter_seed}:{salt}:{attempt}")
            delay *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass(frozen=True)
class ShardFailure:
    """One failed worker attempt (picklable, for ReplayResult.failures)."""

    trace_path: str
    chunks: Tuple[int, ...]
    attempt: int
    kind: str  # "timeout" | "crash" | "error"
    phase: str  # "work" | "probe" | "final" | "fallback"
    detail: str
    elapsed: float


@dataclass(frozen=True)
class QuarantinedChunk:
    """A chunk excluded from replay, with exact record accounting."""

    trace_path: str
    chunk: int
    records: int
    reason: str  # "corrupt" | "poison" | "exhausted" | "isolated"
    detail: str = ""


@dataclass
class SupervisorOutcome:
    """Everything a supervision run produced."""

    #: the task's result (from a worker, a final run after bisection or the
    #: in-process fallback); ``None`` when ``degrade`` gave the task up.
    #: Bisection probe results are never kept.
    result: Optional[object] = None
    failures: List[ShardFailure] = field(default_factory=list)
    #: supervisor-level quarantines (exhausted task); worker-level
    #: quarantines ride inside the task result itself
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: wall seconds of the attempt that produced ``result``: worker spawn,
    #: task hand-off, compute and result return (the in-process call for
    #: a fallback result)
    seconds: float = 0.0

    def bump(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _child_main(runner, task, conn) -> None:
    """Worker process entry: run the task, report through the pipe.

    A worker killed by SIGKILL / ``os._exit`` sends nothing -- the
    supervisor reads that from the exit code.  Exceptions are reported as
    ``("error", type_name, message, retryable)``; only ``OSError`` is
    environmental and therefore retryable.
    """
    try:
        result = runner(task)
    except BaseException as exc:  # noqa: BLE001 -- everything must cross the pipe
        try:
            conn.send(("error", type(exc).__name__, str(exc), isinstance(exc, OSError)))
        except Exception:
            pass
        return
    try:
        conn.send(("ok", result))
    except Exception:
        pass
    finally:
        conn.close()


def _shard_salt(task) -> int:
    """Deterministic per-task jitter salt (stable across processes/runs).

    ``hash()`` is randomized per interpreter, so the salt is a CRC32 of
    the task's identity instead -- the same task always draws the same
    jittered backoff schedule.
    """
    chunks = getattr(task, "chunks", ())
    first = chunks[0] if chunks else -1
    identity = f"{getattr(task, 'trace_path', '')}:{first}:{len(chunks)}"
    return zlib.crc32(identity.encode())


def _effective_chunks(task) -> List[Tuple[int, int]]:
    """(chunk, records) pairs of a task minus its skip set."""
    return [
        (chunk, records)
        for chunk, records in zip(task.chunks, task.chunk_records)
        if chunk not in task.skip
    ]


def _stop(process, grace: float) -> None:
    """Reap a worker: give it ``grace`` seconds to exit, then terminate it,
    then kill it."""
    if process.pid is None:  # never started
        return
    process.join(grace)
    if process.is_alive():
        process.terminate()
        process.join(0.5)
    if process.is_alive():
        process.kill()
        process.join(5)


class ShardSupervisor:
    """Run one task in supervised worker processes, one attempt at a time.

    ``runner`` is executed in a child process per attempt.  :meth:`run` is
    straight-line: attempts with backoff; then, for a multi-chunk task,
    recursive bisection whose probe results are discarded; then a final
    whole-task run that skips the poison chunks; then the in-process
    fallback.  The task's own result lands in
    :attr:`SupervisorOutcome.result`.  No child process outlives its
    attempt: on every exit path (success, :class:`ReplayError`,
    ``KeyboardInterrupt``) the worker is terminated and joined.
    """

    def __init__(
        self,
        task: object,
        runner: Callable[[object], object],
        policy: Optional[SupervisorPolicy] = None,
        lifeguard: str = "",
    ) -> None:
        self.task = task
        self.runner = runner
        self.policy = policy or SupervisorPolicy()
        self.lifeguard = lifeguard
        start_method = self.policy.start_method
        self._mp = (
            multiprocessing.get_context(start_method) if start_method else multiprocessing
        )
        if start_method == "forkserver":
            # Import the runner's module once, in the fork server, so each
            # worker forks with the package loaded instead of importing it
            # again on every attempt.  Python 3.11's fork server ignores the
            # parent's ``sys.path``: the preload takes effect only where
            # ``repro`` is importable from the environment (``PYTHONPATH``
            # or an install), and is skipped otherwise.
            self._mp.set_forkserver_preload([runner.__module__])
        self._outcome = SupervisorOutcome()

    def run(self) -> SupervisorOutcome:
        """Execute the task; returns the outcome or raises ReplayError."""
        self._outcome = SupervisorOutcome()
        task = self.task
        if self._attempts(task, "work"):
            return self._outcome
        effective = _effective_chunks(task)
        if len(effective) > 1:
            self._outcome.bump("bisections")
            poison = sorted(chunk for chunk, _records in self._bisect(task, effective))
            if poison and task.quarantine != "degrade":
                raise ReplayError(
                    f"poison chunk(s) {poison} of {task.trace_path} isolated "
                    f"by span bisection (worker died on every attempt); re-run with "
                    f"quarantine='degrade' to skip them",
                    trace_path=task.trace_path,
                    chunks=poison,
                    lifeguard=self.lifeguard,
                )
            # Re-run the *full* task with the poison chunks skipped (none
            # when every probe survived: the failure was flaky): the worker
            # quarantines the skips itself, and the surviving chunks pass
            # through a single lifeguard in order -- the same state an
            # in-worker corruption quarantine produces.
            task = dataclasses.replace(task, skip=task.skip | frozenset(poison))
            if self._attempts(task, "final"):
                return self._outcome
        self._give_up(task)
        return self._outcome

    def _attempts(self, task, phase: str) -> bool:
        """Run ``task`` until a worker succeeds or the phase's attempts are
        spent, backing off between attempts; True on success."""
        for attempt in range(1, self.policy.attempts_for(phase) + 1):
            if attempt > 1:
                self._outcome.bump("worker_retries")
                time.sleep(self.policy.backoff_for(attempt - 1, salt=_shard_salt(task)))
            if phase == "probe":
                self._outcome.bump("bisect_probes")
            if self._attempt(task, phase, attempt):
                return True
        return False

    def _attempt(self, task, phase: str, attempt: int) -> bool:
        """One worker process; True when it returned a result.

        A result of the task itself (not a probe's) lands on the outcome
        with the attempt's seconds; a failure is recorded, and raises
        :class:`ReplayError` when the worker's exception is deterministic.
        """
        from multiprocessing.connection import wait

        receiver, sender = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_child_main, args=(self.runner, task, sender), daemon=True,
        )
        grace = 0.0
        started = time.monotonic()
        try:
            process.start()
            sender.close()
            ready = wait([receiver, process.sentinel], self.policy.timeout_seconds)
            message = None
            if ready:
                # The worker reported or died: let it exit on its own.
                grace = 5.0
                if receiver.poll(0):
                    try:
                        message = receiver.recv()
                    except EOFError:
                        pass
            elapsed = time.monotonic() - started
        finally:
            _stop(process, grace)
            receiver.close()
        retryable = True
        if message is not None and message[0] == "ok":
            if phase != "probe":
                self._outcome.result = message[1]
                self._outcome.seconds = elapsed
            return True
        if message is not None:
            _tag, type_name, text, retryable = message
            kind, detail = "error", f"{type_name}: {text}"
        elif ready:
            kind = "crash"
            detail = f"worker exited with code {process.exitcode} before reporting a result"
        else:
            kind = "timeout"
            detail = (
                f"worker exceeded the {self.policy.timeout_seconds:.3g}s "
                "attempt timeout and was terminated"
            )
        self._outcome.failures.append(
            ShardFailure(
                trace_path=task.trace_path,
                chunks=tuple(task.chunks),
                attempt=attempt,
                kind=kind,
                phase=phase,
                detail=detail,
                elapsed=round(elapsed, 6),
            )
        )
        self._outcome.bump(
            {"timeout": "worker_timeouts", "crash": "worker_crashes"}.get(
                kind, "worker_errors"
            )
        )
        if not retryable:
            # Deterministic worker exception: retrying cannot help.
            raise ReplayError(
                f"replay of chunks {list(task.chunks)} of {task.trace_path} "
                f"failed: {detail}",
                trace_path=task.trace_path,
                chunks=task.chunks,
                lifeguard=self.lifeguard,
            )
        return False

    def _bisect(self, task, effective: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Probe each half of ``effective`` and recurse into the halves whose
        workers keep dying; returns the poison (chunk, records) pairs."""
        poison: List[Tuple[int, int]] = []
        middle = len(effective) // 2
        for half in (effective[:middle], effective[middle:]):
            probe = dataclasses.replace(
                task,
                chunks=tuple(chunk for chunk, _records in half),
                chunk_records=tuple(records for _chunk, records in half),
                skip=frozenset(),
                collect_timing=False,
            )
            if not self._attempts(probe, "probe"):
                poison += self._bisect(task, half) if len(half) > 1 else half
        return poison

    def _give_up(self, task) -> None:
        """Workers are spent: replay in-process, else quarantine the task's
        chunks (``degrade``) or raise :class:`ReplayError`."""
        last = self._outcome.failures[-1]
        detail = last.detail
        if self.policy.in_process_fallback:
            self._outcome.bump("fallbacks_inprocess")
            started = time.monotonic()
            try:
                self._outcome.result = self.runner(task)
                self._outcome.seconds = time.monotonic() - started
                return
            except OSError as exc:
                self._outcome.failures.append(
                    ShardFailure(
                        trace_path=task.trace_path,
                        chunks=tuple(task.chunks),
                        attempt=last.attempt + 1,
                        kind="error",
                        phase="fallback",
                        detail=f"{type(exc).__name__}: {exc}",
                        elapsed=round(time.monotonic() - started, 6),
                    )
                )
                detail = f"in-process fallback also failed: {exc}"
            except Exception as exc:
                raise ReplayError(
                    f"replay of chunks {list(task.chunks)} of {task.trace_path} "
                    f"failed in-process after worker retries: {exc}",
                    trace_path=task.trace_path,
                    chunks=task.chunks,
                    lifeguard=self.lifeguard,
                ) from exc
        if task.quarantine == "degrade":
            for chunk, records in _effective_chunks(task):
                self._outcome.quarantined.append(
                    QuarantinedChunk(
                        trace_path=task.trace_path,
                        chunk=chunk,
                        records=records,
                        reason="exhausted",
                        detail=f"{last.kind} after {last.attempt} attempt(s): {detail}",
                    )
                )
            return
        raise ReplayError(
            f"replay of chunks {list(task.chunks)} of {task.trace_path} failed "
            f"after {last.attempt} attempt(s) ({last.kind}: {detail})",
            trace_path=task.trace_path,
            chunks=task.chunks,
            lifeguard=self.lifeguard,
        )
