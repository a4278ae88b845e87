"""Replay supervision: run a replay task in a worker process that is
allowed to crash, hang or report corruption -- and survive all three.

The :class:`ShardSupervisor` runs one :class:`multiprocessing` process
*per attempt*, one at a time, each reporting through its own pipe, under a
supervision loop that provides:

* **per-attempt timeouts** -- a worker that exceeds
  :attr:`SupervisorPolicy.timeout_seconds` is terminated and the task is
  retried;
* **bounded retry with exponential backoff** -- crashes (nonzero exit
  without a result), timeouts and IO errors (``OSError`` from the reader)
  are retried up to :attr:`SupervisorPolicy.max_attempts` times, waiting
  ``backoff_seconds * backoff_multiplier**(attempt-1)`` between attempts;
* **bisection** -- a multi-chunk task that keeps dying is split into
  probe halves (results discarded) to isolate the poison chunk(s); the
  full task is then re-run with the poison chunks skipped, so every
  surviving chunk still passes through a single lifeguard, in order,
  exactly like an in-worker quarantine would;
* **graceful fallback** -- a task that exhausts its retries without
  bisecting is replayed in-process as a last resort (disable via
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
``skip`` and ``quarantine`` (see ``repro.trace.replay.ShardTask``), and
``runner(task)`` must be a picklable module-level callable.
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
    #: Split repeatedly-failing multi-chunk tasks to isolate poison chunks.
    bisect: bool = True
    #: Replay a task in-process once its retries are spent.
    #: Turn off when a poison chunk could take the parent down with it.
    in_process_fallback: bool = True
    #: Supervision loop poll interval.
    poll_seconds: float = 0.02
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
        """Probes get one fewer attempt: they exist to fail fast."""
        if phase == "probe":
            return max(1, self.max_attempts - 1)
        return self.max_attempts

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


class _Pending:
    """A task queued for (re-)execution."""

    __slots__ = ("task", "phase", "attempts", "ready_at", "group", "fallback_tried")

    def __init__(self, task, phase: str = "work", group=None) -> None:
        self.task = task
        self.phase = phase
        self.attempts = 0
        self.ready_at = 0.0
        self.group = group
        self.fallback_tried = False


class _Running:
    """A task attempt currently executing in a worker process."""

    __slots__ = ("pending", "process", "conn", "started", "deadline")

    def __init__(self, pending, process, conn, started, deadline) -> None:
        self.pending = pending
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline


class _BisectGroup:
    """Bookkeeping for one task being bisected to isolate poison chunks."""

    __slots__ = ("base", "outstanding", "poison")

    def __init__(self, base: _Pending) -> None:
        self.base = base
        self.outstanding = 0
        self.poison: List[Tuple[int, int]] = []  # (chunk, records)


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


class ShardSupervisor:
    """Run one task in supervised worker processes, one attempt at a time.

    ``runner`` is executed in a child process per attempt.  Probe results
    are discarded; the task's own result (or its fallback's) lands in
    :attr:`SupervisorOutcome.result`.  The supervisor guarantees no child
    process outlives :meth:`run` -- on any exit path (success,
    :class:`ReplayError`, ``KeyboardInterrupt``) every worker is
    terminated and joined.
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
        self._mp = (
            multiprocessing.get_context(self.policy.start_method)
            if self.policy.start_method
            else multiprocessing
        )
        self._queue: List[_Pending] = []
        self._running: List[_Running] = []
        self._outcome = SupervisorOutcome()

    # ------------------------------------------------------------------ driving

    def run(self) -> SupervisorOutcome:
        """Execute the task; returns the outcome or raises ReplayError."""
        self._queue = [_Pending(self.task)]
        self._running = []
        self._outcome = SupervisorOutcome()
        try:
            while self._queue or self._running:
                self._launch_ready()
                if not self._running:
                    # Everything queued is backing off; sleep to the nearest.
                    now = time.monotonic()
                    wake = min(p.ready_at for p in self._queue)
                    time.sleep(min(max(wake - now, 0.0), 0.25) or self.policy.poll_seconds)
                    continue
                progressed = self._poll_running()
                if not progressed:
                    time.sleep(self.policy.poll_seconds)
        finally:
            # Every exit path -- success, ReplayError, KeyboardInterrupt --
            # must leave no child process behind.
            self._terminate_all()
        return self._outcome

    def _launch_ready(self) -> None:
        if self._running:
            return
        now = time.monotonic()
        index = next((i for i, p in enumerate(self._queue) if p.ready_at <= now), None)
        if index is None:
            return
        pending = self._queue.pop(index)
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_child_main,
            args=(self.runner, pending.task, child_conn),
            daemon=True,
        )
        # The launch stamp is taken immediately before the process
        # starts so a result's (received - launched) interval measures
        # exactly spawn + task hand-off + compute + result return.
        started = time.monotonic()
        process.start()
        child_conn.close()
        deadline = (
            None
            if self.policy.timeout_seconds is None
            else started + self.policy.timeout_seconds
        )
        if pending.phase == "probe":
            self._outcome.bump("bisect_probes")
        self._running.append(_Running(pending, process, parent_conn, started, deadline))

    def _poll_running(self) -> bool:
        progressed = False
        now = time.monotonic()
        for running in list(self._running):
            message = None
            if running.conn.poll(0):
                try:
                    message = running.conn.recv()
                except EOFError:
                    message = None
            if message is not None:
                received = time.monotonic()
                self._reap(running)
                progressed = True
                if message[0] == "ok":
                    result = message[1]
                    timing = getattr(result, "timing", None)
                    if timing is not None:
                        # Hand-off/arrival stamps: what _worker_timing
                        # turns into the worker's ipc_s.
                        timing["mono_launched"] = running.started
                        timing["mono_received"] = received
                    self._on_success(running.pending, result)
                else:
                    _tag, type_name, text, retryable = message
                    self._on_failure(
                        running.pending, "error", f"{type_name}: {text}",
                        now - running.started, retryable=retryable,
                    )
            elif not running.process.is_alive():
                self._reap(running)
                progressed = True
                self._on_failure(
                    running.pending, "crash",
                    f"worker exited with code {running.process.exitcode} "
                    "before reporting a result",
                    now - running.started,
                )
            elif running.deadline is not None and now >= running.deadline:
                self._kill(running)
                self._reap(running, join=False)
                progressed = True
                self._on_failure(
                    running.pending, "timeout",
                    f"worker exceeded the {self.policy.timeout_seconds:.3g}s "
                    "attempt timeout and was terminated",
                    now - running.started,
                )
        return progressed

    def _reap(self, running: _Running, join: bool = True) -> None:
        self._running.remove(running)
        if join:
            running.process.join(timeout=5)
            if running.process.is_alive():
                self._kill(running)
        running.conn.close()

    def _kill(self, running: _Running) -> None:
        process = running.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)

    def _terminate_all(self) -> None:
        for running in list(self._running):
            self._kill(running)
            running.conn.close()
        self._running = []

    # ------------------------------------------------------------------ events

    def _on_success(self, pending: _Pending, result) -> None:
        if pending.phase == "probe":
            self._probe_settled(pending.group)
        else:
            self._outcome.result = result

    def _on_failure(
        self,
        pending: _Pending,
        kind: str,
        detail: str,
        elapsed: float,
        retryable: bool = True,
    ) -> None:
        task = pending.task
        pending.attempts += 1
        self._outcome.failures.append(
            ShardFailure(
                trace_path=task.trace_path,
                chunks=tuple(task.chunks),
                attempt=pending.attempts,
                kind=kind,
                phase=pending.phase,
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
        if pending.attempts < self.policy.attempts_for(pending.phase):
            self._outcome.bump("worker_retries")
            pending.ready_at = time.monotonic() + self.policy.backoff_for(
                pending.attempts, salt=_shard_salt(task)
            )
            self._queue.append(pending)
            return
        self._exhausted(pending, kind, detail)

    # -------------------------------------------------------------- exhaustion

    def _exhausted(self, pending: _Pending, kind: str, detail: str) -> None:
        effective = _effective_chunks(pending.task)
        if pending.phase == "probe":
            group = pending.group
            if len(effective) > 1:
                self._enqueue_probe_halves(group, effective)
            else:
                group.poison.extend(effective)
            self._probe_settled(group)
            return
        if pending.phase == "work" and self.policy.bisect and len(effective) > 1:
            self._outcome.bump("bisections")
            group = _BisectGroup(pending)
            self._enqueue_probe_halves(group, effective)
            return
        self._give_up(pending, kind, detail)

    def _enqueue_probe_halves(
        self, group: _BisectGroup, effective: List[Tuple[int, int]]
    ) -> None:
        middle = len(effective) // 2
        for half in (effective[:middle], effective[middle:]):
            probe_task = dataclasses.replace(
                group.base.task,
                chunks=tuple(chunk for chunk, _records in half),
                chunk_records=tuple(records for _chunk, records in half),
                skip=frozenset(),
                collect_timing=False,
            )
            group.outstanding += 1
            self._queue.append(_Pending(probe_task, phase="probe", group=group))

    def _probe_settled(self, group: _BisectGroup) -> None:
        group.outstanding -= 1
        if group.outstanding > 0:
            return
        base = group.base
        task = base.task
        if not group.poison:
            # Every probe survived individually: the failure was flaky (or a
            # resource interaction).  One final full-task round.
            final = _Pending(task, phase="final")
            self._queue.append(final)
            return
        poison_chunks = sorted(chunk for chunk, _records in group.poison)
        if task.quarantine != "degrade":
            raise ReplayError(
                f"poison chunk(s) {poison_chunks} of {task.trace_path} isolated "
                f"by span bisection (worker died on every attempt); re-run with "
                f"quarantine='degrade' to skip them",
                trace_path=task.trace_path,
                chunks=poison_chunks,
                lifeguard=self.lifeguard,
            )
        # Re-run the *full* task with the poison chunks skipped: the worker
        # quarantines the skips itself, and the surviving chunks pass
        # through a single lifeguard in order -- the same state an
        # in-worker corruption quarantine produces.
        final_task = dataclasses.replace(
            task, skip=task.skip | frozenset(poison_chunks)
        )
        self._queue.append(_Pending(final_task, phase="final"))

    def _give_up(self, pending: _Pending, kind: str, detail: str) -> None:
        task = pending.task
        if self.policy.in_process_fallback and not pending.fallback_tried:
            pending.fallback_tried = True
            self._outcome.bump("fallbacks_inprocess")
            started = time.monotonic()
            try:
                self._outcome.result = self.runner(task)
                return
            except OSError as exc:
                self._outcome.failures.append(
                    ShardFailure(
                        trace_path=task.trace_path,
                        chunks=tuple(task.chunks),
                        attempt=pending.attempts + 1,
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
                        detail=f"{kind} after {pending.attempts} attempt(s): {detail}",
                    )
                )
            return
        raise ReplayError(
            f"replay of chunks {list(task.chunks)} of {task.trace_path} failed "
            f"after {pending.attempts} attempt(s) ({kind}: {detail})",
            trace_path=task.trace_path,
            chunks=task.chunks,
            lifeguard=self.lifeguard,
        )
