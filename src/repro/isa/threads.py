"""Two-or-more-thread execution for the multithreaded (LOCKSET) workloads.

The paper runs each multithreaded benchmark with two worker threads pinned
to the application core (``sched_setaffinity``), so from the lifeguard's
point of view the event stream is a single interleaved sequence of records
tagged with thread ids.  :class:`ThreadedMachine` reproduces that: it holds
one :class:`repro.isa.machine.Machine` context per thread over a shared
address space, heap and lock table, and interleaves them round-robin with a
fixed quantum.  Lock contention blocks a thread until the holder releases.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.events import AnnotationRecord, EventType
from repro.isa.machine import (
    DEFAULT_HEAP_SIZE,
    Machine,
    MachineError,
    MachineStats,
    Record,
    RecordObserver,
)
from repro.isa.program import Program
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator


class LockManager:
    """A shared table of application locks keyed by lock address."""

    def __init__(self) -> None:
        self._owners: Dict[int, int] = {}
        self.acquisitions = 0
        self.contended_acquisitions = 0

    def try_acquire(self, address: int, thread_id: int) -> bool:
        """Attempt to acquire the lock at ``address`` for ``thread_id``.

        Returns True on success (including recursive re-acquisition); returns
        False if another thread currently holds the lock.
        """
        owner = self._owners.get(address)
        if owner is not None and owner != thread_id:
            self.contended_acquisitions += 1
            return False
        self._owners[address] = thread_id
        self.acquisitions += 1
        return True

    def release(self, address: int, thread_id: int) -> None:
        """Release the lock at ``address``.

        Releasing a lock the thread does not hold is tolerated (and left for
        lifeguards or tests to flag) to keep buggy programs runnable.
        """
        if self._owners.get(address) == thread_id:
            del self._owners[address]

    def holder(self, address: int) -> Optional[int]:
        """Thread currently holding the lock at ``address`` (or ``None``)."""
        return self._owners.get(address)


class DeadlockError(MachineError):
    """Raised when every unfinished thread is blocked on a lock."""


class ThreadedMachine:
    """Round-robin interleaved execution of one program per thread.

    Args:
        programs: one program per thread; thread ids are assigned in order.
        quantum: number of instructions a thread runs before the scheduler
            switches (deterministic interleave).
        address_space: shared memory (created if omitted).
        allocator: shared heap allocator (created if omitted).
    """

    def __init__(
        self,
        programs: Sequence[Program],
        quantum: int = 50,
        address_space: Optional[AddressSpace] = None,
        allocator: Optional[HeapAllocator] = None,
        input_provider: Optional[Callable[[int], bytes]] = None,
    ) -> None:
        if not programs:
            raise ValueError("at least one thread program is required")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.memory = address_space or AddressSpace()
        layout = self.memory.layout
        self.allocator = allocator or HeapAllocator(layout.heap_base, DEFAULT_HEAP_SIZE)
        self.lock_manager = LockManager()
        self.quantum = quantum
        kwargs = {} if input_provider is None else {"input_provider": input_provider}
        self.threads: List[Machine] = [
            Machine(
                program,
                address_space=self.memory,
                allocator=self.allocator,
                thread_id=thread_id,
                lock_manager=self.lock_manager,
                **kwargs,
            )
            for thread_id, program in enumerate(programs)
        ]
        #: instructions retired by all threads together
        self.stats = MachineStats()

    # ------------------------------------------------------------------ driving

    def run(
        self,
        observer: Optional[RecordObserver] = None,
        max_instructions: int = 10_000_000,
    ) -> MachineStats:
        """Interleave all threads to completion.

        Emits ``THREAD_CREATE`` annotations for every thread beyond the first
        before execution starts and ``THREAD_EXIT`` annotations as threads
        halt, mirroring the wrapper-library annotations of the paper.

        Raises:
            DeadlockError: if all live threads are blocked on locks.
            ExecutionLimitExceeded: if the total instruction budget is hit.
        """
        def emit(record: Record) -> None:
            if observer is not None:
                observer(record)

        for machine in self.threads[1:]:
            emit(AnnotationRecord(EventType.THREAD_CREATE, thread_id=machine.thread_id))

        exited: set[int] = set()
        while True:
            runnable = [machine for machine in self.threads if not machine.halted]
            if not runnable:
                break
            progress = False
            for machine in runnable:
                executed = 0
                while executed < self.quantum and not machine.halted:
                    if self.stats.instructions >= max_instructions:
                        from repro.isa.machine import ExecutionLimitExceeded

                        raise ExecutionLimitExceeded(
                            f"threaded run exceeded {max_instructions} instructions"
                        )
                    records = machine.step()
                    if machine.blocked:
                        break
                    if not records and machine.halted:
                        break
                    for record in records:
                        emit(record)
                    executed += 1
                if executed:
                    progress = True
                if machine.halted and machine.thread_id not in exited:
                    exited.add(machine.thread_id)
                    emit(AnnotationRecord(EventType.THREAD_EXIT, thread_id=machine.thread_id))
                self.stats.instructions += executed
            if not progress:
                raise DeadlockError("all runnable threads are blocked on locks")
        return self.stats

    def trace(self, max_instructions: int = 10_000_000) -> List[Record]:
        """Run to completion and return the interleaved record trace."""
        records: List[Record] = []
        self.run(records.append, max_instructions=max_instructions)
        return records
