"""Error reports produced by lifeguards, and per-kind tallies of them."""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional


class ErrorKind(enum.Enum):
    """Classes of violations the lifeguards can raise."""

    INVALID_ACCESS = "invalid_access"          # access to unallocated memory
    UNINITIALIZED_USE = "uninitialized_use"    # use of an uninitialised value
    TAINT_VIOLATION = "taint_violation"        # tainted data in a critical sink
    DOUBLE_FREE = "double_free"
    INVALID_FREE = "invalid_free"
    MEMORY_LEAK = "memory_leak"
    DATA_RACE = "data_race"
    UNLOCK_NOT_HELD = "unlock_not_held"


@dataclass(frozen=True)
class ErrorReport:
    """One violation detected by a lifeguard.

    Attributes:
        kind: the violation class.
        lifeguard: name of the reporting lifeguard.
        pc: program counter of the offending application instruction (or of
            the annotation's call site for rare events).
        address: application address the violation concerns, if any.
        thread_id: application thread involved.
        message: human-readable description.
    """

    kind: ErrorKind
    lifeguard: str
    pc: int = 0
    address: Optional[int] = None
    thread_id: int = 0
    message: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = f" at {self.address:#x}" if self.address is not None else ""
        return f"[{self.lifeguard}] {self.kind.value}{location} (pc={self.pc:#x}): {self.message}"


def report_counts(reports: Iterable[ErrorReport]) -> Dict[ErrorKind, int]:
    """Tally reports by :class:`ErrorKind` (summary tables, experiments)."""
    return dict(Counter(report.kind for report in reports))
