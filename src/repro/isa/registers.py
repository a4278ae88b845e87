"""General-purpose register file of the monitored application."""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List

WORD_MASK = 0xFFFF_FFFF


class Register(enum.IntEnum):
    """The eight IA32 general-purpose registers.

    The integer value doubles as the register identifier carried in log
    records and used to index the Inheritance Tracking table.
    """

    EAX = 0
    EBX = 1
    ECX = 2
    EDX = 3
    ESI = 4
    EDI = 5
    EBP = 6
    ESP = 7


#: Number of general-purpose registers (size of the IT table in the paper).
NUM_GPRS = len(Register)


class RegisterFile:
    """A 32-bit register file plus the result of the last compare.

    Values live in :attr:`values`, a list indexed by register number, so an
    access is a plain list index: operands are checked to name a
    :class:`Register` once, when they are built, not on every access.  The
    machine's decoded handlers index :attr:`values` directly.
    """

    def __init__(self) -> None:
        self.values: List[int] = [0] * NUM_GPRS
        #: result of the last CMP/TEST as a signed difference (None before any compare)
        self.last_compare: int | None = None

    def read(self, reg: Register) -> int:
        """Read a register as an unsigned 32-bit value."""
        return self.values[reg]

    def write(self, reg: Register, value: int) -> None:
        """Write a register, truncating to 32 bits."""
        self.values[reg] = value & WORD_MASK

    def items(self) -> Iterator[tuple[Register, int]]:
        """Iterate over ``(register, value)`` pairs."""
        return zip(Register, self.values)

    def snapshot(self) -> Dict[str, int]:
        """Return a name→value snapshot (useful in tests and debugging)."""
        return {reg.name: value for reg, value in self.items()}
