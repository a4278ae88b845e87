"""Metadata-TLB (M-TLB) and the LMA instruction family -- Section 6 of the paper.

Lifeguards keep metadata for (almost) every byte of the application's
address space; with the flexible two-level metadata organisation, mapping an
application address to its metadata address costs around five instructions
including one memory load (Figure 7).  The M-TLB is a software-managed,
user-space TLB that caches ``level-1 index → level-2 chunk start address``
mappings so that a single ``lma`` instruction performs the translation in
one cycle.  On a miss, the hardware invokes a lifeguard-supplied miss
handler, which computes the mapping (through its own two-level table) and
installs it with ``lma_fill``; the ``lma`` is then re-executed.

``lma_config`` sets the number of level-1 and level-2 bits and the level-2
element size, and flushes the M-TLB -- making the translation geometry a
run-time choice of the lifeguard (Figure 8/9).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.config import MTLBConfig

ADDRESS_BITS = 32

#: Signature of the software miss handler: given the faulting application
#: address, return the metadata address of the start of its level-2 element
#: (the handler conceptually ends with ``lma_fill``).
MissHandler = Callable[[int], int]


@dataclass(frozen=True)
class LMAConfig:
    """The LMA config register (Figure 9).

    Attributes:
        level1_bits: number of high application-address bits indexing the
            level-1 table.
        level2_bits: number of middle bits indexing within a level-2 chunk.
        element_size: size in bytes of one level-2 element (1, 2, 4 or 8).
    """

    level1_bits: int = 16
    level2_bits: int = 14
    element_size: int = 1

    def __post_init__(self) -> None:
        if self.level1_bits <= 0 or self.level2_bits <= 0:
            raise ValueError("level1_bits and level2_bits must be positive")
        if self.level1_bits + self.level2_bits > ADDRESS_BITS:
            raise ValueError("level1_bits + level2_bits must not exceed 32")
        if self.element_size not in (1, 2, 4, 8):
            raise ValueError("element size must be 1, 2, 4 or 8 bytes")

    @property
    def offset_bits(self) -> int:
        """Low bits addressing application bytes within one element."""
        return ADDRESS_BITS - self.level1_bits - self.level2_bits

    def level1_index(self, app_address: int) -> int:
        """Level-1 index of an application address."""
        return (app_address & 0xFFFF_FFFF) >> (ADDRESS_BITS - self.level1_bits)

    def level2_index(self, app_address: int) -> int:
        """Level-2 index of an application address."""
        return ((app_address & 0xFFFF_FFFF) >> self.offset_bits) & ((1 << self.level2_bits) - 1)


@dataclass
class MTLBStats:
    """M-TLB behaviour counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    flushes: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss rate in ``[0, 1]``."""
        return self.misses / self.lookups if self.lookups else 0.0


class MTLBMiss(LookupError):
    """Raised by :meth:`MetadataTLB.lma` when no miss handler is configured."""


class MetadataTLB:
    """The M-TLB hardware structure plus the three LMA instructions."""

    def __init__(self, config: Optional[MTLBConfig] = None) -> None:
        self.hw_config = config or MTLBConfig()
        self.lma_config_register: Optional[LMAConfig] = None
        self.miss_handler: Optional[MissHandler] = None
        self.stats = MTLBStats()
        # CAM: level-1 index -> level-2 chunk start (metadata) address, LRU ordered
        self._entries: OrderedDict[int, int] = OrderedDict()
        # geometry shifts/masks, precomputed at lma_config time (hot path)
        self._l1_shift = 0
        self._offset_bits = 0
        self._l2_mask = 0
        self._element_size = 1

    # ------------------------------------------------------------------ instructions

    def lma_config(self, config: LMAConfig, miss_handler: Optional[MissHandler] = None) -> None:
        """Execute ``lma_config``: set the translation geometry and miss handler.

        As in the paper, reconfiguring flushes the M-TLB.
        """
        self.lma_config_register = config
        self._l1_shift = ADDRESS_BITS - config.level1_bits
        self._offset_bits = config.offset_bits
        self._l2_mask = (1 << config.level2_bits) - 1
        self._element_size = config.element_size
        if miss_handler is not None:
            self.miss_handler = miss_handler
        self._entries.clear()
        self.stats.flushes += 1

    def lma_fill(self, app_address: int, chunk_start: int) -> None:
        """Execute ``lma_fill``: install the mapping for ``app_address``'s chunk."""
        config = self._require_config()
        level1 = config.level1_index(app_address)
        if level1 in self._entries:
            self._entries.move_to_end(level1)
            self._entries[level1] = chunk_start
        else:
            if len(self._entries) >= self.hw_config.num_entries:
                self._entries.popitem(last=False)
            self._entries[level1] = chunk_start
        self.stats.fills += 1

    def lma(self, app_address: int) -> Tuple[int, bool]:
        """Execute ``lma``: translate an application address to a metadata address.

        Returns ``(metadata_address, hit)`` where ``hit`` is False when the
        software miss handler had to be invoked (the caller's timing model
        charges the handler cost).

        Raises:
            MTLBMiss: on a miss when no miss handler is configured.
        """
        if self.lma_config_register is None:
            self._require_config()
        stats = self.stats
        stats.lookups += 1
        address = app_address & 0xFFFF_FFFF
        entries = self._entries
        level1 = address >> self._l1_shift
        chunk_start = entries.get(level1)
        if chunk_start is not None:
            entries.move_to_end(level1)
            stats.hits += 1
            hit = True
        else:
            stats.misses += 1
            if self.miss_handler is None:
                raise MTLBMiss(f"M-TLB miss for {app_address:#x} with no miss handler")
            chunk_start = self.miss_handler(app_address)
            self.lma_fill(app_address, chunk_start)
            hit = False
        metadata_address = chunk_start + (
            (address >> self._offset_bits) & self._l2_mask
        ) * self._element_size
        return metadata_address, hit

    # ------------------------------------------------------------------ inspection

    def resident_entries(self) -> int:
        """Number of valid CAM entries."""
        return len(self._entries)

    def state_signature(self) -> Tuple[Tuple[int, int], ...]:
        """Hashable snapshot of the CAM contents in LRU order.

        One ``(level1_index, chunk_start)`` pair per resident entry, oldest
        first.  Differential tests use this to prove fast paths leave the
        CAM in exactly the state the scalar path would (same residents,
        same replacement order).
        """
        return tuple(self._entries.items())

    def _require_config(self) -> LMAConfig:
        if self.lma_config_register is None:
            raise RuntimeError("lma_config must be executed before lma/lma_fill")
        return self.lma_config_register
