"""Two-level cache hierarchy shared by the application and lifeguard cores.

Table 2 of the paper: private 16 KB 2-way L1 instruction and data caches per
core, a shared 512 KB 8-way L2 with 10-cycle latency, and 200-cycle main
memory.  The hierarchy returns access latencies in cycles; the LBA timing
model adds them to the per-core cycle counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.cache.cache import Cache
from repro.core.config import MemoryHierarchyConfig


class AccessType(enum.Enum):
    """Kind of memory access issued by a core."""

    INSTRUCTION_FETCH = "ifetch"
    DATA_READ = "read"
    DATA_WRITE = "write"


_INSTRUCTION_FETCH = AccessType.INSTRUCTION_FETCH
_DATA_WRITE = AccessType.DATA_WRITE


@dataclass
class CoreCaches:
    """The private L1 caches of one core."""

    l1i: Cache
    l1d: Cache


class MemoryHierarchy:
    """Private L1s per core plus a shared L2 and main memory."""

    def __init__(self, config: MemoryHierarchyConfig | None = None, num_cores: int = 2) -> None:
        self.config = config or MemoryHierarchyConfig()
        self.num_cores = num_cores
        self._cores: Dict[int, CoreCaches] = {
            core: CoreCaches(
                l1i=Cache(self.config.l1i, name=f"core{core}.l1i"),
                l1d=Cache(self.config.l1d, name=f"core{core}.l1d"),
            )
            for core in range(num_cores)
        }
        self.l2 = Cache(self.config.l2, name="shared.l2")
        self.memory_accesses = 0
        self._l2_latency = self.config.l2.latency_cycles
        self._memory_latency = self.config.memory_latency_cycles

    def core(self, core_id: int) -> CoreCaches:
        """The private caches of ``core_id``."""
        return self._cores[core_id]

    def access(self, core_id: int, address: int, access_type: AccessType, size: int = 4) -> int:
        """Perform an access and return its latency in cycles.

        A miss in the L1 probes the shared L2 once, at ``address``, even
        when the access spans more than one L1 line.  An access within one
        line (almost all of them) is a single :meth:`Cache.access`.
        """
        caches = self._cores[core_id]
        is_write = access_type is _DATA_WRITE
        l1 = caches.l1i if access_type is _INSTRUCTION_FETCH else caches.l1d
        config = l1.config
        latency = config.latency_cycles
        line_bytes = config.line_bytes
        if address % line_bytes + size <= line_bytes:
            if l1.access(address, is_write):
                return latency
        elif not l1.access_range(address, size, is_write):
            return latency
        latency += self._l2_latency
        if self.l2.access(address, is_write):
            return latency
        self.memory_accesses += 1
        return latency + self._memory_latency

    def total_l1_miss_rate(self, core_id: int) -> float:
        """Combined L1 data+instruction miss rate of ``core_id``."""
        caches = self._cores[core_id]
        accesses = caches.l1i.stats.accesses + caches.l1d.stats.accesses
        misses = caches.l1i.stats.misses + caches.l1d.stats.misses
        return misses / accesses if accesses else 0.0
