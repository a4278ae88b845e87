"""A set-associative cache model with LRU replacement.

The model is functional-with-latency: it tracks which lines are resident
(tags + LRU order per set) and reports hit/miss so the hierarchy can charge
latencies, but does not store data (the functional state of the program
lives in :class:`repro.memory.address_space.AddressSpace`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss rate in ``[0, 1]`` (0 when the cache was never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A single level of set-associative, write-back, write-allocate cache."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # The geometry is read once: ``access`` runs for every simulated
        # fetch, data access and metadata read.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.associativity
        # per-set ordered dict: tag -> dirty flag; ordering is LRU (oldest first)
        self._sets: Dict[int, OrderedDict[int, bool]] = {}

    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the line containing ``address``; returns True on a hit.

        On a miss the line is allocated, possibly evicting the LRU line of
        the set (a dirty eviction increments ``writebacks``).
        """
        stats = self.stats
        stats.accesses += 1
        line = address // self._line_bytes
        num_sets = self._num_sets
        tag = line // num_sets
        lines = self._sets.get(line % num_sets)
        if lines is None:
            lines = self._sets[line % num_sets] = OrderedDict()
        dirty = lines.get(tag)
        if dirty is not None:
            stats.hits += 1
            lines.move_to_end(tag)
            if is_write and not dirty:
                lines[tag] = True
            return True
        stats.misses += 1
        if len(lines) >= self._ways:
            _evicted_tag, dirty = lines.popitem(last=False)
            stats.evictions += 1
            if dirty:
                stats.writebacks += 1
        # Stored as a bool so that ``None`` above always means "absent".
        lines[tag] = bool(is_write)
        return False

    def access_range(self, address: int, size: int, is_write: bool = False) -> int:
        """Access every line touched by ``[address, address + size)``.

        Returns the number of line misses.  A size of 0 or less touches the
        line of ``address`` only.
        """
        line_bytes = self._line_bytes
        first = address // line_bytes
        last = (address + size - 1) // line_bytes if size > 0 else first
        if last == first:
            return 0 if self.access(address, is_write) else 1
        misses = 0
        for line in range(first, last + 1):
            if not self.access(line * line_bytes, is_write):
                misses += 1
        return misses

    def contains(self, address: int) -> bool:
        """True if the line containing ``address`` is resident (no side effects)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets.get(index, ())

    def invalidate_all(self) -> None:
        """Drop every resident line (used when reconfiguring between runs)."""
        self._sets.clear()

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(lines) for lines in self._sets.values())
