"""A set-associative cache model with LRU replacement.

The model is functional-with-latency: it tracks which lines are resident
(tags + LRU order per set) and reports hit/miss so the hierarchy can charge
latencies, but does not store data (the functional state of the program
lives in :class:`repro.memory.address_space.AddressSpace`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
    """A single level of set-associative, write-back, write-allocate cache.

    The cache remembers its most recently used line, which is always
    resident and most recently used in its set.  An access that repeats
    that line (most instruction fetches do) counts a hit, and marks the
    line dirty on a write, without touching the set's LRU order.
    """

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
        # The most recently used line and its set.  ``None`` equals no line
        # number (``address // line_bytes`` is negative for a negative address).
        self._mru_line: Optional[int] = None
        self._mru_set: Optional[OrderedDict[int, bool]] = None

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
        if line == self._mru_line:
            stats.hits += 1
            if is_write:
                # Re-assigning a present key keeps its place in the LRU order.
                self._mru_set[line // num_sets] = True
            return True
        tag = line // num_sets
        lines = self._sets.get(line % num_sets)
        if lines is None:
            lines = self._sets[line % num_sets] = OrderedDict()
        self._mru_line = line
        self._mru_set = lines
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
        self._mru_line = None
        self._mru_set = None

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(lines) for lines in self._sets.values())
