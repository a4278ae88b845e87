"""Idempotent Filters (IF) -- Section 5 of the paper.

Many lifeguard checks are *idempotent*: once ADDRCHECK has verified that a
memory location is allocated, re-checking subsequent loads and stores to
the same location adds nothing -- until a ``free`` invalidates the
conclusion.  The IF is a small lifeguard-configurable cache of recently
observed checking events; an incoming event that hits in the cache is
discarded, one that misses is delivered (and, if its type is cacheable,
inserted with LRU replacement).

The filter key is built by the ETCT: the check-categorisation (CC) value of
the event type plus the record fields the lifeguard marked cacheable.  The
ETCT also defines the invalidation policy: rare events such as ``free`` or
system calls may flush the whole filter or only the matching entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.config import IFConfig


@dataclass
class IFStats:
    """Counters describing filter effectiveness."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations_full: int = 0
    invalidations_selective: int = 0

    @property
    def filtered_fraction(self) -> float:
        """Fraction of filterable check events that were discarded."""
        return self.hits / self.lookups if self.lookups else 0.0


class IdempotentFilter:
    """A set-associative cache of recently performed (idempotent) checks.

    Keys are hashable tuples produced by :meth:`repro.core.etct.ETCT.filter_key`
    (``(CC, field values...)``).  With ``associativity == 0`` in the config
    the filter behaves as a single fully-associative set.
    """

    def __init__(self, config: Optional[IFConfig] = None) -> None:
        self.config = config or IFConfig()
        self.stats = IFStats()
        self._sets: Dict[int, OrderedDict[Hashable, None]] = {}
        # geometry, precomputed (property lookups are too slow per event)
        self._num_sets = self.config.num_sets
        self._ways = self.config.ways

    # ------------------------------------------------------------------ geometry

    @property
    def num_sets(self) -> int:
        """Number of sets (1 when fully associative)."""
        return self.config.num_sets

    @property
    def ways(self) -> int:
        """Entries per set."""
        return self.config.ways

    def _set_index(self, key: Hashable) -> int:
        if self.num_sets == 1:
            return 0
        return hash(key) % self.num_sets

    # ------------------------------------------------------------------ operations

    def lookup_insert(self, key: Hashable) -> bool:
        """Look up ``key``; on a miss insert it.  Returns True on a hit.

        A hit means the incoming event is idempotent with a recently
        delivered one and can be discarded.
        """
        stats = self.stats
        stats.lookups += 1
        index = 0 if self._num_sets == 1 else hash(key) % self._num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        if key in entries:
            stats.hits += 1
            entries.move_to_end(key)
            return True
        stats.misses += 1
        if len(entries) >= self._ways:
            entries.popitem(last=False)
            stats.evictions += 1
        entries[key] = None
        stats.insertions += 1
        return False

    def state_signature(self) -> Tuple[Tuple[int, Tuple[Hashable, ...]], ...]:
        """Hashable snapshot of the filter contents *including LRU order*.

        One ``(set_index, resident_keys_in_LRU_order)`` pair per non-empty
        set, in set-index order.  Differential tests use this to prove fast
        paths evolve the filter state identically (same residents, same
        eviction order), not merely that they filter the same events.
        """
        return tuple(
            (index, tuple(self._sets[index])) for index in sorted(self._sets)
        )

    def contains(self, key: Hashable) -> bool:
        """True if ``key`` is currently cached (no side effects)."""
        index = self._set_index(key)
        return key in self._sets.get(index, ())

    def invalidate_all(self) -> None:
        """Drop every cached check (metadata changed globally)."""
        self._sets.clear()
        self.stats.invalidations_full += 1

    def invalidate_matching(self, key: Hashable) -> None:
        """Drop the entry exactly matching ``key``, if present."""
        index = self._set_index(key)
        entries = self._sets.get(index)
        if entries is not None and key in entries:
            del entries[key]
        self.stats.invalidations_selective += 1

    def resident_entries(self) -> int:
        """Number of checks currently cached."""
        return sum(len(entries) for entries in self._sets.values())
