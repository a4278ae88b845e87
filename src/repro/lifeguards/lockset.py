"""LOCKSET: Eraser-style data-race detection (Table 1).

For every thread the lifeguard maintains the set of locks currently held;
for every shared 4-byte word of application memory it maintains a 32-bit
metadata record consisting of a 2-bit state (virgin, exclusive, shared
read-only, shared read-write) and a 30-bit field that is either the owner
thread id (exclusive state) or a compressed pointer (index) into the table
of known candidate locksets.  On every access to a shared location the
candidate set is intersected with the accessing thread's current lockset;
if the candidate set of a shared read-write location becomes empty, no
common lock protects the location and a data race is reported.

Acceleration applicability (Figure 2): Idempotent Filters (loads and stores
use *different* check categorisations, and every annotation record --
including ``lock``/``unlock`` -- flushes the filter, per footnote 1 of the
paper) and LMA.  LOCKSET does no propagation tracking, so IT does not apply.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.etct import InvalidationPolicy
from repro.core.events import DeliveredEvent, EventType
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorKind
from repro.memory.address_space import SegmentLayout
from repro.memory.shadow import MetadataMap, TwoLevelShadowMap

#: 2-bit location states (low bits of the 32-bit metadata record)
STATE_VIRGIN = 0
STATE_EXCLUSIVE = 1
STATE_SHARED_READ = 2
STATE_SHARED_MODIFIED = 3

#: Check categorisations: loads and stores are filtered separately.
_CC_LOAD = 2
_CC_STORE = 3

_WORD = 4


class LockSet(Lifeguard):
    """Detects data races via lockset refinement (Eraser algorithm)."""

    name = "LockSet"
    uses_it = False
    uses_if = True
    description = (
        "Eraser-style lockset data-race detection: 32-bit state/lockset record "
        "per 4-byte word, lockset intersection on shared accesses."
    )

    def __init__(self, layout: Optional[SegmentLayout] = None) -> None:
        self._layout = layout or SegmentLayout()
        super().__init__()

    # ------------------------------------------------------------------ set-up

    def _configure(self) -> None:
        #: 32-bit record per 4-byte application word
        self.records = TwoLevelShadowMap(level1_bits=16, level2_bits=14, element_size=4)
        #: interned candidate locksets; index 0 is reserved for "no lockset yet"
        self.lockset_table: List[FrozenSet[int]] = [frozenset()]
        self._lockset_index: Dict[FrozenSet[int], int] = {frozenset(): 0}
        #: current lockset per thread
        self.thread_locks: Dict[int, Set[int]] = {}
        #: frozen snapshot of each thread's lockset, invalidated on
        #: lock/unlock/thread events so the hot access path never re-freezes
        self._lockset_cache: Dict[int, FrozenSet[int]] = {}
        #: locations already reported, to avoid cascades of identical reports
        self._reported: Set[int] = set()

        register = self.etct.register_handler
        register(
            EventType.MEM_LOAD, self._on_load,
            handler_instructions=12, cacheable=True, check_category=_CC_LOAD,
            cacheable_fields=("address", "size", "thread_id"),
        )
        register(
            EventType.MEM_STORE, self._on_store,
            handler_instructions=12, cacheable=True, check_category=_CC_STORE,
            cacheable_fields=("address", "size", "thread_id"),
        )
        # Every annotation record invalidates the whole filter (footnote 1).
        register(
            EventType.LOCK, self._on_lock,
            handler_instructions=20, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.UNLOCK, self._on_unlock,
            handler_instructions=20, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.MALLOC, self._on_malloc,
            handler_instructions=30, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.FREE, self._on_free,
            handler_instructions=30, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.THREAD_CREATE, self._on_thread_create,
            handler_instructions=15, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.THREAD_EXIT, self._on_thread_exit,
            handler_instructions=15, invalidation=InvalidationPolicy.FLUSH_ALL,
        )

    def primary_map(self) -> MetadataMap:
        return self.records

    # ------------------------------------------------------------------ lockset interning

    def _intern(self, lockset: FrozenSet[int]) -> int:
        index = self._lockset_index.get(lockset)
        if index is None:
            index = len(self.lockset_table)
            self.lockset_table.append(lockset)
            self._lockset_index[lockset] = index
        return index

    def current_lockset(self, thread_id: int) -> FrozenSet[int]:
        """The set of lock addresses currently held by ``thread_id``."""
        cached = self._lockset_cache.get(thread_id)
        if cached is None:
            cached = frozenset(self.thread_locks.get(thread_id, ()))
            self._lockset_cache[thread_id] = cached
        return cached

    # ------------------------------------------------------------------ record encoding

    @staticmethod
    def _encode(state: int, value: int) -> int:
        return (value << 2) | (state & 0b11)

    @staticmethod
    def _decode(record: int) -> Tuple[int, int]:
        return record & 0b11, record >> 2

    def location_state(self, address: int) -> Tuple[int, int]:
        """Decoded ``(state, value)`` of the word containing ``address``."""
        return self._decode(self.records.read_element(address - address % _WORD))

    # ------------------------------------------------------------------ tracked regions

    def _tracked(self, address: int) -> bool:
        """Only heap and globals can be shared between threads; per-thread
        stacks are not candidates for data races."""
        return self._layout.data_base <= address < self._layout.mmap_base

    # ------------------------------------------------------------------ access handlers

    def _on_load(self, event: DeliveredEvent) -> None:
        self._on_access(event, is_write=False)

    def _on_store(self, event: DeliveredEvent) -> None:
        self._on_access(event, is_write=True)

    def _on_access(self, event: DeliveredEvent, is_write: bool) -> None:
        address = event.dest_addr if event.dest_addr is not None else event.src_addr
        if address is None or not self._tracked(address):
            return
        size = max(event.size, 1)
        word = address - address % _WORD
        end = address + size
        access_word = self._access_word
        while word < end:
            access_word(word, event, is_write)
            word += _WORD

    def _access_word(self, word: int, event: DeliveredEvent, is_write: bool) -> None:
        thread_id = event.thread_id
        record = self.meta_read_element(word)
        state, value = self._decode(record)
        locks = self.current_lockset(thread_id)

        if state == STATE_VIRGIN:
            new_record = self._encode(STATE_EXCLUSIVE, thread_id)
        elif state == STATE_EXCLUSIVE:
            if value == thread_id:
                new_record = record
            else:
                # Second thread touches the word: it becomes shared and the
                # candidate set is initialised to the accessing thread's locks.
                new_state = STATE_SHARED_MODIFIED if is_write else STATE_SHARED_READ
                new_record = self._encode(new_state, self._intern(locks))
        else:
            candidate = self.lockset_table[value]
            refined = candidate & locks
            new_state = STATE_SHARED_MODIFIED if (is_write or state == STATE_SHARED_MODIFIED) else state
            new_record = self._encode(new_state, self._intern(refined))
            if new_state == STATE_SHARED_MODIFIED and not refined and word not in self._reported:
                self._reported.add(word)
                self.report(
                    ErrorKind.DATA_RACE, event,
                    f"no common lock protects shared word {word:#x}",
                    address=word,
                )
        if new_record != record:
            self.meta_write_element(word, new_record)

    # ------------------------------------------------------------------ rare handlers

    def _on_lock(self, event: DeliveredEvent) -> None:
        if event.dest_addr is None:
            return
        self.thread_locks.setdefault(event.thread_id, set()).add(event.dest_addr)
        self._lockset_cache.pop(event.thread_id, None)

    def _on_unlock(self, event: DeliveredEvent) -> None:
        if event.dest_addr is None:
            return
        held = self.thread_locks.setdefault(event.thread_id, set())
        if event.dest_addr not in held:
            self.report(
                ErrorKind.UNLOCK_NOT_HELD, event,
                f"thread {event.thread_id} releases lock {event.dest_addr:#x} it does not hold",
                address=event.dest_addr,
            )
            return
        held.discard(event.dest_addr)
        self._lockset_cache.pop(event.thread_id, None)

    def _on_malloc(self, event: DeliveredEvent) -> None:
        if event.dest_addr is None or not event.size:
            return
        # Freshly allocated words are virgin again (address reuse must not
        # inherit a stale lockset state).
        word = event.dest_addr - event.dest_addr % _WORD
        end = event.dest_addr + event.size
        mapper = self.mapper()
        while word < end:
            if self.records.read_element(word):
                self.records.write_element(word, self._encode(STATE_VIRGIN, 0))
            word += _WORD
        mapper.translate(event.dest_addr)

    def _on_free(self, event: DeliveredEvent) -> None:
        # Nothing to refine; the next malloc covering these words resets them.
        if event.dest_addr is not None:
            self.mapper().translate(event.dest_addr)

    def _on_thread_create(self, event: DeliveredEvent) -> None:
        self.thread_locks.setdefault(event.thread_id, set())

    def _on_thread_exit(self, event: DeliveredEvent) -> None:
        self.thread_locks.pop(event.thread_id, None)
        self._lockset_cache.pop(event.thread_id, None)
