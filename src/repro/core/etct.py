"""Event Type Configuration Table (ETCT).

In LBA a lifeguard is organised as a set of event handlers registered in the
ETCT; the ``nlba`` instruction looks up the handler for the next log record's
event type (Section 3).  Section 5 extends each ETCT entry with the fields
that control the Idempotent Filter: a *cacheable* bit marking checking-only
events, a *check categorisation* (CC) value that lets different event types
share filter entries when they perform the same check, a per-record-field
cacheable mask selecting which fields form the filter key, and two
invalidation bits (invalidate the whole filter / invalidate matching
entries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.events import NUM_EVENT_TYPES, DeliveredEvent, EventType

#: Signature of a lifeguard event handler.
EventHandler = Callable[[DeliveredEvent], None]

#: Record fields that may participate in an Idempotent Filter key.
FILTERABLE_FIELDS = ("address", "size", "thread_id")


class InvalidationPolicy(enum.Flag):
    """How an event of a given type invalidates the Idempotent Filter."""

    NONE = 0
    #: invalidate the entire IF cache (e.g. malloc/free/system calls)
    FLUSH_ALL = enum.auto()
    #: invalidate entries whose CC value and selected fields match this event
    MATCHING = enum.auto()


@dataclass
class ETCTEntry:
    """Configuration of one event type.

    Attributes:
        event_type: the event type this entry describes.
        handler: the lifeguard handler invoked when the event is delivered.
        handler_instructions: model of how many lifeguard instructions the
            handler's frequent path executes, *excluding* metadata-mapping
            instructions (those are added by the timing model depending on
            whether LMA is available).
        cacheable: True if the event is checking-only and may be filtered.
        check_category: CC value; events sharing a CC perform the same check.
        cacheable_fields: record fields forming the IF key.
        invalidation: how events of this type invalidate the filter.
    """

    event_type: EventType
    handler: Optional[EventHandler] = None
    handler_instructions: int = 0
    cacheable: bool = False
    check_category: int = 0
    cacheable_fields: Tuple[str, ...] = ("address", "size")
    invalidation: InvalidationPolicy = InvalidationPolicy.NONE

    def __post_init__(self) -> None:
        unknown = set(self.cacheable_fields) - set(FILTERABLE_FIELDS)
        if unknown:
            raise ValueError(f"unknown cacheable fields: {sorted(unknown)}")
        # Specialized filter-key shape for the two ubiquitous field tuples;
        # 0 falls back to the generic field-name loop in ETCT.filter_key.
        if self.cacheable_fields == ("address", "size"):
            self._filter_mode = 1
        elif self.cacheable_fields == ("address", "size", "thread_id"):
            self._filter_mode = 2
        else:
            self._filter_mode = 0

    @property
    def filter_mode(self) -> int:
        """Shape of this entry's Idempotent-Filter key.

        ``1`` for ``(CC, address, size)``, ``2`` for ``(CC, address, size,
        thread_id)``, ``0`` for any other cacheable-field tuple (callers
        must then build the key through :meth:`ETCT.filter_key`).  The
        columnar engine builds the keys of modes 1 and 2 straight from the
        decoded columns; a pipeline with a cacheable mode-0 check replays
        through the scalar ``consume`` loop.
        """
        return self._filter_mode


class ETCT:
    """The event type configuration table of one lifeguard.

    Besides the entry dict (kept for iteration), the table maintains a flat
    list indexed by ``EventType.ordinal`` -- the software analogue of the
    hardware ETCT's direct-indexed SRAM.  The list is pre-sized and mutated
    in place, so the accelerator and dispatcher can hold a reference to it
    across registrations and index it without any hashing.
    """

    def __init__(self) -> None:
        self._entries: Dict[EventType, ETCTEntry] = {}
        self._table: List[Optional[ETCTEntry]] = [None] * NUM_EVENT_TYPES

    def register(self, entry: ETCTEntry) -> None:
        """Register (or replace) the entry for ``entry.event_type``."""
        self._entries[entry.event_type] = entry
        self._table[entry.event_type.ordinal] = entry

    def handler_table(self) -> List[Optional[ETCTEntry]]:
        """The live ordinal-indexed entry table (``table[et.ordinal]``).

        The returned list object is stable for the table's lifetime; later
        registrations mutate it in place.
        """
        return self._table

    def register_handler(
        self,
        event_type: EventType,
        handler: EventHandler,
        *,
        handler_instructions: int = 4,
        cacheable: bool = False,
        check_category: int = 0,
        cacheable_fields: Tuple[str, ...] = ("address", "size"),
        invalidation: InvalidationPolicy = InvalidationPolicy.NONE,
    ) -> ETCTEntry:
        """Convenience wrapper building and registering an :class:`ETCTEntry`."""
        entry = ETCTEntry(
            event_type=event_type,
            handler=handler,
            handler_instructions=handler_instructions,
            cacheable=cacheable,
            check_category=check_category,
            cacheable_fields=cacheable_fields,
            invalidation=invalidation,
        )
        self.register(entry)
        return entry

    def lookup(self, event_type: EventType) -> Optional[ETCTEntry]:
        """Return the entry for ``event_type`` or ``None`` if unregistered."""
        return self._table[event_type.ordinal]

    def is_registered(self, event_type: EventType) -> bool:
        """True if a handler is registered for ``event_type``."""
        entry = self._table[event_type.ordinal]
        return entry is not None and entry.handler is not None

    def registered_types(self) -> Iterable[EventType]:
        """Iterate over the event types with registered entries."""
        return self._entries.keys()

    def filter_key(self, entry: ETCTEntry, event: DeliveredEvent) -> Tuple:
        """Build the Idempotent Filter key for ``event`` under ``entry``.

        The key is ``(CC, field values...)`` using the entry's cacheable
        fields.  The ``address`` field refers to the memory address the
        check concerns (destination address for stores, source address for
        loads).
        """
        address = event.dest_addr
        if address is None:
            address = event.src_addr
        mode = entry._filter_mode
        if mode == 1:
            return (entry.check_category, address, event.size)
        if mode == 2:
            return (entry.check_category, address, event.size, event.thread_id)
        values = []
        for name in entry.cacheable_fields:
            if name == "address":
                values.append(address)
            elif name == "size":
                values.append(event.size)
            elif name == "thread_id":
                values.append(event.thread_id)
        return (entry.check_category, *values)
