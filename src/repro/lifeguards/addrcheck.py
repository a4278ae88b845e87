"""ADDRCHECK: memory accessibility checking (Table 1).

ADDRCHECK intercepts ``malloc``/``free`` and maintains one *accessible* bit
per byte of the monitored application's address space.  Every memory access
is checked against the accessible bits; accesses to unallocated heap memory
are reported.  Auxiliary lists of observed allocations and frees support the
detection of double frees, invalid frees and memory leaks.

Acceleration applicability (Figure 2): Idempotent Filters (loads and stores
share one check categorisation) and LMA.  ADDRCHECK performs no propagation
tracking, so Inheritance Tracking does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.etct import InvalidationPolicy
from repro.core.events import DeliveredEvent, EventType
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.memory.address_space import SegmentLayout
from repro.memory.shadow import MetadataMap, TwoLevelShadowMap

#: Accessible-bit values.
_INACCESSIBLE = 0
_ACCESSIBLE = 1

#: Check-categorisation value shared by load and store checks.
_CC_MEM_ACCESS = 1


@dataclass
class AllocationRecord:
    """Auxiliary record of one observed ``malloc`` (or ``realloc``)."""

    address: int
    size: int
    pc: int
    freed: bool = False


class AddrCheck(Lifeguard):
    """Checks that every memory access targets an allocated region."""

    name = "AddrCheck"
    uses_it = False
    uses_if = True
    description = "Accessibility checking of every memory access (one bit per byte)."

    def __init__(self, layout: Optional[SegmentLayout] = None) -> None:
        self._layout = layout or SegmentLayout()
        super().__init__()

    # ------------------------------------------------------------------ set-up

    def _configure(self) -> None:
        #: one accessible bit per application byte, two-level organisation
        self.accessible = TwoLevelShadowMap(level1_bits=16, level2_bits=14, element_size=1)
        self.malloc_records: List[AllocationRecord] = []
        self.free_records: List[int] = []
        self._live: Dict[int, AllocationRecord] = {}

        register = self.etct.register_handler
        register(
            EventType.MEM_LOAD, self._on_memory_access,
            handler_instructions=6, cacheable=True, check_category=_CC_MEM_ACCESS,
            cacheable_fields=("address", "size"),
        )
        register(
            EventType.MEM_STORE, self._on_memory_access,
            handler_instructions=6, cacheable=True, check_category=_CC_MEM_ACCESS,
            cacheable_fields=("address", "size"),
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
            EventType.REALLOC, self._on_realloc,
            handler_instructions=45, invalidation=InvalidationPolicy.FLUSH_ALL,
        )

    def primary_map(self) -> MetadataMap:
        return self.accessible

    def columnar_handlers(self):
        """Span fast paths (see :meth:`Lifeguard.columnar_handlers`)."""
        return {
            EventType.MEM_LOAD: (self._fast_mem_access, True),
            EventType.MEM_STORE: (self._fast_mem_access, True),
        }

    # ------------------------------------------------------------------ helpers

    def _in_heap(self, address: int) -> bool:
        return self._layout.heap_base <= address < self._layout.mmap_base

    # ------------------------------------------------------------------ handlers

    def _fast_mem_access(self, address: int, size: int, pc: int, thread_id: int) -> None:
        """Span twin of the accessibility check (engine calls it per run row)."""
        size = max(size, 1)
        # One metadata probe per access (the frequent path checks the first
        # byte's element; the slow path walks the rest of the range one
        # element at a time, testing whole accessible-bit spans per read).
        first_bits = self.meta_read_bits(address, 1)
        if not self._in_heap(address):
            return
        bad = first_bits != _ACCESSIBLE
        if not bad and size > 1:
            per_element = self.accessible.app_bytes_per_element
            read_element = self.accessible.read_element
            probe = address + 1
            end = address + size
            while probe < end:
                offset = probe % per_element
                upper = min(end, probe - offset + per_element)
                mask = ((1 << (upper - probe)) - 1) << offset
                if (read_element(probe) & mask) != mask:
                    bad = True
                    break
                probe = upper
        if bad:
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.INVALID_ACCESS,
                    lifeguard=self.name,
                    pc=pc,
                    address=address,
                    thread_id=thread_id,
                    message=f"access to unallocated address {address:#x} (size {size})",
                )
            )

    def _on_memory_access(self, event: DeliveredEvent) -> None:
        address = event.dest_addr if event.dest_addr is not None else event.src_addr
        if address is None:
            return
        self._fast_mem_access(address, event.size, event.pc, event.thread_id)

    def _on_malloc(self, event: DeliveredEvent) -> None:
        address, size = event.dest_addr, event.size
        if address is None or size <= 0:
            return
        record = AllocationRecord(address=address, size=size, pc=event.pc)
        self.malloc_records.append(record)
        self._live[address] = record
        self.meta_fill_range(address, size, 1, _ACCESSIBLE)

    def _on_free(self, event: DeliveredEvent) -> None:
        address = event.dest_addr
        if address is None:
            return
        self.free_records.append(address)
        record = self._live.pop(address, None)
        if record is None:
            if any(r.address == address and r.freed for r in self.malloc_records):
                self.report(
                    ErrorKind.DOUBLE_FREE, event,
                    f"double free of {address:#x}", address=address,
                )
            else:
                self.report(
                    ErrorKind.INVALID_FREE, event,
                    f"free of address {address:#x} that was never allocated",
                    address=address,
                )
            return
        record.freed = True
        self.meta_fill_range(record.address, record.size, 1, _INACCESSIBLE)

    def _on_realloc(self, event: DeliveredEvent) -> None:
        old_address = event.payload
        if old_address is not None:
            free_event = DeliveredEvent(
                event_type=EventType.FREE, pc=event.pc, dest_addr=old_address,
                thread_id=event.thread_id,
            )
            self._on_free(free_event)
        self._on_malloc(event)

    # ------------------------------------------------------------------ finalisation

    def finalize(self) -> None:
        """Report memory leaks: blocks allocated but never freed."""
        from repro.lifeguards.reports import ErrorReport

        for record in self._live.values():
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.MEMORY_LEAK,
                    lifeguard=self.name,
                    pc=record.pc,
                    address=record.address,
                    message=f"{record.size} bytes allocated at {record.address:#x} never freed",
                )
            )
