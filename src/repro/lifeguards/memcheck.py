"""MEMCHECK: accessibility plus uninitialised-value tracking (Table 1).

MEMCHECK extends ADDRCHECK with one *initialised* bit per byte (packed with
the accessible bit into 2 bits per application byte, so a one-byte metadata
element covers a four-byte application word) and an initialised state per
register.  Accessible bits are maintained at ``malloc``/``free``;
initialised bits are set by constant writes and system-call returns and
propagated through copies.

This implementation is the *modified* MEMCHECK of Section 4.2: instead of
lazily tracking uninitialised values through arbitrary computations, the
sources of non-unary operations are checked eagerly (their use is reported
immediately) and the destinations are treated as initialised.  This is the
variant that makes unary Inheritance Tracking applicable while remaining a
valid detector of uninitialised-value use.

Acceleration applicability (Figure 2): IT, IF and LMA all apply.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.etct import InvalidationPolicy
from repro.core.events import DeliveredEvent, EventType
from repro.lifeguards.addrcheck import AllocationRecord
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.memory.address_space import SegmentLayout
from repro.memory.shadow import TwoLevelShadowMap

#: Bit positions within the 2-bit per-byte metadata field.
_ACCESSIBLE_BIT = 0b01
_INITIALIZED_BIT = 0b10

#: Register metadata values (kept in lifeguard globals).
_REG_INITIALIZED = 0
_REG_UNINITIALIZED = 1

#: Check categorisation shared by load and store accessibility checks.
_CC_MEM_ACCESS = 1


class MemCheck(Lifeguard):
    """Detects accesses to unallocated memory and uses of uninitialised values."""

    name = "MemCheck"
    uses_it = True
    uses_if = True
    description = (
        "Accessibility checking plus eager uninitialised-value propagation tracking "
        "(2 metadata bits per application byte)."
    )

    def __init__(self, layout: Optional[SegmentLayout] = None) -> None:
        self._layout = layout or SegmentLayout()
        super().__init__()

    # ------------------------------------------------------------------ set-up

    def _configure(self) -> None:
        #: 2 bits (accessible, initialised) per application byte
        self.shadow = TwoLevelShadowMap(level1_bits=16, level2_bits=14, element_size=1)
        #: span masks over the element's 2-bit per-byte fields: entry n covers
        #: the first n fields (shift into place per use)
        per_element = self.shadow.app_bytes_per_element
        self._span_accessible_masks = tuple(
            sum(_ACCESSIBLE_BIT << (i * 2) for i in range(n)) for n in range(per_element + 1)
        )
        self._span_initialized_masks = tuple(
            sum(_INITIALIZED_BIT << (i * 2) for i in range(n)) for n in range(per_element + 1)
        )
        self.malloc_records: List[AllocationRecord] = []
        self._live: Dict[int, AllocationRecord] = {}

        register = self.etct.register_handler
        # -- checks --------------------------------------------------------
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
        register(EventType.ADDR_COMPUTE, self._on_addr_compute, handler_instructions=2)
        register(EventType.COND_TEST, self._on_cond_test, handler_instructions=3)
        # -- propagation ----------------------------------------------------
        register(EventType.IMM_TO_REG, self._on_imm_to_reg, handler_instructions=1)
        register(EventType.IMM_TO_MEM, self._on_imm_to_mem, handler_instructions=3)
        register(EventType.REG_TO_REG, self._on_reg_to_reg, handler_instructions=2)
        register(EventType.REG_TO_MEM, self._on_reg_to_mem, handler_instructions=3)
        register(EventType.MEM_TO_REG, self._on_mem_to_reg, handler_instructions=3)
        register(EventType.MEM_TO_MEM, self._on_mem_to_mem, handler_instructions=5)
        register(EventType.DEST_REG_OP_REG, self._on_dest_reg_op_reg, handler_instructions=3)
        register(EventType.DEST_REG_OP_MEM, self._on_dest_reg_op_mem, handler_instructions=4)
        register(EventType.DEST_MEM_OP_REG, self._on_dest_mem_op_reg, handler_instructions=4)
        register(EventType.OTHER, self._on_other, handler_instructions=15)
        # -- rare events ------------------------------------------------------
        register(
            EventType.MALLOC, self._on_malloc,
            handler_instructions=35, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.FREE, self._on_free,
            handler_instructions=35, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.REALLOC, self._on_realloc,
            handler_instructions=50, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.SYSCALL_READ, self._on_syscall_fill,
            handler_instructions=25, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.SYSCALL_RECV, self._on_syscall_fill,
            handler_instructions=25, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.SYSCALL_WRITE, self._on_syscall_input,
            handler_instructions=25, invalidation=InvalidationPolicy.FLUSH_ALL,
        )
        register(
            EventType.SYSCALL_OTHER, self._on_syscall_input,
            handler_instructions=25, invalidation=InvalidationPolicy.FLUSH_ALL,
        )

    def primary_map(self) -> TwoLevelShadowMap:
        return self.shadow

    def columnar_handlers(self):
        """Span fast paths (see :meth:`Lifeguard.columnar_handlers`)."""
        return {
            EventType.MEM_LOAD: (self._fast_mem_access, True),
            EventType.MEM_STORE: (self._fast_mem_access, True),
            EventType.ADDR_COMPUTE: (self._fast_addr_compute, False),
            EventType.COND_TEST: (self._fast_cond_test, True),
            EventType.IMM_TO_MEM: (self._fast_imm_to_mem, True),
            EventType.MEM_TO_MEM: (self._fast_mem_to_mem, True),
            EventType.MEM_TO_REG: (self._fast_mem_to_reg, True),
            EventType.REG_TO_MEM: (self._fast_reg_to_mem, True),
            EventType.DEST_REG_OP_MEM: (self._fast_dest_reg_op_mem, True),
        }

    # ------------------------------------------------------------------ region policy

    def _in_heap(self, address: int) -> bool:
        return self._layout.heap_base <= address < self._layout.mmap_base

    def _tracked_for_init(self, address: int) -> bool:
        """Initialisation is tracked for heap and stack/mmap regions; the
        static data and code segments are considered initialised by the loader."""
        return address >= self._layout.heap_base

    # ------------------------------------------------------------------ metadata helpers

    def _read_range_bits(self, address: int, size: int) -> List[int]:
        """Per-byte 2-bit metadata values over ``[address, address+size)``.

        Reads one metadata element per covered element (as a real handler
        would), not one per byte.
        """
        size = max(size, 1)
        values: List[int] = []
        per_element = self.shadow.app_bytes_per_element
        address_iter = address
        end = address + size
        while address_iter < end:
            element = self.meta_read_element(address_iter)
            element_base = address_iter - (address_iter % per_element)
            upper = min(end, element_base + per_element)
            for byte_addr in range(address_iter, upper):
                shift = (byte_addr % per_element) * 2
                values.append((element >> shift) & 0b11)
            address_iter = upper
        return values

    def _set_range_initialized(self, address: int, size: int, initialized: bool) -> None:
        size = max(size, 1)
        shadow = self.shadow
        read_element = shadow.read_element
        write_element = shadow.write_element
        per_element = shadow.app_bytes_per_element
        offset = address % per_element
        if offset + size <= per_element and address >= self._layout.heap_base:
            # Fast path: a fully tracked span inside one element -- one
            # read-modify-write plus one translation, exactly what the
            # general loop below performs for this shape.
            mask = self._span_initialized_masks[size] << (offset * 2)
            element = read_element(address)
            write_element(address, element | mask if initialized else element & ~mask)
            self._mapper.translate(address)
            return
        span_masks = self._span_initialized_masks
        tracked_base = self._layout.heap_base
        end = address + size
        probe = address
        # One read-modify-write per covered element, with the initialised
        # bits of the tracked byte span flipped via a single mask.
        while probe < end:
            offset = probe % per_element
            element_base = probe - offset
            upper = min(end, element_base + per_element)
            first_tracked = probe if probe >= tracked_base else min(upper, tracked_base)
            if first_tracked < upper:
                shift = (first_tracked - element_base) * 2
                mask = span_masks[upper - first_tracked] << shift
                element = read_element(probe)
                new = element | mask if initialized else element & ~mask
                write_element(probe, new)
            probe = upper
        # One translation per element for cost purposes.
        self._mapper.translate_span(address, end, per_element)

    def _range_bits_missing(self, address: int, size: int, span_masks) -> bool:
        """True if any covered byte lacks the span-mask bit.

        Reads one element per covered element (exactly the reads
        :meth:`_read_range_bits` would make, so the charged translations are
        unchanged) and tests whole spans with a mask instead of per byte.
        """
        size = max(size, 1)
        shadow = self.shadow
        per_element = shadow.app_bytes_per_element
        translate = self._mapper.translate
        read_element = shadow.read_element
        missing = False
        probe = address
        end = address + size
        while probe < end:
            translate(probe)
            element = read_element(probe)
            offset = probe % per_element
            upper = min(end, probe - offset + per_element)
            if not missing:
                mask = span_masks[upper - probe] << (offset * 2)
                missing = (element & mask) != mask
            probe = upper
        return missing

    def _range_uninitialized(self, address: int, size: int) -> bool:
        if not self._tracked_for_init(address):
            return False
        return self._range_bits_missing(address, size, self._span_initialized_masks)

    def _range_inaccessible(self, address: int, size: int) -> bool:
        if not self._in_heap(address):
            return False
        return self._range_bits_missing(address, size, self._span_accessible_masks)

    # ------------------------------------------------------------------ check handlers
    #
    # The frequent handlers are implemented as *span fast paths* taking the
    # event fields as scalars (the columnar engine calls them straight off
    # the decoded columns); the scalar ``_on_*`` handlers delegate to them,
    # so both consumption paths share one implementation.

    def _fast_mem_access(self, address: int, size: int, pc: int, thread_id: int) -> None:
        """Span twin of the load/store accessibility check."""
        layout = self._layout
        if not layout.heap_base <= address < layout.mmap_base:
            return
        shadow = self.shadow
        per_element = shadow.app_bytes_per_element
        offset = address % per_element
        span = max(size, 1)
        if offset + span <= per_element:
            # Whole access inside one element: one translation, one read.
            self._mapper.translate(address)
            element = shadow.read_element(address)
            mask = self._span_accessible_masks[span] << (offset * 2)
            if element & mask == mask:
                return
        elif not self._range_bits_missing(address, span, self._span_accessible_masks):
            return
        self.reports.append(
            ErrorReport(
                kind=ErrorKind.INVALID_ACCESS,
                lifeguard=self.name,
                pc=pc,
                address=address,
                thread_id=thread_id,
                message=f"access to unallocated address {address:#x}",
            )
        )

    def _on_memory_access(self, event: DeliveredEvent) -> None:
        address = event.dest_addr if event.dest_addr is not None else event.src_addr
        if address is None:
            return
        self._fast_mem_access(address, event.size, event.pc, event.thread_id)

    def _fast_addr_compute(self, base_reg, index_reg, pc, thread_id, address) -> None:
        """Span twin of the address-computation input check (no metadata)."""
        register_meta = self.register_meta
        for reg in (base_reg, index_reg):
            if reg is not None and register_meta.get(reg) == _REG_UNINITIALIZED:
                self.reports.append(
                    ErrorReport(
                        kind=ErrorKind.UNINITIALIZED_USE,
                        lifeguard=self.name,
                        pc=pc,
                        address=address,
                        thread_id=thread_id,
                        message=f"uninitialised value used as address register r{reg}",
                    )
                )

    def _on_addr_compute(self, event: DeliveredEvent) -> None:
        self._fast_addr_compute(
            event.base_reg, event.index_reg, event.pc, event.thread_id, event.dest_addr
        )

    def _fast_cond_test(self, src_reg, src_addr, size, pc, thread_id) -> None:
        """Span twin of the conditional-test input check."""
        if src_reg is not None and self.register_meta.get(src_reg) == _REG_UNINITIALIZED:
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.UNINITIALIZED_USE,
                    lifeguard=self.name,
                    pc=pc,
                    address=src_addr,
                    thread_id=thread_id,
                    message=f"uninitialised register r{src_reg} used in conditional test",
                )
            )
        if src_addr is not None and size and self._range_uninitialized(src_addr, size):
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.UNINITIALIZED_USE,
                    lifeguard=self.name,
                    pc=pc,
                    address=src_addr,
                    thread_id=thread_id,
                    message=f"uninitialised memory {src_addr:#x} used in conditional test",
                )
            )

    def _on_cond_test(self, event: DeliveredEvent) -> None:
        self._fast_cond_test(
            event.src_reg, event.src_addr, event.size, event.pc, event.thread_id
        )

    # ------------------------------------------------------------------ propagation handlers

    def _on_imm_to_reg(self, event: DeliveredEvent) -> None:
        if event.dest_reg is not None:
            self.register_meta[event.dest_reg] = _REG_INITIALIZED

    def _fast_imm_to_mem(self, dest_addr, size) -> None:
        """Span twin: a constant store initialises its destination range."""
        if dest_addr is not None:
            self._set_range_initialized(dest_addr, size, True)

    def _on_imm_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_imm_to_mem(event.dest_addr, event.size)

    def _on_reg_to_reg(self, event: DeliveredEvent) -> None:
        if event.dest_reg is not None and event.src_reg is not None:
            self.register_meta[event.dest_reg] = self.register_meta.get(
                event.src_reg, _REG_INITIALIZED
            )

    def _fast_reg_to_mem(self, src_reg, dest_addr, size) -> None:
        """Span twin: a register store copies the register's initialised state."""
        if dest_addr is None:
            return
        src_state = (
            self.register_meta.get(src_reg, _REG_INITIALIZED)
            if src_reg is not None
            else _REG_INITIALIZED
        )
        self._set_range_initialized(dest_addr, size, src_state == _REG_INITIALIZED)

    def _on_reg_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_reg_to_mem(event.src_reg, event.dest_addr, event.size)

    def _fast_mem_to_reg(self, dest_reg, src_addr, size) -> None:
        """Span twin: a load inherits the source range's initialised state."""
        if dest_reg is None or src_addr is None:
            return
        uninit = self._range_uninitialized(src_addr, size)
        self.register_meta[dest_reg] = _REG_UNINITIALIZED if uninit else _REG_INITIALIZED

    def _on_mem_to_reg(self, event: DeliveredEvent) -> None:
        self._fast_mem_to_reg(event.dest_reg, event.src_addr, event.size)

    def _fast_mem_to_mem(self, dest_addr, src_addr, size) -> None:
        """Span twin: a memory copy moves per-byte initialised bits."""
        if dest_addr is None or src_addr is None:
            return
        size = max(size, 1)
        shadow = self.shadow
        per_element = shadow.app_bytes_per_element
        if (
            size == per_element
            and not dest_addr % per_element
            and not src_addr % per_element
            and dest_addr >= self._layout.heap_base
        ):
            # Aligned whole-element copy over a fully tracked destination:
            # each field keeps its accessible bit and takes the source's
            # initialised bit -- one translation + one masked element move,
            # exactly what the byte loop below computes for this shape.
            self._mapper.translate(src_addr)
            src_element = shadow.read_element(src_addr)
            init_mask = self._span_initialized_masks[per_element]
            if not self._tracked_for_init(src_addr):
                # Untracked source (static data/code): considered initialised
                # by the loader, matching ``_range_uninitialized``.
                src_element = init_mask
            shadow.write_element(
                dest_addr,
                (shadow.read_element(dest_addr) & ~init_mask)
                | (src_element & init_mask),
            )
            return
        bits = self._read_range_bits(src_addr, size)
        for offset, src_bits in enumerate(bits):
            dest_byte = dest_addr + offset
            if not self._tracked_for_init(dest_byte):
                continue
            current = self.shadow.read_bits(dest_byte, 2)
            if src_bits & _INITIALIZED_BIT or not self._tracked_for_init(src_addr + offset):
                current |= _INITIALIZED_BIT
            else:
                current &= ~_INITIALIZED_BIT
            self.shadow.write_bits(dest_byte, 2, current)

    def _on_mem_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_mem_to_mem(event.dest_addr, event.src_addr, event.size)

    def _check_nonunary_sources(self, event: DeliveredEvent, check_dest_reg: bool = True) -> None:
        if (
            check_dest_reg
            and event.dest_reg is not None
            and self.register_meta.get(event.dest_reg) == _REG_UNINITIALIZED
        ):
            self.report(
                ErrorKind.UNINITIALIZED_USE, event,
                f"uninitialised register r{event.dest_reg} used in computation",
            )
        if event.src_reg is not None and self.register_meta.get(event.src_reg) == _REG_UNINITIALIZED:
            self.report(
                ErrorKind.UNINITIALIZED_USE, event,
                f"uninitialised register r{event.src_reg} used in computation",
            )
        if event.src_addr is not None and event.size and self._range_uninitialized(
            event.src_addr, event.size
        ):
            self.report(
                ErrorKind.UNINITIALIZED_USE, event,
                f"uninitialised memory {event.src_addr:#x} used in computation",
                address=event.src_addr,
            )

    def _on_dest_reg_op_reg(self, event: DeliveredEvent) -> None:
        self._check_nonunary_sources(event)
        if event.dest_reg is not None:
            self.register_meta[event.dest_reg] = _REG_INITIALIZED

    def _fast_dest_reg_op_mem(self, dest_reg, src_reg, src_addr, size, pc, thread_id) -> None:
        """Span twin of the binary reg-op-mem handler (no ``dest_addr``).

        The columnar engine only routes events without a destination
        address here, so the register-use reports' default address is
        ``None`` exactly as in the scalar path.
        """
        register_meta = self.register_meta
        reports = self.reports
        if dest_reg is not None and register_meta.get(dest_reg) == _REG_UNINITIALIZED:
            reports.append(
                ErrorReport(
                    kind=ErrorKind.UNINITIALIZED_USE,
                    lifeguard=self.name,
                    pc=pc,
                    address=None,
                    thread_id=thread_id,
                    message=f"uninitialised register r{dest_reg} used in computation",
                )
            )
        if src_reg is not None and register_meta.get(src_reg) == _REG_UNINITIALIZED:
            reports.append(
                ErrorReport(
                    kind=ErrorKind.UNINITIALIZED_USE,
                    lifeguard=self.name,
                    pc=pc,
                    address=None,
                    thread_id=thread_id,
                    message=f"uninitialised register r{src_reg} used in computation",
                )
            )
        if src_addr is not None and size and self._range_uninitialized(src_addr, size):
            reports.append(
                ErrorReport(
                    kind=ErrorKind.UNINITIALIZED_USE,
                    lifeguard=self.name,
                    pc=pc,
                    address=src_addr,
                    thread_id=thread_id,
                    message=f"uninitialised memory {src_addr:#x} used in computation",
                )
            )
        if dest_reg is not None:
            register_meta[dest_reg] = _REG_INITIALIZED

    def _on_dest_reg_op_mem(self, event: DeliveredEvent) -> None:
        self._check_nonunary_sources(event)
        if event.dest_reg is not None:
            self.register_meta[event.dest_reg] = _REG_INITIALIZED

    def _on_dest_mem_op_reg(self, event: DeliveredEvent) -> None:
        self._check_nonunary_sources(event, check_dest_reg=False)
        if event.dest_addr is not None and event.size and self._range_uninitialized(
            event.dest_addr, event.size
        ):
            self.report(
                ErrorKind.UNINITIALIZED_USE, event,
                f"uninitialised memory {event.dest_addr:#x} used in computation",
                address=event.dest_addr,
            )
        if event.dest_addr is not None:
            self._set_range_initialized(event.dest_addr, event.size, True)

    def _on_other(self, event: DeliveredEvent) -> None:
        # Slow path for instructions outside the Figure 5 taxonomy: be
        # conservative and mark everything the instruction may have written
        # as initialised.
        if event.dest_reg is not None:
            self.register_meta[event.dest_reg] = _REG_INITIALIZED
        if event.src_reg is not None:
            self.register_meta[event.src_reg] = _REG_INITIALIZED
        if event.dest_addr is not None and event.size:
            self._set_range_initialized(event.dest_addr, event.size, True)

    # ------------------------------------------------------------------ rare handlers

    def _on_malloc(self, event: DeliveredEvent) -> None:
        address, size = event.dest_addr, event.size
        if address is None or size <= 0:
            return
        record = AllocationRecord(address=address, size=size, pc=event.pc)
        self.malloc_records.append(record)
        self._live[address] = record
        # accessible but uninitialised
        self.meta_fill_range(address, size, 2, _ACCESSIBLE_BIT)

    def _on_free(self, event: DeliveredEvent) -> None:
        address = event.dest_addr
        if address is None:
            return
        record = self._live.pop(address, None)
        if record is None:
            freed_before = any(r.address == address and r.freed for r in self.malloc_records)
            kind = ErrorKind.DOUBLE_FREE if freed_before else ErrorKind.INVALID_FREE
            self.report(kind, event, f"bad free of {address:#x}", address=address)
            return
        record.freed = True
        self.meta_fill_range(record.address, record.size, 2, 0)

    def _on_realloc(self, event: DeliveredEvent) -> None:
        old_address = event.payload
        old_record = self._live.get(old_address) if old_address is not None else None
        preserved = min(old_record.size, event.size) if old_record is not None else 0
        if old_address is not None:
            self._on_free(
                DeliveredEvent(
                    event_type=EventType.FREE, pc=event.pc, dest_addr=old_address,
                    thread_id=event.thread_id,
                )
            )
        self._on_malloc(event)
        if preserved and event.dest_addr is not None:
            self._set_range_initialized(event.dest_addr, preserved, True)

    def _on_syscall_fill(self, event: DeliveredEvent) -> None:
        """read/recv return: the kernel initialised the buffer."""
        if event.dest_addr is not None and event.size:
            if self._range_inaccessible(event.dest_addr, event.size):
                self.report(
                    ErrorKind.INVALID_ACCESS, event,
                    f"system call writes to unallocated buffer {event.dest_addr:#x}",
                    address=event.dest_addr,
                )
            self._set_range_initialized(event.dest_addr, event.size, True)

    def _on_syscall_input(self, event: DeliveredEvent) -> None:
        """write/other system calls: their input buffers must be initialised."""
        if event.dest_addr is not None and event.size:
            if self._range_inaccessible(event.dest_addr, event.size):
                self.report(
                    ErrorKind.INVALID_ACCESS, event,
                    f"system call reads unallocated buffer {event.dest_addr:#x}",
                    address=event.dest_addr,
                )
            if self._range_uninitialized(event.dest_addr, event.size):
                self.report(
                    ErrorKind.UNINITIALIZED_USE, event,
                    f"uninitialised buffer {event.dest_addr:#x} passed to system call",
                    address=event.dest_addr,
                )

    # ------------------------------------------------------------------ finalisation

    def finalize(self) -> None:
        """Report leaked heap blocks."""
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
