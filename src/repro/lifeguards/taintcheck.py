"""TAINTCHECK: dynamic taint analysis for overwrite exploits (Table 1).

All unverified program input (``read``/``recv`` system calls) is marked
*tainted*; taint propagates through data movement and computation; an error
is raised when tainted data reaches a critical sink -- an indirect jump or
call target, the format string of a printf-like call, or a system-call
argument.

Metadata is 2 taint bits per application byte packed so that one metadata
byte covers a 4-byte application word (the packing of Section 7.1 that
keeps frequent 4-byte operations to single-byte metadata accesses).  Per-
register taint lives in lifeguard globals.

Acceleration applicability (Figure 2): IT and LMA.  TAINTCHECK performs only
a modest number of checks, so Idempotent Filters are not employed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.etct import InvalidationPolicy
from repro.core.events import DeliveredEvent, EventType
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.memory.shadow import TwoLevelShadowMap

#: register taint values
_CLEAN = 0
_TAINTED = 1

#: per-byte taint field width (2 bits, of which the low bit is "tainted")
_TAINT_BITS = 2


class TaintCheck(Lifeguard):
    """Tracks taint propagation and flags tainted data in critical sinks."""

    name = "TaintCheck"
    uses_it = True
    uses_if = False
    description = (
        "Dynamic information-flow (taint) tracking with 2 metadata bits per byte; "
        "flags tainted jump targets, format strings and system-call arguments."
    )

    # ------------------------------------------------------------------ set-up

    def _configure(self) -> None:
        #: 2 taint bits per application byte (1-byte element per 4-byte word)
        self.taint = TwoLevelShadowMap(level1_bits=16, level2_bits=14, element_size=1)
        #: span masks: _span_taint_masks[n] has the tainted bit set for the
        #: first n per-byte fields of an element (shift into place per use)
        per_element = self.taint.app_bytes_per_element
        self._span_taint_masks = tuple(
            sum(1 << (i * _TAINT_BITS) for i in range(n))
            for n in range(per_element + 1)
        )
        #: whole-element fill pattern with every per-byte field = _TAINTED
        #: (the pattern ``fill_bits`` would replicate across the element)
        self._element_taint_pattern = sum(
            _TAINTED << (i * _TAINT_BITS) for i in range(per_element)
        )

        register = self.etct.register_handler
        # -- propagation -----------------------------------------------------
        register(EventType.IMM_TO_REG, self._on_imm_to_reg, handler_instructions=1)
        register(EventType.IMM_TO_MEM, self._on_imm_to_mem, handler_instructions=3)
        register(EventType.REG_TO_REG, self._on_reg_to_reg, handler_instructions=2)
        register(EventType.REG_TO_MEM, self._on_reg_to_mem, handler_instructions=3)
        register(EventType.MEM_TO_REG, self._on_mem_to_reg, handler_instructions=3)
        register(EventType.MEM_TO_MEM, self._on_mem_to_mem, handler_instructions=5)
        register(EventType.DEST_REG_OP_REG, self._on_dest_reg_op_reg, handler_instructions=3)
        register(EventType.DEST_REG_OP_MEM, self._on_dest_reg_op_mem, handler_instructions=3)
        register(EventType.DEST_MEM_OP_REG, self._on_dest_mem_op_reg, handler_instructions=4)
        register(EventType.OTHER, self._on_other, handler_instructions=15)
        # -- checks ------------------------------------------------------------
        register(EventType.INDIRECT_JUMP, self._on_indirect_jump, handler_instructions=4)
        # -- rare events ---------------------------------------------------------
        register(EventType.MALLOC, self._on_malloc, handler_instructions=25)
        register(EventType.SYSCALL_READ, self._on_taint_source, handler_instructions=30)
        register(EventType.SYSCALL_RECV, self._on_taint_source, handler_instructions=30)
        register(EventType.SYSCALL_OTHER, self._on_syscall_argument, handler_instructions=25)
        register(EventType.PRINTF, self._on_printf, handler_instructions=25)

    def primary_map(self) -> TwoLevelShadowMap:
        return self.taint

    def columnar_handlers(self):
        """Span fast paths (see :meth:`Lifeguard.columnar_handlers`)."""
        return {
            EventType.INDIRECT_JUMP: (self._fast_indirect_jump, True),
            EventType.IMM_TO_MEM: (self._fast_imm_to_mem, True),
            EventType.MEM_TO_MEM: (self._fast_mem_to_mem, True),
            EventType.MEM_TO_REG: (self._fast_mem_to_reg, True),
            EventType.REG_TO_MEM: (self._fast_reg_to_mem, True),
            EventType.DEST_REG_OP_MEM: (self._fast_dest_reg_op_mem, True),
        }

    # ------------------------------------------------------------------ metadata helpers

    def register_tainted(self, reg: Optional[int]) -> bool:
        """True if register ``reg`` currently carries tainted data."""
        return reg is not None and self.register_meta.get(reg, _CLEAN) == _TAINTED

    def memory_tainted(self, address: int, size: int) -> bool:
        """True if any byte of ``[address, address+size)`` is tainted.

        One metadata element read per covered element; the per-byte tainted
        bits of the covered span are tested with a single precomputed mask
        instead of a byte loop.
        """
        size = max(size, 1)
        per_element = self.shadow_bytes_per_element
        span_masks = self._span_taint_masks
        read_element = self.meta_read_element
        probe = address
        end = address + size
        while probe < end:
            element = read_element(probe)
            offset = probe % per_element
            element_base = probe - offset
            upper = min(end, element_base + per_element)
            if element and element & (
                span_masks[upper - probe] << (offset * _TAINT_BITS)
            ):
                return True
            probe = upper
        return False

    def set_memory_taint(self, address: int, size: int, tainted: bool) -> None:
        """Set the taint of every byte in ``[address, address+size)``."""
        size = max(size, 1)
        taint = self.taint
        per_element = taint.app_bytes_per_element
        if size == per_element and address % per_element == 0:
            # Fast path: one aligned element -- a single translation plus
            # one whole-element store, exactly what ``meta_fill_range`` +
            # ``fill_bits`` perform for this shape.
            self._mapper.translate(address)
            taint._fill_elements(
                address, 1, self._element_taint_pattern if tainted else 0
            )
            return
        self.meta_fill_range(address, size, _TAINT_BITS, _TAINTED if tainted else _CLEAN)

    @property
    def shadow_bytes_per_element(self) -> int:
        """Application bytes covered by one metadata element."""
        return self.taint.app_bytes_per_element

    def _set_register(self, reg: Optional[int], tainted: bool) -> None:
        if reg is not None:
            self.register_meta[reg] = _TAINTED if tainted else _CLEAN

    # ------------------------------------------------------------------ propagation handlers

    def _on_imm_to_reg(self, event: DeliveredEvent) -> None:
        self._set_register(event.dest_reg, False)

    def _fast_imm_to_mem(self, dest_addr, size) -> None:
        """Span twin: a constant store cleans its destination range."""
        if dest_addr is not None:
            self.set_memory_taint(dest_addr, size, False)

    def _on_imm_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_imm_to_mem(event.dest_addr, event.size)

    def _on_reg_to_reg(self, event: DeliveredEvent) -> None:
        self._set_register(event.dest_reg, self.register_tainted(event.src_reg))

    def _fast_reg_to_mem(self, src_reg, dest_addr, size) -> None:
        """Span twin: a register store writes the register's taint."""
        if dest_addr is not None:
            self.set_memory_taint(dest_addr, size, self.register_tainted(src_reg))

    def _on_reg_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_reg_to_mem(event.src_reg, event.dest_addr, event.size)

    def _fast_mem_to_reg(self, dest_reg, src_addr, size) -> None:
        """Span twin: a load inherits the source range's taint."""
        if src_addr is not None:
            self._set_register(dest_reg, self.memory_tainted(src_addr, size))

    def _on_mem_to_reg(self, event: DeliveredEvent) -> None:
        self._fast_mem_to_reg(event.dest_reg, event.src_addr, event.size)

    def _fast_mem_to_mem(self, dest_addr, src_addr, size) -> None:
        """Span twin: a memory copy moves per-byte taint."""
        if dest_addr is None or src_addr is None:
            return
        size = max(size, 1)
        taint = self.taint
        per_element = taint.app_bytes_per_element
        mapper = self._mapper
        if size == per_element and not dest_addr % per_element and not src_addr % per_element:
            # Aligned whole-element copy: keeping only the tainted bit of
            # every per-byte field (the byte loop writes 01/00 fields) is
            # one masked element move.
            taint.write_element(
                dest_addr, taint.read_element(src_addr) & self._element_taint_pattern
            )
            mapper.translate(src_addr)
            mapper.translate(dest_addr)
            return
        # Copy per-byte taint from source to destination.
        read_bits = taint.read_bits
        write_bits = taint.write_bits
        for offset in range(size):
            tainted = read_bits(src_addr + offset, _TAINT_BITS) & 1
            write_bits(dest_addr + offset, _TAINT_BITS, _TAINTED if tainted else _CLEAN)
        probe = 0
        while probe < size:
            mapper.translate(src_addr + probe)
            mapper.translate(dest_addr + probe)
            probe += per_element

    def _on_mem_to_mem(self, event: DeliveredEvent) -> None:
        self._fast_mem_to_mem(event.dest_addr, event.src_addr, event.size)

    def _on_dest_reg_op_reg(self, event: DeliveredEvent) -> None:
        tainted = self.register_tainted(event.dest_reg) or self.register_tainted(event.src_reg)
        self._set_register(event.dest_reg, tainted)

    def _fast_dest_reg_op_mem(self, dest_reg, src_reg, src_addr, size, pc, thread_id) -> None:
        """Span twin: a binary reg-op-mem taints the destination register."""
        tainted = self.register_tainted(dest_reg)
        if src_addr is not None:
            tainted = tainted or self.memory_tainted(src_addr, size)
        self._set_register(dest_reg, tainted)

    def _on_dest_reg_op_mem(self, event: DeliveredEvent) -> None:
        self._fast_dest_reg_op_mem(
            event.dest_reg, event.src_reg, event.src_addr, event.size,
            event.pc, event.thread_id,
        )

    def _on_dest_mem_op_reg(self, event: DeliveredEvent) -> None:
        if event.dest_addr is None:
            return
        tainted = self.register_tainted(event.src_reg) or self.memory_tainted(
            event.dest_addr, event.size
        )
        self.set_memory_taint(event.dest_addr, event.size, tainted)

    def _on_other(self, event: DeliveredEvent) -> None:
        # Conservative slow path: taint the destination if any named source
        # is tainted.
        tainted = self.register_tainted(event.src_reg)
        if event.src_addr is not None and event.size:
            tainted = tainted or self.memory_tainted(event.src_addr, event.size)
        if event.dest_reg is not None:
            self._set_register(event.dest_reg, tainted)
        if event.dest_addr is not None and event.size:
            self.set_memory_taint(event.dest_addr, event.size, tainted)

    # ------------------------------------------------------------------ check handlers

    def _fast_indirect_jump(self, src_reg, src_addr, size, pc, thread_id) -> None:
        """Span twin of the tainted-control-transfer sink check."""
        if self.register_tainted(src_reg):
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.TAINT_VIOLATION,
                    lifeguard=self.name,
                    pc=pc,
                    address=src_addr,
                    thread_id=thread_id,
                    message=f"indirect jump through tainted register r{src_reg}",
                )
            )
        if src_addr is not None and size and self.memory_tainted(src_addr, size):
            self.reports.append(
                ErrorReport(
                    kind=ErrorKind.TAINT_VIOLATION,
                    lifeguard=self.name,
                    pc=pc,
                    address=src_addr,
                    thread_id=thread_id,
                    message=f"indirect control transfer through tainted memory {src_addr:#x}",
                )
            )

    def _on_indirect_jump(self, event: DeliveredEvent) -> None:
        self._fast_indirect_jump(
            event.src_reg, event.src_addr, event.size, event.pc, event.thread_id
        )

    # ------------------------------------------------------------------ rare handlers

    def _on_malloc(self, event: DeliveredEvent) -> None:
        if event.dest_addr is not None and event.size:
            self.set_memory_taint(event.dest_addr, event.size, False)

    def _on_taint_source(self, event: DeliveredEvent) -> None:
        if event.dest_addr is not None and event.size:
            self.set_memory_taint(event.dest_addr, event.size, True)

    def _on_syscall_argument(self, event: DeliveredEvent) -> None:
        if event.dest_addr is not None and event.size and self.memory_tainted(
            event.dest_addr, event.size
        ):
            self.report(
                ErrorKind.TAINT_VIOLATION, event,
                f"tainted buffer {event.dest_addr:#x} passed as system-call argument",
                address=event.dest_addr,
            )

    def _on_printf(self, event: DeliveredEvent) -> None:
        if event.dest_addr is not None and self.memory_tainted(event.dest_addr, 4):
            self.report(
                ErrorKind.TAINT_VIOLATION, event,
                f"tainted format string at {event.dest_addr:#x}",
                address=event.dest_addr,
            )
