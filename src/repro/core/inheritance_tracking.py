"""Inheritance Tracking (IT) -- Section 4 of the paper.

Instead of propagating metadata *values* in hardware (which would tie the
hardware to one metadata format), IT tracks which memory address each
general-purpose register currently *inherits* from.  Restricting the
tracking to unary propagation (copies and immediate-operand computations)
means each register has at most one ancestor, so an 8-entry table suffices,
and most propagation events can be consumed by the hardware without
bothering the lifeguard.

The implementation follows the design of Figure 5:

* a per-register table whose entries are ``clear``, ``addr`` (with the
  inherited address and size) or ``in lifeguard``;
* a state transition and action table keyed by the original event type and
  the state of the source register, whose actions update the table, discard
  the event, transform it (e.g. a ``reg_to_mem`` whose source register
  inherits from address *A* is delivered as a ``mem_to_mem`` copy from *A*),
  or deliver it unchanged;
* write-after-read conflict detection: before a store whose delivery will
  overwrite the metadata of a range that some register inherits from, a
  ``mem_to_reg`` event is delivered for that register so the lifeguard
  materialises its metadata, and the register moves to the ``in lifeguard``
  state.  Overlap matching uses the pair of 4-byte-aligned addresses with
  byte bitmaps described in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import ITConfig
from repro.core.events import (
    EVENT_TYPES,
    F_DEST_REG,
    F_SRC_ADDR,
    DeliveredEvent,
    EventType,
    InstructionRecord,
)


class ITState(enum.Enum):
    """State of one IT table entry (Figure 5: 00 clear, 01 addr, 10 in lifeguard)."""

    CLEAR = "clear"
    ADDR = "addr"
    IN_LIFEGUARD = "in_lifeguard"


class ITAction(enum.Enum):
    """What the IT hardware decided to do with an incoming propagation event."""

    DISCARD = "discard"
    DELIVER = "deliver"
    TRANSFORM = "transform"


@dataclass(slots=True)
class ITEntry:
    """One register's inheritance record."""

    state: ITState = ITState.CLEAR
    address: Optional[int] = None
    size: int = 0

    def overlaps(self, address: int, size: int) -> bool:
        """True if this entry inherits from any byte of ``[address, address+size)``."""
        if self.state is not ITState.ADDR or self.address is None or size <= 0:
            return False
        store_lo = address
        store_hi = address + size
        own_lo = self.address
        own_hi = self.address + max(self.size, 1)
        return store_lo < own_hi and own_lo < store_hi


@dataclass
class ITStats:
    """Counters describing what IT did with the propagation event stream."""

    events_seen: int = 0
    events_discarded: int = 0
    events_delivered: int = 0
    events_transformed: int = 0
    conflict_flushes: int = 0
    other_flushes: int = 0

    @property
    def reduction(self) -> float:
        """Fraction of incoming propagation events not delivered to the lifeguard."""
        if not self.events_seen:
            return 0.0
        delivered = self.events_delivered + self.events_transformed
        return 1.0 - delivered / self.events_seen


class InheritanceTracker:
    """Unary Inheritance Tracking hardware model."""

    def __init__(self, config: Optional[ITConfig] = None) -> None:
        self.config = config or ITConfig()
        self._table: List[ITEntry] = [ITEntry() for _ in range(self.config.num_registers)]
        self.stats = ITStats()
        #: number of table entries currently in the ``addr`` state; lets the
        #: conflict detector skip the overlap scan entirely when no register
        #: inherits from memory (the common case in check-heavy phases)
        self._addr_count = 0

    # ------------------------------------------------------------------ helpers

    def entry(self, reg: int) -> ITEntry:
        """The IT table entry of register ``reg``."""
        return self._table[reg]

    def state_of(self, reg: int) -> ITState:
        """Current IT state of register ``reg``."""
        return self._table[reg].state

    def state_signature(self) -> Tuple[Tuple[str, Optional[int], int], ...]:
        """Hashable snapshot of the IT table contents.

        One ``(state_name, address, size)`` triple per register entry, in
        register order.  Two trackers that evolved through the same
        transition sequence produce equal signatures; differential tests use
        this to prove fast paths preserve the *internal* hardware state, not
        just the delivered events.
        """
        return tuple(
            (entry.state.name, entry.address, entry.size) for entry in self._table
        )

    @property
    def has_addr_state(self) -> bool:
        """True if any register is currently in the ``addr`` state.

        O(1) via the maintained counter; when False no conflict flush can
        possibly be needed, which the accelerator uses as a fast-path gate.
        """
        return self._addr_count > 0

    def reset(self) -> None:
        """Clear the whole table (e.g. at lifeguard (re)configuration)."""
        for entry in self._table:
            entry.state = ITState.CLEAR
            entry.address = None
            entry.size = 0
        self._addr_count = 0

    def _set_clear(self, reg: Optional[int]) -> None:
        if reg is None or reg >= len(self._table):
            return
        entry = self._table[reg]
        if entry.state is ITState.ADDR:
            self._addr_count -= 1
        entry.state = ITState.CLEAR
        entry.address = None
        entry.size = 0

    def _set_addr(self, reg: Optional[int], address: Optional[int], size: int) -> None:
        if reg is None or reg >= len(self._table) or address is None:
            return
        entry = self._table[reg]
        if entry.state is not ITState.ADDR:
            self._addr_count += 1
        entry.state = ITState.ADDR
        entry.address = address
        entry.size = max(size, 1)

    def _set_in_lifeguard(self, reg: Optional[int]) -> None:
        if reg is None or reg >= len(self._table):
            return
        entry = self._table[reg]
        if entry.state is ITState.ADDR:
            self._addr_count -= 1
        entry.state = ITState.IN_LIFEGUARD
        entry.address = None
        entry.size = 0

    # ------------------------------------------------------------------ conflicts

    def _conflicting_registers(self, address: Optional[int], size: int,
                               exclude: Optional[int] = None) -> List[int]:
        if address is None or size <= 0 or not self._addr_count:
            return []
        return [
            reg
            for reg, entry in enumerate(self._table)
            if reg != exclude and entry.overlaps(address, size)
        ]

    def _flush_register(self, reg: int, record: InstructionRecord) -> DeliveredEvent:
        """Materialise a register's metadata in the lifeguard via ``mem_to_reg``."""
        entry = self._table[reg]
        event = DeliveredEvent(
            event_type=EventType.MEM_TO_REG,
            pc=record.pc,
            dest_reg=reg,
            src_addr=entry.address,
            size=entry.size,
            thread_id=record.thread_id,
            origin=record,
        )
        self._set_in_lifeguard(reg)
        return event

    def _conflict_events(self, record: InstructionRecord, address: Optional[int],
                         size: int, exclude: Optional[int] = None) -> List[DeliveredEvent]:
        """Flush registers inheriting from ``[address, address+size)``.

        ``exclude`` names the event's own source register: when a register is
        stored to the very address it inherits from, the delivered (possibly
        transformed) event already reads that metadata before overwriting it,
        so no separate flush is needed.
        """
        events = []
        for reg in self._conflicting_registers(address, size, exclude):
            events.append(self._flush_register(reg, record))
            self.stats.conflict_flushes += 1
        return events

    # ------------------------------------------------------------------ main entry

    def process(self, record: InstructionRecord) -> List[DeliveredEvent]:
        """Run one propagation event through the state transition table.

        Returns the (possibly empty) list of events to deliver to the
        lifeguard, in order.  Conflict-resolution ``mem_to_reg`` flush events
        precede the event they protect, exactly as in Section 4.3.
        """
        handler = _TRANSITIONS_BY_ORDINAL[record.event_type.ordinal]
        if handler is None:
            raise ValueError(f"IT received a non-propagation event: {record.event_type}")
        self.stats.events_seen += 1
        delivered = handler(self, record)
        if not delivered:
            self.stats.events_discarded += 1
        return delivered

    # ------------------------------------------------------------------ run application
    #
    # Columnar twins of the absorbing transitions: the columnar dispatch
    # engine (repro.lba.columnar) feeds homogeneous record runs straight
    # from the decoded columns to these methods.  Only transitions that can
    # never deliver an event are run-applied -- the table updates and the
    # seen/discarded counters are exactly what a per-record process() loop
    # over the run would produce, with the loop constants hoisted and the
    # stats folded once per run.

    def absorb_noop_run(self, count: int) -> None:
        """Run-apply ``reg_self``/``mem_self``: discard ``count`` events unchanged."""
        self.stats.events_seen += count
        self.stats.events_discarded += count

    def absorb_clear_run(self, flags, dest_regs, lo: int, hi: int) -> None:
        """Run-apply ``imm_to_reg`` rows ``[lo, hi)``: clear each destination.

        Rows of one run share a presence bitmap (the columnar grouping
        key), so field presence is tested once for the whole span.
        """
        if flags[lo] & F_DEST_REG:
            table = self._table
            num_regs = len(table)
            addr_state = ITState.ADDR
            clear_state = ITState.CLEAR
            for row in range(lo, hi):
                reg = dest_regs[row]
                if reg < num_regs:
                    entry = table[reg]
                    if entry.state is addr_state:
                        self._addr_count -= 1
                    entry.state = clear_state
                    entry.address = None
                    entry.size = 0
        count = hi - lo
        self.stats.events_seen += count
        self.stats.events_discarded += count

    def absorb_mem_to_reg_run(self, flags, dest_regs, src_addrs, sizes,
                              lo: int, hi: int) -> None:
        """Run-apply ``mem_to_reg`` rows ``[lo, hi)``: record the inheritances.

        The hardware absorbs every load's inheritance without delivering
        anything, so a whole run collapses to table writes plus one batched
        stats update.  Rows of one run share a presence bitmap, so field
        presence is tested once for the whole span.
        """
        present = F_DEST_REG | F_SRC_ADDR
        if flags[lo] & present == present:
            table = self._table
            num_regs = len(table)
            addr_state = ITState.ADDR
            for row in range(lo, hi):
                reg = dest_regs[row]
                if reg < num_regs:
                    entry = table[reg]
                    if entry.state is not addr_state:
                        self._addr_count += 1
                        entry.state = addr_state
                    entry.address = src_addrs[row]
                    entry.size = sizes[row] or 1
        count = hi - lo
        self.stats.events_seen += count
        self.stats.events_discarded += count

    def flush_all_addr_registers(self, record: InstructionRecord) -> List[DeliveredEvent]:
        """Flush every register in the ``addr`` state (used before ``other`` events
        and by lifeguards around rare events that need precise register metadata)."""
        events = []
        for reg, entry in enumerate(self._table):
            if entry.state is ITState.ADDR:
                events.append(self._flush_register(reg, record))
                self.stats.other_flushes += 1
        return events

    # ------------------------------------------------------------------ transitions

    def _on_imm_to_reg(self, record: InstructionRecord) -> List[DeliveredEvent]:
        self._set_clear(record.dest_reg)
        return []

    def _on_imm_to_mem(self, record: InstructionRecord) -> List[DeliveredEvent]:
        events = self._conflict_events(record, record.dest_addr, record.size)
        events.append(DeliveredEvent.from_instruction(record))
        self.stats.events_delivered += 1
        return events

    def _on_reg_self(self, record: InstructionRecord) -> List[DeliveredEvent]:
        # Unary computation: the destination register keeps its inheritance.
        return []

    def _on_mem_self(self, record: InstructionRecord) -> List[DeliveredEvent]:
        # Unary computation on memory: the location's metadata is unchanged,
        # so registers inheriting from it stay valid and nothing is delivered.
        return []

    def _on_reg_to_reg(self, record: InstructionRecord) -> List[DeliveredEvent]:
        src_state = self.state_of(record.src_reg) if record.src_reg is not None else ITState.CLEAR
        if src_state is ITState.CLEAR:
            self._set_clear(record.dest_reg)
            return []
        if src_state is ITState.ADDR:
            src_entry = self.entry(record.src_reg)
            self._set_addr(record.dest_reg, src_entry.address, src_entry.size)
            return []
        event = DeliveredEvent.from_instruction(record)
        self._set_in_lifeguard(record.dest_reg)
        self.stats.events_delivered += 1
        return [event]

    def _on_reg_to_mem(self, record: InstructionRecord) -> List[DeliveredEvent]:
        events = self._conflict_events(
            record, record.dest_addr, record.size, exclude=record.src_reg
        )
        src_state = self.state_of(record.src_reg) if record.src_reg is not None else ITState.CLEAR
        if src_state is ITState.CLEAR:
            transformed = DeliveredEvent.from_instruction(record, EventType.IMM_TO_MEM)
            transformed.src_reg = None
            events.append(transformed)
            self.stats.events_transformed += 1
            return events
        if src_state is ITState.ADDR:
            src_entry = self.entry(record.src_reg)
            transformed = DeliveredEvent.from_instruction(record, EventType.MEM_TO_MEM)
            transformed.src_reg = None
            transformed.src_addr = src_entry.address
            events.append(transformed)
            self.stats.events_transformed += 1
            return events
        events.append(DeliveredEvent.from_instruction(record))
        self.stats.events_delivered += 1
        return events

    def _on_mem_to_reg(self, record: InstructionRecord) -> List[DeliveredEvent]:
        self._set_addr(record.dest_reg, record.src_addr, record.size)
        return []

    def _on_mem_to_mem(self, record: InstructionRecord) -> List[DeliveredEvent]:
        events = self._conflict_events(record, record.dest_addr, record.size)
        events.append(DeliveredEvent.from_instruction(record))
        self.stats.events_delivered += 1
        return events

    def _on_dest_reg_op_reg(self, record: InstructionRecord) -> List[DeliveredEvent]:
        src_state = self.state_of(record.src_reg) if record.src_reg is not None else ITState.CLEAR
        if src_state is ITState.CLEAR:
            # Known-clean source: leave the destination metadata unmodified,
            # which matches generic propagation (Section 4.3 optimisation).
            return []
        events: List[DeliveredEvent] = []
        if src_state is ITState.ADDR:
            src_entry = self.entry(record.src_reg)
            transformed = DeliveredEvent.from_instruction(record, EventType.DEST_REG_OP_MEM)
            transformed.src_reg = None
            transformed.src_addr = src_entry.address
            transformed.size = src_entry.size
            events.append(transformed)
            self.stats.events_transformed += 1
        else:
            events.append(DeliveredEvent.from_instruction(record))
            self.stats.events_delivered += 1
        # Non-unary result is treated as clean (Section 4.2).
        self._set_clear(record.dest_reg)
        return events

    def _on_dest_reg_op_mem(self, record: InstructionRecord) -> List[DeliveredEvent]:
        events: List[DeliveredEvent] = [DeliveredEvent.from_instruction(record)]
        self.stats.events_delivered += 1
        # Non-unary result is treated as clean (Section 4.2).
        self._set_clear(record.dest_reg)
        return events

    def _on_dest_mem_op_reg(self, record: InstructionRecord) -> List[DeliveredEvent]:
        src_state = self.state_of(record.src_reg) if record.src_reg is not None else ITState.CLEAR
        if src_state is ITState.CLEAR:
            # Destination memory metadata unchanged: discard, no conflict.
            return []
        events = self._conflict_events(
            record, record.dest_addr, record.size, exclude=record.src_reg
        )
        if src_state is ITState.ADDR:
            # Materialise the source register's metadata so the lifeguard can
            # combine it with (and check it against) the destination's.
            events.append(self._flush_register(record.src_reg, record))
            self.stats.conflict_flushes += 1
        events.append(DeliveredEvent.from_instruction(record))
        self.stats.events_delivered += 1
        return events

    def _on_other(self, record: InstructionRecord) -> List[DeliveredEvent]:
        events = self.flush_all_addr_registers(record)
        events.append(DeliveredEvent.from_instruction(record))
        self.stats.events_delivered += 1
        return events


_TRANSITIONS = {
    EventType.IMM_TO_REG: InheritanceTracker._on_imm_to_reg,
    EventType.IMM_TO_MEM: InheritanceTracker._on_imm_to_mem,
    EventType.REG_SELF: InheritanceTracker._on_reg_self,
    EventType.MEM_SELF: InheritanceTracker._on_mem_self,
    EventType.REG_TO_REG: InheritanceTracker._on_reg_to_reg,
    EventType.REG_TO_MEM: InheritanceTracker._on_reg_to_mem,
    EventType.MEM_TO_REG: InheritanceTracker._on_mem_to_reg,
    EventType.MEM_TO_MEM: InheritanceTracker._on_mem_to_mem,
    EventType.DEST_REG_OP_REG: InheritanceTracker._on_dest_reg_op_reg,
    EventType.DEST_REG_OP_MEM: InheritanceTracker._on_dest_reg_op_mem,
    EventType.DEST_MEM_OP_REG: InheritanceTracker._on_dest_mem_op_reg,
    EventType.OTHER: InheritanceTracker._on_other,
}

#: Flat transition table indexed by ``EventType.ordinal`` (None for event
#: types outside the Figure 5 propagation taxonomy).
_TRANSITIONS_BY_ORDINAL = tuple(
    _TRANSITIONS.get(event_type) for event_type in EVENT_TYPES
)
