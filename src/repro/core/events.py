"""Event model shared by the LBA substrate, the accelerators and the lifeguards.

The paper's framework (Figure 1) is driven by an *event stream*: as each
application instruction retires, the event-capture runtime emits a compressed
log record describing it, and rare high-level events (``malloc``, ``free``,
``lock``/``unlock``, system calls) are inserted as annotation records by
wrapper libraries.  On the consumer side each record is mapped to one or more
*events*; lifeguards register handlers per event type in the ETCT.

This module defines:

* :class:`EventType` -- the full event taxonomy.  The propagation-tracking
  subset mirrors Figure 5 of the paper exactly (``imm_to_reg`` ..
  ``dest_mem_op_reg`` plus ``other``); the checking subset covers memory
  loads/stores, address computations, conditional-test inputs and indirect
  jumps; the annotation subset covers the rare high-level events.
* :class:`InstructionRecord` -- the per-retired-instruction log record
  (program counter, event type, operand identifiers, data addresses/sizes).
* :class:`AnnotationRecord` -- software-inserted high-level event records.

Because billions of records flow through the consumer pipeline, the record
types are tuple-backed (:class:`typing.NamedTuple`) rather than dataclasses:
construction is a single ``tuple.__new__`` instead of one ``__setattr__``
per field, instances carry no per-object ``__dict__``, and immutability
comes for free.  Each :class:`EventType` member additionally carries a
precomputed integer ``ordinal`` (its definition index) so hot paths can use
flat list tables instead of enum-keyed dict lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple


class EventClass(enum.Enum):
    """Coarse classification used by the ETCT and the accelerators.

    ``UPDATE`` events may modify lifeguard metadata (propagation tracking),
    ``CHECK`` events only consult metadata and are candidates for idempotent
    filtering, ``RARE`` events are infrequent high-level events that are
    always delivered to the lifeguard, and ``NEUTRAL`` records describe
    instructions no lifeguard is interested in (direct jumps, nops); they
    still occupy log bandwidth and application-core cycles but are never
    delivered.
    """

    UPDATE = "update"
    CHECK = "check"
    RARE = "rare"
    NEUTRAL = "neutral"


class EventType(enum.Enum):
    """Every event type that can be delivered to a lifeguard.

    The first block matches the original-event column of Figure 5 in the
    paper and describes how an instruction moves data; the second block
    contains per-instruction checking events; the third block contains the
    rare annotation events of Figure 1.

    Every member carries an ``ordinal`` attribute -- its index in definition
    order -- assigned once at import time.  Ordinals index the flat handler
    tables of the ETCT and the wire-id space of the trace codec.
    """

    # --- propagation / metadata-update events (Figure 5) -------------------
    IMM_TO_REG = "imm_to_reg"
    IMM_TO_MEM = "imm_to_mem"
    REG_SELF = "reg_self"
    MEM_SELF = "mem_self"
    REG_TO_REG = "reg_to_reg"
    REG_TO_MEM = "reg_to_mem"
    MEM_TO_REG = "mem_to_reg"
    MEM_TO_MEM = "mem_to_mem"
    DEST_REG_OP_REG = "dest_reg_op_reg"
    DEST_REG_OP_MEM = "dest_reg_op_mem"
    DEST_MEM_OP_REG = "dest_mem_op_reg"
    OTHER = "other"

    # --- instruction-grain checking events ---------------------------------
    MEM_LOAD = "mem_load"
    MEM_STORE = "mem_store"
    ADDR_COMPUTE = "addr_compute"
    COND_TEST = "cond_test"
    INDIRECT_JUMP = "indirect_jump"

    # --- records no lifeguard cares about (direct control flow, nops) -------
    CONTROL = "control"

    # --- rare (annotation) events -------------------------------------------
    MALLOC = "malloc"
    FREE = "free"
    REALLOC = "realloc"
    LOCK = "lock"
    UNLOCK = "unlock"
    THREAD_CREATE = "thread_create"
    THREAD_EXIT = "thread_exit"
    SYSCALL_READ = "syscall_read"
    SYSCALL_RECV = "syscall_recv"
    SYSCALL_WRITE = "syscall_write"
    SYSCALL_OTHER = "syscall_other"
    PRINTF = "printf"

    @property
    def event_class(self) -> EventClass:
        """Return the coarse :class:`EventClass` of this event type."""
        return _CLASS_BY_ORDINAL[self.ordinal]

    @property
    def is_propagation(self) -> bool:
        """True if the event belongs to the Figure 5 propagation taxonomy."""
        return (PROPAGATION_ORDINAL_MASK >> self.ordinal) & 1 == 1

    @property
    def is_check(self) -> bool:
        """True if the event is an instruction-grain checking event."""
        return (CHECK_ORDINAL_MASK >> self.ordinal) & 1 == 1

    @property
    def is_rare(self) -> bool:
        """True if the event is a rare, software-annotated event."""
        return _CLASS_BY_ORDINAL[self.ordinal] is EventClass.RARE


_PROPAGATION_EVENTS = frozenset(
    {
        EventType.IMM_TO_REG,
        EventType.IMM_TO_MEM,
        EventType.REG_SELF,
        EventType.MEM_SELF,
        EventType.REG_TO_REG,
        EventType.REG_TO_MEM,
        EventType.MEM_TO_REG,
        EventType.MEM_TO_MEM,
        EventType.DEST_REG_OP_REG,
        EventType.DEST_REG_OP_MEM,
        EventType.DEST_MEM_OP_REG,
        EventType.OTHER,
    }
)

_CHECK_EVENTS = frozenset(
    {
        EventType.MEM_LOAD,
        EventType.MEM_STORE,
        EventType.ADDR_COMPUTE,
        EventType.COND_TEST,
        EventType.INDIRECT_JUMP,
    }
)

#: Event types that *read* the destination register before overwriting it
#: (``dest_reg op= src``).  Used by the IT state machine.
BINARY_DEST_REG_EVENTS = frozenset(
    {EventType.DEST_REG_OP_REG, EventType.DEST_REG_OP_MEM}
)

#: Syscall event types that introduce tainted data for TAINTCHECK.
TAINT_SOURCE_SYSCALLS = frozenset({EventType.SYSCALL_READ, EventType.SYSCALL_RECV})

# ---------------------------------------------------------------------------
# Precomputed ordinal tables.  ``member.ordinal`` is the definition index of
# an event type; the masks let hot paths test taxonomy membership with a
# shift-and-and instead of a frozenset hash lookup, and the tuple tables map
# ordinals back to members / classes for flat-list dispatch structures.
# ---------------------------------------------------------------------------

#: All event types in definition (= ordinal) order.
EVENT_TYPES: Tuple[EventType, ...] = tuple(EventType)
#: Number of event types; the size of every ordinal-indexed table.
NUM_EVENT_TYPES: int = len(EVENT_TYPES)

for _ordinal, _event_type in enumerate(EVENT_TYPES):
    _event_type.ordinal = _ordinal

#: Bitmask over ordinals of the Figure 5 propagation taxonomy.
PROPAGATION_ORDINAL_MASK: int = 0
for _event_type in _PROPAGATION_EVENTS:
    PROPAGATION_ORDINAL_MASK |= 1 << _event_type.ordinal

#: Bitmask over ordinals of the instruction-grain checking events.
CHECK_ORDINAL_MASK: int = 0
for _event_type in _CHECK_EVENTS:
    CHECK_ORDINAL_MASK |= 1 << _event_type.ordinal

_CLASS_BY_ORDINAL: Tuple[EventClass, ...] = tuple(
    EventClass.UPDATE
    if event_type in _PROPAGATION_EVENTS
    else EventClass.CHECK
    if event_type in _CHECK_EVENTS
    else EventClass.NEUTRAL
    if event_type is EventType.CONTROL
    else EventClass.RARE
    for event_type in EVENT_TYPES
)

del _ordinal, _event_type

# ---------------------------------------------------------------------------
# Instruction-record field presence/flag bits.
#
# One bit per optional :class:`InstructionRecord` field (plus the four
# boolean flags).  The trace codec stores exactly these bits as an
# instruction row's flags, and the columnar record pipeline
# (:class:`repro.trace.codec.RecordColumns`, :mod:`repro.lba.columnar`)
# uses the same bitmap to mark which column entries are live for a row, so
# a decoded flags word means the same thing at every layer.
# ---------------------------------------------------------------------------

F_DEST_REG = 1 << 0
F_SRC_REG = 1 << 1
F_DEST_ADDR = 1 << 2
F_SRC_ADDR = 1 << 3
F_SIZE = 1 << 4
F_IS_LOAD = 1 << 5
F_BASE_REG = 1 << 6
F_IS_STORE = 1 << 7
F_INDEX_REG = 1 << 8
F_IMMEDIATE = 1 << 9
F_COND_TEST = 1 << 10
F_INDIRECT_JUMP = 1 << 11
F_THREAD = 1 << 12


class InstructionRecord(NamedTuple):
    """A per-retired-instruction log record.

    Conceptually matches the paper's record: program counter, instruction
    type, input/output operand identifiers and any data addresses.  The
    compressed on-wire form is :mod:`repro.trace.codec`'s.

    Tuple-backed for throughput: the consumer pipeline constructs one of
    these per retired instruction, so creation cost dominates the decode
    hot path.  Field order is part of the (positional-construction) API.

    Attributes:
        pc: program counter of the retired instruction.
        event_type: the Figure 5 propagation classification of the
            instruction (``other`` for instructions outside the taxonomy).
        dest_reg: destination register index, if the destination is a
            register.
        src_reg: source register index, if a register source exists.
        dest_addr: destination memory address, if the destination is memory.
        src_addr: source memory address, if a memory source exists.
        size: memory access size in bytes (0 when no memory is touched).
        is_load: True if the instruction reads memory.
        is_store: True if the instruction writes memory.
        base_reg: base register used in address computation (or ``None``).
        index_reg: index register used in address computation (or ``None``).
        is_cond_test: True if the instruction sets condition flags from its
            inputs (``cmp``/``test``-like).
        is_indirect_jump: True if control transfers through a register or
            memory value.
        thread_id: id of the application thread that retired the instruction.
        immediate: immediate operand value (informational only).
    """

    pc: int
    event_type: EventType
    dest_reg: Optional[int] = None
    src_reg: Optional[int] = None
    dest_addr: Optional[int] = None
    src_addr: Optional[int] = None
    size: int = 0
    is_load: bool = False
    is_store: bool = False
    base_reg: Optional[int] = None
    index_reg: Optional[int] = None
    is_cond_test: bool = False
    is_indirect_jump: bool = False
    thread_id: int = 0
    immediate: Optional[int] = None

    def memory_range(self) -> Optional[Tuple[int, int]]:
        """Return ``(address, size)`` of the memory location written or read.

        Store addresses take precedence over load addresses because the
        conflict-detection logic of Inheritance Tracking cares about writes.
        """
        if self.dest_addr is not None and self.size:
            return (self.dest_addr, self.size)
        if self.src_addr is not None and self.size:
            return (self.src_addr, self.size)
        return None


class AnnotationRecord(NamedTuple):
    """A software-inserted high-level event record.

    Wrapper libraries around ``malloc``/``free``, the pthread lock
    primitives and the system call layer insert these records into the log
    (Section 3 of the paper).  Tuple-backed like :class:`InstructionRecord`.

    Attributes:
        event_type: one of the rare :class:`EventType` members.
        address: start address the event refers to (heap block, lock
            address, buffer address) or ``None``.
        size: size in bytes the event refers to (allocation size, buffer
            length) or 0.
        thread_id: application thread that produced the event.
        pc: program counter of the call site (informational).
        payload: free-form extra information (e.g. format string address).
    """

    event_type: EventType
    address: Optional[int] = None
    size: int = 0
    thread_id: int = 0
    pc: int = 0
    payload: Optional[int] = None


#: A log record is either a per-instruction record or an annotation record.
Record = object  # documented alias; isinstance checks use the two record types


@dataclass(slots=True)
class DeliveredEvent:
    """An event delivered to the lifeguard after acceleration.

    The accelerator pipeline may transform the original record (e.g. IT
    turns a filtered ``reg_to_mem`` whose source register inherits from
    address ``A`` into a ``mem_to_mem`` copy from ``A``), so the delivered
    event carries its own operand fields rather than simply pointing at the
    original record.
    """

    event_type: EventType
    pc: int = 0
    dest_reg: Optional[int] = None
    src_reg: Optional[int] = None
    dest_addr: Optional[int] = None
    src_addr: Optional[int] = None
    size: int = 0
    thread_id: int = 0
    base_reg: Optional[int] = None
    index_reg: Optional[int] = None
    payload: Optional[int] = None
    #: original record the event was derived from (for slow-path handlers)
    origin: Optional[object] = field(default=None, repr=False)

    @classmethod
    def from_instruction(cls, record: InstructionRecord, event_type: Optional[EventType] = None) -> "DeliveredEvent":
        """Build a delivered event mirroring an instruction record."""
        return cls(
            event_type or record.event_type,
            record.pc,
            record.dest_reg,
            record.src_reg,
            record.dest_addr,
            record.src_addr,
            record.size,
            record.thread_id,
            record.base_reg,
            record.index_reg,
            None,
            record,
        )

    @classmethod
    def from_annotation(cls, record: AnnotationRecord) -> "DeliveredEvent":
        """Build a delivered event mirroring an annotation record."""
        return cls(
            record.event_type,
            record.pc,
            None,
            None,
            record.address,
            None,
            record.size,
            record.thread_id,
            None,
            None,
            record.payload,
            record,
        )
