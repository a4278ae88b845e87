"""The composed acceleration pipeline used by the LBA consumer core.

For every log record popped from the log buffer the pipeline (Figure 1,
right-hand side):

1. classifies the record into its original events (one propagation event
   plus zero or more checking events for instruction records; one rare event
   for annotation records);
2. routes propagation events through **Inheritance Tracking** when the
   lifeguard registered propagation handlers and IT is enabled -- most are
   consumed by the IT table, the rest are delivered (possibly transformed);
3. routes checking events through the **Idempotent Filter** when the
   lifeguard marked the event type cacheable -- hits are discarded;
4. applies the ETCT invalidation policy of rare events to the filter and
   flushes conflicting IT entries before delivering them.

The **Metadata-TLB** is owned by the accelerator as well, but it is exercised
from inside lifeguard handlers (via :class:`repro.lifeguards.base.MetadataMapper`)
because only the lifeguard knows which addresses it needs to translate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.config import IFConfig, ITConfig, MTLBConfig, SystemConfig
from repro.core.etct import ETCT, ETCTEntry, InvalidationPolicy
from repro.core.events import (
    PROPAGATION_ORDINAL_MASK,
    AnnotationRecord,
    DeliveredEvent,
    EventType,
    InstructionRecord,
)
from repro.core.idempotent_filter import IdempotentFilter
from repro.core.inheritance_tracking import InheritanceTracker, ITState
from repro.core.mtlb import MetadataTLB
from repro.isa.registers import NUM_GPRS

Record = Union[InstructionRecord, AnnotationRecord]

#: Precomputed ordinals of the checking event types (hot classify path).
#: Public: the columnar engine's check classification indexes the same
#: flat ETCT table with the same ordinals.
ORD_MEM_LOAD = EventType.MEM_LOAD.ordinal
ORD_MEM_STORE = EventType.MEM_STORE.ordinal
ORD_ADDR_COMPUTE = EventType.ADDR_COMPUTE.ordinal
ORD_COND_TEST = EventType.COND_TEST.ordinal
ORD_INDIRECT_JUMP = EventType.INDIRECT_JUMP.ordinal
_ORD_MEM_LOAD = ORD_MEM_LOAD
_ORD_MEM_STORE = ORD_MEM_STORE
_ORD_ADDR_COMPUTE = ORD_ADDR_COMPUTE
_ORD_COND_TEST = ORD_COND_TEST
_ORD_INDIRECT_JUMP = ORD_INDIRECT_JUMP


@dataclass(frozen=True)
class AcceleratorConfig:
    """Which acceleration techniques are active and with what parameters."""

    it: ITConfig = field(default_factory=ITConfig)
    idempotent_filter: IFConfig = field(default_factory=IFConfig)
    mtlb: MTLBConfig = field(default_factory=MTLBConfig)

    @classmethod
    def from_system(cls, system: SystemConfig) -> "AcceleratorConfig":
        """Build an accelerator configuration from a full system configuration."""
        return cls(it=system.it, idempotent_filter=system.idempotent_filter, mtlb=system.mtlb)

    @classmethod
    def baseline(cls) -> "AcceleratorConfig":
        """All three techniques disabled (the LBA baseline)."""
        return cls(
            it=ITConfig(enabled=False),
            idempotent_filter=IFConfig(enabled=False),
            mtlb=MTLBConfig(enabled=False),
        )


@dataclass
class AcceleratorStats:
    """Counters of what the pipeline did with the record stream."""

    records_processed: int = 0
    instruction_records: int = 0
    annotation_records: int = 0
    propagation_events_in: int = 0
    propagation_events_delivered: int = 0
    check_events_in: int = 0
    check_events_filtered: int = 0
    check_events_delivered: int = 0
    rare_events_delivered: int = 0

    @property
    def events_delivered(self) -> int:
        """Total events handed to lifeguard handlers."""
        return (
            self.propagation_events_delivered
            + self.check_events_delivered
            + self.rare_events_delivered
        )

    @property
    def check_event_reduction(self) -> float:
        """Fraction of checking events not delivered.

        Every checking event reaches the lifeguard when the filter is off,
        so this equals ``1 - delivered / delivered without the filter``.
        """
        if not self.check_events_in:
            return 0.0
        return 1.0 - self.check_events_delivered / self.check_events_in


def update_event_reduction(without_it: AcceleratorStats, with_it: AcceleratorStats) -> float:
    """Fraction of update events Inheritance Tracking keeps from the lifeguard.

    The base is what the same lifeguard receives on the same records with
    IT off: ``1 - with_it delivered / without_it delivered``.  Self events
    (``reg_self`` / ``mem_self``) reach no lifeguard in either run (Figure
    4), so they count on neither side.
    """
    if not without_it.propagation_events_delivered:
        return 0.0
    return 1.0 - with_it.propagation_events_delivered / without_it.propagation_events_delivered


class EventAccelerator:
    """IT + IF + M-TLB composed into the LBA event dispatch pipeline."""

    def __init__(self, etct: ETCT, config: Optional[AcceleratorConfig] = None) -> None:
        self.etct = etct
        self.config = config or AcceleratorConfig()
        self.it = InheritanceTracker(self.config.it) if self.config.it.enabled else None
        self.idempotent_filter = (
            IdempotentFilter(self.config.idempotent_filter)
            if self.config.idempotent_filter.enabled
            else None
        )
        self.mtlb = MetadataTLB(self.config.mtlb) if self.config.mtlb.enabled else None
        self.stats = AcceleratorStats()
        self._uses_propagation = any(
            event_type.is_propagation for event_type in etct.registered_types()
        )
        #: live ordinal-indexed ETCT entry table (mutated in place by register)
        self._table = etct.handler_table()

    @property
    def uses_propagation(self) -> bool:
        """True if the attached lifeguard registered any propagation handler.

        The gate the pipeline applies before routing a record through IT;
        the columnar engine mirrors the same gate per run.
        """
        return self._uses_propagation

    def state_signature(self):
        """Hashable snapshot of the whole acceleration stack's internal state.

        Combines the IT table, the Idempotent-Filter contents (with LRU
        order) and the M-TLB CAM (with LRU order), with ``None`` for
        components that are disabled for the attached lifeguard.  Two
        accelerators that consumed the same record stream through different
        dispatch engines must compare equal here -- the differential
        conformance matrix and the fuzzing oracle both assert it.
        """
        return (
            self.it.state_signature() if self.it is not None else None,
            self.idempotent_filter.state_signature()
            if self.idempotent_filter is not None
            else None,
            self.mtlb.state_signature() if self.mtlb is not None else None,
        )

    # ------------------------------------------------------------------ main entry

    def process(self, record: Record) -> List[DeliveredEvent]:
        """Run one log record through the pipeline.

        Returns the events to deliver to the lifeguard, in order.
        """
        stats = self.stats
        stats.records_processed += 1
        # Exact-type checks cover the (only) concrete record types; the
        # isinstance normalization handles hypothetical subclasses without a
        # second copy of the dispatch body.
        kind = type(record)
        if kind is not InstructionRecord and kind is not AnnotationRecord:
            if isinstance(record, InstructionRecord):
                kind = InstructionRecord
            elif isinstance(record, AnnotationRecord):
                kind = AnnotationRecord
            else:
                raise TypeError(f"unsupported record type {type(record)!r}")
        if kind is AnnotationRecord:
            return self._process_annotation(record)
        # Instruction path, inlined (one call layer per record saved).
        stats.instruction_records += 1
        delivered = self._propagation_events(record)
        # Checking events only arise from memory, conditional-test or
        # indirect-jump instructions; skip classification otherwise.
        if record.is_load or record.is_store or record.is_cond_test or record.is_indirect_jump:
            delivered.extend(self._check_events(record))
        return delivered

    def _propagation_events(self, record: InstructionRecord) -> List[DeliveredEvent]:
        if not self._uses_propagation or not (
            (PROPAGATION_ORDINAL_MASK >> record.event_type.ordinal) & 1
        ):
            return []
        self.stats.propagation_events_in += 1
        if self.it is not None:
            candidates = self.it.process(record)
            if not candidates:
                # Consumed by the IT table: nothing to filter or deliver.
                return candidates
        else:
            candidates = [DeliveredEvent.from_instruction(record)]
        table = self._table
        delivered = [
            event
            for event in candidates
            if (entry := table[event.event_type.ordinal]) is not None
            and entry.handler is not None
        ]
        self.stats.propagation_events_delivered += len(delivered)
        return delivered

    def _check_events(self, record: InstructionRecord) -> List[DeliveredEvent]:
        delivered: List[DeliveredEvent] = []
        table = self._table
        stats = self.stats
        idempotent_filter = self.idempotent_filter
        filter_key = self.etct.filter_key
        it = self.it
        for event in self._classify_checks(record):
            entry = table[event.event_type.ordinal]
            if entry is None or entry.handler is None:
                continue
            # Register-flush check: only register-consulting check events
            # (not loads/stores) with at least one IT entry in the ``addr``
            # state can require a flush.
            if (
                it is not None
                and it.has_addr_state
                and event.event_type is not EventType.MEM_LOAD
                and event.event_type is not EventType.MEM_STORE
            ):
                delivered.extend(self._flush_registers_for_check(record, event))
            stats.check_events_in += 1
            if (
                idempotent_filter is not None
                and entry.cacheable
                and idempotent_filter.lookup_insert(filter_key(entry, event))
            ):
                stats.check_events_filtered += 1
                continue
            stats.check_events_delivered += 1
            delivered.append(event)
        return delivered

    def _flush_registers_for_check(
        self, record: InstructionRecord, event: DeliveredEvent
    ) -> List[DeliveredEvent]:
        """Flush IT registers a checking event will consult.

        Checking events such as address-computation, conditional-test and
        indirect-jump checks read *register* metadata.  When Inheritance
        Tracking holds a register in the ``addr`` state, the lifeguard's
        software copy of that register's metadata is stale, so the hardware
        first delivers the ``mem_to_reg`` flush (moving the register to the
        ``in lifeguard`` state) and only then the checking event.

        Precondition (enforced by the only caller, :meth:`_check_events`):
        IT is enabled with at least one ``addr``-state register, and the
        event is not a load/store check.
        """
        flushed: List[DeliveredEvent] = []
        table = self._table
        for reg in (event.src_reg, event.base_reg, event.index_reg):
            if reg is None or reg >= NUM_GPRS:
                continue
            if self.it.state_of(reg) is ITState.ADDR:
                flush_event = self.it._flush_register(reg, record)
                entry = table[flush_event.event_type.ordinal]
                if entry is not None and entry.handler is not None:
                    flushed.append(flush_event)
                    self.stats.propagation_events_delivered += 1
        return flushed

    def _classify_checks(self, record: InstructionRecord) -> List[DeliveredEvent]:
        """Derive the checking events of ``record`` the lifeguard registered for.

        Check events whose type has no registered handler are never
        constructed: classification consults the flat ETCT table first, so a
        propagation-only lifeguard pays nothing per load/store here.  This
        is observationally identical to classifying everything and dropping
        unregistered events afterwards (dropped events were never counted).
        """
        is_load = record.is_load
        is_store = record.is_store
        if not (is_load or is_store or record.is_cond_test or record.is_indirect_jump):
            return []
        table = self._table
        events: List[DeliveredEvent] = []
        # DeliveredEvent is constructed positionally here: (event_type, pc,
        # dest_reg, src_reg, dest_addr, src_addr, size, thread_id, base_reg,
        # index_reg, payload, origin).
        if (
            is_load
            and record.src_addr is not None
            and (entry := table[_ORD_MEM_LOAD]) is not None
            and entry.handler is not None
        ):
            events.append(
                DeliveredEvent(
                    EventType.MEM_LOAD, record.pc, None, None,
                    record.src_addr, record.src_addr, record.size,
                    record.thread_id, record.base_reg, record.index_reg,
                    None, record,
                )
            )
        if (
            is_store
            and record.dest_addr is not None
            and (entry := table[_ORD_MEM_STORE]) is not None
            and entry.handler is not None
        ):
            events.append(
                DeliveredEvent(
                    EventType.MEM_STORE, record.pc, None, None,
                    record.dest_addr, None, record.size,
                    record.thread_id, record.base_reg, record.index_reg,
                    None, record,
                )
            )
        if (
            (is_load or is_store)
            and (record.base_reg is not None or record.index_reg is not None)
            and (entry := table[_ORD_ADDR_COMPUTE]) is not None
            and entry.handler is not None
        ):
            events.append(
                DeliveredEvent(
                    EventType.ADDR_COMPUTE, record.pc, None, None,
                    record.dest_addr if record.dest_addr is not None else record.src_addr,
                    None, record.size, record.thread_id,
                    record.base_reg, record.index_reg, None, record,
                )
            )
        if (
            record.is_cond_test
            and (entry := table[_ORD_COND_TEST]) is not None
            and entry.handler is not None
        ):
            events.append(
                DeliveredEvent(
                    EventType.COND_TEST, record.pc, None, record.src_reg,
                    record.src_addr, record.src_addr, record.size,
                    record.thread_id, None, None, None, record,
                )
            )
        if (
            record.is_indirect_jump
            and (entry := table[_ORD_INDIRECT_JUMP]) is not None
            and entry.handler is not None
        ):
            events.append(
                DeliveredEvent(
                    EventType.INDIRECT_JUMP, record.pc, None, record.src_reg,
                    record.src_addr, record.src_addr, record.size or 4,
                    record.thread_id, None, None, None, record,
                )
            )
        return events

    # ------------------------------------------------------------------ annotations

    def _process_annotation(self, record: AnnotationRecord) -> List[DeliveredEvent]:
        self.stats.annotation_records += 1
        table = self._table
        entry = table[record.event_type.ordinal]
        delivered: List[DeliveredEvent] = []
        event = DeliveredEvent.from_annotation(record)
        # Rare events that will rewrite metadata over a range must first flush
        # any IT register inheriting from that range, so the lifeguard sees
        # consistent metadata.
        if self.it is not None and record.address is not None and record.size:
            synthetic = InstructionRecord(
                pc=record.pc,
                event_type=EventType.IMM_TO_MEM,
                dest_addr=record.address,
                size=record.size,
                is_store=True,
                thread_id=record.thread_id,
            )
            for flush_event in self.it._conflict_events(synthetic, record.address, record.size):
                flush_entry = table[flush_event.event_type.ordinal]
                if flush_entry is not None and flush_entry.handler is not None:
                    delivered.append(flush_event)
                    self.stats.propagation_events_delivered += 1
        if self.idempotent_filter is not None and entry is not None:
            if entry.invalidation & InvalidationPolicy.FLUSH_ALL:
                self.idempotent_filter.invalidate_all()
            elif entry.invalidation & InvalidationPolicy.MATCHING:
                self.idempotent_filter.invalidate_matching(self.etct.filter_key(entry, event))
        if entry is not None and entry.handler is not None:
            delivered.append(event)
            self.stats.rare_events_delivered += 1
        return delivered
