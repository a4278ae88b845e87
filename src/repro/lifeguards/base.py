"""Lifeguard base machinery: metadata mapping and the lifeguard ABC.

A lifeguard in this framework is an object that

* owns the shadow-memory metadata describing the monitored application,
* registers event handlers (with their modelled instruction costs) in an
  :class:`repro.core.etct.ETCT`,
* translates application addresses to metadata addresses through a
  :class:`MetadataMapper`, which uses the M-TLB's ``lma`` instruction when
  the hardware is present and the five-instruction software sequence of
  Figure 7 otherwise, and
* appends :class:`repro.lifeguards.reports.ErrorReport` objects when an
  invariant of the monitored program is violated.

The mapper also records, per delivered event, how many translations were
performed and which metadata addresses were touched, so the dispatcher can
charge realistic lifeguard-core cycles without the handlers having to know
anything about timing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.etct import ETCT
from repro.core.events import DeliveredEvent, EventType
from repro.core.mtlb import LMAConfig, MetadataTLB
from repro.isa.registers import NUM_GPRS
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.memory.shadow import MetadataMap, TwoLevelShadowMap

#: Lifeguard-space virtual address of the software level-1 table, used to
#: model the extra memory access of a software (non-LMA) translation.
LEVEL1_TABLE_BASE = 0x5000_0000


@dataclass(slots=True)
class EventUsage:
    """What one event handler did, as recorded by the mapper."""

    translations: int = 0
    mtlb_misses: int = 0
    metadata_addresses: List[int] = field(default_factory=list)


@dataclass(slots=True)
class MapperStats:
    """Cumulative mapper statistics across the whole run."""

    translations: int = 0
    mtlb_hits: int = 0
    mtlb_misses: int = 0


class MetadataMapper:
    """Application-address → metadata-address translation front-end.

    When an M-TLB is attached, translations execute the ``lma`` instruction
    (one lifeguard instruction, one cycle, no memory access on a hit); the
    software miss handler walks the two-level map and refills with
    ``lma_fill``.  Without an M-TLB, each translation models the
    five-instruction software sequence of Figure 7, including the level-1
    table load.
    """

    def __init__(self, shadow_map: MetadataMap, mtlb: Optional[MetadataTLB] = None,
                 lma_geometry: Optional[LMAConfig] = None) -> None:
        self.shadow_map = shadow_map
        self.mtlb = mtlb
        self.stats = MapperStats()
        self._usage = EventUsage()
        #: hot-path shortcut: two-level maps pay a level-1 table load on the
        #: software (non-LMA) translation path
        self._software_two_level = mtlb is None and isinstance(shadow_map, TwoLevelShadowMap)
        if mtlb is not None:
            geometry = lma_geometry or _geometry_from_map(shadow_map)
            mtlb.lma_config(geometry, miss_handler=self._miss_handler)

    # ------------------------------------------------------------------ internals

    def _miss_handler(self, app_address: int) -> int:
        """Software M-TLB miss handler: compute the chunk start via the map."""
        metadata_address = self.shadow_map.translate(app_address)
        offset_in_chunk = 0
        if isinstance(self.shadow_map, TwoLevelShadowMap):
            offset_in_chunk = (
                self.shadow_map.level2_index(app_address) * self.shadow_map.element_size
            )
        return metadata_address - offset_in_chunk

    # ------------------------------------------------------------------ translation

    def translate(self, app_address: int) -> int:
        """Translate an application address, recording cost bookkeeping."""
        stats = self.stats
        usage = self._usage
        stats.translations += 1
        usage.translations += 1
        mtlb = self.mtlb
        if mtlb is not None:
            # Inlined M-TLB hit path (the overwhelmingly common case): one
            # CAM probe plus LRU touch, without the extra ``lma`` frame.
            # The miss path goes through ``lma`` proper, whose lookup/miss
            # counters then account the probe we skipped here.
            address = app_address & 0xFFFF_FFFF
            entries = mtlb._entries
            level1 = address >> mtlb._l1_shift
            chunk_start = entries.get(level1)
            if chunk_start is not None and mtlb.lma_config_register is not None:
                entries.move_to_end(level1)
                mtlb_stats = mtlb.stats
                mtlb_stats.lookups += 1
                mtlb_stats.hits += 1
                stats.mtlb_hits += 1
                metadata_address = chunk_start + (
                    (address >> mtlb._offset_bits) & mtlb._l2_mask
                ) * mtlb._element_size
            else:
                metadata_address, hit = mtlb.lma(app_address)
                if hit:
                    stats.mtlb_hits += 1
                else:
                    stats.mtlb_misses += 1
                    usage.mtlb_misses += 1
        else:
            metadata_address = self.shadow_map.translate(app_address)
            if self._software_two_level:
                level1_entry = LEVEL1_TABLE_BASE + self.shadow_map.level1_index(app_address) * 4
                usage.metadata_addresses.append(level1_entry)
        usage.metadata_addresses.append(metadata_address)
        return metadata_address

    def translate_span(self, start: int, stop: int, step: int) -> None:
        """Translate every ``step``-th address in ``[start, stop)``.

        The batch twin of calling :meth:`translate` in a loop, used by the
        lifeguards' columnar span handlers: the M-TLB runs its batched
        ``lma_run`` (same CAM state, fills and miss-handler order), the
        software path hoists the map lookup, and the mapper/usage counters
        are folded once -- every observable side effect is identical to the
        scalar loop.
        """
        if start >= stop:
            return
        stats = self.stats
        usage = self._usage
        mtlb = self.mtlb
        if mtlb is not None:
            translations, misses = mtlb.lma_run(
                start, stop, step, usage.metadata_addresses
            )
            stats.translations += translations
            stats.mtlb_misses += misses
            stats.mtlb_hits += translations - misses
            usage.translations += translations
            usage.mtlb_misses += misses
            return
        translate_map = self.shadow_map.translate
        append = usage.metadata_addresses.append
        count = 0
        if self._software_two_level:
            level1_index = self.shadow_map.level1_index
            for address in range(start, stop, step):
                count += 1
                metadata_address = translate_map(address)
                append(LEVEL1_TABLE_BASE + level1_index(address) * 4)
                append(metadata_address)
        else:
            for address in range(start, stop, step):
                count += 1
                append(translate_map(address))
        stats.translations += count
        usage.translations += count

    # ------------------------------------------------------------------ event scoping

    def begin_event(self) -> None:
        """Start collecting usage for a new delivered event.

        The mapper reuses one :class:`EventUsage` object across events
        (reset in place here) so the per-event hot path allocates nothing;
        the object returned by :meth:`end_event` is therefore only valid
        until the next :meth:`begin_event`.
        """
        usage = self._usage
        usage.translations = 0
        usage.mtlb_misses = 0
        usage.metadata_addresses.clear()

    def end_event(self) -> EventUsage:
        """Return the usage recorded since :meth:`begin_event` (valid until
        the next :meth:`begin_event` resets it)."""
        return self._usage


def _geometry_from_map(shadow_map: MetadataMap) -> LMAConfig:
    """Derive the ``lma_config`` geometry from a two-level shadow map."""
    if isinstance(shadow_map, TwoLevelShadowMap):
        return LMAConfig(
            level1_bits=shadow_map.level1_bits,
            level2_bits=shadow_map.level2_bits,
            element_size=shadow_map.element_size,
        )
    return LMAConfig()


@dataclass(frozen=True)
class LifeguardInfo:
    """Static description of a lifeguard (the rows of Figure 2)."""

    name: str
    uses_it: bool
    uses_if: bool
    uses_lma: bool = True
    description: str = ""


class Lifeguard(ABC):
    """Base class of all lifeguards.

    Subclasses must:

    * set the class attributes ``name``, ``uses_it`` and ``uses_if``
      (Figure 2 applicability matrix);
    * build their shadow maps and register their event handlers (with cost
      annotations) in ``self.etct`` inside ``_configure()``;
    * return their dominant shadow map from :meth:`primary_map` so the
      mapper and the M-TLB geometry can be derived from it.
    """

    #: lifeguard name used in reports and experiment tables
    name: str = "lifeguard"
    #: whether Inheritance Tracking applies (propagation-style lifeguards)
    uses_it: bool = False
    #: whether Idempotent Filters apply (check-heavy lifeguards)
    uses_if: bool = False
    #: one-line description used by documentation and Figure 2
    description: str = ""

    def __init__(self) -> None:
        self.etct = ETCT()
        self.reports: List[ErrorReport] = []
        self._mapper: Optional[MetadataMapper] = None
        #: per-register metadata kept in lifeguard globals (cheap to access)
        self.register_meta: Dict[int, int] = {reg: 0 for reg in range(NUM_GPRS)}
        self._configure()

    # ------------------------------------------------------------------ set-up

    @abstractmethod
    def _configure(self) -> None:
        """Create shadow maps and register ETCT entries."""

    @abstractmethod
    def primary_map(self) -> MetadataMap:
        """Return the lifeguard's dominant metadata map."""

    def lma_geometry(self) -> LMAConfig:
        """The ``lma_config`` geometry for this lifeguard's metadata layout."""
        return _geometry_from_map(self.primary_map())

    def attach_hardware(self, mtlb: Optional[MetadataTLB]) -> None:
        """Connect the lifeguard to the consumer-core hardware (or lack of it)."""
        self._mapper = MetadataMapper(self.primary_map(), mtlb, self.lma_geometry())

    @classmethod
    def info(cls) -> LifeguardInfo:
        """Static applicability/description record for this lifeguard."""
        return LifeguardInfo(
            name=cls.name,
            uses_it=cls.uses_it,
            uses_if=cls.uses_if,
            description=cls.description,
        )

    # ------------------------------------------------------------------ helpers

    def mapper(self) -> MetadataMapper:
        """The metadata mapper, created on first use.

        :meth:`attach_hardware` installs a hardware-aware mapper; in
        stand-alone (non-LBA) use a software-translation-only mapper is
        created lazily.  This is the public accessor the dispatcher and
        handlers go through.
        """
        if self._mapper is None:
            # Stand-alone (non-LBA) use: software translation only.
            self._mapper = MetadataMapper(self.primary_map(), None, None)
        return self._mapper

    def mapper_stats(self) -> MapperStats:
        """Cumulative mapper statistics (empty when no event ran yet)."""
        return self._mapper.stats if self._mapper is not None else MapperStats()

    def columnar_handlers(self) -> Dict[EventType, Tuple[Callable, bool]]:
        """Span fast paths for the columnar dispatch engine.

        Maps an event type to ``(fast_handler, translates)``.  A fast
        handler is the scalar-argument twin of the registered ETCT handler
        for that event type: it performs *exactly* the same metadata reads/
        writes, mapper translations and error reports, but takes the event
        fields as positional arguments so the engine never materialises a
        :class:`DeliveredEvent`.  ``translates`` tells the engine whether
        the handler can perform metadata translations (when ``False`` the
        engine skips the per-event usage scoping entirely).

        The expected signature per event type (arguments may be ``None``
        exactly when the corresponding event field would be)::

            MEM_LOAD / MEM_STORE    fn(address, size, pc, thread_id)
            ADDR_COMPUTE            fn(base_reg, index_reg, pc, thread_id, address)
            COND_TEST               fn(src_reg, src_addr, size, pc, thread_id)
            INDIRECT_JUMP           fn(src_reg, src_addr, size, pc, thread_id)
            IMM_TO_MEM              fn(dest_addr, size)
            MEM_TO_MEM              fn(dest_addr, src_addr, size)
            MEM_TO_REG              fn(dest_reg, src_addr, size)
            REG_TO_MEM              fn(src_reg, dest_addr, size)
            DEST_REG_OP_MEM         fn(dest_reg, src_reg, src_addr, size, pc, thread_id)

        The default is no fast paths; lifeguards opt in per event type.
        Subclasses that override scalar handlers must override this too (or
        return ``{}``), otherwise the inherited fast paths would bypass
        their extensions.

        Contract for ``COND_TEST`` / ``INDIRECT_JUMP`` / ``DEST_REG_OP_MEM``
        fast handlers: they may translate only through their ``src_addr``
        argument (the event's only memory operand) -- the engine skips the
        per-event usage scoping for whole runs without a source address.
        """
        return {}

    def meta_read_bits(self, app_address: int, bits: int) -> int:
        """Translate and read the per-byte bit field covering ``app_address``."""
        self.mapper().translate(app_address)
        return self.primary_map().read_bits(app_address, bits)

    def meta_read_element(self, app_address: int) -> int:
        """Translate and read the whole metadata element covering ``app_address``."""
        self.mapper().translate(app_address)
        return self.primary_map().read_element(app_address)

    def meta_write_element(self, app_address: int, value: int) -> None:
        """Translate and write the whole metadata element covering ``app_address``."""
        self.mapper().translate(app_address)
        self.primary_map().write_element(app_address, value)

    def meta_fill_range(self, start: int, size: int, bits: int, value: int) -> None:
        """Fill the per-byte field over an address range (one translation per chunk).

        Rare-event handlers (``malloc``, ``free``, taint sources) fill whole
        block ranges; real implementations translate once per level-2 chunk
        and then use wide stores, which is what the cost bookkeeping mirrors.
        """
        if size <= 0:
            return
        shadow = self.primary_map()
        chunk_span = shadow.app_bytes_per_element
        if isinstance(shadow, TwoLevelShadowMap):
            chunk_span = (1 << shadow.level2_bits) * shadow.app_bytes_per_element
        self.mapper().translate_span(start, start + size, chunk_span)
        shadow.fill_bits(start, size, bits, value)

    def report(self, kind: ErrorKind, event: DeliveredEvent, message: str,
               address: Optional[int] = None) -> None:
        """Append an error report derived from ``event``."""
        self.reports.append(
            ErrorReport(
                kind=kind,
                lifeguard=self.name,
                pc=event.pc,
                address=address if address is not None else event.dest_addr,
                thread_id=event.thread_id,
                message=message,
            )
        )

    def reports_of(self, kind: ErrorKind) -> List[ErrorReport]:
        """All reports of a given kind (test convenience)."""
        return [report for report in self.reports if report.kind is kind]

    def finalize(self) -> None:
        """Hook called at the end of a monitored run (e.g. leak reporting)."""
