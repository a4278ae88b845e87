"""Lifeguard base machinery: metadata mapping and the lifeguard ABC.

A lifeguard in this framework is an object that

* owns the shadow-memory metadata describing the monitored application,
* registers event handlers (with their modelled instruction costs) in an
  :class:`repro.core.etct.ETCT`,
* translates application addresses to metadata addresses through its
  :class:`MetadataMapper`, built with the lifeguard, which uses the M-TLB's
  ``lma`` instruction once the hardware is attached and the
  five-instruction software sequence of Figure 7 otherwise, and
* appends :class:`repro.lifeguards.reports.ErrorReport` objects when an
  invariant of the monitored program is violated.

The mapper keeps no per-event scope: it counts translations and M-TLB
misses cumulatively (:class:`MapperStats`) and logs every metadata address
it touches, in order.  The consumer charges lifeguard-core cycles from the
counters' deltas around the events it delivers (and, with a cache model,
drains the log through it), so the handlers need to know nothing about
timing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.etct import ETCT
from repro.core.events import DeliveredEvent, EventType
from repro.core.mtlb import LMAConfig, MetadataTLB
from repro.isa.registers import NUM_GPRS
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.memory.shadow import TwoLevelShadowMap

#: Lifeguard-space virtual address of the software level-1 table, used to
#: model the extra memory access of a software (non-LMA) translation.
LEVEL1_TABLE_BASE = 0x5000_0000


@dataclass(slots=True)
class MapperStats:
    """Cumulative mapper statistics across the whole run."""

    translations: int = 0
    mtlb_hits: int = 0
    mtlb_misses: int = 0


class MetadataMapper:
    """Application-address → metadata-address translation front-end.

    Every lifeguard is built with a software-only mapper (no M-TLB), whose
    translations model the five-instruction sequence of Figure 7, level-1
    table load included.  :meth:`Lifeguard.attach_hardware` replaces it;
    given an M-TLB, the mapper configures it with the map's own geometry
    and translations execute ``lma`` (one instruction, no memory access on
    a hit), whose miss handler is :meth:`TwoLevelShadowMap.chunk_start`.

    Each translation appends the metadata addresses it touches to
    :attr:`metadata_log`: the level-1 table entry (software translations
    only), then the metadata element.  The consumer empties the log.
    """

    def __init__(self, shadow_map: TwoLevelShadowMap,
                 mtlb: Optional[MetadataTLB] = None) -> None:
        self.shadow_map = shadow_map
        self.mtlb = mtlb
        self.stats = MapperStats()
        #: metadata addresses touched since the consumer last emptied it
        self.metadata_log: List[int] = []
        if mtlb is not None:
            geometry = LMAConfig(
                level1_bits=shadow_map.level1_bits,
                level2_bits=shadow_map.level2_bits,
                element_size=shadow_map.element_size,
            )
            mtlb.lma_config(geometry, miss_handler=shadow_map.chunk_start)

    # ------------------------------------------------------------------ translation

    def translate(self, app_address: int) -> int:
        """Translate an application address, counting it and logging its accesses."""
        stats = self.stats
        stats.translations += 1
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
        else:
            shadow_map = self.shadow_map
            metadata_address = shadow_map.translate(app_address)
            self.metadata_log.append(
                LEVEL1_TABLE_BASE + shadow_map.level1_index(app_address) * 4
            )
        self.metadata_log.append(metadata_address)
        return metadata_address

    def translate_span(self, start: int, stop: int, step: int) -> None:
        """Translate every ``step``-th address in ``[start, stop)``.

        Used by the lifeguards' columnar span handlers for multi-byte
        accesses: a plain :meth:`translate` loop, so every counter, logged
        address and M-TLB state change is the scalar one.
        """
        translate = self.translate
        for address in range(start, stop, step):
            translate(address)


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
        #: per-register metadata kept in lifeguard globals (cheap to access)
        self.register_meta: Dict[int, int] = {reg: 0 for reg in range(NUM_GPRS)}
        self._configure()
        #: the software-only mapper; :meth:`attach_hardware` replaces it
        self._mapper = MetadataMapper(self.primary_map())

    # ------------------------------------------------------------------ set-up

    @abstractmethod
    def _configure(self) -> None:
        """Create shadow maps and register ETCT entries."""

    @abstractmethod
    def primary_map(self) -> TwoLevelShadowMap:
        """Return the lifeguard's dominant metadata map."""

    def attach_hardware(self, mtlb: Optional[MetadataTLB]) -> None:
        """Connect the lifeguard to the consumer-core hardware (or lack of it)."""
        self._mapper = MetadataMapper(self.primary_map(), mtlb)

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
        """The lifeguard's metadata mapper.

        The lifeguard is built with a software-only mapper (the
        five-instruction translation of Figure 7), so stand-alone use needs
        no set-up; :meth:`attach_hardware` replaces it with one that uses
        the consumer core's M-TLB when the core has one.  The dispatcher and
        the columnar engine go through this accessor; handlers read
        ``self._mapper``.
        """
        return self._mapper

    def mapper_stats(self) -> MapperStats:
        """Cumulative statistics of the current mapper."""
        return self._mapper.stats

    def columnar_handlers(self) -> Dict[EventType, Tuple[Callable, bool]]:
        """Span fast paths for the columnar dispatch engine.

        Maps an event type to ``(fast_handler, translates)``.  A fast
        handler is the scalar-argument twin of the registered ETCT handler
        for that event type: it performs *exactly* the same metadata reads/
        writes, mapper translations and error reports, in the same order,
        but takes the event fields as positional arguments so the engine
        never materialises a :class:`DeliveredEvent`.  ``translates``
        documents whether the handler can translate; the engine charges
        translations per chunk from the mapper's counters and does not read
        it.

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
        """
        return {}

    def meta_read_bits(self, app_address: int, bits: int) -> int:
        """Translate and read the per-byte bit field covering ``app_address``."""
        self._mapper.translate(app_address)
        return self.primary_map().read_bits(app_address, bits)

    def meta_read_element(self, app_address: int) -> int:
        """Translate and read the whole metadata element covering ``app_address``."""
        self._mapper.translate(app_address)
        return self.primary_map().read_element(app_address)

    def meta_write_element(self, app_address: int, value: int) -> None:
        """Translate and write the whole metadata element covering ``app_address``."""
        self._mapper.translate(app_address)
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
        chunk_span = (1 << shadow.level2_bits) * shadow.app_bytes_per_element
        self._mapper.translate_span(start, start + size, chunk_span)
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
