"""Consumer-side event dispatch.

The dispatcher is the lifeguard core's ``nlba`` loop: it pops records from
the log buffer, runs them through the acceleration pipeline
(:class:`repro.core.accelerator.EventAccelerator`), and for every event the
pipeline delivers it invokes the registered handler and charges
lifeguard-core cycles:

* ``nlba`` dispatch overhead per delivered event;
* the handler's frequent-path instructions (from its ETCT entry);
* metadata-mapping instructions -- one ``lma`` per translation when the
  M-TLB is enabled, the five-instruction software walk (plus a level-1
  table load) otherwise, and the software miss-handler cost on M-TLB misses;
* one cycle per metadata access without a cache model (the metadata
  element, plus the level-1 table load of a software translation), or the
  latency of each access through the lifeguard core's private L1/shared L2
  with one.

Every charge but the handler's own instructions is linear in the mapper's
counters (:class:`repro.lifeguards.base.MapperStats`), so :meth:`consume`
charges a record's mapping, miss-handler and metadata-access cycles once,
from the counters' deltas around its events; with a cache model it drains
the mapper's metadata-address log through it, in translation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.cache.hierarchy import AccessType, MemoryHierarchy
from repro.core.accelerator import EventAccelerator
from repro.core.events import AnnotationRecord, InstructionRecord
from repro.core.stats import stats_as_dict, stats_diff
from repro.lifeguards.base import Lifeguard
from repro.memory.shadow import metadata_translation_cost

Record = Union[InstructionRecord, AnnotationRecord]

#: Lifeguard core index in the shared memory hierarchy.
LIFEGUARD_CORE = 1
#: Cycles charged for the nlba dispatch of one delivered event.
NLBA_CYCLES = 2

_DATA_READ = AccessType.DATA_READ


@dataclass
class DispatchStats:
    """Lifeguard-core work accounting."""

    records_consumed: int = 0
    events_handled: int = 0
    handler_instructions: int = 0
    mapping_instructions: int = 0
    miss_handler_instructions: int = 0
    lifeguard_cycles: int = 0

    @property
    def total_instructions(self) -> int:
        """Total dynamic lifeguard instructions (handlers + mapping + misses)."""
        return (
            self.handler_instructions
            + self.mapping_instructions
            + self.miss_handler_instructions
        )

    def as_dict(self) -> dict:
        """Field-name -> value dict (declaration order), for JSON/export."""
        return stats_as_dict(self)

    def diff(self, other: "DispatchStats", ignore: Iterable[str] = ()) -> dict:
        """Differing fields vs ``other``: ``{field: (self, other)}``, empty if equal."""
        return stats_diff(self, other, ignore=tuple(ignore))


class EventDispatcher:
    """Drives lifeguard handlers for the events the accelerators deliver."""

    def __init__(
        self,
        lifeguard: Lifeguard,
        accelerator: EventAccelerator,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        self.lifeguard = lifeguard
        self.accelerator = accelerator
        self.hierarchy = hierarchy
        self.stats = DispatchStats()
        translation = metadata_translation_cost(accelerator.mtlb is not None)
        self._translation_instr = translation.instructions
        #: metadata accesses per translation: the element, plus any table load
        self._translation_accesses = 1 + translation.memory_accesses
        self._miss_cost = accelerator.config.mtlb.miss_handler_instructions
        self._table = accelerator.etct.handler_table()

    def consume(self, record: Record) -> int:
        """Process one log record; returns the lifeguard-core cycles it cost."""
        stats = self.stats
        stats.records_consumed += 1
        events = self.accelerator.process(record)
        if not events:
            return 0
        mapper = self.lifeguard.mapper()
        mapper_stats = mapper.stats
        translations = mapper_stats.translations
        misses = mapper_stats.mtlb_misses
        table = self._table
        cycles = 0
        for event in events:
            entry = table[event.event_type.ordinal]
            if entry is None or entry.handler is None:
                continue
            stats.events_handled += 1
            entry.handler(event)
            instructions = entry.handler_instructions
            stats.handler_instructions += instructions
            cycles += NLBA_CYCLES + instructions
        translations = mapper_stats.translations - translations
        if translations:
            mapping_instr = translations * self._translation_instr
            miss_instr = (mapper_stats.mtlb_misses - misses) * self._miss_cost
            stats.mapping_instructions += mapping_instr
            stats.miss_handler_instructions += miss_instr
            cycles += mapping_instr + miss_instr
            log = mapper.metadata_log
            hierarchy = self.hierarchy
            if hierarchy is None:
                cycles += translations * self._translation_accesses
            else:
                access = hierarchy.access
                for metadata_address in log:
                    cycles += access(LIFEGUARD_CORE, metadata_address, _DATA_READ, 4)
            log.clear()
        stats.lifeguard_cycles += cycles
        return cycles
