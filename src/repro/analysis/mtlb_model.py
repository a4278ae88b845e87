"""Stand-alone M-TLB miss-rate model (Figure 14).

Replays the sequence of metadata translations a lifeguard would perform
(one per memory-reference event) through a
:class:`repro.core.mtlb.MetadataTLB` configured with a given number of
level-1 bits and entries, and reports the miss rate.

Figure 14(b)'s "flexible level-1 bits" policy is implemented by
:func:`choose_flexible_level1_bits`: for each workload the number of level-1
bits is reduced (making level-2 chunks larger, hence fewer M-TLB entries
needed) as long as either the metadata space overhead stays below 10 % or
the level-1 table consumes at most 1 % of the 32-bit address space, assuming
a one-to-one application-byte to metadata-byte mapping as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Union

from repro.core.config import MTLBConfig
from repro.core.events import AnnotationRecord, InstructionRecord
from repro.core.mtlb import LMAConfig, MetadataTLB
from repro.memory.shadow import TwoLevelShadowMap
from repro.analysis.profiler import memory_access_addresses

Record = Union[InstructionRecord, AnnotationRecord]

ADDRESS_BITS = 32


@dataclass(frozen=True)
class MTLBMissResult:
    """Outcome of replaying one trace's translations through the M-TLB."""

    workload: str
    level1_bits: int
    num_entries: int
    translations: int
    misses: int

    @property
    def miss_rate(self) -> float:
        """M-TLB miss rate in ``[0, 1]``."""
        if not self.translations:
            return 0.0
        return self.misses / self.translations


def mtlb_miss_rate(
    workload: str,
    records: List[Record],
    level1_bits: int = 16,
    num_entries: int = 64,
    element_size: int = 1,
) -> MTLBMissResult:
    """Measure the M-TLB miss rate over the trace's metadata translations."""
    # Keep a 2-bit in-element offset (one metadata byte per 4 application
    # bytes), so the level-2 index gets whatever is left of the 32 bits.
    level2_bits = max(1, ADDRESS_BITS - level1_bits - 2)
    geometry = LMAConfig(
        level1_bits=level1_bits,
        level2_bits=level2_bits,
        element_size=element_size,
    )
    mtlb = MetadataTLB(MTLBConfig(num_entries=num_entries))
    # The lifeguard's own miss handler: the map reserves each chunk on its
    # first miss.  Hit or miss depends only on the level-1 index sequence.
    shadow = TwoLevelShadowMap(level1_bits, level2_bits, element_size)
    mtlb.lma_config(geometry, shadow.chunk_start)
    translations = 0
    for address, _size, _is_store in memory_access_addresses(records):
        mtlb.lma(address)
        translations += 1
    return MTLBMissResult(
        workload=workload,
        level1_bits=level1_bits,
        num_entries=num_entries,
        translations=translations,
        misses=mtlb.stats.misses,
    )


def touched_level1_entries(records: List[Record], level1_bits: int) -> int:
    """Number of distinct level-1 entries the trace's memory accesses touch."""
    shift = ADDRESS_BITS - level1_bits
    touched: Set[int] = set()
    for address, _size, _is_store in memory_access_addresses(records):
        touched.add(address >> shift)
    return len(touched)


def choose_flexible_level1_bits(
    records: List[Record],
    candidate_bits: range = range(8, 21),
    max_space_increase: float = 0.10,
    max_space_fraction: float = 0.01,
) -> int:
    """Pick the per-workload level-1 bits of Figure 14(b)'s flexible design.

    Fewer level-1 bits mean fewer distinct level-1 entries (hence a lower
    M-TLB miss rate) but coarser level-2 chunks (hence more metadata space
    wasted on partially-used chunks).  Following the paper, the *smallest*
    number of level-1 bits is chosen such that either the lifeguard metadata
    space grows by less than ``max_space_increase`` relative to the
    application's used memory, or the lifeguard metadata uses at most
    ``max_space_fraction`` of the 32-bit address space, assuming a
    one-to-one application-byte to metadata-byte mapping.
    """
    touched_pages: Set[int] = set()
    for address, size, _is_store in memory_access_addresses(records):
        for page in range(address >> 12, (address + size - 1 >> 12) + 1):
            touched_pages.add(page)
    used_bytes = max(len(touched_pages) * 4096, 1)

    for bits in sorted(candidate_bits):
        chunk_bytes = 1 << (ADDRESS_BITS - bits)           # app bytes per level-2 chunk
        chunks = touched_level1_entries(records, bits)
        metadata_bytes = chunks * chunk_bytes               # 1:1 byte mapping
        space_increase = (metadata_bytes - used_bytes) / used_bytes if used_bytes else 0.0
        space_fraction = metadata_bytes / (1 << ADDRESS_BITS)
        if space_increase <= max_space_increase or space_fraction <= max_space_fraction:
            return bits
    return max(candidate_bits)
