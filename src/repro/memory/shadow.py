"""Shadow-memory (lifeguard metadata) organisations.

Figure 6 of the paper contrasts two metadata designs:

* **one-level**: a single contiguous metadata region that is a scaled direct
  translation of the whole application address space; and
* **two-level**: a page-table-like indexing structure in which the high bits
  of the application address select a level-1 entry pointing to a lazily
  allocated level-2 chunk of metadata elements.

The paper adopts the two-level design as its flexible baseline and then
accelerates its translation cost with the M-TLB.  Both designs are provided
here; :func:`metadata_translation_cost` models how many lifeguard
instructions the address translation takes with and without the ``lma``
instruction (Figure 7: five mapping instructions collapse into one).

Storage is flat, not hashed: level-2 chunks (and the one-level design's
pages) are ``bytearray``/``array`` buffers indexed by the element index, so
the per-access cost is a shift-and-index instead of hashing a wide integer
key -- the same contiguous-chunk layout the real metadata arena would have.
Whole-element range fills (``fill_bits`` after ``malloc``/``free``/taint
sources) take a vectorized per-chunk slice-assignment fast path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

#: Virtual base of the lifeguard's metadata arena.  Metadata addresses are
#: lifeguard-space virtual addresses (Section 6.2); any base distinct from
#: typical application segments works.
METADATA_ARENA_BASE = 0x6000_0000

#: Chunk/page buffer type: ``bytearray`` for 1-byte elements, ``array`` for
#: wider power-of-two elements, plain lists for exotic element sizes.
ElementBuffer = Union[bytearray, array, List[int]]


def _typecode_for(element_size: int) -> str:
    """The ``array`` typecode whose itemsize is exactly ``element_size``."""
    preferred = {2: "H", 4: "I", 8: "Q"}.get(element_size)
    candidates = ([preferred] if preferred else []) + ["H", "I", "L", "Q"]
    for typecode in candidates:
        if array(typecode).itemsize == element_size:
            return typecode
    return ""


class MetadataMap(ABC):
    """Common interface of the metadata organisations.

    A metadata *element* is the unit the structure stores per group of
    application bytes (e.g. one byte of 2-bit taint values covering four
    application bytes, or an 8-byte detailed-tracking record covering a
    4-byte application word).
    """

    #: bytes of metadata stored per element
    element_size: int
    #: number of application bytes covered by one element
    app_bytes_per_element: int

    # Telemetry counters, class-level defaults so instances only pay for
    # them on first increment (``self.x += 1`` creates the instance attr).
    #: number of :meth:`fill_bits` range fills performed
    fill_calls = 0
    #: elements written through the vectorized slice-assignment fast path
    fill_fast_elements = 0

    def materialized_buffers(self) -> int:
        """Number of lazily allocated backing buffers (pages/chunks)."""
        return 0

    @abstractmethod
    def translate(self, app_address: int) -> int:
        """Map an application address to the metadata (lifeguard) address of
        the element covering it, allocating backing structures on demand."""

    @abstractmethod
    def read_element(self, app_address: int) -> int:
        """Read the integer value of the element covering ``app_address``."""

    @abstractmethod
    def write_element(self, app_address: int, value: int) -> None:
        """Write the integer value of the element covering ``app_address``."""

    def element_offset(self, app_address: int) -> int:
        """Offset of ``app_address`` within the application range covered by
        its element (used by lifeguards to pick sub-element bit fields)."""
        return app_address % self.app_bytes_per_element

    # -- convenience sub-element bit-field access --------------------------------

    def read_bits(self, app_address: int, bits_per_app_byte: int) -> int:
        """Read the ``bits_per_app_byte``-wide field for one application byte."""
        element = self.read_element(app_address)
        shift = self.element_offset(app_address) * bits_per_app_byte
        return (element >> shift) & ((1 << bits_per_app_byte) - 1)

    def write_bits(self, app_address: int, bits_per_app_byte: int, value: int) -> None:
        """Write the ``bits_per_app_byte``-wide field for one application byte."""
        mask = (1 << bits_per_app_byte) - 1
        shift = self.element_offset(app_address) * bits_per_app_byte
        element = self.read_element(app_address)
        element = (element & ~(mask << shift)) | ((value & mask) << shift)
        self.write_element(app_address, element)

    def fill_bits(self, start: int, size: int, bits_per_app_byte: int, value: int) -> None:
        """Set the per-byte field to ``value`` for every byte in ``[start, start+size)``.

        Ranges covering whole elements are written with a replicated bit
        pattern through :meth:`_fill_elements` (subclasses vectorize this
        into per-chunk slice assignments), mirroring how real lifeguards
        fill large regions (e.g. after ``malloc``) with word stores rather
        than per-byte read-modify-writes.
        """
        if size <= 0:
            return
        self.fill_calls += 1
        value &= (1 << bits_per_app_byte) - 1
        per_element = self.app_bytes_per_element
        end = start + size
        addr = start
        # leading partial element
        while addr < end and addr % per_element:
            self.write_bits(addr, bits_per_app_byte, value)
            addr += 1
        # full elements
        pattern = 0
        for i in range(per_element):
            pattern |= value << (i * bits_per_app_byte)
        full_elements = (end - addr) // per_element
        if full_elements > 0:
            self._fill_elements(addr, full_elements, pattern)
            addr += full_elements * per_element
        # trailing partial element
        while addr < end:
            self.write_bits(addr, bits_per_app_byte, value)
            addr += 1

    def _fill_elements(self, start: int, count: int, pattern: int) -> None:
        """Write ``pattern`` into ``count`` whole elements starting at
        element-aligned ``start``.  Default: one :meth:`write_element` per
        element; subclasses override with vectorized slice assignment
        (charging the same number of element writes)."""
        per_element = self.app_bytes_per_element
        write_element = self.write_element
        addr = start
        for _ in range(count):
            write_element(addr, pattern)
            addr += per_element


class TwoLevelShadowMap(MetadataMap):
    """Page-table-like two-level metadata structure (Figure 6, right).

    The 32-bit application address is split into ``level1_bits`` high bits
    (index into the level-1 table), ``level2_bits`` middle bits (index into a
    level-2 chunk) and the remaining low bits (offset within the application
    range covered by one element).  Level-2 chunks are allocated lazily on
    first touch, which is what makes the design space-efficient for sparse
    address spaces.

    Chunks are contiguous ``bytearray`` (1-byte elements) or ``array``
    (wider elements) buffers indexed directly by the level-2 index, so an
    element access costs two shifts and a buffer index -- no per-element
    dict hashing.
    """

    def __init__(self, level1_bits: int = 16, level2_bits: int = 14, element_size: int = 1) -> None:
        if level1_bits <= 0 or level2_bits <= 0:
            raise ValueError("level1_bits and level2_bits must be positive")
        if level1_bits + level2_bits > ADDRESS_BITS:
            raise ValueError("level1_bits + level2_bits must not exceed 32")
        if element_size not in (1, 2, 4, 8):
            raise ValueError("element size must be 1, 2, 4 or 8 bytes")
        self.level1_bits = level1_bits
        self.level2_bits = level2_bits
        self.element_size = element_size
        self.offset_bits = ADDRESS_BITS - level1_bits - level2_bits
        self.app_bytes_per_element = 1 << self.offset_bits
        self._l1_shift = self.offset_bits + level2_bits
        self._l2_mask = (1 << level2_bits) - 1
        self._elements_per_chunk = 1 << level2_bits
        self._element_mask = (1 << (8 * element_size)) - 1
        self._typecode = "" if element_size == 1 else _typecode_for(element_size)
        self._chunks: Dict[int, ElementBuffer] = {}
        self._chunk_bases: Dict[int, int] = {}
        self._next_chunk_base = METADATA_ARENA_BASE
        self.reads = 0
        self.writes = 0

    # -- index helpers -------------------------------------------------------------

    def level1_index(self, app_address: int) -> int:
        """Level-1 index (the high ``level1_bits`` bits) of an address."""
        return (app_address & ADDRESS_MASK) >> self._l1_shift

    def level2_index(self, app_address: int) -> int:
        """Level-2 index (the middle ``level2_bits`` bits) of an address."""
        return ((app_address & ADDRESS_MASK) >> self.offset_bits) & self._l2_mask

    def chunk_size_bytes(self) -> int:
        """Size in bytes of one level-2 metadata chunk."""
        return self._elements_per_chunk * self.element_size

    def _assign_base(self, level1: int) -> int:
        """Reserve the metadata arena range of chunk ``level1`` (no buffer yet).

        Translation-only touches (clean reads through the mapper) reserve the
        chunk's address range but do not materialize its buffer -- reads of
        unwritten chunks return 0 without costing ``chunk_size_bytes()`` of
        resident memory.  The buffer is created on first write/fill.
        """
        base = self._next_chunk_base
        self._chunk_bases[level1] = base
        self._next_chunk_base += self.chunk_size_bytes()
        return base

    def _allocate_buffer(self, level1: int) -> ElementBuffer:
        """Materialize the zero-filled level-2 chunk buffer for ``level1``."""
        if self.element_size == 1:
            chunk: ElementBuffer = bytearray(self._elements_per_chunk)
        elif self._typecode:
            chunk = array(self._typecode, (0,)) * self._elements_per_chunk
        else:  # pragma: no cover - exotic platform without a matching typecode
            chunk = [0] * self._elements_per_chunk
        self._chunks[level1] = chunk
        if level1 not in self._chunk_bases:
            self._assign_base(level1)
        return chunk

    # -- MetadataMap API -------------------------------------------------------------

    def translate(self, app_address: int) -> int:
        address = app_address & ADDRESS_MASK
        level1 = address >> self._l1_shift
        base = self._chunk_bases.get(level1)
        if base is None:
            base = self._assign_base(level1)
        return base + ((address >> self.offset_bits) & self._l2_mask) * self.element_size

    def read_element(self, app_address: int) -> int:
        self.reads += 1
        address = app_address & ADDRESS_MASK
        chunk = self._chunks.get(address >> self._l1_shift)
        if chunk is None:
            return 0
        return chunk[(address >> self.offset_bits) & self._l2_mask]

    def write_element(self, app_address: int, value: int) -> None:
        self.writes += 1
        address = app_address & ADDRESS_MASK
        level1 = address >> self._l1_shift
        chunk = self._chunks.get(level1)
        if chunk is None:
            chunk = self._allocate_buffer(level1)
        chunk[(address >> self.offset_bits) & self._l2_mask] = value & self._element_mask

    def _fill_elements(self, start: int, count: int, pattern: int) -> None:
        """Vectorized whole-chunk fill: one slice assignment per level-2 span."""
        self.writes += count
        self.fill_fast_elements += count
        pattern &= self._element_mask
        address = start & ADDRESS_MASK
        per_chunk = self._elements_per_chunk
        remaining = count
        while remaining > 0:
            level1 = address >> self._l1_shift
            level2 = (address >> self.offset_bits) & self._l2_mask
            chunk = self._chunks.get(level1)
            if chunk is None:
                chunk = self._allocate_buffer(level1)
            span = min(remaining, per_chunk - level2)
            if self.element_size == 1:
                chunk[level2:level2 + span] = bytes((pattern,)) * span
            elif self._typecode:
                chunk[level2:level2 + span] = array(self._typecode, (pattern,)) * span
            else:  # pragma: no cover - list fallback
                chunk[level2:level2 + span] = [pattern] * span
            remaining -= span
            address = (address + span * self.app_bytes_per_element) & ADDRESS_MASK

    # -- space accounting --------------------------------------------------------------

    def allocated_chunks(self) -> int:
        """Number of level-2 chunks allocated (address-range-reserved) so far.

        Counts chunks whose arena range has been assigned -- by a write, a
        fill or a translation-only touch -- matching the historical
        accounting where ``translate`` allocated the chunk's backing
        structure.  Buffers themselves materialize lazily on first write.
        """
        return len(self._chunk_bases)

    def metadata_bytes(self) -> int:
        """Bytes of metadata storage allocated (level-2 chunks only)."""
        return self.allocated_chunks() * self.chunk_size_bytes()

    def materialized_buffers(self) -> int:
        """Number of level-2 chunk buffers actually materialized by writes."""
        return len(self._chunks)

    def touched_level1_entries(self) -> Iterator[int]:
        """Yield the level-1 indices that have an allocated chunk."""
        return iter(sorted(self._chunk_bases))


#: Elements per lazily allocated page of the one-level design (a power of
#: two so page/offset splits are shifts).
_ONE_LEVEL_PAGE_SHIFT = 12
_ONE_LEVEL_PAGE_ELEMENTS = 1 << _ONE_LEVEL_PAGE_SHIFT
_ONE_LEVEL_PAGE_MASK = _ONE_LEVEL_PAGE_ELEMENTS - 1


class OneLevelShadowMap(MetadataMap):
    """Flat, scale-and-offset metadata structure (Figure 6, left).

    Translation is a single shift-and-add; the cost is that the metadata
    region must linearly shadow the whole application address space, which is
    only viable when metadata are at most as dense as application data.

    Backing storage is paged: lazily allocated fixed-size buffers indexed by
    ``element_index >> page_shift``, with a per-page bitmask of *written*
    elements so :meth:`metadata_bytes` still reports exactly the distinct
    elements ever written (the sparse-backing semantics of the dict-based
    predecessor).
    """

    def __init__(self, app_bytes_per_element: int = 4, element_size: int = 1,
                 metadata_base: int = METADATA_ARENA_BASE) -> None:
        if app_bytes_per_element <= 0 or element_size <= 0:
            raise ValueError("sizes must be positive")
        if element_size > app_bytes_per_element:
            raise ValueError(
                "one-level design requires metadata no denser than application data"
            )
        self.app_bytes_per_element = app_bytes_per_element
        self.element_size = element_size
        self.metadata_base = metadata_base
        self._element_mask = (1 << (8 * element_size)) - 1
        self._typecode = "" if element_size == 1 else _typecode_for(element_size)
        self._pages: Dict[int, ElementBuffer] = {}
        #: per-page bitmask of element offsets that have been written
        self._touched: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def _allocate_page(self, page: int) -> ElementBuffer:
        if self.element_size == 1:
            buffer: ElementBuffer = bytearray(_ONE_LEVEL_PAGE_ELEMENTS)
        elif self._typecode:
            buffer = array(self._typecode, (0,)) * _ONE_LEVEL_PAGE_ELEMENTS
        else:
            buffer = [0] * _ONE_LEVEL_PAGE_ELEMENTS
        self._pages[page] = buffer
        return buffer

    def translate(self, app_address: int) -> int:
        index = (app_address & ADDRESS_MASK) // self.app_bytes_per_element
        return self.metadata_base + index * self.element_size

    def read_element(self, app_address: int) -> int:
        self.reads += 1
        index = (app_address & ADDRESS_MASK) // self.app_bytes_per_element
        page = self._pages.get(index >> _ONE_LEVEL_PAGE_SHIFT)
        if page is None:
            return 0
        return page[index & _ONE_LEVEL_PAGE_MASK]

    def write_element(self, app_address: int, value: int) -> None:
        self.writes += 1
        index = (app_address & ADDRESS_MASK) // self.app_bytes_per_element
        page_index = index >> _ONE_LEVEL_PAGE_SHIFT
        page = self._pages.get(page_index)
        if page is None:
            page = self._allocate_page(page_index)
        offset = index & _ONE_LEVEL_PAGE_MASK
        page[offset] = value & self._element_mask
        self._touched[page_index] = self._touched.get(page_index, 0) | (1 << offset)

    def _fill_elements(self, start: int, count: int, pattern: int) -> None:
        """Vectorized fill: one slice assignment (and touched-mask OR) per page."""
        self.writes += count
        self.fill_fast_elements += count
        pattern &= self._element_mask
        index = (start & ADDRESS_MASK) // self.app_bytes_per_element
        remaining = count
        touched = self._touched
        while remaining > 0:
            page_index = index >> _ONE_LEVEL_PAGE_SHIFT
            offset = index & _ONE_LEVEL_PAGE_MASK
            page = self._pages.get(page_index)
            if page is None:
                page = self._allocate_page(page_index)
            span = min(remaining, _ONE_LEVEL_PAGE_ELEMENTS - offset)
            if self.element_size == 1:
                page[offset:offset + span] = bytes((pattern,)) * span
            elif self._typecode:
                page[offset:offset + span] = array(self._typecode, (pattern,)) * span
            else:
                page[offset:offset + span] = [pattern] * span
            touched[page_index] = touched.get(page_index, 0) | (((1 << span) - 1) << offset)
            remaining -= span
            index += span

    def metadata_bytes(self) -> int:
        """Bytes of metadata written so far (distinct elements, sparse backing)."""
        return sum(mask.bit_count() for mask in self._touched.values()) * self.element_size

    def materialized_buffers(self) -> int:
        """Number of lazily allocated backing pages."""
        return len(self._pages)


@dataclass(frozen=True)
class TranslationCost:
    """Instruction cost of one application→metadata address translation."""

    instructions: int
    memory_accesses: int


def metadata_translation_cost(map_kind: str, lma_enabled: bool) -> TranslationCost:
    """Model the lifeguard instruction cost of metadata mapping.

    Figure 7 shows a representative TAINTCHECK handler in which five of the
    eight instructions perform two-level metadata mapping (including one
    level-1 table load); with ``lma`` those five collapse into a single
    instruction with no memory access.  The one-level design needs only a
    shift and an add.

    Args:
        map_kind: ``"two-level"`` or ``"one-level"``.
        lma_enabled: whether the M-TLB / ``lma`` instruction is available.

    Returns:
        The per-translation :class:`TranslationCost`.
    """
    if map_kind not in ("two-level", "one-level"):
        raise ValueError(f"unknown metadata organisation: {map_kind!r}")
    if map_kind == "one-level":
        return TranslationCost(instructions=2, memory_accesses=0)
    if lma_enabled:
        return TranslationCost(instructions=1, memory_accesses=0)
    return TranslationCost(instructions=5, memory_accesses=1)
