"""First-fit heap allocator for the monitored application.

The allocator mirrors what a libc ``malloc`` provides to the lifeguards:
``malloc``/``free``/``realloc`` calls with observable block addresses and
sizes.  ADDRCHECK and MEMCHECK derive their accessible/initialised metadata
from these events, and the allocator's bookkeeping doubles as the ground
truth that tests compare lifeguard state against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class AllocationError(RuntimeError):
    """Raised when the heap cannot satisfy a request or on invalid frees."""


@dataclass
class HeapBlock:
    """A live heap allocation."""

    address: int
    size: int
    allocation_id: int


class HeapAllocator:
    """A deterministic first-fit allocator over ``[heap_base, heap_limit)``.

    The allocator keeps explicit free-list bookkeeping rather than bump
    allocation so that ``free`` + ``malloc`` sequences reuse addresses --
    address reuse is exactly the situation in which lifeguard metadata
    invalidation (and the Idempotent Filter invalidation policies) matter.
    """

    #: allocation granularity; matches the 8-byte alignment of typical mallocs
    ALIGNMENT = 8

    def __init__(self, heap_base: int, heap_size: int) -> None:
        if heap_size <= 0:
            raise ValueError("heap size must be positive")
        self.heap_base = heap_base
        self.heap_limit = heap_base + heap_size
        self._free_list: List[Tuple[int, int]] = [(heap_base, heap_size)]
        self._live: Dict[int, HeapBlock] = {}
        self._next_id = 1
        self.total_allocated = 0
        self.total_freed = 0
        self.peak_live_bytes = 0
        self._live_bytes = 0

    # -- public API --------------------------------------------------------------

    def malloc(self, size: int) -> HeapBlock:
        """Allocate ``size`` bytes, returning the new block.

        Raises:
            AllocationError: if no free region is large enough.
        """
        if size <= 0:
            raise AllocationError(f"malloc size must be positive, got {size}")
        rounded = self._round(size)
        for i, (start, length) in enumerate(self._free_list):
            if length >= rounded:
                block = HeapBlock(address=start, size=size, allocation_id=self._next_id)
                self._next_id += 1
                remaining = length - rounded
                if remaining:
                    self._free_list[i] = (start + rounded, remaining)
                else:
                    del self._free_list[i]
                self._live[start] = block
                self.total_allocated += size
                self._live_bytes += rounded
                self.peak_live_bytes = max(self.peak_live_bytes, self._live_bytes)
                return block
        raise AllocationError(f"out of heap memory allocating {size} bytes")

    def free(self, address: int) -> HeapBlock:
        """Free the block starting at ``address`` and return it.

        Raises:
            AllocationError: if ``address`` is not the start of a live block
                (invalid free or double free).
        """
        block = self._live.pop(address, None)
        if block is None:
            raise AllocationError(f"invalid or double free at {address:#x}")
        rounded = self._round(block.size)
        self._insert_free(address, rounded)
        self.total_freed += block.size
        self._live_bytes -= rounded
        return block

    def realloc(self, address: int, new_size: int) -> Tuple[HeapBlock, HeapBlock]:
        """Reallocate a block, returning ``(old_block, new_block)``."""
        old = self.free(address)
        new = self.malloc(new_size)
        return old, new

    def block_containing(self, address: int) -> Optional[HeapBlock]:
        """Return the live block containing ``address``, if any."""
        for block in self._live.values():
            if block.address <= address < block.address + block.size:
                return block
        return None

    def is_allocated(self, address: int) -> bool:
        """True if ``address`` falls inside a live allocation."""
        return self.block_containing(address) is not None

    def live_blocks(self) -> List[HeapBlock]:
        """Return the live blocks sorted by address (for leak reporting)."""
        return sorted(self._live.values(), key=lambda b: b.address)

    # -- internals ----------------------------------------------------------------

    def _round(self, size: int) -> int:
        return (size + self.ALIGNMENT - 1) // self.ALIGNMENT * self.ALIGNMENT

    def _insert_free(self, start: int, length: int) -> None:
        """Insert a free region, coalescing with adjacent regions."""
        regions = self._free_list
        lo, hi = 0, len(regions)
        while lo < hi:
            mid = (lo + hi) // 2
            if regions[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        regions.insert(lo, (start, length))
        # coalesce with successor then predecessor
        if lo + 1 < len(regions):
            nstart, nlen = regions[lo + 1]
            if start + length == nstart:
                regions[lo] = (start, length + nlen)
                del regions[lo + 1]
        if lo > 0:
            pstart, plen = regions[lo - 1]
            start, length = regions[lo]
            if pstart + plen == start:
                regions[lo - 1] = (pstart, plen + length)
                del regions[lo]
