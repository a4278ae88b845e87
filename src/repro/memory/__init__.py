"""Application memory substrate: sparse address space, heap allocator and
the two-level shadow-memory (metadata) map.
"""

from repro.memory.address_space import AddressSpace, PAGE_SIZE, SegmentLayout
from repro.memory.allocator import AllocationError, HeapAllocator, HeapBlock
from repro.memory.shadow import TwoLevelShadowMap, metadata_translation_cost

__all__ = [
    "AddressSpace",
    "PAGE_SIZE",
    "SegmentLayout",
    "AllocationError",
    "HeapAllocator",
    "HeapBlock",
    "TwoLevelShadowMap",
    "metadata_translation_cost",
]
