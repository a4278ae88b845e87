"""Sparse 32-bit application address space.

The monitored application runs in a conventional 32-bit virtual address
space with the usual segments (code, global data, heap growing up, memory
mappings, stack growing down) sketched in Figure 6 of the paper.  The
address space is stored sparsely as 4 KiB pages backed by ``bytearray``
objects, so large, mostly-empty layouts are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_OFFSET_MASK = PAGE_SIZE - 1
ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1


@dataclass(frozen=True)
class SegmentLayout:
    """Start addresses of the conventional segments of the application.

    The defaults mimic a typical 32-bit Linux layout: code low, heap above
    the globals, shared mappings in the middle of the address space and a
    stack near the top.  Workloads may override individual segments.
    """

    code_base: int = 0x0804_8000
    data_base: int = 0x0810_0000
    heap_base: int = 0x0900_0000
    mmap_base: int = 0x4000_0000
    stack_top: int = 0xBFFF_F000

    def __post_init__(self) -> None:
        points = [
            self.code_base,
            self.data_base,
            self.heap_base,
            self.mmap_base,
            self.stack_top,
        ]
        if any(p <= 0 or p > ADDRESS_MASK for p in points):
            raise ValueError("segment addresses must fit in a 32-bit address space")
        if sorted(points) != points:
            raise ValueError(
                "segments must be ordered code < data < heap < mmap < stack"
            )


class AddressSpace:
    """A sparse, paged, byte-addressable 32-bit memory.

    Reads of never-written memory return zero bytes, matching the behaviour
    of an OS that zero-fills pages on demand; lifeguards (not the address
    space) are responsible for deciding whether such reads are errors.
    """

    def __init__(self, layout: SegmentLayout | None = None) -> None:
        self.layout = layout or SegmentLayout()
        self._pages: Dict[int, bytearray] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # -- low-level byte access ------------------------------------------------

    def _page_for(self, address: int, create: bool) -> bytearray | None:
        page_index = address >> PAGE_SHIFT
        page = self._pages.get(page_index)
        if page is None and create:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address``."""
        self._check_range(address, size)
        self.bytes_read += size
        out = bytearray(size)
        offset = 0
        while offset < size:
            addr = (address + offset) & ADDRESS_MASK
            page = self._page_for(addr, create=False)
            in_page = addr & PAGE_OFFSET_MASK
            chunk = min(size - offset, PAGE_SIZE - in_page)
            if page is not None:
                out[offset : offset + chunk] = page[in_page : in_page + chunk]
            offset += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check_range(address, len(data))
        self.bytes_written += len(data)
        offset = 0
        size = len(data)
        while offset < size:
            addr = (address + offset) & ADDRESS_MASK
            page = self._page_for(addr, create=True)
            in_page = addr & PAGE_OFFSET_MASK
            chunk = min(size - offset, PAGE_SIZE - in_page)
            page[in_page : in_page + chunk] = data[offset : offset + chunk]
            offset += chunk

    # -- word-oriented helpers -------------------------------------------------

    def read_uint(self, address: int, size: int = 4) -> int:
        """Read an unsigned little-endian integer of ``size`` bytes.

        An access inside one page is served straight from that page; one
        that crosses a page (or is out of range) takes :meth:`read`.
        """
        offset = address & PAGE_OFFSET_MASK
        if 0 <= address <= ADDRESS_MASK and 0 < size <= PAGE_SIZE - offset:
            self.bytes_read += size
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.read(address, size), "little")

    def write_uint(self, address: int, value: int, size: int = 4) -> None:
        """Write an unsigned little-endian integer of ``size`` bytes.

        Same page rule as :meth:`read_uint`.
        """
        value &= (1 << (8 * size)) - 1
        offset = address & PAGE_OFFSET_MASK
        if 0 <= address <= ADDRESS_MASK and 0 < size <= PAGE_SIZE - offset:
            self.bytes_written += size
            page = self._page_for(address, create=True)
            page[offset : offset + size] = value.to_bytes(size, "little")
            return
        self.write(address, value.to_bytes(size, "little"))

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Fill ``size`` bytes starting at ``address`` with ``byte``."""
        self.write(address, bytes([byte & 0xFF]) * size)

    def copy(self, dest: int, src: int, size: int) -> None:
        """Copy ``size`` bytes from ``src`` to ``dest`` (memmove semantics)."""
        self.write(dest, self.read(src, size))

    # -- introspection ----------------------------------------------------------

    def touched_pages(self) -> Iterator[int]:
        """Yield the page indices that have been written at least once."""
        return iter(sorted(self._pages))

    def touched_page_count(self) -> int:
        """Number of distinct pages that have been written."""
        return len(self._pages)

    def touched_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield contiguous ``(start, length)`` ranges of touched pages."""
        pages = sorted(self._pages)
        if not pages:
            return
        start = pages[0]
        prev = pages[0]
        for page in pages[1:]:
            if page != prev + 1:
                yield (start << PAGE_SHIFT, (prev - start + 1) << PAGE_SHIFT)
                start = page
            prev = page
        yield (start << PAGE_SHIFT, (prev - start + 1) << PAGE_SHIFT)

    @staticmethod
    def _check_range(address: int, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if address < 0 or address + size > ADDRESS_MASK + 1:
            raise ValueError(
                f"access [{address:#x}, {address + size:#x}) outside 32-bit address space"
            )
