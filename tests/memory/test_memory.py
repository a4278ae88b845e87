"""Tests for the application memory substrate (address space, allocator, shadow maps)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.address_space import AddressSpace, SegmentLayout
from repro.memory.allocator import AllocationError, HeapAllocator
from repro.memory.shadow import TwoLevelShadowMap, metadata_translation_cost


class TestAddressSpace:
    def test_read_write_roundtrip(self):
        memory = AddressSpace()
        memory.write(0x1000, b"hello world")
        assert memory.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self):
        memory = AddressSpace()
        assert memory.read(0x5000, 8) == b"\x00" * 8

    def test_cross_page_access(self):
        memory = AddressSpace()
        address = 0x1FFC                      # spans a 4 KiB page boundary
        memory.write_uint(address, 0xDEADBEEF, 4)
        assert memory.read_uint(address, 4) == 0xDEADBEEF

    def test_uint_truncates_to_size(self):
        memory = AddressSpace()
        memory.write_uint(0x2000, 0x1_2345_6789, 4)
        assert memory.read_uint(0x2000, 4) == 0x2345_6789

    def test_copy_and_fill(self):
        memory = AddressSpace()
        memory.fill(0x3000, 16, 0xAB)
        memory.copy(0x4000, 0x3000, 16)
        assert memory.read(0x4000, 16) == b"\xab" * 16

    def test_footprint_tracking(self):
        memory = AddressSpace()
        memory.write_uint(0x1000, 1)
        memory.write_uint(0x9000, 1)
        assert memory.touched_page_count() == 2
        ranges = list(memory.touched_ranges())
        assert len(ranges) == 2

    def test_out_of_range_rejected(self):
        memory = AddressSpace()
        with pytest.raises(ValueError):
            memory.read(0xFFFF_FFFF, 8)

    def test_last_word_of_the_address_space(self):
        memory = AddressSpace()
        memory.write_uint(0xFFFF_FFFC, 0x0102_0304, 4)
        assert memory.read_uint(0xFFFF_FFFC, 4) == 0x0102_0304
        assert memory.read(0xFFFF_FFFC, 4) == b"\x04\x03\x02\x01"

    @pytest.mark.parametrize("address", [0xFFFF_FFFE, 0x1_0000_0000, -1, -4096])
    def test_word_access_out_of_range_rejected(self, address):
        memory = AddressSpace()
        for access in (
            lambda: memory.read_uint(address, 4),
            lambda: memory.write_uint(address, 1, 4),
            lambda: memory.read(address, 4),
            lambda: memory.write(address, b"\x00" * 4),
        ):
            with pytest.raises(ValueError):
                access()
        assert memory.touched_page_count() == 0

    @pytest.mark.parametrize("address", [0x2000, 0x2FFC, 0x2FFD, 0x2FFF])
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_word_access_counts_its_bytes(self, address, size):
        # Inside one page and across the page boundary alike.
        memory = AddressSpace()
        value = 0x1122_3344_5566_7788 & ((1 << (8 * size)) - 1)
        memory.write_uint(address, value, size)
        assert memory.read_uint(address, size) == value
        assert memory.read(address, size) == value.to_bytes(size, "little")
        assert memory.read_uint(0x7000, size) == 0      # a page never written

    def test_segment_layout_validation(self):
        with pytest.raises(ValueError):
            SegmentLayout(code_base=0x9000_0000, stack_top=0x1000_0000)

    @given(address=st.integers(0x1000, 0xF000), data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, address, data):
        memory = AddressSpace()
        memory.write(address, data)
        assert memory.read(address, len(data)) == data


class TestHeapAllocator:
    def test_malloc_returns_aligned_disjoint_blocks(self):
        allocator = HeapAllocator(0x1000, 4096)
        a = allocator.malloc(24)
        b = allocator.malloc(40)
        assert a.address % HeapAllocator.ALIGNMENT == 0
        assert b.address >= a.address + 24

    def test_free_and_reuse(self):
        allocator = HeapAllocator(0x1000, 4096)
        a = allocator.malloc(64)
        allocator.free(a.address)
        b = allocator.malloc(32)
        assert b.address == a.address

    def test_double_free_raises(self):
        allocator = HeapAllocator(0x1000, 4096)
        a = allocator.malloc(16)
        allocator.free(a.address)
        with pytest.raises(AllocationError):
            allocator.free(a.address)

    def test_invalid_free_raises(self):
        allocator = HeapAllocator(0x1000, 4096)
        allocator.malloc(16)
        with pytest.raises(AllocationError):
            allocator.free(0x1008)

    def test_out_of_memory(self):
        allocator = HeapAllocator(0x1000, 128)
        with pytest.raises(AllocationError):
            allocator.malloc(4096)

    def test_realloc_preserves_identity(self):
        allocator = HeapAllocator(0x1000, 4096)
        a = allocator.malloc(32)
        old, new = allocator.realloc(a.address, 64)
        assert old.address == a.address
        assert allocator.is_allocated(new.address)

    def test_block_containing(self):
        allocator = HeapAllocator(0x1000, 4096)
        a = allocator.malloc(32)
        assert allocator.block_containing(a.address + 10) is not None
        assert allocator.block_containing(a.address + 100) is None

    def test_coalescing_allows_large_realloc(self):
        allocator = HeapAllocator(0x1000, 256)
        blocks = [allocator.malloc(32) for _ in range(4)]
        for block in blocks:
            allocator.free(block.address)
        big = allocator.malloc(200)        # only possible if free space coalesced
        assert big.size == 200

    @given(ops=st.lists(st.integers(8, 128), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_live_blocks_never_overlap(self, ops):
        allocator = HeapAllocator(0x10000, 1 << 20)
        live = []
        for i, size in enumerate(ops):
            if live and i % 3 == 0:
                allocator.free(live.pop().address)
            else:
                live.append(allocator.malloc(size))
        blocks = sorted(allocator.live_blocks(), key=lambda b: b.address)
        for first, second in zip(blocks, blocks[1:]):
            assert first.address + first.size <= second.address


class TestShadowMaps:
    def test_two_level_bit_roundtrip(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        shadow.write_bits(0x0900_1234, 2, 0b11)
        assert shadow.read_bits(0x0900_1234, 2) == 0b11
        assert shadow.read_bits(0x0900_1235, 2) == 0

    def test_two_level_translation_is_stable(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        first = shadow.translate(0x0900_0000)
        second = shadow.translate(0x0900_0004)
        assert second == first + 1
        assert shadow.translate(0x0900_0000) == first

    def test_lazy_chunk_allocation(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        assert shadow.allocated_chunks() == 0
        shadow.write_bits(0x0900_0000, 2, 1)
        shadow.write_bits(0xBFFF_0000, 2, 1)
        assert shadow.allocated_chunks() == 2
        # The M-TLB miss handler's chunk start reserves a new chunk the way
        # a translation does, without materializing its buffer.
        start = shadow.chunk_start(0x4000_1234)
        assert shadow.allocated_chunks() == 3
        assert shadow.materialized_buffers() == 2
        assert shadow.chunk_start(0x4000_FFFC) == start
        assert shadow.allocated_chunks() == 3
        wide = TwoLevelShadowMap(16, 14, 8)
        for map_, address in ((shadow, 0x4000_1234), (shadow, 0x0900_0040),
                              (wide, 0x0900_0F04), (wide, 0x0901_0000)):
            assert map_.chunk_start(address) == (
                map_.translate(address) - map_.level2_index(address) * map_.element_size
            )

    def test_fill_bits_sets_whole_range(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        shadow.fill_bits(0x0900_0002, 10, 2, 0b01)
        assert all(shadow.read_bits(0x0900_0002 + i, 2) == 0b01 for i in range(10))
        assert shadow.read_bits(0x0900_0001, 2) == 0
        assert shadow.read_bits(0x0900_000C, 2) == 0

    def test_wide_elements(self):
        shadow = TwoLevelShadowMap(16, 14, 8)
        shadow.write_element(0x0900_0000, 0xDEADBEEF_CAFEF00D)
        assert shadow.read_element(0x0900_0003) == 0xDEADBEEF_CAFEF00D

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TwoLevelShadowMap(20, 14, 1)
        with pytest.raises(ValueError):
            TwoLevelShadowMap(16, 14, 3)

    def test_translation_cost_model(self):
        software = metadata_translation_cost(lma_enabled=False)
        lma = metadata_translation_cost(lma_enabled=True)
        assert software.instructions == 5 and software.memory_accesses == 1
        assert lma.instructions == 1 and lma.memory_accesses == 0

    @given(
        addresses=st.lists(st.integers(0x0900_0000, 0x0900_4000), min_size=1, max_size=60),
        bits=st.sampled_from([1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_level_write_read_property(self, addresses, bits):
        shadow = TwoLevelShadowMap(16, 14, 1)
        expected = {}
        for i, address in enumerate(addresses):
            value = i % (1 << bits)
            shadow.write_bits(address, bits, value)
            expected[address] = value
        for address, value in expected.items():
            assert shadow.read_bits(address, bits) == value
