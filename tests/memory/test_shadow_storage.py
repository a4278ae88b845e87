"""Tests for the two-level map's flat (bytearray/array) storage and fill fast path.

The storage rework replaced dict-of-dict chunks with contiguous buffers and
added a vectorized whole-chunk ``fill_bits`` path; these tests pin down the
behaviours the rest of the system relies on: sparse reads return 0, fills
spanning level-2 chunk boundaries land on both sides, ``metadata_bytes()``
semantics are unchanged, and the read/write counters charge exactly what
the element-at-a-time reference path would.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.shadow import TwoLevelShadowMap


class TestTwoLevelStorage:
    def test_sparse_reads_return_zero_without_allocating(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        assert shadow.read_element(0x0900_0000) == 0
        assert shadow.read_bits(0xBFFF_1234, 2) == 0
        assert shadow.allocated_chunks() == 0
        assert shadow.metadata_bytes() == 0

    def test_translate_reserves_range_without_materializing_buffer(self):
        """Read-only (translation) touches must not cost chunk_size bytes."""
        shadow = TwoLevelShadowMap(16, 14, 1)
        first = shadow.translate(0x0900_0000)
        assert shadow.translate(0x0900_0000) == first     # stable base
        assert shadow.allocated_chunks() == 1             # range reserved...
        assert not shadow._chunks                         # ...but no buffer yet
        assert shadow.read_element(0x0900_0000) == 0
        shadow.write_element(0x0900_0000, 1)              # first write materializes
        assert len(shadow._chunks) == 1
        assert shadow.read_element(0x0900_0000) == 1

    def test_write_allocates_exactly_one_chunk(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        shadow.write_element(0x0900_0000, 0xAB)
        assert shadow.allocated_chunks() == 1
        assert shadow.metadata_bytes() == shadow.chunk_size_bytes()
        assert shadow.read_element(0x0900_0000) == 0xAB
        # neighbouring elements of the same chunk read zero
        assert shadow.read_element(0x0900_0004) == 0

    def test_write_element_single_index_computation(self):
        """translate() and write_element agree on the element location."""
        shadow = TwoLevelShadowMap(16, 14, 1)
        address = 0x0900_1234
        metadata_address = shadow.translate(address)
        shadow.write_element(address, 7)
        offset = metadata_address - shadow._chunk_bases[shadow.level1_index(address)]
        assert shadow._chunks[shadow.level1_index(address)][offset] == 7

    def test_fill_spans_level2_chunk_boundary(self):
        # level1_bits=16 -> one chunk covers 2**16 application bytes.
        shadow = TwoLevelShadowMap(16, 14, 1)
        chunk_span = 1 << 16
        start = 0x0900_0000 + chunk_span - 24   # 24 bytes in chunk A...
        shadow.fill_bits(start, 48, 2, 0b01)    # ...24 bytes in chunk B
        assert shadow.allocated_chunks() == 2
        for i in range(48):
            assert shadow.read_bits(start + i, 2) == 0b01
        assert shadow.read_bits(start - 1, 2) == 0
        assert shadow.read_bits(start + 48, 2) == 0
        assert shadow.metadata_bytes() == 2 * shadow.chunk_size_bytes()

    def test_fill_spans_many_small_chunks(self):
        # Tiny geometry: 4-bit level-2 index, 16 app bytes per element (so a
        # 2-byte element holds the 16 one-bit fields) -> one chunk covers
        # 256 application bytes.
        shadow = TwoLevelShadowMap(24, 4, 2)
        start, size = 0x0900_0010, 3 * 256
        shadow.fill_bits(start, size, 1, 1)
        assert shadow.allocated_chunks() == 4
        assert all(shadow.read_bits(start + i, 1) == 1 for i in range(0, size, 37))
        assert shadow.read_bits(start - 1, 1) == 0
        assert shadow.read_bits(start + size, 1) == 0

    def test_fill_with_unaligned_partial_elements(self):
        shadow = TwoLevelShadowMap(16, 14, 1)
        shadow.fill_bits(0x0900_0002, 9, 2, 0b11)
        assert all(shadow.read_bits(0x0900_0002 + i, 2) == 0b11 for i in range(9))
        assert shadow.read_bits(0x0900_0001, 2) == 0
        assert shadow.read_bits(0x0900_000B, 2) == 0

    def test_fill_counters_match_element_reference(self):
        """The vectorized fill charges exactly the reference write pattern:
        one write per full element, one read+write per partial byte."""
        shadow = TwoLevelShadowMap(16, 14, 1)
        per_element = shadow.app_bytes_per_element
        start, size = 0x0900_0002, 26
        lead = per_element - (start % per_element)            # 2 partial bytes
        trail = (start + size) % per_element                  # trailing partials
        full = (size - lead - trail) // per_element
        shadow.fill_bits(start, size, 2, 0b01)
        assert shadow.writes == lead + trail + full
        assert shadow.reads == lead + trail                   # write_bits RMW

    def test_wide_element_storage(self):
        for element_size, value in ((2, 0xBEEF), (4, 0xDEAD_BEEF), (8, 0xDEADBEEF_CAFEF00D)):
            shadow = TwoLevelShadowMap(16, 14, element_size)
            shadow.write_element(0x0900_0000, value)
            assert shadow.read_element(0x0900_0000) == value
            assert shadow.read_element(0x0900_0004) == 0
            assert shadow.metadata_bytes() == shadow.chunk_size_bytes()

    def test_wide_element_fill(self):
        shadow = TwoLevelShadowMap(16, 14, 8)
        shadow.fill_bits(0x0900_0000, 64, 2, 0b10)
        expected = sum(0b10 << (i * 2) for i in range(shadow.app_bytes_per_element))
        assert shadow.read_element(0x0900_0000) == expected
        assert shadow.read_element(0x0900_003C) == expected
        assert shadow.read_element(0x0900_0040) == 0

    @given(
        start=st.integers(0x0900_0000, 0x0901_0000),
        size=st.integers(1, 4096),
        value=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_matches_per_byte_reference(self, start, size, value):
        """Vectorized fill agrees with a per-byte write_bits reference."""
        fast = TwoLevelShadowMap(16, 14, 1)
        fast.fill_bits(start, size, 2, value)
        reference = TwoLevelShadowMap(16, 14, 1)
        for i in range(size):
            reference.write_bits(start + i, 2, value)
        probes = {start - 1, start, start + size // 2, start + size - 1, start + size}
        for address in probes:
            assert fast.read_bits(address, 2) == reference.read_bits(address, 2)
