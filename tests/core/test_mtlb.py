"""Tests for the Metadata-TLB and the LMA instruction family (Section 6)."""

import pytest

from repro.core.config import MTLBConfig
from repro.core.mtlb import LMAConfig, MetadataTLB, MTLBMiss


def make_mtlb(entries=4, level1_bits=16, level2_bits=14, element_size=1):
    mtlb = MetadataTLB(MTLBConfig(num_entries=entries))
    fills = {}

    def miss_handler(app_address):
        level1 = app_address >> (32 - level1_bits)
        return fills.setdefault(level1, 0x6000_0000 + len(fills) * 0x1_0000)

    mtlb.lma_config(
        LMAConfig(level1_bits=level1_bits, level2_bits=level2_bits, element_size=element_size),
        miss_handler,
    )
    return mtlb


class TestLMAConfig:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LMAConfig(level1_bits=0)
        with pytest.raises(ValueError):
            LMAConfig(level1_bits=20, level2_bits=14)
        with pytest.raises(ValueError):
            LMAConfig(element_size=3)

    def test_index_extraction(self):
        config = LMAConfig(level1_bits=16, level2_bits=14, element_size=1)
        assert config.offset_bits == 2
        assert config.level1_index(0xB3FB_703A) == 0xB3FB
        assert config.level2_index(0xB3FB_703A) == (0x703A >> 2)

    def test_requires_config_before_lma(self):
        mtlb = MetadataTLB()
        with pytest.raises(RuntimeError):
            mtlb.lma(0x1000)


class TestTranslation:
    def test_miss_then_hit(self):
        mtlb = make_mtlb()
        addr = 0x0900_1234
        meta1, hit1 = mtlb.lma(addr)
        meta2, hit2 = mtlb.lma(addr)
        assert hit1 is False and hit2 is True
        assert meta1 == meta2
        assert mtlb.stats.misses == 1 and mtlb.stats.hits == 1

    def test_translation_matches_geometry(self):
        mtlb = make_mtlb(element_size=1)
        addr = 0x0900_0000 + 0x40
        metadata, _ = mtlb.lma(addr)
        # same chunk, consecutive element: 4 application bytes per element
        metadata2, _ = mtlb.lma(addr + 4)
        assert metadata2 == metadata + 1

    def test_element_size_scales_offsets(self):
        mtlb = make_mtlb(element_size=8)
        base, _ = mtlb.lma(0x0900_0000)
        nxt, _ = mtlb.lma(0x0900_0004)
        assert nxt - base == 8

    def test_lru_replacement(self):
        mtlb = make_mtlb(entries=2, level1_bits=16)
        regions = [0x0900_0000, 0x0A00_0000, 0x0B00_0000]
        for region in regions:
            mtlb.lma(region)
        assert mtlb.resident_entries() == 2
        # the first region was evicted, so translating it misses again
        _, hit = mtlb.lma(regions[0])
        assert hit is False

    def test_same_chunk_addresses_share_entry(self):
        mtlb = make_mtlb(entries=2)
        mtlb.lma(0x0900_0000)
        _, hit = mtlb.lma(0x0900_0FFC)
        assert hit is True

    def test_lma_config_flushes(self):
        mtlb = make_mtlb()
        mtlb.lma(0x0900_0000)
        mtlb.lma_config(LMAConfig(level1_bits=12, level2_bits=18, element_size=1))
        assert mtlb.resident_entries() == 0
        assert mtlb.stats.flushes == 2

    def test_miss_without_handler_raises(self):
        mtlb = MetadataTLB(MTLBConfig(num_entries=4))
        mtlb.lma_config(LMAConfig())
        with pytest.raises(MTLBMiss):
            mtlb.lma(0x1000)

    def test_explicit_lma_fill(self):
        mtlb = MetadataTLB(MTLBConfig(num_entries=4))
        mtlb.lma_config(LMAConfig(level1_bits=16, level2_bits=14, element_size=1))
        mtlb.lma_fill(0x0900_0000, 0x7000_0000)
        metadata, hit = mtlb.lma(0x0900_0008)
        assert hit is True
        assert metadata == 0x7000_0000 + 2

    def test_miss_rate(self):
        mtlb = make_mtlb()
        for _ in range(3):
            mtlb.lma(0x0900_0000)
        assert mtlb.stats.miss_rate == pytest.approx(1 / 3)
