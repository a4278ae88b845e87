"""Tests for the Idempotent Filter cache (Section 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import IFConfig
from repro.core.idempotent_filter import IdempotentFilter


class TestBasicFiltering:
    def test_first_lookup_misses_then_hits(self):
        f = IdempotentFilter(IFConfig(num_entries=32, associativity=0))
        key = (1, 0x1000, 4)
        assert f.lookup_insert(key) is False
        assert f.lookup_insert(key) is True
        assert f.stats.hits == 1
        assert f.stats.misses == 1

    def test_distinct_keys_do_not_hit(self):
        f = IdempotentFilter(IFConfig(num_entries=32))
        assert f.lookup_insert((1, 0x1000, 4)) is False
        assert f.lookup_insert((1, 0x1004, 4)) is False
        assert f.lookup_insert((2, 0x1000, 4)) is False

    def test_lru_eviction_fully_associative(self):
        f = IdempotentFilter(IFConfig(num_entries=4, associativity=0))
        for i in range(4):
            f.lookup_insert((1, i, 4))
        f.lookup_insert((1, 0, 4))        # refresh key 0
        f.lookup_insert((1, 99, 4))       # evicts key 1 (the LRU)
        assert f.contains((1, 0, 4))
        assert not f.contains((1, 1, 4))

    def test_set_associative_geometry(self):
        config = IFConfig(num_entries=32, associativity=4)
        f = IdempotentFilter(config)
        assert f.num_sets == 8
        assert f.ways == 4

    def test_filtered_fraction(self):
        f = IdempotentFilter(IFConfig(num_entries=8))
        for _ in range(4):
            f.lookup_insert((1, 0x10, 4))
        assert f.stats.filtered_fraction == pytest.approx(0.75)


class TestInvalidation:
    def test_invalidate_all(self):
        f = IdempotentFilter(IFConfig(num_entries=16))
        f.lookup_insert((1, 0x10, 4))
        f.invalidate_all()
        assert f.resident_entries() == 0
        assert f.lookup_insert((1, 0x10, 4)) is False

    def test_invalidate_matching(self):
        f = IdempotentFilter(IFConfig(num_entries=16))
        f.lookup_insert((1, 0x10, 4))
        f.lookup_insert((1, 0x20, 4))
        f.invalidate_matching((1, 0x10, 4))
        assert not f.contains((1, 0x10, 4))
        assert f.contains((1, 0x20, 4))


class TestConfigValidation:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            IFConfig(num_entries=0)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            IFConfig(num_entries=32, associativity=5)

    def test_fully_associative_ways(self):
        assert IFConfig(num_entries=32, associativity=0).ways == 32


class TestProperties:
    @given(
        keys=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 200), st.just(4)),
                      min_size=1, max_size=300),
        entries=st.sampled_from([8, 16, 32, 64]),
        associativity=st.sampled_from([0, 1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, keys, entries, associativity):
        f = IdempotentFilter(IFConfig(num_entries=entries, associativity=associativity))
        for key in keys:
            f.lookup_insert(key)
        assert f.resident_entries() <= entries

    @given(keys=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_hit_implies_previously_inserted(self, keys):
        f = IdempotentFilter(IFConfig(num_entries=16, associativity=0))
        seen = set()
        for key in keys:
            hit = f.lookup_insert(key)
            if hit:
                assert key in seen
            seen.add(key)

    @given(keys=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_stats_consistency(self, keys):
        f = IdempotentFilter(IFConfig(num_entries=8, associativity=2))
        for key in keys:
            f.lookup_insert(key)
        assert f.stats.hits + f.stats.misses == f.stats.lookups == len(keys)
