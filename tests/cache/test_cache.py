"""Tests for the cache model and the memory hierarchy."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, CacheStats
from repro.cache.hierarchy import AccessType, MemoryHierarchy
from repro.core.config import CacheConfig, MemoryHierarchyConfig


class TestCache:
    def make(self, size=1024, line=64, ways=2):
        return Cache(CacheConfig(size, line, ways, 1))

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True

    def test_same_line_hits(self):
        cache = self.make()
        cache.access(0x1000)
        assert cache.access(0x103F) is True
        assert cache.access(0x1040) is False

    def test_lru_eviction_within_set(self):
        cache = self.make(size=256, line=64, ways=2)   # 2 sets, 2 ways
        num_sets = cache.config.num_sets
        base = 0x0
        stride = num_sets * 64                          # same set, different tags
        cache.access(base)
        cache.access(base + stride)
        cache.access(base)                              # refresh first line
        cache.access(base + 2 * stride)                 # evicts the second line
        assert cache.contains(base)
        assert not cache.contains(base + stride)

    def test_dirty_eviction_counts_writeback(self):
        cache = self.make(size=128, line=64, ways=1)    # direct mapped, 2 sets
        stride = cache.config.num_sets * 64
        cache.access(0x0, is_write=True)
        cache.access(stride)                            # evicts dirty line
        assert cache.stats.writebacks == 1

    def test_access_range_spanning_lines(self):
        cache = self.make()
        misses = cache.access_range(0x1030, 64)
        assert misses == 2

    def test_invalidate_all(self):
        cache = self.make()
        cache.access(0x1000)
        cache.invalidate_all()
        assert cache.resident_lines() == 0

    def test_first_access_to_a_negative_line_misses(self):
        # A new or invalidated cache remembers no line, not even line -1.
        cache = self.make()
        assert cache.access(-1) is False
        cache.invalidate_all()
        assert cache.access(-64) is False
        assert cache.stats.misses == 2

    def test_miss_rate(self):
        cache = self.make()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestHierarchy:
    def test_latencies_by_level(self):
        hierarchy = MemoryHierarchy(MemoryHierarchyConfig(), num_cores=2)
        cold = hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        warm = hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        assert cold == 1 + 10 + 200
        assert warm == 1

    def test_l2_shared_between_cores(self):
        hierarchy = MemoryHierarchy(num_cores=2)
        hierarchy.access(0, 0x2000, AccessType.DATA_READ)
        # core 1 misses its private L1 but hits the shared L2
        latency = hierarchy.access(1, 0x2000, AccessType.DATA_READ)
        assert latency == 1 + 10

    def test_instruction_fetch_uses_l1i(self):
        hierarchy = MemoryHierarchy(num_cores=1)
        hierarchy.access(0, 0x8048000, AccessType.INSTRUCTION_FETCH)
        assert hierarchy.core(0).l1i.stats.accesses == 1
        assert hierarchy.core(0).l1d.stats.accesses == 0

    def test_private_l1_per_core(self):
        hierarchy = MemoryHierarchy(num_cores=2)
        hierarchy.access(0, 0x3000, AccessType.DATA_WRITE)
        assert hierarchy.core(1).l1d.stats.accesses == 0

    def test_miss_rate_helper(self):
        hierarchy = MemoryHierarchy(num_cores=1)
        hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        assert hierarchy.total_l1_miss_rate(0) == pytest.approx(0.5)


# --------------------------------------------------------------------------
# Model-based test: Cache and MemoryHierarchy against a naive reference that
# keeps one list per set, least recently used first.

#: Direct-mapped, 2-way and 4-way; 16- and 64-byte lines; 3-set caches too.
GEOMETRIES = [
    CacheConfig(256, 16, 1, 1),
    CacheConfig(192, 64, 1, 1),
    CacheConfig(96, 16, 2, 1),
    CacheConfig(512, 64, 2, 1),
    CacheConfig(256, 16, 4, 1),
    CacheConfig(768, 64, 4, 1),
]


class ReferenceCache:
    """Set-associative LRU cache: per set, a list of ``(tag, dirty)``,
    least recently used first."""

    def __init__(self, config):
        self.line_bytes = config.line_bytes
        self.ways = config.associativity
        self.num_sets = config.size_bytes // (config.line_bytes * config.associativity)
        self.sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address):
        line = address // self.line_bytes
        return self.sets[line % self.num_sets], line // self.num_sets

    def access(self, address, is_write=False):
        self.stats.accesses += 1
        entries, tag = self._locate(address)
        for position, (entry_tag, dirty) in enumerate(entries):
            if entry_tag == tag:
                del entries[position]
                entries.append((tag, dirty or is_write))
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        if len(entries) == self.ways:
            _tag, dirty = entries.pop(0)
            self.stats.evictions += 1
            self.stats.writebacks += dirty
        entries.append((tag, is_write))
        return False

    def access_range(self, address, size, is_write=False):
        first = address // self.line_bytes
        last = (address + max(size, 1) - 1) // self.line_bytes
        return sum(
            not self.access(line * self.line_bytes, is_write)
            for line in range(first, last + 1)
        )

    def contains(self, address):
        entries, tag = self._locate(address)
        return any(entry_tag == tag for entry_tag, _dirty in entries)

    def invalidate_all(self):
        self.sets = [[] for _ in range(self.num_sets)]

    def resident_lines(self):
        return sum(len(entries) for entries in self.sets)


class ReferenceHierarchy:
    """Private L1s, a shared L2 probed once at the access address, memory."""

    def __init__(self, config, num_cores):
        self.config = config
        self.l1 = {
            (core, kind): ReferenceCache(config.l1i if kind == "i" else config.l1d)
            for core in range(num_cores) for kind in "id"
        }
        self.l2 = ReferenceCache(config.l2)
        self.l2_probes = []
        self.memory_accesses = 0

    def access(self, core, address, access_type, size):
        is_write = access_type is AccessType.DATA_WRITE
        fetch = access_type is AccessType.INSTRUCTION_FETCH
        l1_config = self.config.l1i if fetch else self.config.l1d
        latency = l1_config.latency_cycles
        if not self.l1[core, "i" if fetch else "d"].access_range(address, size, is_write):
            return latency
        latency += self.config.l2.latency_cycles
        self.l2_probes.append(address)
        if self.l2.access(address, is_write):
            return latency
        self.memory_accesses += 1
        return latency + self.config.memory_latency_cycles


def _address(line_bytes, line, delta):
    """An address ``delta`` bytes from the start of ``line`` (never negative)."""
    return max(0, line * line_bytes + delta)


#: What an op does: access a line drawn from ``LINES``, access the last
#: line the previous access touched (its cache's most recently used line
#: when both go to the same cache) at offset ``delta`` modulo the line
#: size, or call ``invalidate_all()`` (cache streams only).
FRESH, REPEAT, INVALIDATE = "fresh", "repeat", "invalidate"
#: Addresses cluster on a few dozen lines, often near a line end (a negative
#: delta from a line start); sizes include 0 and negatives.
LINES = st.integers(0, 40)
DELTAS = st.one_of(st.integers(-4, 3), st.integers(0, 63))
SIZES = st.one_of(st.integers(-3, 0), st.integers(1, 130))
#: Four accesses in ten repeat the previous line; one cache op in twenty
#: invalidates the cache.
ACCESS_KINDS = st.sampled_from((FRESH,) * 6 + (REPEAT,) * 4)
CACHE_KINDS = st.sampled_from((FRESH,) * 11 + (REPEAT,) * 8 + (INVALIDATE,))
#: (what, line, delta, size, is_write, through access_range)
CACHE_OPS = st.lists(
    st.tuples(CACHE_KINDS, LINES, DELTAS, SIZES, st.booleans(), st.booleans()),
    min_size=1,
    max_size=100,
)
#: (what, line, delta, size, access type, core)
HIERARCHY_OPS = st.lists(
    st.tuples(
        ACCESS_KINDS, LINES, DELTAS, SIZES, st.sampled_from(list(AccessType)), st.integers(0, 1)
    ),
    min_size=1,
    max_size=100,
)


def _op_address(line_bytes, what, line, delta, previous):
    """The address an op accesses, given the last line the previous access touched."""
    if what == REPEAT:
        return previous * line_bytes + delta % line_bytes
    return _address(line_bytes, line, delta)


def _last_line(line_bytes, address, size):
    """The last line ``[address, address + size)`` touches (of ``address`` if size <= 0)."""
    return (address + max(size, 1) - 1) // line_bytes


def _flush(cache, num_sets, ways, line_bytes):
    """Fill every set with lines no op touched, evicting (and writing back)
    every resident line, so that the dirty bits show in ``writebacks``."""
    for index in range(num_sets):
        for way in range(ways):
            cache.access(((1000 + way) * num_sets + index) * line_bytes)


def _geometry_id(config):
    return f"{config.size_bytes}B-{config.line_bytes}-{config.associativity}w"


@pytest.mark.parametrize("config", GEOMETRIES, ids=_geometry_id)
@settings(max_examples=50, deadline=None)
@given(ops=CACHE_OPS)
def test_cache_matches_reference_model(config, ops):
    """Every result and statistic matches after each op, including repeats
    of the most recently used line and ``invalidate_all()``; then the
    resident lines match, and so do their dirty bits."""
    cache, model = Cache(config), ReferenceCache(config)
    line_bytes = config.line_bytes
    touched = set()
    previous = 0
    for what, line, delta, size, is_write, ranged in ops:
        if what == INVALIDATE:
            cache.invalidate_all()
            model.invalidate_all()
            assert cache.resident_lines() == 0
            continue
        address = _op_address(line_bytes, what, line, delta, previous)
        end = address + max(size, 1) - 1
        touched.update(range(address, end, line_bytes))
        touched.add(end)
        if ranged:
            assert cache.access_range(address, size, is_write) == model.access_range(
                address, size, is_write)
            previous = _last_line(line_bytes, address, size)
        else:
            assert cache.access(address, is_write) is model.access(address, is_write)
            previous = address // line_bytes
        assert cache.stats == model.stats
    assert cache.resident_lines() == model.resident_lines()
    for address in sorted(touched):
        for probe in (address, address + line_bytes * model.num_sets):
            assert cache.contains(probe) == model.contains(probe)
    for each in (cache, model):
        _flush(each, model.num_sets, model.ways, line_bytes)
    assert cache.stats == model.stats


@pytest.mark.parametrize("config", GEOMETRIES, ids=_geometry_id)
@settings(max_examples=50, deadline=None)
@given(ops=HIERARCHY_OPS)
def test_hierarchy_matches_reference_model(config, ops):
    """Every latency and statistic matches, and an L1 miss probes the L2
    once, at the access address, however many lines the access spans."""
    hierarchy_config = MemoryHierarchyConfig(
        l1i=config,
        l1d=dataclasses.replace(config, latency_cycles=2),
        l2=CacheConfig(
            config.size_bytes * 4, config.line_bytes, config.associativity * 2, 10
        ),
        memory_latency_cycles=200,
    )
    hierarchy = MemoryHierarchy(hierarchy_config, num_cores=2)
    model = ReferenceHierarchy(hierarchy_config, num_cores=2)
    probes = []
    l2_access = hierarchy.l2.access

    def recording_l2_access(address, is_write=False):
        probes.append(address)
        return l2_access(address, is_write)

    hierarchy.l2.access = recording_l2_access
    caches = [
        (hierarchy.core(core).l1i, model.l1[core, "i"]) for core in range(2)
    ] + [
        (hierarchy.core(core).l1d, model.l1[core, "d"]) for core in range(2)
    ] + [(hierarchy.l2, model.l2)]
    previous = 0
    for what, line, delta, size, kind, core in ops:
        address = _op_address(config.line_bytes, what, line, delta, previous)
        assert hierarchy.access(core, address, kind, size) == model.access(
            core, address, kind, size)
        previous = _last_line(config.line_bytes, address, size)
        assert probes == model.l2_probes
        assert hierarchy.memory_accesses == model.memory_accesses
        for cache, reference in caches:
            assert cache.stats == reference.stats
    for cache, reference in caches:
        assert cache.resident_lines() == reference.resident_lines()
