"""Tests for the profiling-study sweeps (IT / IF through the accelerator, M-TLB model)."""

import pytest

from repro.analysis import (
    Profiler,
    choose_flexible_level1_bits,
    mtlb_miss_rate,
    sweep_if_design_space,
    sweep_it_reduction,
    sweep_mtlb_flexible_vs_fixed,
)
from repro.core.events import EventType, InstructionRecord

SCALE = 0.3
BENCHMARKS = ["bzip2", "mcf", "gcc"]


@pytest.fixture(scope="module")
def profiler():
    return Profiler()


class TestProfiler:
    def test_traces_are_memoised(self, profiler):
        first = profiler.trace("bzip2", SCALE)
        second = profiler.trace("bzip2", SCALE)
        assert first is second


class TestITSweep:
    def test_reduction_in_valid_range(self, profiler):
        reductions = sweep_it_reduction(profiler, BENCHMARKS, scale=SCALE)
        assert all(0.0 < r < 1.0 for r in reductions.values())

    def test_reduction_matches_paper_band(self, profiler):
        reductions = sweep_it_reduction(profiler, BENCHMARKS, scale=SCALE)
        # the paper reports 35.8%-82.0%; allow a wider tolerance for the
        # synthetic workloads but insist on a substantial reduction
        assert all(r > 0.25 for r in reductions.values())

    def test_sweep_covers_requested_benchmarks(self, profiler):
        assert list(sweep_it_reduction(profiler, BENCHMARKS, scale=SCALE)) == BENCHMARKS


def _if_cell(profiler, lifeguard, benchmark, entries=32, associativity=0):
    """One fully-associative (by default) cell of a one-benchmark IF sweep."""
    sweep = sweep_if_design_space(profiler, lifeguard, [benchmark], entries=(entries,),
                                  associativities=(associativity,), scale=SCALE)
    return sweep[associativity][entries]


class TestIFSweep:
    def test_more_entries_never_reduce_effectiveness(self, profiler):
        small = _if_cell(profiler, "AddrCheck", "gcc", entries=8)
        large = _if_cell(profiler, "AddrCheck", "gcc", entries=256)
        assert large >= small - 0.02

    def test_combined_categorisation_at_least_as_effective_as_separate(self, profiler):
        combined = _if_cell(profiler, "AddrCheck", "bzip2")
        separate = _if_cell(profiler, "LockSet", "bzip2")
        assert combined >= separate - 0.02

    def test_32_entry_filter_is_effective(self, profiler):
        assert _if_cell(profiler, "AddrCheck", "twolf") > 0.3

    def test_sweep_structure(self, profiler):
        sweep = sweep_if_design_space(
            profiler, "AddrCheck", ["bzip2"], entries=(8, 32), associativities=(0, 4), scale=SCALE
        )
        assert set(sweep) == {0, 4}
        assert set(sweep[0]) == {8, 32}


class TestMTLBModel:
    def test_more_entries_do_not_increase_miss_rate(self, profiler):
        trace = profiler.trace("mcf", SCALE)
        small = mtlb_miss_rate("mcf", trace, level1_bits=20, num_entries=16).miss_rate
        large = mtlb_miss_rate("mcf", trace, level1_bits=20, num_entries=256).miss_rate
        assert large <= small + 1e-9

    def test_fewer_level1_bits_do_not_increase_miss_rate(self, profiler):
        trace = profiler.trace("mcf", SCALE)
        fine = mtlb_miss_rate("mcf", trace, level1_bits=20, num_entries=16).miss_rate
        coarse = mtlb_miss_rate("mcf", trace, level1_bits=10, num_entries=16).miss_rate
        assert coarse <= fine + 1e-9

    def test_flexible_bits_within_candidate_range(self, profiler):
        bits = choose_flexible_level1_bits(profiler.trace("gcc", SCALE))
        assert 8 <= bits <= 20

    def test_flexible_never_worse_than_fixed(self, profiler):
        comparison = sweep_mtlb_flexible_vs_fixed(profiler, ["mcf"], entries=(16,), scale=SCALE)
        data = comparison["mcf"]
        assert data["flexible"][16] <= data["fixed"][16] + 1e-9

    def test_a_cycle_wider_than_the_mtlb_misses_on_every_access(self):
        # 17 loads 4 KiB apart touch 17 level-1 chunks at 20 level-1 bits.
        # Cycled three times, they thrash a 16-entry LRU M-TLB and miss in
        # a 32-entry one only on first touch: the workloads' traces never
        # reach the miss path after first touch, so this stream pins it.
        loads = [
            InstructionRecord(pc=0x1000, event_type=EventType.MEM_TO_REG, dest_reg=0,
                              src_addr=0x0900_0000 + page * 4096, size=4, is_load=True)
            for page in range(17)
        ]
        small = mtlb_miss_rate("cycle", loads * 3, level1_bits=20, num_entries=16)
        large = mtlb_miss_rate("cycle", loads * 3, level1_bits=20, num_entries=32)
        assert (small.translations, small.misses) == (51, 51)
        assert (large.translations, large.misses) == (51, 17)
