"""Property-based equivalence: acceleration must not change lifeguard conclusions.

Inheritance Tracking, Idempotent Filters and the M-TLB are performance
mechanisms; for any program, a lifeguard's *metadata conclusions* about
memory must be the same whether or not the hardware is enabled (modulo the
deliberately weaker treatment of non-unary taint propagation, which only
ever makes accelerated TAINTCHECK report *fewer* taints, never more).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.isa.machine import Machine
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import AddrCheck, MemCheck, TaintCheck
from repro.workloads.generator import GeneratorConfig, generate_program


def _run(lifeguard, program, config):
    result = LBASystem(iter_machine_records(Machine(program)), lifeguard, config).run()
    return lifeguard, result


def _taint_snapshot(lifeguard: TaintCheck, base: int, size: int):
    return [lifeguard.taint.read_bits(base + i, 2) & 1 for i in range(size)]


class TestTaintEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_accelerated_taint_is_subset_of_baseline(self, seed):
        config = GeneratorConfig(operations=120, array_words=32, with_tainted_input=True)
        program = generate_program(seed, config)

        baseline_lifeguard, baseline = _run(TaintCheck(), program, BASELINE_CONFIG)
        optimized_lifeguard, optimized = _run(
            TaintCheck(), generate_program(seed, config), OPTIMIZED_CONFIG
        )
        # Compare final taint over the heap region both programs used.
        heap_base = 0x0900_0000
        span = 32 * 4 * 4
        base_taint = _taint_snapshot(baseline_lifeguard, heap_base, span)
        opt_taint = _taint_snapshot(optimized_lifeguard, heap_base, span)
        for address, (base_bit, opt_bit) in enumerate(zip(base_taint, opt_taint)):
            # unary-only propagation may clear taint that generic propagation
            # kept (non-unary results), but must never invent taint
            if opt_bit:
                assert base_bit, f"acceleration invented taint at heap+{address:#x}"

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_clean_generated_programs_stay_clean(self, seed):
        program = generate_program(seed, GeneratorConfig(operations=100, array_words=24))
        for lifeguard_cls in (AddrCheck, MemCheck, TaintCheck):
            lifeguard, result = _run(lifeguard_cls(), program, OPTIMIZED_CONFIG)
            assert result.reports == [], (lifeguard_cls.__name__, result.reports[:3])


class TestDetectionEquivalence:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=6, deadline=None)
    def test_error_counts_match_between_configs_for_memcheck(self, seed):
        program = generate_program(seed, GeneratorConfig(operations=80, array_words=16))
        _, baseline = _run(MemCheck(), program, BASELINE_CONFIG)
        _, optimized = _run(MemCheck(), generate_program(
            seed, GeneratorConfig(operations=80, array_words=16)), OPTIMIZED_CONFIG)
        assert len(baseline.reports) == len(optimized.reports) == 0

    def test_slowdown_never_below_one(self):
        program = generate_program(3, GeneratorConfig(operations=150))
        for config in (BASELINE_CONFIG, OPTIMIZED_CONFIG):
            _, result = _run(AddrCheck(), program, config)
            assert result.slowdown >= 0.99
