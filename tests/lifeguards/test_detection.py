"""Detection correctness of the five lifeguards (Table 1 semantics).

Every buggy/exploited program must be flagged both on the LBA baseline and
with the full acceleration framework enabled (the accelerators must never
mask a detection), and the clean control programs must stay silent.
"""

import pytest

from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG
from repro.isa.machine import Machine
from repro.isa.threads import ThreadedMachine
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import AddrCheck, LockSet, MemCheck, TaintCheck, TaintCheckDetailed
from repro.lifeguards.reports import ErrorKind
from repro.workloads import attacks, bugs

CONFIGS = [("baseline", BASELINE_CONFIG), ("optimized", OPTIMIZED_CONFIG)]


def run(program, lifeguard, config):
    machine = ThreadedMachine(program) if isinstance(program, list) else Machine(program)
    return LBASystem(iter_machine_records(machine), lifeguard, config).run()


def kinds(result):
    return {report.kind for report in result.reports}


@pytest.mark.parametrize("config_name,config", CONFIGS)
class TestAddrCheckDetection:
    def test_use_after_free(self, config_name, config):
        result = run(bugs.use_after_free(), AddrCheck(), config)
        assert ErrorKind.INVALID_ACCESS in kinds(result)

    def test_heap_overflow_write(self, config_name, config):
        result = run(bugs.heap_overflow_write(), AddrCheck(), config)
        assert ErrorKind.INVALID_ACCESS in kinds(result)

    def test_double_free(self, config_name, config):
        result = run(bugs.double_free(), AddrCheck(), config)
        assert ErrorKind.DOUBLE_FREE in kinds(result)

    def test_invalid_free(self, config_name, config):
        result = run(bugs.invalid_free(), AddrCheck(), config)
        assert ErrorKind.INVALID_FREE in kinds(result)

    def test_memory_leak(self, config_name, config):
        result = run(bugs.memory_leak(), AddrCheck(), config)
        assert ErrorKind.MEMORY_LEAK in kinds(result)

    def test_clean_program_is_silent(self, config_name, config):
        result = run(bugs.harmless_uninitialized_copy(), AddrCheck(), config)
        assert result.reports == []


@pytest.mark.parametrize("config_name,config", CONFIGS)
class TestMemCheckDetection:
    def test_uninitialized_computation(self, config_name, config):
        result = run(bugs.uninitialized_computation(), MemCheck(), config)
        assert ErrorKind.UNINITIALIZED_USE in kinds(result)

    def test_uninitialized_condition(self, config_name, config):
        result = run(bugs.uninitialized_condition(), MemCheck(), config)
        assert ErrorKind.UNINITIALIZED_USE in kinds(result)

    def test_uninitialized_pointer_dereference(self, config_name, config):
        result = run(bugs.uninitialized_pointer_dereference(), MemCheck(), config)
        assert ErrorKind.UNINITIALIZED_USE in kinds(result)

    def test_use_after_free_also_detected(self, config_name, config):
        result = run(bugs.use_after_free(), MemCheck(), config)
        assert ErrorKind.INVALID_ACCESS in kinds(result)

    def test_harmless_uninitialized_copy_not_reported(self, config_name, config):
        result = run(bugs.harmless_uninitialized_copy(), MemCheck(), config)
        assert ErrorKind.UNINITIALIZED_USE not in kinds(result)


@pytest.mark.parametrize("config_name,config", CONFIGS)
class TestTaintCheckDetection:
    def test_function_pointer_overwrite(self, config_name, config):
        result = run(attacks.buffer_overflow_function_pointer(), TaintCheck(), config)
        assert ErrorKind.TAINT_VIOLATION in kinds(result)

    def test_format_string_attack(self, config_name, config):
        result = run(attacks.format_string_attack(), TaintCheck(), config)
        assert ErrorKind.TAINT_VIOLATION in kinds(result)

    def test_syscall_argument_attack(self, config_name, config):
        result = run(attacks.syscall_argument_attack(), TaintCheck(), config)
        assert ErrorKind.TAINT_VIOLATION in kinds(result)

    def test_benign_input_is_silent(self, config_name, config):
        result = run(attacks.benign_input_processing(), TaintCheck(), config)
        assert result.reports == []

    def test_detailed_variant_detects_and_records_trail(self, config_name, config):
        lifeguard = TaintCheckDetailed()
        result = run(attacks.buffer_overflow_function_pointer(), lifeguard, config)
        assert ErrorKind.TAINT_VIOLATION in kinds(result)
        violation = result.reports[0]
        assert violation.lifeguard == "TaintCheckDetailed"


@pytest.mark.parametrize("config_name,config", CONFIGS)
class TestLockSetDetection:
    def test_unprotected_counter_race(self, config_name, config):
        result = run(bugs.racy_counter_programs(), LockSet(), config)
        assert ErrorKind.DATA_RACE in kinds(result)

    def test_inconsistent_locking_race(self, config_name, config):
        result = run(bugs.inconsistent_locking_programs(), LockSet(), config)
        assert ErrorKind.DATA_RACE in kinds(result)

    def test_consistently_locked_counter_is_silent(self, config_name, config):
        result = run(bugs.locked_counter_programs(), LockSet(), config)
        assert ErrorKind.DATA_RACE not in kinds(result)


class TestLockSetStateMachine:
    def test_exclusive_then_shared_transitions(self):
        from repro.core.events import DeliveredEvent, EventType
        from repro.lifeguards.lockset import (
            STATE_EXCLUSIVE, STATE_SHARED_MODIFIED, STATE_SHARED_READ, LockSet as LS,
        )

        lockset = LS()
        word = 0x0811_0000
        lock_event = DeliveredEvent(EventType.LOCK, dest_addr=0x0813_0000, thread_id=0)
        lockset._on_lock(lock_event)
        lockset._on_store(DeliveredEvent(EventType.MEM_STORE, dest_addr=word, size=4, thread_id=0))
        assert lockset.location_state(word)[0] == STATE_EXCLUSIVE
        lockset._on_load(DeliveredEvent(EventType.MEM_LOAD, src_addr=word, size=4, thread_id=1))
        assert lockset.location_state(word)[0] == STATE_SHARED_READ
        lockset._on_store(DeliveredEvent(EventType.MEM_STORE, dest_addr=word, size=4, thread_id=1))
        assert lockset.location_state(word)[0] == STATE_SHARED_MODIFIED

    def test_unlock_not_held_reported(self):
        from repro.core.events import DeliveredEvent, EventType

        lockset = LockSet()
        lockset._on_unlock(DeliveredEvent(EventType.UNLOCK, dest_addr=0x0813_0000, thread_id=0))
        assert lockset.reports_of(ErrorKind.UNLOCK_NOT_HELD)


class TestTaintTrail:
    def test_detailed_tracking_reconstructs_provenance(self):
        from repro.core.events import DeliveredEvent, EventType

        lifeguard = TaintCheckDetailed()
        source = 0x0900_0000
        staging = 0x0900_0100
        lifeguard._on_taint_source(
            DeliveredEvent(EventType.SYSCALL_READ, dest_addr=source, size=16)
        )
        lifeguard._on_mem_to_mem(
            DeliveredEvent(EventType.MEM_TO_MEM, src_addr=source, dest_addr=staging, size=4, pc=0x42)
        )
        trail = lifeguard.taint_trail(staging)
        assert trail
        assert trail[0].from_address == source
        assert trail[0].pc == 0x42

    def test_untainted_word_has_no_origin(self):
        lifeguard = TaintCheckDetailed()
        assert lifeguard.origin_of(0x0900_0500) is None
        assert lifeguard.taint_trail(0x0900_0500) == []
