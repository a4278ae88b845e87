"""Shrinking by instruction-window bisection and replayable repro files."""

import json
import os

import pytest

from repro.fuzz import (
    FuzzCase,
    load_repro,
    replay_repro,
    run_case,
    save_repro,
    shrink_spec,
)
from repro.isa.threads import ThreadedMachine
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS
from repro.workloads.generator import build_fuzz_programs, manifest_for


def _detects_injected_bug(spec):
    """The failure predicate used throughout: the bug is still detected."""
    manifest = manifest_for(spec)
    detector = ALL_LIFEGUARDS[manifest.detectors[0]]()
    result = LBASystem(
        iter_machine_records(ThreadedMachine(build_fuzz_programs(spec))), detector
    ).run()
    return any(report.kind.value in manifest.kinds for report in result.reports)


class TestShrinking:
    def test_shrinks_bug_seed_to_just_the_bug_op(self):
        """Window bisection removes every random op; the injected bug op is
        the only one the predicate needs, so the minimum is exactly 1 op."""
        case = FuzzCase.from_seed(6)  # taint_to_jump
        assert _detects_injected_bug(case.spec)
        shrunk = shrink_spec(case.spec, _detects_injected_bug)
        assert shrunk.total_ops() == 1
        (only_op,) = [op for thread_ops in shrunk.ops for op in thread_ops]
        assert only_op.kind == "bug_taint_to_jump"

    def test_shrinking_is_idempotent(self):
        case = FuzzCase.from_seed(3)  # use_after_free
        shrunk = shrink_spec(case.spec, _detects_injected_bug)
        assert shrink_spec(shrunk, _detects_injected_bug) == shrunk

    def test_shrunk_spec_preserves_scenario_facts(self):
        case = FuzzCase.from_seed(5)  # unlocked_shared_write, 2 threads
        shrunk = shrink_spec(case.spec, _detects_injected_bug)
        assert shrunk.threads == case.spec.threads
        assert shrunk.bug == case.spec.bug
        assert shrunk.total_ops() < case.spec.total_ops()
        assert _detects_injected_bug(shrunk)

    def test_predicate_must_hold_initially(self):
        case = FuzzCase.from_seed(0)
        with pytest.raises(ValueError):
            shrink_spec(case.spec, lambda spec: False)

    def test_oracle_predicate_pins_the_original_failure(self, monkeypatch):
        """Shrinking a columnar divergence must not degenerate into the
        unrelated "bug not detected" failure that dropping the bug op
        causes -- the pinned predicate only accepts same-leg failures."""
        from repro.core.events import EventType
        from repro.fuzz import FuzzFailure, run_case
        from repro.fuzz.shrink import oracle_failure_predicate
        from repro.lifeguards.memcheck import MemCheck

        original = MemCheck.columnar_handlers

        def broken(self):
            handlers = dict(original(self))
            handlers[EventType.MEM_LOAD] = (
                lambda address, size, pc, thread_id: None, False)
            return handlers

        monkeypatch.setattr(MemCheck, "columnar_handlers", broken)
        case = FuzzCase.from_seed(3)  # use_after_free
        engines = ("consume", "columnar")
        with pytest.raises(FuzzFailure) as excinfo:
            run_case(case, engines=engines, lifeguards=["MemCheck"])
        predicate = oracle_failure_predicate(
            engines, ["MemCheck"], match=excinfo.value)
        shrunk = shrink_spec(case.spec, predicate)
        # the minimised program still reproduces the *columnar* divergence
        with pytest.raises(FuzzFailure) as reshrunk:
            run_case(FuzzCase.from_spec(shrunk), engines=engines,
                     lifeguards=["MemCheck"])
        assert reshrunk.value.leg == "columnar"
        assert shrunk.total_ops() <= case.spec.total_ops()


class TestReproFiles:
    def test_round_trip_and_deterministic_replay(self, tmp_path):
        case = FuzzCase.from_seed(4)
        shrunk = FuzzCase.from_spec(shrink_spec(case.spec, _detects_injected_bug))
        path = save_repro(os.fspath(tmp_path / "seed_4.json"), shrunk)
        loaded = load_repro(path)
        assert loaded.spec == shrunk.spec
        assert loaded.manifest == shrunk.manifest
        first = replay_repro(path)
        second = replay_repro(path)
        assert first.records == second.records
        assert first.reports_by_lifeguard == second.reports_by_lifeguard
        assert first.detected_by == second.detected_by
        # and the replay equals running the case directly
        direct = run_case(loaded)
        assert direct.records == first.records
        assert direct.reports_by_lifeguard == first.reports_by_lifeguard

    def test_digest_mismatch_is_rejected(self, tmp_path):
        case = FuzzCase.from_seed(3)
        path = save_repro(os.fspath(tmp_path / "seed_3.json"), case)
        with open(path) as handle:
            document = json.load(handle)
        document["digest"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_repro(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        case = FuzzCase.from_seed(3)
        path = save_repro(os.fspath(tmp_path / "seed_3.json"), case)
        with open(path) as handle:
            document = json.load(handle)
        document["version"] = 99
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="version"):
            load_repro(path)

    def test_failure_context_is_stored(self, tmp_path):
        from repro.fuzz.oracle import FuzzFailure

        case = FuzzCase.from_seed(7)
        failure = FuzzFailure(7, "columnar", "MemCheck", "synthetic divergence")
        path = save_repro(os.fspath(tmp_path / "seed_7.json"), case, failure=failure)
        with open(path) as handle:
            document = json.load(handle)
        assert document["failure"]["leg"] == "columnar"
        assert document["failure"]["lifeguard"] == "MemCheck"
