"""Tier-1 differential-fuzzing block plus oracle mutation smoke tests.

Every seed of the tier-1 block runs all five engine legs: per-record
``consume`` (reference), the columnar engine, a trace-file round-trip
replay, the live dual-core platform, and the multi-core platform at N in
{1, 2, 4} -- asserting bit-identical reports/stats/cycles (and internal
IT/IF/M-TLB state for the columnar leg), manifest-driven bug detection,
and clean-seed silence.

The mutation tests prove the oracle has teeth: a deliberately broken
dispatch path must be *caught* as a :class:`FuzzFailure`, not slip
through.  If one of those starts passing without raising, the oracle has
gone blind -- treat it as a release blocker.
"""

import pytest

from repro.core.events import EventType
from repro.fuzz import FuzzFailure, run_seed
from repro.lba.columnar import ColumnarEngine
from repro.lifeguards.memcheck import MemCheck
from repro.trace.codec import RecordColumns

#: The tier-1 seed block (CI runs the same range through the CLI).
TIER1_SEEDS = range(25)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_tier1_seed_block(seed):
    """Every engine pairing agrees and ground truth holds for this seed."""
    result = run_seed(seed)
    assert result.records > 0
    if result.bug:
        assert result.detected_by, f"bug seed {seed} detected by nobody"
    else:
        assert all(count == 0 for count in result.reports_by_lifeguard.values())


class TestOracleCatchesMutations:
    """Deliberately broken handlers must fail the oracle, not pass it."""

    def test_broken_columnar_span_handler_is_caught(self, monkeypatch):
        """A span fast path that skips the access check diverges columnar
        dispatch from the scalar reference and must be flagged."""
        original = MemCheck.columnar_handlers

        def broken(self):
            handlers = dict(original(self))
            handlers[EventType.MEM_LOAD] = (lambda address, size, pc, thread_id: None, False)
            return handlers

        monkeypatch.setattr(MemCheck, "columnar_handlers", broken)
        with pytest.raises(FuzzFailure) as excinfo:
            run_seed(3, engines=("consume", "columnar"), lifeguards=["MemCheck"])
        assert excinfo.value.leg == "columnar"
        assert excinfo.value.lifeguard == "MemCheck"

    def test_record_dropping_batch_dispatch_is_caught(self, monkeypatch):
        """Columnar dispatch of a chunk that silently drops its last row."""
        original = ColumnarEngine.consume_columns

        def dropping(self, columns):
            kept = RecordColumns.from_records(columns.records()[:-1])
            return original(self, kept)

        monkeypatch.setattr(ColumnarEngine, "consume_columns", dropping)
        with pytest.raises(FuzzFailure) as excinfo:
            run_seed(0, engines=("consume", "columnar"), lifeguards=["MemCheck"])
        assert excinfo.value.leg == "columnar"

    def test_miscounted_cycles_are_caught(self, monkeypatch):
        original = ColumnarEngine.consume_columns

        def inflated(self, columns):
            return original(self, columns) + 1  # one cycle too many

        monkeypatch.setattr(ColumnarEngine, "consume_columns", inflated)
        with pytest.raises(FuzzFailure) as excinfo:
            run_seed(0, engines=("consume", "columnar"), lifeguards=["AddrCheck"])
        assert excinfo.value.leg == "columnar"


class TestFaultInjectionLeg:
    """--inject-faults: the oracle proves damage is *reported*, not eaten."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_damaged_trace_leg_passes_on_healthy_tree(self, seed):
        result = run_seed(seed, engines=("consume", "trace_replay"),
                          lifeguards=["MemCheck"], inject_faults=True)
        assert result.records > 0
        assert "fault_inject" in result.leg_seconds
        assert "fault_replay" in result.leg_seconds

    def test_swallowed_quarantine_is_caught(self, monkeypatch):
        """If degrade-mode replay stops reporting skipped chunks, the
        fault leg must flag it -- the oracle's teeth for fault handling."""
        from repro.trace import replay as replay_module

        original = replay_module.replay_trace

        def amnesiac(trace_path, lifeguard, config=None, quarantine="strict"):
            result = original(trace_path, lifeguard, config, quarantine)
            result.skipped_chunks = []  # silently forget the damage
            return result

        monkeypatch.setattr("repro.fuzz.oracle.replay_trace", amnesiac)
        with pytest.raises(FuzzFailure) as excinfo:
            run_seed(0, engines=("consume",), lifeguards=["MemCheck"],
                     inject_faults=True)
        assert excinfo.value.leg == "fault_replay"


class TestOracleInputValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_seed(0, engines=("consume", "warp_drive"))

    def test_unknown_lifeguard_rejected(self):
        with pytest.raises(KeyError):
            run_seed(0, lifeguards=["NotALifeguard"])
