"""Tests for the unary Inheritance Tracking state machine (Section 4)."""

import pytest

from repro.core.config import ITConfig
from repro.core.events import EventType, InstructionRecord
from repro.core.inheritance_tracking import InheritanceTracker, ITState


def record(event_type, **kwargs):
    return InstructionRecord(pc=0x1000, event_type=event_type, **kwargs)


@pytest.fixture
def it():
    return InheritanceTracker(ITConfig())


class TestBasicTransitions:
    def test_imm_to_reg_clears_and_discards(self, it):
        it._set_addr(0, 0x100, 4)
        assert it.process(record(EventType.IMM_TO_REG, dest_reg=0)) == []
        assert it.state_of(0) is ITState.CLEAR

    def test_mem_to_reg_sets_addr_and_discards(self, it):
        delivered = it.process(record(EventType.MEM_TO_REG, dest_reg=2, src_addr=0x200, size=4))
        assert delivered == []
        assert it.state_of(2) is ITState.ADDR
        assert it.entry(2).address == 0x200

    def test_reg_self_keeps_inheritance(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=1, src_addr=0x300, size=4))
        assert it.process(record(EventType.REG_SELF, dest_reg=1)) == []
        assert it.state_of(1) is ITState.ADDR
        assert it.entry(1).address == 0x300

    def test_mem_self_discarded(self, it):
        assert it.process(record(EventType.MEM_SELF, dest_addr=0x50, size=4,
                                 is_load=True, is_store=True)) == []

    def test_imm_to_mem_delivered(self, it):
        delivered = it.process(record(EventType.IMM_TO_MEM, dest_addr=0x80, size=4, is_store=True))
        assert len(delivered) == 1
        assert delivered[0].event_type is EventType.IMM_TO_MEM

    def test_mem_to_mem_delivered(self, it):
        delivered = it.process(
            record(EventType.MEM_TO_MEM, dest_addr=0x80, src_addr=0x40, size=8,
                   is_load=True, is_store=True)
        )
        assert len(delivered) == 1
        assert delivered[0].event_type is EventType.MEM_TO_MEM


class TestRegToReg:
    def test_clean_source_clears_dest(self, it):
        it._set_addr(3, 0x900, 4)
        assert it.process(record(EventType.REG_TO_REG, dest_reg=3, src_reg=0)) == []
        assert it.state_of(3) is ITState.CLEAR

    def test_addr_source_copies_inheritance(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x700, size=2))
        assert it.process(record(EventType.REG_TO_REG, dest_reg=4, src_reg=0)) == []
        assert it.state_of(4) is ITState.ADDR
        assert it.entry(4).address == 0x700

    def test_in_lifeguard_source_delivers(self, it):
        it._set_in_lifeguard(1)
        delivered = it.process(record(EventType.REG_TO_REG, dest_reg=2, src_reg=1))
        assert len(delivered) == 1
        assert delivered[0].event_type is EventType.REG_TO_REG
        assert it.state_of(2) is ITState.IN_LIFEGUARD


class TestRegToMem:
    def test_clean_source_transformed_to_imm_to_mem(self, it):
        delivered = it.process(
            record(EventType.REG_TO_MEM, src_reg=0, dest_addr=0x500, size=4, is_store=True)
        )
        assert [e.event_type for e in delivered] == [EventType.IMM_TO_MEM]

    def test_addr_source_transformed_to_mem_to_mem(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x123, size=4))
        delivered = it.process(
            record(EventType.REG_TO_MEM, src_reg=0, dest_addr=0x500, size=4, is_store=True)
        )
        assert [e.event_type for e in delivered] == [EventType.MEM_TO_MEM]
        assert delivered[0].src_addr == 0x123
        assert delivered[0].dest_addr == 0x500

    def test_in_lifeguard_source_delivers_original(self, it):
        it._set_in_lifeguard(5)
        delivered = it.process(
            record(EventType.REG_TO_MEM, src_reg=5, dest_addr=0x500, size=4, is_store=True)
        )
        assert [e.event_type for e in delivered] == [EventType.REG_TO_MEM]


class TestNonUnaryOperations:
    def test_clean_source_discarded(self, it):
        assert it.process(record(EventType.DEST_REG_OP_REG, dest_reg=0, src_reg=1)) == []

    def test_addr_source_transformed_and_dest_cleared(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=1, src_addr=0x800, size=4))
        it._set_addr(0, 0x900, 4)
        delivered = it.process(record(EventType.DEST_REG_OP_REG, dest_reg=0, src_reg=1))
        assert [e.event_type for e in delivered] == [EventType.DEST_REG_OP_MEM]
        assert delivered[0].src_addr == 0x800
        assert it.state_of(0) is ITState.CLEAR

    def test_in_lifeguard_source_delivers_original(self, it):
        it._set_in_lifeguard(1)
        delivered = it.process(record(EventType.DEST_REG_OP_REG, dest_reg=0, src_reg=1))
        assert [e.event_type for e in delivered] == [EventType.DEST_REG_OP_REG]

    def test_dest_reg_op_mem_always_delivered(self, it):
        delivered = it.process(
            record(EventType.DEST_REG_OP_MEM, dest_reg=0, src_addr=0x100, size=4, is_load=True)
        )
        assert len(delivered) == 1
        assert it.state_of(0) is ITState.CLEAR

    def test_dest_mem_op_reg_clean_source_discarded(self, it):
        assert it.process(
            record(EventType.DEST_MEM_OP_REG, src_reg=0, dest_addr=0x100, size=4,
                   is_load=True, is_store=True)
        ) == []


class TestConflictDetection:
    def test_store_over_inherited_address_flushes_register(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x1000, size=4))
        delivered = it.process(record(EventType.IMM_TO_MEM, dest_addr=0x1000, size=4, is_store=True))
        assert [e.event_type for e in delivered] == [EventType.MEM_TO_REG, EventType.IMM_TO_MEM]
        assert delivered[0].dest_reg == 0
        assert it.state_of(0) is ITState.IN_LIFEGUARD
        assert it.stats.conflict_flushes == 1

    def test_partial_overlap_detected(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x1002, size=4))
        delivered = it.process(record(EventType.IMM_TO_MEM, dest_addr=0x1004, size=2, is_store=True))
        assert delivered[0].event_type is EventType.MEM_TO_REG

    def test_disjoint_store_does_not_flush(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x1000, size=4))
        delivered = it.process(record(EventType.IMM_TO_MEM, dest_addr=0x2000, size=4, is_store=True))
        assert [e.event_type for e in delivered] == [EventType.IMM_TO_MEM]
        assert it.state_of(0) is ITState.ADDR

    def test_source_register_excluded_from_conflict(self, it):
        # storing a register back to the very slot it inherits from must not
        # generate an extra flush (the delivered copy already covers it)
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x1000, size=4))
        delivered = it.process(
            record(EventType.REG_TO_MEM, src_reg=0, dest_addr=0x1000, size=4, is_store=True)
        )
        assert [e.event_type for e in delivered] == [EventType.MEM_TO_MEM]


class TestOtherAndFlush:
    def test_other_flushes_addr_registers(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x10, size=4))
        it.process(record(EventType.MEM_TO_REG, dest_reg=3, src_addr=0x20, size=4))
        delivered = it.process(record(EventType.OTHER, dest_reg=1))
        types = [e.event_type for e in delivered]
        assert types.count(EventType.MEM_TO_REG) == 2
        assert types[-1] is EventType.OTHER
        assert it.state_of(0) is ITState.IN_LIFEGUARD
        assert it.state_of(3) is ITState.IN_LIFEGUARD

    def test_reset_clears_everything(self, it):
        it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x10, size=4))
        it.reset()
        assert all(it.state_of(reg) is ITState.CLEAR for reg in range(8))


class TestFigure4Example:
    def test_figure4_event_reduction(self, it):
        """The 9-instruction example of Figure 4: IT delivers only 2 events."""
        a, b, c, d, e, f = 0x100, 0x104, 0x108, 0x10C, 0x110, 0x114
        eax, ecx = 0, 2
        sequence = [
            record(EventType.MEM_TO_REG, dest_reg=eax, src_addr=a, size=4, is_load=True),
            record(EventType.DEST_REG_OP_MEM, dest_reg=eax, src_addr=b, size=4, is_load=True),
            record(EventType.REG_SELF, dest_reg=eax),
            record(EventType.MEM_TO_REG, dest_reg=ecx, src_addr=c, size=4, is_load=True),
            record(EventType.REG_SELF, dest_reg=ecx),
            record(EventType.DEST_REG_OP_REG, dest_reg=eax, src_reg=ecx),
            record(EventType.REG_TO_MEM, src_reg=eax, dest_addr=d, size=4, is_store=True),
            record(EventType.MEM_TO_REG, dest_reg=eax, src_addr=e, size=4, is_load=True),
            record(EventType.REG_TO_MEM, src_reg=eax, dest_addr=f, size=4, is_store=True),
        ]
        delivered = [event for rec in sequence for event in it.process(rec)]
        # Instruction (2) is a dest_reg_op_mem which IT must deliver so the
        # lifeguard can check the memory source; instructions (6), (7) and
        # (9) collapse as in the paper: (6) becomes a transformed event only
        # because %ecx inherits from C, (7) becomes imm_to_mem (clean result),
        # and (9) becomes the mem_to_mem copy E->F shown in Figure 4.
        types = [event.event_type for event in delivered]
        assert types[-1] is EventType.MEM_TO_MEM
        assert delivered[-1].src_addr == e and delivered[-1].dest_addr == f
        assert EventType.IMM_TO_MEM in types  # the store to D with a clean result
        assert len(delivered) <= 4
        assert it.stats.events_seen == 9

    def test_reduction_statistic(self, it):
        for _ in range(10):
            it.process(record(EventType.MEM_TO_REG, dest_reg=0, src_addr=0x100, size=4))
        assert it.stats.events_seen == 10
        assert it.stats.events_discarded == 10
        assert it.stats.events_delivered == it.stats.events_transformed == 0
