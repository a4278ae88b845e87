"""Core acceleration framework: events, ETCT, IT, IF and the M-TLB.

This subpackage contains the paper's primary contribution.  The three
mechanisms are independent and individually configurable (Section 7.1 of
the paper); :class:`repro.core.accelerator.EventAccelerator` composes them
into the dispatch pipeline used by the LBA consumer core.
"""

from repro.core.events import (
    AnnotationRecord,
    EventClass,
    EventType,
    InstructionRecord,
    Record,
)
from repro.core.etct import ETCT, ETCTEntry, InvalidationPolicy
from repro.core.inheritance_tracking import InheritanceTracker, ITState
from repro.core.idempotent_filter import IdempotentFilter
from repro.core.mtlb import LMAConfig, MetadataTLB, MTLBStats
from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator

__all__ = [
    "AnnotationRecord",
    "EventClass",
    "EventType",
    "InstructionRecord",
    "Record",
    "ETCT",
    "ETCTEntry",
    "InvalidationPolicy",
    "InheritanceTracker",
    "ITState",
    "IdempotentFilter",
    "LMAConfig",
    "MetadataTLB",
    "MTLBStats",
    "AcceleratorConfig",
    "AcceleratorStats",
    "EventAccelerator",
]
