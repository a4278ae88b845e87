"""The full dual-core LBA system (Figure 3).

:class:`LBASystem` wires together an application machine, a lifeguard, the
acceleration pipeline configured per :class:`repro.core.config.SystemConfig`,
the shared cache hierarchy and the producer/consumer coupling model, runs the
monitored program to completion, and reports a :class:`MonitoringResult`
containing the slowdown and the statistics every component collected.

The per-lifeguard applicability of the techniques follows Figure 2:
Inheritance Tracking only engages for propagation-tracking lifeguards and
Idempotent Filters only for lifeguards that declare filterable checks, while
LMA/M-TLB applies to every lifeguard.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator
from repro.core.config import SystemConfig
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.isa.threads import ThreadedMachine
import repro.lba.capture as capture
from repro.lba.capture import LogProducer, ProducerStats
from repro.lba.dispatch import DispatchStats, EventDispatcher
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lifeguards.base import Lifeguard, MapperStats
from repro.lifeguards.reports import ErrorReport

ApplicationMachine = Union[Machine, ThreadedMachine]

#: Annotation events that trigger the syscall fault-containment barrier.
_SYSCALL_EVENTS = frozenset(
    {
        EventType.SYSCALL_READ,
        EventType.SYSCALL_RECV,
        EventType.SYSCALL_WRITE,
        EventType.SYSCALL_OTHER,
    }
)


@dataclass
class MonitoringResult:
    """Everything measured during one monitored run."""

    workload: str
    lifeguard: str
    slowdown: float
    timing: TimingBreakdown
    accelerator: AcceleratorStats
    dispatch: DispatchStats
    producer: ProducerStats
    mapper: MapperStats
    reports: List[ErrorReport] = field(default_factory=list)
    config_label: str = ""

    @property
    def errors_detected(self) -> int:
        """Number of violations the lifeguard reported."""
        return len(self.reports)


class LBASystem:
    """Dual-core LBA platform: application core + lifeguard core + accelerators."""

    def __init__(
        self,
        machine: ApplicationMachine,
        lifeguard: Lifeguard,
        config: Optional[SystemConfig] = None,
        workload_name: Optional[str] = None,
        max_instructions: int = 5_000_000,
        trace_writer=None,
    ) -> None:
        self.machine = machine
        self.lifeguard = lifeguard
        self.config = config or SystemConfig()
        self.workload_name = workload_name or getattr(
            getattr(machine, "program", None), "name", "workload"
        )
        self.max_instructions = max_instructions

        effective = self._effective_config()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, num_cores=2)
        self.accelerator = EventAccelerator(
            lifeguard.etct, AcceleratorConfig.from_system(effective)
        )
        lifeguard.attach_hardware(self.accelerator.mtlb)
        self.producer = LogProducer(
            machine,
            self.hierarchy,
            max_instructions=max_instructions,
            trace_writer=trace_writer,
        )
        self.dispatcher = EventDispatcher(lifeguard, self.accelerator, self.hierarchy)
        self.coupling = CouplingModel(self.config.log_buffer.capacity_records)

    def _effective_config(self) -> SystemConfig:
        """Gate IT and IF on the lifeguard's declared applicability (Figure 2)."""
        return self.config.gated_for(self.lifeguard)

    def run(self, config_label: str = "") -> MonitoringResult:
        """Run the monitored program to completion and return the result.

        Each record the application machine emits is priced on the
        application core (``LogProducer.account``), consumed on the
        lifeguard core (``EventDispatcher.consume``) and fed to the
        coupling model (``CouplingModel.observe``): one call per layer per
        record.
        """
        producer = self.producer
        account = producer.account
        consume = self.dispatcher.consume
        observe = self.coupling.observe
        # Looked up on the module, so a wrapper installed there (the
        # benchmark's layer tracer) sees the machine's record stream.
        for record in capture.iter_machine_records(producer.machine, producer.max_instructions):
            app_cost = account(record)
            lifeguard_cost = consume(record)
            barrier = (
                type(record) is not InstructionRecord
                and isinstance(record, AnnotationRecord)
                and record.event_type in _SYSCALL_EVENTS
            )
            observe(app_cost, lifeguard_cost, barrier)
        self.lifeguard.finalize()
        timing = self.coupling.finish()
        mapper = self.lifeguard.mapper_stats()
        return MonitoringResult(
            workload=self.workload_name,
            lifeguard=self.lifeguard.name,
            slowdown=timing.slowdown,
            timing=timing,
            accelerator=self.accelerator.stats,
            dispatch=self.dispatcher.stats,
            producer=self.producer.stats,
            mapper=mapper,
            reports=list(self.lifeguard.reports),
            config_label=config_label,
        )


def run_unmonitored(machine: ApplicationMachine, max_instructions: int = 5_000_000) -> int:
    """Run a program without any lifeguard and return its application cycles.

    Provided for experiments that want an explicit unmonitored baseline; the
    coupled model's ``app_alone_cycles`` is equivalent.
    """
    hierarchy = MemoryHierarchy(num_cores=1)
    producer = LogProducer(machine, hierarchy, max_instructions=max_instructions)
    total = 0
    for _record, cost in producer.stream():
        total += cost
    return total
