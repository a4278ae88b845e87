"""The full dual-core LBA system (Figure 3).

:class:`LBASystem` wires together a record stream, a lifeguard, the
acceleration pipeline configured per :class:`repro.core.config.SystemConfig`,
the shared cache hierarchy and the producer/consumer coupling model, monitors
every record of the stream, and reports a :class:`MonitoringResult`
containing the slowdown and the statistics every component collected.  As in
the paper, the log is all the application core hands the lifeguard core, so
the stream may come from a live machine
(:func:`repro.lba.capture.iter_machine_records`), a stored trace
(:class:`repro.trace.tracefile.TraceReader`) or a list, with the same result.

The per-lifeguard applicability of the techniques follows Figure 2:
Inheritance Tracking only engages for propagation-tracking lifeguards and
Idempotent Filters only for lifeguards that declare filterable checks, while
LMA/M-TLB applies to every lifeguard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator
from repro.core.config import SystemConfig
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.lba.capture import LogProducer, ProducerStats, Record
from repro.lba.dispatch import DispatchStats, EventDispatcher
from repro.lba.timing import CouplingModel, TimingBreakdown
from repro.lifeguards.base import Lifeguard, MapperStats
from repro.lifeguards.reports import ErrorReport

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
    """Dual-core LBA platform: application core + lifeguard core + accelerators.

    :meth:`run` iterates ``records`` once; ``workload_name`` labels the result.
    """

    def __init__(
        self,
        records: Iterable[Record],
        lifeguard: Lifeguard,
        config: Optional[SystemConfig] = None,
        workload_name: str = "workload",
    ) -> None:
        self.records = records
        self.lifeguard = lifeguard
        self.config = config or SystemConfig()
        self.workload_name = workload_name

        effective = self._effective_config()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, num_cores=2)
        self.accelerator = EventAccelerator(
            lifeguard.etct, AcceleratorConfig.from_system(effective)
        )
        lifeguard.attach_hardware(self.accelerator.mtlb)
        self.producer = LogProducer(self.hierarchy)
        self.dispatcher = EventDispatcher(lifeguard, self.accelerator, self.hierarchy)
        self.coupling = CouplingModel(self.config.log_buffer.capacity_records)

    def _effective_config(self) -> SystemConfig:
        """Gate IT and IF on the lifeguard's declared applicability (Figure 2)."""
        return self.config.gated_for(self.lifeguard)

    def run(self, config_label: str = "") -> MonitoringResult:
        """Monitor every record of the stream and return the result.

        Each record is priced on the application core
        (``LogProducer.account``), consumed on the lifeguard core
        (``EventDispatcher.consume``) and fed to the coupling model
        (``CouplingModel.observe``): one call per layer per record.
        """
        account = self.producer.account
        consume = self.dispatcher.consume
        observe = self.coupling.observe
        for record in self.records:
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

