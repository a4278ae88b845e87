"""Multi-core LBA monitoring platform.

Scales the dual-core system of :mod:`repro.lba.platform` out to N
application cores paired with N lifeguard cores, the multicore host the
paper's log-based architecture assumes:

* each application core owns a **per-core log channel** -- a private
  :class:`repro.lba.capture.LogProducer` doing that core's cycle
  accounting, exact compressed log-byte counting (each channel is its own
  codec stream) and optional per-core trace capture;
* a **shard router** assigns every record to a lifeguard core, either by
  metadata address (``"address"``, the default: all accesses to a word are
  checked by the shard owning that word) or by application thread
  (``"thread"``);
* each lifeguard shard owns a private lifeguard instance with its own
  acceleration pipeline (:class:`EventAccelerator`), dispatcher and
  bounded-buffer coupling model against the application;
* **cross-core event forwarding** keeps the globally shared lifeguard
  state coherent across shards: heap, lock-ownership, thread-lifetime and
  taint-source annotations are broadcast to every shard (inter-thread
  inheritance -- a lock acquired by thread 0 on shard 0 must refine
  locksets on every shard), and memory-to-memory copies whose source and
  destination live on different shards are forwarded to the source shard.

Determinism and the N=1 anchor: records are routed in log order and
per-shard outcomes are merged in shard-index order, so a multi-core run is
a pure function of the workload.  With a single core the platform wires up
exactly the dual-core pipeline -- same hierarchy, accelerator, producer,
dispatcher and coupling model, driven in the same per-record order -- so
``MultiCoreLBASystem(..., num_cores=1).run()`` is bit-identical to
:meth:`LBASystem.run` (enforced by the differential conformance matrix in
``tests/lba/test_conformance_matrix.py``).

Sharding with N>1 trades cross-shard metadata propagation for throughput,
exactly like sharded trace replay: a shard does not see register
inheritance established by records routed elsewhere, so stateful
lifeguards' reports are per-shard approximations (address sharding keeps
per-address state -- allocation, initialisation, locksets -- exact, since
every access to an address is routed to its owning shard).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator
from repro.core.config import SystemConfig
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.core.stats import sum_stats
from repro.lba.capture import LogProducer, ProducerStats, iter_machine_records
from repro.lba.dispatch import DispatchStats, EventDispatcher
from repro.lba.platform import ApplicationMachine, MonitoringResult, _SYSCALL_EVENTS
from repro.lba.timing import TimingBreakdown
from repro.lifeguards.base import Lifeguard, MapperStats
from repro.lifeguards.reports import ErrorReport

Record = Union[InstructionRecord, AnnotationRecord]

#: Valid shard-routing policies.
SHARD_POLICIES = ("address", "thread")

#: Annotation events that update globally shared lifeguard state (heap
#: blocks, lock ownership, thread lifetimes, taint sources).  Every shard
#: must observe them for inter-thread inheritance to cross shard
#: boundaries, so the router broadcasts them.  Sink-style annotations
#: (``syscall_write``, ``printf``) only *check* metadata and are routed to
#: a single shard so a violation is reported once.
SHARED_STATE_ANNOTATIONS = frozenset(
    {
        EventType.MALLOC,
        EventType.FREE,
        EventType.REALLOC,
        EventType.LOCK,
        EventType.UNLOCK,
        EventType.THREAD_CREATE,
        EventType.THREAD_EXIT,
        EventType.SYSCALL_READ,
        EventType.SYSCALL_RECV,
    }
)

#: Default address-interleave granularity: 64-byte lines, matching the
#: cache-line size, so spatially local accesses stay on one shard.
DEFAULT_ADDRESS_SHARD_BITS = 6


class ShardRouter:
    """Deterministic record → lifeguard-shard assignment.

    Policies:

    * ``"address"`` (default): instruction records go to the shard owning
      their primary data address (destination first -- the store side owns
      conflict checks -- falling back to the source address, then to the
      thread's shard for pure register/control records).  Annotation
      records with an address route by that address.
    * ``"thread"``: records go to the shard of their producing thread
      (``thread_id % num_shards``).
    """

    def __init__(
        self,
        num_shards: int,
        policy: str = "address",
        address_bits: int = DEFAULT_ADDRESS_SHARD_BITS,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in SHARD_POLICIES:
            raise ValueError(f"unknown shard policy {policy!r}; known: {SHARD_POLICIES}")
        if address_bits < 0:
            raise ValueError("address_bits must be >= 0")
        self.num_shards = num_shards
        self.policy = policy
        self.address_bits = address_bits

    def shard_of_address(self, address: int) -> int:
        """Shard owning the metadata of an application address."""
        return (address >> self.address_bits) % self.num_shards

    def route(self, record: Record) -> int:
        """Primary shard that consumes ``record``."""
        if self.num_shards == 1:
            return 0
        if isinstance(record, AnnotationRecord):
            if self.policy == "address" and record.address is not None:
                return self.shard_of_address(record.address)
            return record.thread_id % self.num_shards
        if self.policy == "thread":
            return record.thread_id % self.num_shards
        address = record.dest_addr if record.dest_addr is not None else record.src_addr
        if address is None:
            return record.thread_id % self.num_shards
        return self.shard_of_address(address)

    def forward_targets(self, record: Record, primary: int) -> Tuple[int, ...]:
        """Extra shards ``record`` is forwarded to (ascending, without ``primary``).

        Shared-state annotations are broadcast to every shard; under address
        sharding, memory-to-memory records whose source address lives on a
        different shard are also forwarded there, so both the source and the
        destination shard observe the copy.
        """
        if self.num_shards == 1:
            return ()
        if isinstance(record, AnnotationRecord):
            if record.event_type in SHARED_STATE_ANNOTATIONS:
                return tuple(s for s in range(self.num_shards) if s != primary)
            return ()
        if (
            self.policy == "address"
            and record.src_addr is not None
            and record.dest_addr is not None
        ):
            source = self.shard_of_address(record.src_addr)
            if source != primary:
                return (source,)
        return ()


class MultiCoreCoupling:
    """Bounded-buffer timing recurrence over N producer and M consumer clocks.

    Generalises :class:`repro.lba.timing.CouplingModel` to the multi-core
    platform: every application core owns a produce clock, every lifeguard
    shard owns a consume clock and a bounded log buffer, and each record
    couples the clock of the core that produced it with the clock of the
    shard that consumes it.  System-call barriers drain *every* shard (the
    fault-containment protocol requires all lifeguard cores to have
    checked all earlier records).  Stall cycles are accounted to the
    consuming shard's :class:`TimingBreakdown`; with one core and one
    shard the recurrence -- and every breakdown field -- is identical to
    the dual-core model.
    """

    def __init__(self, num_cores: int, num_shards: int, buffer_capacity_records: int) -> None:
        if buffer_capacity_records <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = buffer_capacity_records
        self.breakdowns = [TimingBreakdown() for _ in range(num_shards)]
        self._produce_finish = [0] * num_cores
        self._consume_finish = [0] * num_shards
        self._windows = [deque() for _ in range(num_shards)]

    def drain_level(self) -> int:
        """Lifeguard-side finish time a syscall barrier must wait for.

        Callers that fan one record out to several shards (broadcast
        barriers) must snapshot this *before* the record's first
        consumption and pass it to every :meth:`observe` via ``drain_to``,
        so the barrier waits only for records earlier than itself.
        """
        return max(self._consume_finish)

    def observe(
        self,
        core: int,
        shard: int,
        app_cost: int,
        lifeguard_cost: int,
        syscall_barrier: bool = False,
        drain_to: Optional[int] = None,
    ) -> None:
        """Account one record produced on ``core`` and consumed by ``shard``."""
        breakdown = self.breakdowns[shard]
        breakdown.records += 1
        breakdown.app_alone_cycles += app_cost

        start = self._produce_finish[core]
        window = self._windows[shard]
        if len(window) >= self.capacity:
            oldest_consumed = window.popleft()
            if oldest_consumed > start:
                breakdown.producer_stall_cycles += oldest_consumed - start
                start = oldest_consumed
        if syscall_barrier and drain_to is None:
            drain_to = self.drain_level()
        if drain_to is not None and drain_to > start:
            breakdown.syscall_stall_cycles += drain_to - start
            start = drain_to
        produce_finish = start + app_cost
        self._produce_finish[core] = produce_finish
        breakdown.app_finish_cycles = produce_finish

        consume_start = self._consume_finish[shard]
        if produce_finish > consume_start:
            breakdown.consumer_stall_cycles += produce_finish - consume_start
            consume_start = produce_finish
        consume_finish = consume_start + lifeguard_cost
        self._consume_finish[shard] = consume_finish
        breakdown.lifeguard_busy_cycles += lifeguard_cost
        breakdown.lifeguard_finish_cycles = consume_finish
        window.append(consume_finish)

    def finish(self) -> List[TimingBreakdown]:
        """Return the per-shard timing breakdowns."""
        return self.breakdowns


@dataclass
class MultiCoreStats:
    """Routing/forwarding accounting of one multi-core run."""

    records: int = 0
    forwarded_records: int = 0
    broadcast_records: int = 0

    @property
    def forwarding_overhead(self) -> float:
        """Extra shard consumptions per log record (0 = no forwarding)."""
        if not self.records:
            return 0.0
        return self.forwarded_records / self.records


@dataclass
class ShardOutcome:
    """Everything one lifeguard shard measured."""

    index: int
    timing: TimingBreakdown
    dispatch: DispatchStats
    accelerator: AcceleratorStats
    mapper: MapperStats
    reports: List[ErrorReport] = field(default_factory=list)
    forwarded_records: int = 0


@dataclass
class MultiCoreResult:
    """Merged outcome of one multi-core monitored run.

    ``merged`` aggregates the per-shard outcomes into the familiar
    :class:`MonitoringResult` shape: counter statistics and stall cycles
    are summed, finish times are the maximum over shards (the cores run
    concurrently), the unmonitored baseline is the slowest application
    core's alone-time, and reports are concatenated in shard-index order
    (deterministic shard-merge).  With one core this reduces exactly to the
    dual-core result.
    """

    workload: str
    lifeguard: str
    num_cores: int
    shard_policy: str
    merged: MonitoringResult
    shards: List[ShardOutcome]
    producers: List[ProducerStats]
    stats: MultiCoreStats

    @property
    def slowdown(self) -> float:
        """Monitored completion time over the unmonitored application time."""
        return self.merged.slowdown

    @property
    def reports(self) -> List[ErrorReport]:
        """Merged error reports (shard-index order)."""
        return self.merged.reports


class _LifeguardShard:
    """One lifeguard core: private lifeguard + acceleration pipeline."""

    def __init__(
        self,
        index: int,
        lifeguard: Lifeguard,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        core_index: int,
    ) -> None:
        self.index = index
        self.lifeguard = lifeguard
        effective = config.gated_for(lifeguard)
        self.accelerator = EventAccelerator(
            lifeguard.etct, AcceleratorConfig.from_system(effective)
        )
        lifeguard.attach_hardware(self.accelerator.mtlb)
        self.dispatcher = EventDispatcher(
            lifeguard, self.accelerator, hierarchy, core_index=core_index
        )
        self.forwarded_records = 0

    def finish(self, timing: TimingBreakdown) -> ShardOutcome:
        """Finalize the lifeguard and collect this shard's outcome."""
        self.lifeguard.finalize()
        return ShardOutcome(
            index=self.index,
            timing=timing,
            dispatch=self.dispatcher.stats,
            accelerator=self.accelerator.stats,
            mapper=self.lifeguard.mapper_stats(),
            reports=list(self.lifeguard.reports),
            forwarded_records=self.forwarded_records,
        )


class MultiCoreLBASystem:
    """N application cores + N lifeguard cores over a shared hierarchy.

    Args:
        machine: the application machine (threads are mapped to application
            cores via its ``core_of`` when present, ``thread_id %
            num_cores`` otherwise).
        lifeguard_factory: a :class:`Lifeguard` subclass or zero-argument
            callable; invoked once per lifeguard shard so every shard owns
            private metadata.
        config: system configuration shared by every core pair.
        num_cores: number of application cores (= lifeguard shards).
        shard_policy: ``"address"`` or ``"thread"`` (see :class:`ShardRouter`).
        workload_name: label used in the result.
        max_instructions: execution safety limit.
        trace_writers: optional per-core trace tees (one per application
            core); each core's log channel is captured as its own trace
            file, replayable with :class:`repro.trace.replay.MultiTraceReplay`.
    """

    def __init__(
        self,
        machine: ApplicationMachine,
        lifeguard_factory: Callable[[], Lifeguard],
        config: Optional[SystemConfig] = None,
        num_cores: int = 1,
        shard_policy: str = "address",
        workload_name: Optional[str] = None,
        max_instructions: int = 5_000_000,
        trace_writers: Optional[Sequence] = None,
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if trace_writers is not None and len(trace_writers) != num_cores:
            raise ValueError(
                f"need one trace writer per application core "
                f"({len(trace_writers)} writers for {num_cores} cores)"
            )
        self.machine = machine
        self.config = config or SystemConfig()
        self.num_cores = num_cores
        self.workload_name = workload_name or getattr(
            getattr(machine, "program", None), "name", "workload"
        )
        self.max_instructions = max_instructions
        self.router = ShardRouter(num_cores, shard_policy)

        # Cores 0..N-1 are application cores, N..2N-1 lifeguard cores.
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, num_cores=2 * num_cores)
        self.channels: List[LogProducer] = [
            LogProducer(
                machine,
                self.hierarchy,
                max_instructions=max_instructions,
                trace_writer=trace_writers[core] if trace_writers is not None else None,
                core_index=core,
            )
            for core in range(num_cores)
        ]
        self.shards: List[_LifeguardShard] = [
            _LifeguardShard(
                shard,
                lifeguard_factory(),
                self.config,
                self.hierarchy,
                num_cores + shard,
            )
            for shard in range(num_cores)
        ]
        self.coupling = MultiCoreCoupling(
            num_cores, num_cores, self.config.log_buffer.capacity_records
        )
        self.lifeguard_name = self.shards[0].lifeguard.name
        self.stats = MultiCoreStats()

    def _core_of(self, thread_id: int) -> int:
        core_of = getattr(self.machine, "core_of", None)
        if core_of is not None:
            return core_of(thread_id) % self.num_cores
        return thread_id % self.num_cores

    def run(self, config_label: str = "") -> MultiCoreResult:
        """Run the monitored program to completion and merge shard results.

        Consumption is deliberately per-record here: the application-core
        accounting and the lifeguard-shard dispatch interleave their
        accesses through the *shared* L2, so any batching that reorders
        ``account``/``consume`` across records would perturb the cache
        timing and break the bit-identical N=1 anchor against
        :meth:`LBASystem.run`.  The fast path lives on the offline side:
        captured per-core traces replay through the columnar engine
        (:class:`repro.trace.replay.MultiTraceReplay` decodes each shard's
        chunks straight into columns).
        """
        channels = self.channels
        shards = self.shards
        router = self.router
        coupling = self.coupling
        stats = self.stats
        for record in iter_machine_records(self.machine, self.max_instructions):
            stats.records += 1
            core = self._core_of(record.thread_id)
            app_cost = channels[core].account(record)
            is_annotation = isinstance(record, AnnotationRecord)
            barrier = is_annotation and record.event_type in _SYSCALL_EVENTS
            # Snapshot the drain level before the record's first consumption:
            # the fault-containment barrier waits for all *earlier* records,
            # never for this record's own consumption on another shard.
            drain_to = coupling.drain_level() if barrier else None
            primary = router.route(record)
            cycles = shards[primary].dispatcher.consume(record)
            coupling.observe(core, primary, app_cost, cycles, drain_to=drain_to)
            targets = router.forward_targets(record, primary)
            if targets:
                stats.forwarded_records += len(targets)
                if is_annotation and record.event_type in SHARED_STATE_ANNOTATIONS:
                    stats.broadcast_records += 1
                for target in targets:
                    shard = shards[target]
                    shard.forwarded_records += 1
                    cycles = shard.dispatcher.consume(record)
                    coupling.observe(core, target, 0, cycles, drain_to=drain_to)
        timings = coupling.finish()
        outcomes = [shard.finish(timing) for shard, timing in zip(shards, timings)]
        return self._merge(outcomes, config_label)

    # ------------------------------------------------------------------ merging

    def _merge(self, outcomes: List[ShardOutcome], config_label: str) -> MultiCoreResult:
        # ``records`` is the true log record count: per-shard breakdowns
        # count every consumption (forwarded copies included), so summing
        # them would make the merged count vary with the core count.
        timing = TimingBreakdown(
            records=self.stats.records,
            app_alone_cycles=max(c.stats.app_cycles for c in self.channels),
            app_finish_cycles=max(o.timing.app_finish_cycles for o in outcomes),
            lifeguard_busy_cycles=sum(o.timing.lifeguard_busy_cycles for o in outcomes),
            lifeguard_finish_cycles=max(o.timing.lifeguard_finish_cycles for o in outcomes),
            producer_stall_cycles=sum(o.timing.producer_stall_cycles for o in outcomes),
            consumer_stall_cycles=sum(o.timing.consumer_stall_cycles for o in outcomes),
            syscall_stall_cycles=sum(o.timing.syscall_stall_cycles for o in outcomes),
        )
        reports: List[ErrorReport] = []
        for outcome in outcomes:
            reports.extend(outcome.reports)
        merged = MonitoringResult(
            workload=self.workload_name,
            lifeguard=self.lifeguard_name,
            slowdown=timing.slowdown,
            timing=timing,
            accelerator=sum_stats(AcceleratorStats, [o.accelerator for o in outcomes]),
            dispatch=sum_stats(DispatchStats, [o.dispatch for o in outcomes]),
            producer=sum_stats(ProducerStats, [c.stats for c in self.channels]),
            mapper=sum_stats(MapperStats, [o.mapper for o in outcomes]),
            reports=reports,
            config_label=config_label,
        )
        return MultiCoreResult(
            workload=self.workload_name,
            lifeguard=self.lifeguard_name,
            num_cores=self.num_cores,
            shard_policy=self.router.policy,
            merged=merged,
            shards=outcomes,
            producers=[channel.stats for channel in self.channels],
            stats=self.stats,
        )
