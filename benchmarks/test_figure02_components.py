"""Figure 2 regeneration plus micro-benchmarks of the three hardware models."""

from benchmarks.bench_params import BENCH_SCALE

from repro.analysis.profiler import Profiler
from repro.core.config import IFConfig, ITConfig, MTLBConfig
from repro.core.events import EventType, InstructionRecord
from repro.core.idempotent_filter import IdempotentFilter
from repro.core.inheritance_tracking import InheritanceTracker
from repro.core.mtlb import LMAConfig, MetadataTLB
from repro.experiments.figure02 import run_figure02
from repro.workloads import get_workload


def test_figure02_applicability_matrix(benchmark):
    """Regenerate the Figure 2 matrix (trivially cheap, run for completeness)."""
    matrix = benchmark(run_figure02)
    assert matrix["MemCheck"]["IT"] and matrix["MemCheck"]["IF"]
    benchmark.extra_info["matrix"] = {k: v for k, v in matrix.items()}


def _propagation_records(count=20_000):
    records = []
    for i in range(count):
        records.append(
            InstructionRecord(
                pc=0x1000 + i,
                event_type=EventType.MEM_TO_REG if i % 3 else EventType.REG_TO_MEM,
                dest_reg=i % 8,
                src_reg=(i + 1) % 8,
                src_addr=0x0900_0000 + (i % 512) * 4,
                dest_addr=0x0900_4000 + (i % 512) * 4,
                size=4,
                is_load=bool(i % 3),
                is_store=not i % 3,
            )
        )
    return records


def test_inheritance_tracker_throughput(benchmark):
    """Micro-benchmark: IT state-machine processing rate."""
    records = _propagation_records()

    def run():
        tracker = InheritanceTracker(ITConfig())
        for record in records:
            tracker.process(record)
        return tracker.stats

    stats = benchmark(run)
    benchmark.extra_info["events_seen"] = stats.events_seen
    benchmark.extra_info["events_discarded"] = stats.events_discarded


def test_idempotent_filter_throughput(benchmark):
    """Micro-benchmark: IF lookup/insert rate at the paper's 32-entry size."""
    keys = [(1, 0x0900_0000 + (i % 300) * 4, 4) for i in range(50_000)]

    def run():
        filter_cache = IdempotentFilter(IFConfig(num_entries=32, associativity=0))
        hits = 0
        for key in keys:
            hits += filter_cache.lookup_insert(key)
        return hits / len(keys)

    hit_rate = benchmark(run)
    benchmark.extra_info["filtered_fraction"] = round(hit_rate, 3)


def test_mtlb_lookup_throughput(benchmark):
    """Micro-benchmark: M-TLB translation rate with the TAINTCHECK geometry."""
    addresses = [0x0900_0000 + (i % 4096) * 7 for i in range(50_000)]

    def run():
        mtlb = MetadataTLB(MTLBConfig(num_entries=64))
        mtlb.lma_config(LMAConfig(16, 14, 1), lambda addr: 0x6000_0000 + (addr >> 16) * 0x4000)
        for address in addresses:
            mtlb.lma(address)
        return mtlb.stats.miss_rate

    miss_rate = benchmark(run)
    benchmark.extra_info["miss_rate"] = round(miss_rate, 4)


def test_machine_execution_rate(benchmark):
    """Micro-benchmark: functional ISA execution rate on the bzip2 analogue."""

    def run():
        machine = get_workload("bzip2", scale=BENCH_SCALE).build_machine()
        machine.trace()
        return machine.stats.instructions

    instructions = benchmark(run)
    benchmark.extra_info["instructions"] = instructions
