"""Tests for the experiment harness (figure regeneration)."""

import pytest

from repro.analysis import Profiler, sweep_if_design_space, sweep_it_reduction
from repro.experiments.figure02 import format_figure02, run_figure02
from repro.experiments.figure10 import format_figure10, run_figure10
from repro.experiments.figure11 import format_figure11, run_figure11
from repro.experiments.figure12 import format_figure12, run_figure12
from repro.experiments.figure13 import format_figure13, run_figure13
from repro.experiments.figure14 import format_figure14, run_figure14
from repro.experiments.harness import TECHNIQUE_STACKS
from repro.experiments.reporting import format_table, range_string
from repro.experiments.runner import QUICK_MT, QUICK_SPEC, run_all
from repro.workloads.base import Workload

SCALE = 0.3
SPEC_SUBSET = ["bzip2", "gcc"]
LIFEGUARD_SUBSET = ["AddrCheck", "TaintCheck"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "xyz" in lines[3]

    def test_range_string(self):
        assert range_string([0.1, 0.5]) == "10.0%-50.0%"
        assert range_string([]) == "n/a"


class TestFigure02:
    def test_matrix_matches_paper(self):
        matrix = run_figure02()
        assert matrix["AddrCheck"] == {"IT": False, "IF": True, "M-TLB": True}
        assert matrix["MemCheck"] == {"IT": True, "IF": True, "M-TLB": True}
        assert matrix["TaintCheck"] == {"IT": True, "IF": False, "M-TLB": True}
        assert matrix["TaintCheckDetailed"] == {"IT": True, "IF": False, "M-TLB": True}
        assert matrix["LockSet"] == {"IT": False, "IF": True, "M-TLB": True}

    def test_formatting(self):
        assert "Figure 2" in format_figure02(run_figure02())


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(lifeguards=LIFEGUARD_SUBSET, benchmarks=SPEC_SUBSET, scale=SCALE)

    def test_structure(self, result):
        assert set(result.slowdowns) == set(LIFEGUARD_SUBSET)
        for configs in result.slowdowns.values():
            assert set(configs) == {"LBA Baseline", "LBA Optimized"}
            for per_benchmark in configs.values():
                assert set(per_benchmark) == set(SPEC_SUBSET)

    def test_optimized_improves_on_baseline(self, result):
        for lifeguard in LIFEGUARD_SUBSET:
            assert result.average(lifeguard, "LBA Optimized") < result.average(
                lifeguard, "LBA Baseline"
            )
            assert result.improvement(lifeguard) > 1.2

    def test_no_errors_on_clean_benchmarks(self, result):
        for per_config in result.errors.values():
            for per_benchmark in per_config.values():
                assert all(count == 0 for count in per_benchmark.values())

    def test_formatting(self, result):
        text = format_figure10(result)
        assert "Figure 10" in text and "Avg" in text


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure11(lifeguards=["TaintCheck", "AddrCheck"], benchmarks=SPEC_SUBSET,
                            scale=SCALE)

    def test_stack_labels_match_figure2(self, result):
        assert list(result.averages["TaintCheck"]) == ["BASE", "LMA", "LMA+IT"]
        assert list(result.averages["AddrCheck"]) == ["BASE", "LMA", "LMA+IF"]

    def test_each_technique_helps(self, result):
        for lifeguard in result.averages:
            assert result.monotonic_improvement(lifeguard), result.averages[lifeguard]

    def test_technique_stacks_cover_all_lifeguards(self):
        assert set(TECHNIQUE_STACKS) == {
            "AddrCheck", "MemCheck", "TaintCheck", "TaintCheckDetailed", "LockSet",
        }

    def test_formatting(self, result):
        assert "Figure 11" in format_figure11(result)


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure12(lifeguards=["MemCheck"], benchmarks=SPEC_SUBSET, scale=SCALE)

    def test_reductions_positive(self, result):
        for value in result.lma_instruction_reduction["MemCheck"].values():
            assert 0.0 < value < 1.0
        for value in result.it_update_reduction["MemCheck"].values():
            assert 0.0 < value < 1.0
        for value in result.if_check_reduction["MemCheck"].values():
            assert 0.0 < value < 1.0

    def test_formatting(self, result):
        text = format_figure12(result)
        assert "Figure 12" in text and "MemCheck" in text


class TestCrossFigureAgreement:
    """Figures 12 and 13 report one reduction per mechanism, per benchmark.

    Figure 12 reads IT and IF from its dual-core BASE and OPT runs; Figure 13
    replays the profiled records through each lifeguard's accelerator.  On
    the same program at the same scale the two must agree exactly.
    """

    @pytest.fixture(scope="class")
    def figure12(self):
        return run_figure12(lifeguards=["TaintCheck", "AddrCheck", "LockSet"],
                            benchmarks=SPEC_SUBSET, scale=SCALE)

    @pytest.fixture(scope="class")
    def profiler(self):
        return Profiler()

    def test_it_reduction_equals_figure13a(self, figure12, profiler):
        assert figure12.it_update_reduction["TaintCheck"] == sweep_it_reduction(
            profiler, SPEC_SUBSET, scale=SCALE
        )

    @pytest.mark.parametrize("lifeguard", ["AddrCheck", "LockSet"])
    def test_if_reduction_equals_32_entry_fully_associative_cell(
        self, figure12, profiler, lifeguard
    ):
        for benchmark in SPEC_SUBSET:
            sweep = sweep_if_design_space(profiler, lifeguard, [benchmark], entries=(32,),
                                          associativities=(0,), scale=SCALE)
            assert figure12.if_check_reduction[lifeguard][benchmark] == sweep[0][32]


class TestFigures13And14:
    @pytest.fixture(scope="class")
    def profiler(self):
        return Profiler()

    def test_figure13(self, profiler):
        result = run_figure13(benchmarks=SPEC_SUBSET, scale=SCALE, entries=(8, 32),
                              associativities=(0, 4), profiler=profiler)
        assert set(result.it_reduction) == set(SPEC_SUBSET)
        assert all(0 < v < 1 for v in result.it_reduction.values())
        assert result.if_combined[0][32] >= result.if_combined[0][8] - 0.02
        assert "Figure 13" in format_figure13(result)

    def test_figure14(self, profiler):
        result = run_figure14(benchmarks=SPEC_SUBSET, scale=SCALE,
                              level1_bits=(20, 12), entries=(16, 64), profiler=profiler)
        assert set(result.design_space) == {16, 64}
        for per_bits in result.design_space.values():
            assert set(per_bits) == {20, 12}
            for stats in per_bits.values():
                assert 0.0 <= stats["avg"] <= stats["max"] <= 1.0
        assert set(result.fixed_vs_flexible) == set(SPEC_SUBSET)
        assert "Figure 14" in format_figure14(result)


class TestRunner:
    def test_a_report_executes_each_benchmark_once(self, monkeypatch):
        """All five figures read one profiler's records, so the quick report
        executes each of its six programs once, at its one scale."""
        built = []
        build_machine = Workload.build_machine

        def counted(workload):
            built.append((workload.name, workload.scale))
            return build_machine(workload)

        monkeypatch.setattr(Workload, "build_machine", counted)
        run_all(quick=True, scale=0.1)
        assert sorted(built) == sorted((name, 0.1) for name in QUICK_SPEC + QUICK_MT)
