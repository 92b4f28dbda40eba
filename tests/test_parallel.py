"""Tests for the parallel substrate (simulated scheduler + process pool)."""

import pytest

from repro.core.csr import CSRSpace, chunk_ranges, weighted_ranges
from repro.core.decomposition import nucleus_decomposition
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.parallel.procpool import process_and_decomposition
from repro.parallel.runner import (
    simulate_local_scalability,
    simulate_peeling_scalability,
)
from repro.parallel.scheduler import ScheduleReport, SimulatedScheduler


class TestChunkRanges:
    def test_balanced_sizes(self):
        assert list(chunk_ranges(10, 4)) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [hi - lo for lo, hi in chunk_ranges(11, 3)]
        assert sorted(sizes, reverse=True) == sizes
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_chunks_never_emits_empty_ranges(self):
        assert list(chunk_ranges(2, 4)) == [(0, 1), (1, 2)]
        assert list(chunk_ranges(1, 8)) == [(0, 1)]

    def test_zero_items_yields_nothing(self):
        assert list(chunk_ranges(0, 4)) == []
        assert list(chunk_ranges(-3, 4)) == []

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            list(chunk_ranges(5, 0))
        with pytest.raises(ValueError):
            list(chunk_ranges(5, -1))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 100])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
    def test_property_full_coverage_no_empties(self, n, k):
        ranges = list(chunk_ranges(n, k))
        assert all(lo < hi for lo, hi in ranges)
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(n))
        assert len(ranges) == min(n, k)


class TestWeightedRanges:
    def test_balances_by_context_count(self):
        # one heavy index followed by many light ones: the weighted split
        # gives the heavy index its own chunk
        offsets = [0, 90, 91, 92, 93, 94, 95, 96, 97, 98, 100]
        ranges = weighted_ranges(offsets, 2)
        assert ranges[0] == (0, 1)
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(10))

    def test_empty_space(self):
        assert weighted_ranges([0], 4) == []

    def test_zero_total_contexts_falls_back_to_index_split(self):
        ranges = weighted_ranges([0, 0, 0, 0], 2)
        assert [i for lo, hi in ranges for i in range(lo, hi)] == [0, 1, 2]
        assert all(lo < hi for lo, hi in ranges)

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            weighted_ranges([0, 1], 0)

    def test_property_on_real_space(self, small_powerlaw_graph):
        csr = CSRSpace.from_graph(small_powerlaw_graph, 2, 3)
        n = len(csr)
        for k in (1, 2, 3, 8, n, n + 5):
            ranges = weighted_ranges(csr.ctx_offsets, k)
            assert all(lo < hi for lo, hi in ranges)
            assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(n))
            assert len(ranges) == min(n, k)


class TestSimulatedScheduler:
    def test_single_thread_makespan_is_total(self):
        report = SimulatedScheduler(1).schedule([3, 1, 4, 1, 5])
        assert report.makespan == report.total_work == 14
        assert report.speedup == pytest.approx(1.0)

    def test_dynamic_balances_uniform_work(self):
        report = SimulatedScheduler(4, policy="dynamic", chunk_size=1).schedule([1] * 100)
        assert report.makespan == 25
        assert report.speedup == pytest.approx(4.0)

    def test_static_suffers_from_skew(self):
        # all the heavy tasks sit in the first chunk -> static is imbalanced
        costs = [100] * 10 + [1] * 30
        static = SimulatedScheduler(4, policy="static").schedule(costs)
        dynamic = SimulatedScheduler(4, policy="dynamic", chunk_size=1).schedule(costs)
        assert dynamic.makespan <= static.makespan
        assert dynamic.speedup >= static.speedup

    def test_efficiency_and_imbalance(self):
        report = SimulatedScheduler(2, policy="static").schedule([4, 4])
        assert report.efficiency == pytest.approx(1.0)
        assert report.imbalance == pytest.approx(1.0)

    def test_empty_workload(self):
        report = SimulatedScheduler(3).schedule([])
        assert report.makespan == 0
        assert report.total_work == 0

    def test_more_threads_never_hurt_dynamic(self):
        costs = list(range(1, 50))
        previous = None
        for p in (1, 2, 4, 8):
            makespan = SimulatedScheduler(p, policy="dynamic", chunk_size=1).schedule(costs).makespan
            if previous is not None:
                assert makespan <= previous
            previous = makespan

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SimulatedScheduler(0)
        with pytest.raises(ValueError):
            SimulatedScheduler(2, policy="weird")
        with pytest.raises(ValueError):
            SimulatedScheduler(2, chunk_size=0)


class TestParallelAnd:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3)])
    def test_matches_sequential(self, small_powerlaw_graph, r, s):
        space = NucleusSpace(small_powerlaw_graph, r, s)
        exact = peeling_decomposition(space).kappa
        result = process_and_decomposition(space, workers=4)
        assert result.kappa == exact
        assert result.converged

    def test_max_iterations(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        result = process_and_decomposition(space, workers=2, max_iterations=1)
        assert result.iterations == 1

    def test_process_mode_matches_sequential(self, small_powerlaw_graph):
        exact = peeling_decomposition(small_powerlaw_graph, 2, 3).kappa
        result = nucleus_decomposition(
            small_powerlaw_graph, 2, 3, algorithm="and", parallel="process",
            workers=2,
        )
        assert result.kappa == exact
        assert result.operations["parallel"] == "process"

    def test_invalid_parallel_mode(self, small_powerlaw_graph):
        with pytest.raises(ValueError, match="process"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="and", parallel="fibers"
            )


class TestParallelDispatch:
    """nucleus_decomposition(parallel=..., workers=...) routing."""

    def test_process_and(self, small_powerlaw_graph):
        exact = peeling_decomposition(small_powerlaw_graph, 1, 2).kappa
        result = nucleus_decomposition(
            small_powerlaw_graph, 1, 2, algorithm="and", parallel="process",
            workers=2,
        )
        assert result.kappa == exact
        assert result.operations["parallel"] == "process"

    def test_workers_without_parallel_rejected(self, small_powerlaw_graph):
        with pytest.raises(ValueError, match="workers"):
            nucleus_decomposition(small_powerlaw_graph, 1, 2, workers=4)

    def test_parallel_peeling_rejected(self, small_powerlaw_graph):
        with pytest.raises(ValueError, match="peeling"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="peeling", parallel="process"
            )

    def test_parallel_snd_rejected(self, small_powerlaw_graph):
        # SND has no pool route: the error names the pool's one algorithm
        with pytest.raises(ValueError, match="runs AND"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="snd", parallel="process"
            )

    def test_unknown_parallel_mode_rejected(self, small_powerlaw_graph):
        with pytest.raises(ValueError, match="parallel"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="snd", parallel="gpu"
            )

    def test_process_with_dict_backend_rejected(self, small_powerlaw_graph):
        # there is no backend= knob: the pool rejects it like any option its
        # runners do not take
        with pytest.raises(TypeError, match="backend"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, parallel="process", backend="dict"
            )
        with pytest.raises(TypeError, match="backend"):
            nucleus_decomposition(
                small_powerlaw_graph, 1, 2, algorithm="and",
                parallel="process", backend="dict",
            )

    def test_process_rejects_serial_only_options(self, small_powerlaw_graph):
        with pytest.raises(TypeError, match="'order'"):
            nucleus_decomposition(
                small_powerlaw_graph,
                1,
                2,
                algorithm="and",
                parallel="process",
                order="degree",
            )

    def test_process_forwards_max_iterations(self, small_powerlaw_graph):
        result = nucleus_decomposition(
            small_powerlaw_graph,
            1,
            2,
            algorithm="and",
            parallel="process",
            workers=2,
            max_iterations=1,
        )
        assert result.iterations == 1
        assert not result.converged


class TestScalabilitySimulation:
    def test_local_speedup_grows_with_threads(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        reports = simulate_local_scalability(space, [1, 4, 8], policy="dynamic", chunk_size=1)
        assert reports[1].speedup == pytest.approx(1.0)
        assert reports[8].speedup >= reports[4].speedup >= reports[1].speedup

    def test_peeling_speedup_saturates_below_local(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        kappa = peeling_decomposition(space).kappa
        local = simulate_local_scalability(space, [24], policy="dynamic", chunk_size=1)
        peel = simulate_peeling_scalability(space, [24], kappa=kappa)
        assert local[24].speedup > peel[24].speedup

    def test_peeling_reports_have_expected_fields(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        reports = simulate_peeling_scalability(space, [2, 4])
        for p, report in reports.items():
            assert isinstance(report, ScheduleReport)
            assert report.num_threads == p
            assert report.total_work > 0
