"""Tests for the asynchronous local algorithm (AND, Algorithm 3)."""

import pytest

from repro.core.asynd import and_decomposition, processing_order
from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph


class TestExactness:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4)])
    def test_matches_peeling(self, small_powerlaw_graph, r, s):
        space = NucleusSpace(small_powerlaw_graph, r, s)
        exact = peeling_decomposition(space)
        local = and_decomposition(space)
        assert local.kappa == exact.kappa
        assert local.converged

    @pytest.mark.parametrize("order", ["natural", "degree", "degree_desc", "random"])
    def test_order_does_not_change_fixed_point(self, small_powerlaw_graph, order):
        space = NucleusSpace(small_powerlaw_graph, 2, 3)
        exact = peeling_decomposition(space).kappa
        result = and_decomposition(space, order=order, seed=5)
        assert result.kappa == exact

    def test_notification_off_still_exact(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        exact = peeling_decomposition(space).kappa
        result = and_decomposition(space, notification=False)
        assert result.kappa == exact

    def test_paper_core_example(self, paper_core_graph, paper_core_numbers):
        result = and_decomposition(paper_core_graph, 1, 2)
        assert {c[0]: k for c, k in zip(result.cliques, result.kappa)} == paper_core_numbers

    def test_empty_graph(self):
        result = and_decomposition(Graph(), 1, 2)
        assert result.kappa == []
        assert result.converged


class TestTheorem4BestCaseOrder:
    """Processing in the peeling removal order (a non-decreasing κ order with
    the right tie-breaking) converges in one update iteration plus the final
    detection pass."""

    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3)])
    def test_peel_order_converges_in_one_update_iteration(
        self, small_powerlaw_graph, r, s
    ):
        space = NucleusSpace(small_powerlaw_graph, r, s)
        exact = peeling_decomposition(space).kappa
        result = and_decomposition(space, order="peel")
        # the first pass computes the exact answer; the second detects convergence
        assert result.iterations <= 2
        if len(result.iteration_stats) > 1:
            assert result.iteration_stats[1].updated == 0
        assert result.kappa == exact

    def test_csr_peel_order_converges_in_one_update_iteration(self):
        space = CSRSpace.from_graph(powerlaw_cluster_graph(120, 6, 0.8, seed=42), 3, 4)
        exact = peeling_decomposition(space).kappa
        assert max(exact) > 1
        result = and_decomposition(space, order="peel")
        assert result.iterations <= 2
        if len(result.iteration_stats) > 1:
            assert result.iteration_stats[1].updated == 0
        assert result.kappa == exact

    def test_kappa_order_still_exact_but_possibly_slower(self, small_powerlaw_graph):
        """Sorting by κ alone (arbitrary tie-breaking) does not enjoy the
        Theorem 4 guarantee but must still reach the exact fixed point."""
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        exact = peeling_decomposition(space).kappa
        result = and_decomposition(space, order="kappa", kappa_hint=exact)
        assert result.kappa == exact

    def test_kappa_order_requires_hint(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        with pytest.raises(ValueError):
            processing_order(space, "kappa")

    def test_peel_order_is_a_permutation(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 2, 3)
        order = processing_order(space, "peel")
        assert sorted(order) == list(range(len(space)))


class TestAndVsSnd:
    def test_and_needs_no_more_iterations_than_snd(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        snd = snd_decomposition(space)
        asynchronous = and_decomposition(space)
        assert asynchronous.iterations <= snd.iterations

    def test_and_does_less_or_equal_work_with_notification(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        snd = snd_decomposition(space)
        asynchronous = and_decomposition(space, notification=True)
        assert (
            asynchronous.operations["rho_evaluations"]
            <= snd.operations["rho_evaluations"]
        )


class TestNotificationMechanism:
    def test_notification_skips_work(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        with_notification = and_decomposition(space, notification=True)
        without = and_decomposition(space, notification=False)
        assert with_notification.kappa == without.kappa
        assert with_notification.operations["skipped_cliques"] > 0
        assert without.operations["skipped_cliques"] == 0
        assert (
            with_notification.operations["rho_evaluations"]
            <= without.operations["rho_evaluations"]
        )

    def test_skipped_plus_processed_covers_all(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        result = and_decomposition(space, notification=True)
        for stat in result.iteration_stats:
            assert stat.processed + stat.skipped == len(space)


class TestProcessingOrder:
    def test_explicit_permutation(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        order = processing_order(space, [2, 0, 1])
        assert order == [2, 0, 1]

    def test_invalid_permutation(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        with pytest.raises(ValueError):
            processing_order(space, [0, 0, 1])

    def test_unknown_string(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        with pytest.raises(ValueError):
            processing_order(space, "bogus")

    def test_random_order_is_seeded(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        assert processing_order(space, "random", seed=3) == processing_order(
            space, "random", seed=3
        )

    def test_degree_order_sorted(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        order = processing_order(space, "degree")
        degrees = space.s_degrees()
        values = [degrees[i] for i in order]
        assert values == sorted(values)


class TestEarlyTermination:
    def test_max_iterations(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        capped = and_decomposition(space, max_iterations=1)
        assert capped.iterations == 1

    def test_tau_lower_bounded_by_kappa_even_when_capped(self, medium_powerlaw_graph):
        space = NucleusSpace(medium_powerlaw_graph, 1, 2)
        exact = peeling_decomposition(space).kappa
        capped = and_decomposition(space, max_iterations=1)
        assert all(t >= k for t, k in zip(capped.kappa, exact))
