"""Tests for the high-level decomposition API."""

import networkx as nx
import pytest

from repro.core.decomposition import (
    ALGORITHMS,
    core_decomposition,
    core_numbers,
    nucleus_decomposition,
    three_four_decomposition,
    truss_decomposition,
    truss_numbers,
)
from repro.core.space import NucleusSpace


class TestNucleusDecomposition:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_agree(self, small_powerlaw_graph, algorithm):
        reference = nucleus_decomposition(
            small_powerlaw_graph, 1, 2, algorithm="peeling"
        )
        result = nucleus_decomposition(small_powerlaw_graph, 1, 2, algorithm=algorithm)
        assert result.kappa == reference.kappa

    def test_accepts_prebuilt_space(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 2, 3)
        result = nucleus_decomposition(space, algorithm="snd")
        assert result.r == 2 and result.s == 3

    def test_unknown_algorithm(self, triangle_graph):
        with pytest.raises(ValueError):
            nucleus_decomposition(triangle_graph, 1, 2, algorithm="magic")

    def test_graph_requires_r_s(self, triangle_graph):
        with pytest.raises(ValueError):
            nucleus_decomposition(triangle_graph)

    def test_peeling_rejects_extra_options(self, triangle_graph):
        with pytest.raises(TypeError, match="max_iterations"):
            nucleus_decomposition(
                triangle_graph, 1, 2, algorithm="peeling", max_iterations=3
            )

    def test_options_forwarded(self, small_powerlaw_graph):
        result = nucleus_decomposition(
            small_powerlaw_graph, 1, 2, algorithm="snd", max_iterations=1
        )
        assert result.iterations == 1


class TestConvenienceWrappers:
    def test_core_decomposition_matches_networkx(self, small_powerlaw_graph):
        numbers = core_numbers(small_powerlaw_graph)
        assert numbers == nx.core_number(small_powerlaw_graph.to_networkx())

    def test_truss_numbers_keys_are_edges(self, triangle_graph):
        numbers = truss_numbers(triangle_graph)
        assert set(numbers) == {(0, 1), (0, 2), (1, 2)}
        assert set(numbers.values()) == {1}

    def test_truss_decomposition_defaults_to_and(self, small_powerlaw_graph):
        result = truss_decomposition(small_powerlaw_graph)
        assert result.algorithm == "and"
        assert result.r == 2 and result.s == 3

    def test_three_four_decomposition(self, k6_graph):
        result = three_four_decomposition(k6_graph)
        assert set(result.kappa) == {3}

    def test_core_decomposition_algorithm_choice(self, small_powerlaw_graph):
        peel = core_decomposition(small_powerlaw_graph, algorithm="peeling")
        local = core_decomposition(small_powerlaw_graph, algorithm="snd")
        assert peel.kappa == local.kappa
