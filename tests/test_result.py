"""Tests for the DecompositionResult container."""

import random

import pytest

from repro.core.decomposition import core_decomposition
from repro.core.result import DecompositionResult, IterationStats
from repro.core.space import NucleusSpace


@pytest.fixture
def sample_result(two_clique_bridge_graph):
    return core_decomposition(two_clique_bridge_graph, algorithm="peeling")


class TestBasics:
    def test_len(self, sample_result, two_clique_bridge_graph):
        assert len(sample_result) == two_clique_bridge_graph.number_of_vertices()

    def test_as_dict_and_kappa_of(self, sample_result):
        mapping = sample_result.as_dict()
        clique = sample_result.cliques[0]
        assert sample_result.kappa_of(clique) == mapping[clique]

    def test_max_kappa(self, sample_result):
        assert sample_result.max_kappa() == 4  # two K5s -> core number 4

    def test_histogram_sums_to_total(self, sample_result):
        hist = sample_result.kappa_histogram()
        assert sum(hist.values()) == len(sample_result)
        assert list(hist) == sorted(hist)

    def test_vertices_with_kappa_at_least(self, sample_result):
        top = sample_result.vertices_with_kappa_at_least(4)
        assert len(top) == 10  # both K5s

    def test_summary_mentions_algorithm(self, sample_result):
        assert "peeling" in sample_result.summary()
        assert "(1,2)" in sample_result.summary()

    @pytest.mark.parametrize("seed", range(4))
    def test_histogram_matches_the_counting_loop(self, seed):
        rng = random.Random(seed)
        kappa = [rng.choice([0, 1, 2, 7, 40, 1000]) for _ in range(rng.randint(1, 300))]
        result = DecompositionResult(
            r=1, s=2, algorithm="and", kappa=kappa, cliques=[None] * len(kappa)
        )
        reference = {}
        for k in kappa:
            reference[k] = reference.get(k, 0) + 1
        hist = result.kappa_histogram()
        assert list(hist.items()) == sorted(reference.items())
        assert all(type(k) is int and type(c) is int for k, c in hist.items())
        assert result.max_kappa() == max(kappa)
        assert type(result.max_kappa()) is int

    def test_empty_result_max_kappa(self):
        result = DecompositionResult(r=1, s=2, algorithm="peeling", kappa=[], cliques=[])
        assert result.max_kappa() == 0
        assert result.kappa_histogram() == {}


class TestFromSpace:
    def test_alignment(self, two_clique_bridge_graph):
        space = NucleusSpace(two_clique_bridge_graph, 1, 2)
        result = DecompositionResult.from_space(space, "test", space.s_degrees())
        assert result.cliques == space.cliques
        assert result.r == 1 and result.s == 2


class TestIterationStats:
    def test_as_row(self):
        stat = IterationStats(
            iteration=3, updated=5, processed=10, skipped=2, max_change=1, converged_count=7
        )
        assert stat.as_row() == (3, 5, 10, 2, 1, 7)
