"""Tests for the DecompositionResult container."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import csr
from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.decomposition import core_decomposition
from repro.core.hierarchy import build_hierarchy
from repro.core.peeling import peeling_decomposition
from repro.core.result import DecompositionResult, IterationStats
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import powerlaw_cluster_graph
from repro.parallel.procpool import process_and_decomposition
from repro.store import open_bundle, save_bundle


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


def _small():
    return powerlaw_cluster_graph(60, 4, 0.7, seed=3)


def _large():
    """A (2, 3) space of more than ``_AND_BLOCK`` edges: the counted AND."""
    return powerlaw_cluster_graph(400, 6, 0.8, seed=3)


def _run(space, decompose):
    return space, decompose(space)


def _bundle_route(tmp_path):
    space = CSRSpace.from_graph(_small(), 2, 3)
    path = save_bundle(tmp_path / "stored", space=space, result=peeling_decomposition(space))
    bundle = open_bundle(path)
    return bundle.space, bundle.result


#: Every route that builds a result: ``tmp_path -> (space, result)``.
ROUTES = {
    "dict-peel": lambda tmp: _run(NucleusSpace(_small(), 2, 3), peeling_decomposition),
    "csr-peel": lambda tmp: _run(CSRSpace.from_graph(_small(), 2, 3), peeling_decomposition),
    "dict-snd": lambda tmp: _run(NucleusSpace(_small(), 2, 3), snd_decomposition),
    "csr-snd": lambda tmp: _run(CSRSpace.from_graph(_small(), 2, 3), snd_decomposition),
    "counted-and": lambda tmp: _run(CSRSpace.from_graph(_large(), 2, 3), and_decomposition_csr),
    "jacobi-and": lambda tmp: _run(CSRSpace.from_graph(_small(), 2, 3), and_decomposition_csr),
    "pool-and": lambda tmp: _run(
        CSRSpace.from_graph(_small(), 2, 3),
        lambda space: process_and_decomposition(space, workers=2),
    ),
    "bundle": _bundle_route,
}


class TestKappaArray:
    """The list and the read-only int64 array a result keeps say the same
    κ on every route, and so do the histogram, the store and the hierarchy."""

    def test_the_and_routes_run_both_kernels(self):
        assert len(CSRSpace.from_graph(_small(), 2, 3)) <= csr._AND_BLOCK
        assert len(CSRSpace.from_graph(_large(), 2, 3)) > csr._AND_BLOCK

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_reader_agrees(self, route, tmp_path):
        space, result = ROUTES[route](tmp_path)
        kappa = result.kappa
        assert type(kappa) is list and all(type(k) is int for k in kappa)
        values = result._kappa_values()
        assert values.dtype == np.int64 and values.tolist() == kappa
        assert result._kappa_values() is values
        assert result.kappa_histogram() == dict(sorted(Counter(kappa).items()))
        assert result.max_kappa() == max(kappa)
        path = save_bundle(tmp_path / "saved", space=space, result=result)
        assert np.load(path / "result.kappa.npy").tolist() == kappa
        assert (
            build_hierarchy(space, result).interval_index()
            == build_hierarchy(space, list(kappa)).interval_index()
        )

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_the_array_is_read_only(self, route, tmp_path):
        _, result = ROUTES[route](tmp_path)
        values = result._kappa_values()
        with pytest.raises(ValueError):
            values[0] = values[0] + 1
        with pytest.raises(ValueError):
            values += 1
        assert values.tolist() == result.kappa

    def test_a_kernel_array_is_kept_not_copied(self):
        space = CSRSpace.from_graph(_small(), 2, 3)
        tau = np.asarray(space.s_degrees(), dtype=np.int64)
        result = DecompositionResult.from_space(space, "test", tau)
        assert result._kappa_values() is tau and not tau.flags.writeable
        assert result.kappa == space.s_degrees()

    def test_a_borrowed_array_is_copied(self):
        space = CSRSpace.from_graph(_small(), 2, 3)
        base = np.asarray(space.s_degrees() * 2, dtype=np.int64)
        view = base[: len(space)]
        result = DecompositionResult.from_space(space, "test", view)
        base[0] += 1  # the owner may still write; the result must not see it
        assert result._kappa_values().tolist() == result.kappa == space.s_degrees()
        assert view.flags.writeable


class TestIterationStats:
    def test_as_row(self):
        stat = IterationStats(
            iteration=3, updated=5, processed=10, skipped=2, max_change=1, converged_count=7
        )
        assert stat.as_row() == (3, 5, 10, 2, 1, 7)
