"""End-to-end CSR pipeline guarantees and result caching.

The headline acceptance property of the space-agnostic application layer:
a CSR-backed end-to-end run (``from_graph`` → kernel → ``build_hierarchy`` →
densest / levels / query) never constructs a :class:`NucleusSpace` and never
materialises a tuple-keyed κ dict — asserted here by instrumenting both away.
"""

import pytest

from repro.core.csr import CSRSpace
from repro.core.decomposition import nucleus_decomposition
from repro.core.densest import best_nucleus
from repro.core.hierarchy import build_hierarchy
from repro.core.levels import degree_levels
from repro.core.peeling import peeling_decomposition
from repro.core.query import estimate_local_indices
from repro.core.result import DecompositionResult
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CliqueArrayView
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, read_edge_list_arrays, write_edge_list


@pytest.fixture
def no_dict_structures(monkeypatch):
    """Forbid NucleusSpace construction and tuple-keyed κ dict building."""

    def no_space(self, *args, **kwargs):
        raise AssertionError("NucleusSpace constructed on the CSR-native path")

    def no_result_dict(self):
        raise AssertionError("tuple-keyed kappa dict built on the CSR-native path")

    def no_space_dict(self, values):
        raise AssertionError("tuple-keyed value dict built on the CSR-native path")

    monkeypatch.setattr(NucleusSpace, "__init__", no_space)
    monkeypatch.setattr(DecompositionResult, "as_dict", no_result_dict)
    monkeypatch.setattr(DecompositionResult, "_mapping", no_result_dict)
    monkeypatch.setattr(CSRSpace, "as_dict", no_space_dict)


class TestNoDictEndToEnd:
    @pytest.mark.parametrize("algorithm", ["and", "snd", "peeling"])
    def test_full_application_pipeline(self, no_dict_structures, algorithm):
        """from_graph → kernel → hierarchy → densest, all without the dict."""
        graph = powerlaw_cluster_graph(80, 4, 0.6, seed=5)
        space = CSRSpace.from_graph(graph, 2, 3)
        result = nucleus_decomposition(space, algorithm=algorithm)
        assert result.operations["backend"] == "csr"

        hierarchy = build_hierarchy(space, result)
        assert len(hierarchy) >= 1
        rows = hierarchy.to_rows()  # vertex materialisation + densities
        assert rows[0]["num_vertices"] >= 1

        nucleus, density = best_nucleus(graph, 2, 3, hierarchy=hierarchy)
        assert nucleus is not None
        assert 0.0 < density <= 1.0

        levels = degree_levels(space)
        assert sum(len(level) for level in levels) == len(space)

    def test_densest_from_graph_without_prebuilt_hierarchy(self, no_dict_structures):
        graph = powerlaw_cluster_graph(60, 4, 0.6, seed=6)
        nucleus, density = best_nucleus(graph, 2, 3)
        assert nucleus is not None
        assert density > 0.0

    def test_query_pipeline_builds_ball_via_from_graph(self, no_dict_structures):
        graph = powerlaw_cluster_graph(60, 4, 0.6, seed=6)
        space = CSRSpace.from_graph(graph, 2, 3)
        query = space.clique_of(0)
        estimate = estimate_local_indices(graph, [query], 2, 3, hops=1)
        assert estimate[query] >= 0
        assert estimate.ball_size >= 2

    def test_kappa_readable_by_index_without_dict(self, no_dict_structures):
        space = CSRSpace.from_graph(powerlaw_cluster_graph(60, 4, 0.6, seed=6), 2, 3)
        result = peeling_decomposition(space)
        assert [result.kappa_at(i) for i in range(len(result))] == result.kappa


class TestArrayIngestEndToEnd:
    """Edge-list file → CSRGraph → CSRSpace → DecompositionResult, with the
    dict graph adjacency and every per-clique Python tuple instrumented away:
    the array-native ingestion pipeline must run to a finished result
    without constructing either, for every r ≤ 3 instance."""

    @pytest.fixture(scope="class")
    def edge_list_path(self, tmp_path_factory):
        graph = powerlaw_cluster_graph(70, 4, 0.6, seed=8)
        path = tmp_path_factory.mktemp("ingest") / "graph.txt"
        write_edge_list(graph, path)
        return path

    @staticmethod
    def _forbid(monkeypatch):
        def no_graph(self, *args, **kwargs):
            raise AssertionError("dict Graph adjacency built on the array path")

        def no_space(self, *args, **kwargs):
            raise AssertionError("NucleusSpace constructed on the array path")

        def no_tuple(self, *args, **kwargs):
            raise AssertionError("per-clique tuple materialised on the array path")

        monkeypatch.setattr(Graph, "__init__", no_graph)
        monkeypatch.setattr(NucleusSpace, "__init__", no_space)
        monkeypatch.setattr(CliqueArrayView, "__getitem__", no_tuple)
        monkeypatch.setattr(CliqueArrayView, "__iter__", no_tuple)
        monkeypatch.setattr(DecompositionResult, "as_dict", no_tuple)
        monkeypatch.setattr(DecompositionResult, "_mapping", no_tuple)
        monkeypatch.setattr(CSRSpace, "as_dict", no_tuple)

    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4)])
    @pytest.mark.parametrize("algorithm", ["and", "snd", "peeling"])
    def test_edge_list_to_result_is_array_native(
        self, edge_list_path, monkeypatch, r, s, algorithm
    ):
        with monkeypatch.context() as patch:
            self._forbid(patch)
            graph = read_edge_list_arrays(edge_list_path)
            result = nucleus_decomposition(graph, r, s, algorithm=algorithm)
            assert result.converged
            assert result.operations["backend"] == "csr"
        # instrumentation lifted: κ keyed by clique must match the dict
        # reference pipeline byte for byte
        reference = nucleus_decomposition(
            NucleusSpace(read_edge_list(edge_list_path), r, s), algorithm=algorithm
        )
        assert dict(zip(result.cliques, result.kappa)) == reference.as_dict()

    def test_auto_backend_on_csr_graph_is_array_native(
        self, edge_list_path, monkeypatch
    ):
        """A CSRGraph source must not be downgraded to the dict kernels."""
        with monkeypatch.context() as patch:
            self._forbid(patch)
            graph = read_edge_list_arrays(edge_list_path)
            result = nucleus_decomposition(graph, 2, 3)
            assert result.operations["backend"] == "csr"


class TestResultCaching:
    def make_result(self):
        return peeling_decomposition(powerlaw_cluster_graph(40, 3, 0.5, seed=2), 1, 2)

    def test_as_dict_is_memoised(self):
        result = self.make_result()
        first = result.as_dict()
        assert result.as_dict() is first
        assert first == {c: k for c, k in zip(result.cliques, result.kappa)}

    def test_kappa_of_does_not_rebuild_per_call(self, monkeypatch):
        result = self.make_result()
        clique = result.cliques[0]
        expected = result.kappa[0]
        assert result.kappa_of(clique) == expected
        # after the first lookup the mapping exists; further lookups must not
        # reconstruct it
        built = result._by_clique
        assert built is not None
        assert result.kappa_of(clique) == expected
        assert result._by_clique is built

    def test_kappa_at_reads_by_index(self):
        result = self.make_result()
        assert result.kappa_at(3) == result.kappa[3]
        assert result._by_clique is None  # index reads never build the dict
