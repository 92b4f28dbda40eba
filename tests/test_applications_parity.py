"""Property tests: the application layer agrees across backends.

The hierarchy, densest-subgraph, degree-level and accuracy-metric pipelines
all run natively on either space representation; these tests assert, on
random graphs and on the degenerate corners (empty graph, zero s-cliques,
single nucleus), that the dict-backed and CSR-backed runs produce the same
forest shape, the same nuclei member sets, the same density metrics and the
same level structure.
"""

import pytest

from repro.core.csr import CSRSpace
from repro.core.densest import (
    average_degree_density,
    best_nucleus,
    max_core_subgraph,
)
from repro.core.hierarchy import build_hierarchy
from repro.core.levels import (
    convergence_upper_bound,
    degree_levels,
    level_of_each_clique,
)
from repro.core.metrics import accuracy_report, accuracy_report_from_results
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import (
    complete_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

INSTANCES = [(1, 2), (2, 3), (3, 4)]


def random_graphs():
    """Random + structured graphs small enough for the (3, 4) instance."""
    return [
        powerlaw_cluster_graph(50, 4, 0.6, seed=7),
        powerlaw_cluster_graph(40, 5, 0.8, seed=11),
        planted_clique_graph(40, 8, 0.12, seed=3),
        ring_of_cliques(4, 5),
    ]


def degenerate_graphs():
    return [
        Graph(),                                 # empty space
        Graph([(0, 1), (2, 3)]),                 # zero s-cliques for s >= 3
        Graph([(0, i) for i in range(1, 7)]),    # star: triangle-free
        complete_graph(6),                       # a single nucleus
    ]


def both_spaces(graph, r, s):
    """The dict space and its index-aligned CSR flattening."""
    space = NucleusSpace(graph, r, s)
    return space, space.to_csr()


def levels_by_clique(space, levels):
    """Degree levels with every clique index replaced by its clique."""
    return [sorted(space.cliques[i] for i in level) for level in levels]


def dict_best_nucleus(graph, r, s):
    """The dict oracle of :func:`best_nucleus`: its hierarchy built on a
    :class:`NucleusSpace` with the dict peel."""
    space = NucleusSpace(graph, r, s)
    hierarchy = build_hierarchy(space, peeling_decomposition(space).kappa)
    return best_nucleus(graph, r, s, hierarchy=hierarchy)


def dict_max_core(graph):
    """The dict oracle of :func:`max_core_subgraph`: the dict k-core peel."""
    if graph.number_of_vertices() == 0:
        return set(), 0.0
    result = peeling_decomposition(NucleusSpace(graph, 1, 2))
    top = result.vertices_with_kappa_at_least(result.max_kappa())
    return top, average_degree_density(graph, top)


def forest_shape(hierarchy):
    """Everything that defines the forest, in a comparable form."""
    return [
        (
            n.node_id,
            n.k_low,
            n.k_high,
            tuple(n.clique_indices),
            frozenset(n.vertices),
            n.parent,
            tuple(n.children),
        )
        for n in hierarchy.nodes
    ]


class TestHierarchyParity:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_same_forest_on_random_graphs(self, rs):
        for graph in random_graphs():
            dict_space, csr_space = both_spaces(graph, *rs)
            kappa = peeling_decomposition(dict_space).kappa
            dict_h = build_hierarchy(dict_space, kappa)
            csr_h = build_hierarchy(csr_space, kappa)
            assert forest_shape(dict_h) == forest_shape(csr_h)
            # density metrics come out identically (same vertices, same graph)
            assert dict_h.to_rows() == csr_h.to_rows()

    @pytest.mark.parametrize("rs", INSTANCES)
    def test_same_forest_on_degenerate_graphs(self, rs):
        for graph in degenerate_graphs():
            dict_space, csr_space = both_spaces(graph, *rs)
            kappa = peeling_decomposition(dict_space).kappa
            dict_h = build_hierarchy(dict_space, kappa)
            csr_h = build_hierarchy(csr_space, kappa)
            assert forest_shape(dict_h) == forest_shape(csr_h)

    def test_empty_graph_yields_empty_forest(self):
        for space in both_spaces(Graph(), 2, 3):
            hierarchy = build_hierarchy(space, [])
            assert len(hierarchy) == 0
            assert hierarchy.roots() == []
            assert hierarchy.max_k() == 0

    def test_zero_s_cliques_give_singleton_nuclei(self):
        """A triangle-free graph at (2, 3): every edge has κ = 0 and no
        S-connection, so the forest is one singleton root per edge."""
        star = Graph([(0, i) for i in range(1, 5)])
        for space in both_spaces(star, 2, 3):
            kappa = peeling_decomposition(space).kappa
            hierarchy = build_hierarchy(space, kappa)
            assert len(hierarchy) == 4
            assert all(n.parent is None for n in hierarchy.nodes)
            assert all(len(n.clique_indices) == 1 for n in hierarchy.nodes)

    def test_single_nucleus_complete_graph(self):
        for space in both_spaces(complete_graph(6), 1, 2):
            kappa = peeling_decomposition(space).kappa
            hierarchy = build_hierarchy(space, kappa)
            assert len(hierarchy) == 1
            node = hierarchy.nodes[0]
            assert node.k_low == 0 and node.k_high == 5
            assert node.vertices == set(range(6))

    def test_vertices_materialise_lazily(self):
        space = CSRSpace.from_graph(powerlaw_cluster_graph(40, 4, 0.6, seed=7), 2, 3)
        kappa = peeling_decomposition(space).kappa
        hierarchy = build_hierarchy(space, kappa)
        assert all(n._vertices is None for n in hierarchy.nodes)
        total = set()
        for n in hierarchy.roots():
            total |= n.vertices
        assert total  # materialisation on demand still works


class TestDensestParity:
    def test_best_nucleus_backends_agree(self):
        for graph in random_graphs():
            dict_best, dict_density = dict_best_nucleus(graph, 2, 3)
            csr_best, csr_density = best_nucleus(graph, 2, 3)
            assert dict_density == pytest.approx(csr_density)
            assert (dict_best is None) == (csr_best is None)
            if dict_best is not None:
                assert dict_best.vertices == csr_best.vertices
                assert dict_best.k == csr_best.k

    def test_best_nucleus_degenerate(self):
        for graph in degenerate_graphs():
            for run in (dict_best_nucleus, best_nucleus):
                nucleus, density = run(graph, 2, 3)
                if graph.number_of_edges() == 0:
                    assert nucleus is None and density == 0.0

    def test_max_core_backends_agree(self):
        for graph in random_graphs():
            dict_top, dict_density = dict_max_core(graph)
            csr_top, csr_density = max_core_subgraph(graph)
            assert dict_top == csr_top
            assert dict_density == pytest.approx(csr_density)


class TestLevelsParity:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_degree_levels_backends_agree(self, rs):
        for graph in random_graphs() + degenerate_graphs():
            dict_space, csr_space = both_spaces(graph, *rs)
            dict_levels = degree_levels(dict_space)
            csr_levels = degree_levels(csr_space)
            assert dict_levels == csr_levels
            assert level_of_each_clique(dict_space) == level_of_each_clique(csr_space)
            assert convergence_upper_bound(dict_space) == convergence_upper_bound(
                csr_space
            )

    def test_graph_source_backend_routing(self):
        graph = powerlaw_cluster_graph(50, 4, 0.6, seed=7)
        # a graph source is flattened into CSRSpace.from_graph's space, which
        # indexes its cliques in sorted vertex-id order
        dict_space = NucleusSpace(graph, 2, 3)
        assert levels_by_clique(
            dict_space, degree_levels(dict_space)
        ) == levels_by_clique(
            CSRSpace.from_graph(graph, 2, 3), degree_levels(graph, 2, 3)
        )


class TestMetricsParity:
    def test_results_from_different_backends_are_comparable(self):
        graph = powerlaw_cluster_graph(50, 4, 0.6, seed=7)
        dict_space, csr_space = both_spaces(graph, 2, 3)
        exact = peeling_decomposition(dict_space)
        estimate = snd_decomposition(csr_space, max_iterations=2)
        report = accuracy_report_from_results(estimate, exact)
        assert report == accuracy_report(estimate.kappa, exact.kappa)

    def test_incomparable_results_raise(self):
        graph = powerlaw_cluster_graph(30, 3, 0.5, seed=1)
        core = peeling_decomposition(graph, 1, 2)
        truss = peeling_decomposition(graph, 2, 3)
        with pytest.raises(ValueError, match="instances"):
            accuracy_report_from_results(core, truss)

    def test_differently_indexed_results_raise(self):
        """Results over two clique tables of one length (here a graph and
        its mirror v -> n - 1 - v) are not comparable index for index."""
        graph = powerlaw_cluster_graph(50, 4, 0.6, seed=7)
        n = graph.number_of_vertices()
        mirror = Graph((n - 1 - u, n - 1 - v) for u, v in graph.edges())
        exact = peeling_decomposition(NucleusSpace(mirror, 2, 3))
        estimate = snd_decomposition(CSRSpace.from_graph(graph, 2, 3))
        assert len(estimate.kappa) == len(exact.kappa)
        assert sorted(estimate.kappa) == sorted(exact.kappa)
        with pytest.raises(ValueError, match="indexes its r-cliques"):
            accuracy_report_from_results(estimate, exact)
