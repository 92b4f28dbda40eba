"""Tests for nucleus hierarchy construction."""

from types import SimpleNamespace

import pytest

import repro.core.result as result_module

from repro.core.csr import CSRSpace
from repro.core.decomposition import truss_decomposition
from repro.core.hierarchy import NucleusHierarchy, build_hierarchy
from repro.core.metrics import assert_comparable
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CliqueArrayView, CSRGraph
from repro.graph.generators import (
    complete_graph,
    hierarchical_community_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph


class TestCoreHierarchy:
    def test_bridged_cliques_form_one_4core(self, two_clique_bridge_graph):
        """Two K5s joined by a bridge: every vertex keeps degree >= 4, so the
        whole graph is a single 4-core (one top nucleus covering all 10
        vertices)."""
        space = NucleusSpace(two_clique_bridge_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        top = hierarchy.nuclei_at(hierarchy.max_k())
        assert hierarchy.max_k() == 4
        assert len(top) == 1
        assert len(top[0].vertices) == 10

    def test_cliques_joined_by_a_hub_give_two_top_nuclei(self):
        """Two K5s connected only through a low-degree hub vertex: the 4-core
        splits into two separate nuclei, one per clique."""
        g = Graph()
        for base in (0, 10):
            for i in range(5):
                for j in range(i + 1, 5):
                    g.add_edge(base + i, base + j)
        g.add_edge(0, 99)
        g.add_edge(10, 99)
        space = NucleusSpace(g, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        top = hierarchy.nuclei_at(hierarchy.max_k())
        assert hierarchy.max_k() == 4
        assert len(top) == 2
        assert all(len(n.vertices) == 5 for n in top)

    def test_root_covers_everything(self, two_clique_bridge_graph):
        space = NucleusSpace(two_clique_bridge_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        roots = hierarchy.roots()
        covered = set()
        for root in roots:
            covered |= root.vertices
        assert covered == set(two_clique_bridge_graph.vertices())

    def test_children_are_nested_subsets(self, planted_graph):
        space = NucleusSpace(planted_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        for node in hierarchy.nodes:
            for child_id in node.children:
                child = hierarchy.node(child_id)
                assert child.vertices <= node.vertices
                assert child.k >= node.k

    def test_planted_clique_is_the_densest_leaf(self, planted_graph):
        """The planted 12-clique should surface as a leaf nucleus that is far
        denser than the root (the whole sparse background)."""
        space = NucleusSpace(planted_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        root_density = max(hierarchy.density_of(r.node_id) for r in hierarchy.roots())
        leaf_density = max(hierarchy.density_of(leaf.node_id) for leaf in hierarchy.leaves())
        assert leaf_density >= root_density
        densest_leaf = max(
            hierarchy.leaves(), key=lambda n: hierarchy.density_of(n.node_id)
        )
        assert set(range(12)) <= densest_leaf.vertices
        assert hierarchy.density_of(densest_leaf.node_id) > 0.8

    def test_complete_graph_single_nucleus(self):
        g = complete_graph(6)
        space = NucleusSpace(g, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        assert len(hierarchy.roots()) == 1
        assert hierarchy.max_k() == 5

    def test_depth_and_path(self, planted_graph):
        space = NucleusSpace(planted_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        for leaf in hierarchy.leaves():
            path = hierarchy.path_to_root(leaf.node_id)
            assert path[0] == leaf.node_id
            assert hierarchy.node(path[-1]).parent is None
            assert hierarchy.depth_of(leaf.node_id) == len(path) - 1


class TestTrussHierarchy:
    def test_ring_of_cliques(self):
        g = ring_of_cliques(3, 4)
        space = NucleusSpace(g, 2, 3)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        # at k = 2 each K4 forms its own triangle-connected nucleus
        top = hierarchy.nuclei_at(hierarchy.max_k())
        assert len(top) == 3
        assert all(len(n.vertices) == 4 for n in top)

    def test_s_connectivity_splits_figure3_example(self):
        """The paper's Figure 3: two 1-(3,4) nuclei that share vertices but are
        not S-connected must be reported separately.  We reproduce the same
        phenomenon for (2,3) with two triangles sharing a single vertex."""
        g = Graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        space = NucleusSpace(g, 2, 3)
        result = peeling_decomposition(space)
        assert set(result.kappa) == {1}
        hierarchy = build_hierarchy(space, result)
        # the two triangles only share vertex 2, so they are never
        # triangle-connected: two separate nuclei of three edges each
        roots = hierarchy.roots()
        assert len(roots) == 2
        assert all(len(n.clique_indices) == 3 for n in roots)


class TestHierarchyHelpers:
    def test_to_rows(self, two_clique_bridge_graph):
        space = NucleusSpace(two_clique_bridge_graph, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        rows = hierarchy.to_rows()
        assert len(rows) == len(hierarchy)
        assert {"id", "k", "num_vertices", "density", "parent", "depth"} <= set(rows[0])

    def test_accepts_plain_kappa_sequence(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        kappa = peeling_decomposition(space).kappa
        hierarchy = build_hierarchy(space, kappa)
        assert len(hierarchy) >= 1

    def test_length_mismatch_raises(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        with pytest.raises(ValueError):
            build_hierarchy(space, [1])

    def test_nested_communities_have_depth(self):
        g = hierarchical_community_graph(
            levels=2, branching=2, leaf_size=8, p_intra=0.95, p_decay=0.15, seed=5
        )
        space = NucleusSpace(g, 1, 2)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        assert max(hierarchy.depth_of(n.node_id) for n in hierarchy.nodes) >= 1


class TestResultAlignment:
    """A result pairs only with a space (or result) indexing the same cliques."""

    def test_result_of_another_space_is_rejected(self):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 4, 0.5, seed=2))
        result = truss_decomposition(graph)
        dict_space = NucleusSpace(graph.to_graph(), 2, 3)
        assert len(result) == len(dict_space)
        with pytest.raises(ValueError, match="indexes its r-cliques"):
            build_hierarchy(dict_space, result)
        with pytest.raises(ValueError, match="indexes its r-cliques"):
            NucleusHierarchy.from_index(
                dict_space, result, build_hierarchy(dict_space, result.kappa).interval_index()
            )
        # the result's own space and κ by clique both work
        own = CSRSpace.from_graph(graph, 2, 3)
        assert build_hierarchy(own, result).to_rows()
        by_clique = result.as_dict()
        kappa = [by_clique[c] for c in dict_space.cliques]
        assert len(build_hierarchy(dict_space, kappa)) == len(build_hierarchy(own, result))

    def test_shared_table_is_not_compared(self, monkeypatch):
        """A result built on the space holds the space's own table: the
        check is one identity test, whatever the table's size."""
        space = CSRSpace.from_graph(ring_of_cliques(4, 5), 2, 3)
        result = peeling_decomposition(space)
        assert result.cliques is space.cliques

        def forbidden(*args):
            raise AssertionError("clique table compared element by element")

        monkeypatch.setattr(CliqueArrayView, "__iter__", forbidden)
        monkeypatch.setattr(CliqueArrayView, "__getitem__", forbidden)
        monkeypatch.setattr(result_module, "_np", SimpleNamespace(array_equal=forbidden))
        build_hierarchy(space, result)
        assert_comparable(result, result)

    def test_array_tables_compare_without_tuples(self, monkeypatch):
        space = CSRSpace.from_graph(ring_of_cliques(4, 5), 2, 3)
        result = peeling_decomposition(space)
        view = space.cliques
        copy = CliqueArrayView(view.ids.copy(), list(view.labels))
        swapped = CliqueArrayView(view.ids[::-1].copy(), view.labels)

        def forbidden(*args):
            raise AssertionError("clique tuple materialised")

        monkeypatch.setattr(CliqueArrayView, "__iter__", forbidden)
        monkeypatch.setattr(CliqueArrayView, "__getitem__", forbidden)
        result.check_aligned(copy)
        with pytest.raises(ValueError, match="indexes its r-cliques"):
            result.check_aligned(swapped)
