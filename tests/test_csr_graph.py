"""Property tests for the array-native graph substrate (CSRGraph).

The batch enumerators must be *set-identical* to the Python reference
enumerators on random graphs and on every degenerate shape (empty graph,
isolated vertices, single edge, complete graph, mixed label types); the
degeneracy ordering must be a valid ordering achieving the same degeneracy;
and the CSR space built from a CSRGraph must agree κ-for-κ with the dict
reference space.
"""

import pickle

import numpy as np
import pytest

from repro.core.csr import CSRSpace
from repro.core.decomposition import nucleus_decomposition
from repro.core.space import NucleusSpace
from repro.graph.cliques import enumerate_k_cliques
from repro.graph.csr_graph import CliqueArrayView, CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    heterogeneous_cluster_graph,
    hierarchical_community_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
    union_of_graphs,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.graph.triangles import degeneracy_ordering, enumerate_triangles


def random_graphs():
    return [
        powerlaw_cluster_graph(90, 4, 0.6, seed=1),
        powerlaw_cluster_graph(60, 3, 0.2, seed=2),
        erdos_renyi_graph(50, 0.12, seed=3),
        ring_of_cliques(5, 5),
    ]


def degenerate_graphs():
    complete = Graph([(a, b) for a in range(6) for b in range(a + 1, 6)])
    mixed = Graph([("a", 1), (1, 2), (2, "a"), ("b", "a"), ("b", 2)])
    return [
        Graph(),                       # empty
        Graph(vertices=[3, 1, 2]),     # isolated vertices only
        Graph([(0, 1)]),               # single edge
        complete,                      # K6
        mixed,                         # mixed string/int labels
    ]


def label_cliques(cg, batches):
    """Materialise batch arrays into canonical label-tuple sets."""
    out = set()
    for batch in batches:
        for row in np.sort(batch, axis=1).tolist():
            out.add(tuple(cg.label_of(v) for v in row))
    return out


class TestConversion:
    @pytest.mark.parametrize("graph", random_graphs() + degenerate_graphs())
    def test_round_trip(self, graph):
        cg = CSRGraph.from_graph(graph)
        assert cg.number_of_vertices() == graph.number_of_vertices()
        assert cg.number_of_edges() == graph.number_of_edges()
        assert cg.to_graph() == graph

    def test_from_edge_arrays_collapses_duplicates_and_self_loops(self):
        cg = CSRGraph.from_edge_arrays([0, 1, 0, 2, 2], [1, 0, 0, 3, 3])
        assert cg.number_of_edges() == 2
        assert cg.has_edge(0, 1) and cg.has_edge(2, 3)
        assert not cg.has_edge(0, 0)

    def test_from_edge_arrays_isolated_tail_vertices(self):
        cg = CSRGraph.from_edge_arrays([0], [1], num_vertices=4)
        assert cg.number_of_vertices() == 4
        assert cg.degree(3) == 0

    def test_label_queries(self):
        g = Graph([("x", "y"), ("y", 7)])
        cg = CSRGraph.from_graph(g)
        assert cg.has_vertex("x") and 7 in cg
        assert not cg.has_edge("x", 7)
        assert sorted(cg.neighbors("y"), key=repr) == sorted(
            g.neighbors("y"), key=repr
        )
        assert cg.degrees() == g.degrees()
        assert set(cg.vertices()) == set(g.vertices())
        assert {frozenset(e) for e in cg.edges()} == {
            frozenset(e) for e in g.edges()
        }
        with pytest.raises(KeyError):
            cg.id_of("missing")

    def test_pickle_round_trip(self):
        graph = powerlaw_cluster_graph(40, 3, 0.5, seed=7)
        cg = CSRGraph.from_graph(graph)
        assert pickle.loads(pickle.dumps(cg)).to_graph() == graph


class TestDegeneracy:
    @pytest.mark.parametrize("graph", random_graphs() + degenerate_graphs())
    def test_ordering_is_valid_and_achieves_the_degeneracy(self, graph):
        cg = CSRGraph.from_graph(graph)
        order = cg.degeneracy_order().tolist()
        assert sorted(order) == list(range(len(graph)))
        # same degeneracy as the reference ordering: the max forward degree
        # of *any* valid degeneracy ordering equals the graph's degeneracy
        ref = degeneracy_ordering(graph)
        rank = {v: i for i, v in enumerate(ref)}
        ref_degen = max(
            (
                sum(1 for w in graph.neighbors(v) if rank[w] > rank[v])
                for v in ref
            ),
            default=0,
        )
        assert cg.degeneracy() == ref_degen
        # validity: every vertex has at most `degeneracy` later neighbours
        pos = {cg.label_of(v): i for i, v in enumerate(order)}
        for v in graph.vertices():
            forward = sum(1 for w in graph.neighbors(v) if pos[w] > pos[v])
            assert forward <= cg.degeneracy()


def orientation_graphs():
    """One seeded sample of every generators.py family, plus the empty
    graph, K2 and a star."""
    return [
        complete_graph(7),
        erdos_renyi_graph(60, 0.1, seed=11),
        barabasi_albert_graph(80, 3, seed=12),
        watts_strogatz_graph(70, 6, 0.2, seed=13),
        powerlaw_cluster_graph(90, 4, 0.6, seed=14),
        heterogeneous_cluster_graph(80, 2, 6, 0.5, seed=15),
        planted_clique_graph(60, 8, 0.08, seed=16),
        ring_of_cliques(4, 5),
        hierarchical_community_graph(levels=2, branching=3, leaf_size=5, seed=17),
        union_of_graphs([complete_graph(4), ring_of_cliques(3, 4)]),
        Graph(),
        Graph([(0, 1)]),
        Graph([(0, leaf) for leaf in range(1, 9)]),
    ]


class TestOrientation:
    """The packed-key orientation equals the two-key lexsort it replaced."""

    @pytest.mark.parametrize("graph", orientation_graphs())
    def test_forward_csr_matches_lexsort_reference(self, graph):
        cg = CSRGraph.from_graph(graph)
        n = cg.number_of_vertices()
        rank = cg.degeneracy_rank()
        rows = np.repeat(np.arange(n, dtype=np.int64), cg.degree_array())
        keep = rank[rows] < rank[cg.indices]
        src, dst = rows[keep], cg.indices[keep]
        order = np.lexsort((rank[dst], src))
        fptr, fidx = cg.forward_csr()
        assert np.array_equal(fidx, dst[order])
        assert np.array_equal(fptr, np.searchsorted(src[order], np.arange(n + 1)))
        assert fptr.dtype == fidx.dtype == np.int64

    @pytest.mark.parametrize("graph", orientation_graphs())
    def test_forward_keys_are_the_sorted_orientation_keys(self, graph):
        cg = CSRGraph.from_graph(graph)
        n = cg.number_of_vertices()
        _, fidx = cg.forward_csr()
        keys = cg.forward_keys()
        assert np.array_equal(
            keys, cg._forward_sources() * n + cg.degeneracy_rank()[fidx]
        )
        assert np.all(keys[1:] > keys[:-1])
        assert keys.dtype == np.int64


class TestEnumeration:
    @pytest.mark.parametrize("graph", random_graphs() + degenerate_graphs())
    def test_triangles_set_identical(self, graph):
        cg = CSRGraph.from_graph(graph)
        ref = {tuple(sorted(t, key=repr)) for t in enumerate_triangles(graph)}
        got = {
            tuple(sorted(t, key=repr))
            for t in label_cliques(cg, cg.triangle_batches(batch_size=64))
        }
        assert got == ref
        assert cg.count_triangles() == len(ref)

    @pytest.mark.parametrize("graph", random_graphs() + degenerate_graphs())
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_k_cliques_set_identical(self, graph, k):
        cg = CSRGraph.from_graph(graph)
        ref = {
            tuple(sorted(c, key=repr)) for c in enumerate_k_cliques(graph, k)
        }
        got = {
            tuple(sorted(c, key=repr))
            for c in label_cliques(cg, cg.clique_batches(k, batch_size=32))
        }
        assert got == ref

    def test_batches_respect_the_size_bound_but_lose_nothing(self):
        graph = powerlaw_cluster_graph(70, 5, 0.7, seed=11)
        cg = CSRGraph.from_graph(graph)
        small = label_cliques(cg, cg.clique_batches(3, batch_size=8))
        large = label_cliques(cg, cg.clique_batches(3, batch_size=1 << 20))
        assert small == large

    def test_invalid_k(self):
        cg = CSRGraph.from_graph(Graph([(0, 1)]))
        with pytest.raises(ValueError):
            list(cg.clique_batches(0))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_count_k_cliques_matches_reference(self, r):
        graph = powerlaw_cluster_graph(50, 4, 0.5, seed=4)
        cg = CSRGraph.from_graph(graph)
        exact = sum(1 for _ in enumerate_k_cliques(graph, r))
        assert cg.count_k_cliques(r) == exact
        if exact > 4:
            assert cg.count_k_cliques(r, limit=4) >= 4


class TestBallsAndSubgraphs:
    def test_bfs_ball_matches_dict_graph(self):
        graph = powerlaw_cluster_graph(80, 3, 0.5, seed=9)
        cg = CSRGraph.from_graph(graph)
        for sources, radius in [([0], 0), ([0, 5], 1), ([3], 2), ([1], 10)]:
            assert cg.bfs_ball(sources, radius) == graph.bfs_ball(sources, radius)

    def test_subgraph_matches_dict_graph(self):
        graph = powerlaw_cluster_graph(80, 3, 0.5, seed=9)
        cg = CSRGraph.from_graph(graph)
        ball = graph.bfs_ball([0], 1)
        assert cg.subgraph(ball).to_graph() == graph.subgraph(ball)

    def test_subgraph_ignores_absent_labels(self):
        cg = CSRGraph.from_graph(Graph([(0, 1), (1, 2)]))
        sub = cg.subgraph([1, 2, 99])
        assert sub.number_of_vertices() == 2
        assert sub.has_edge(1, 2)


class TestSpaceFromCSRGraph:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4), (2, 4)])
    def test_kappa_parity_with_dict_space(self, r, s):
        graph = powerlaw_cluster_graph(60, 4, 0.6, seed=3)
        cg = CSRGraph.from_graph(graph)
        space = CSRSpace.from_graph(cg, r, s)
        space.validate()
        ref = NucleusSpace(graph, r, s)
        assert len(space) == len(ref)
        got = nucleus_decomposition(space, algorithm="and")
        want = nucleus_decomposition(ref, algorithm="and")
        assert dict(zip(space.cliques, got.kappa)) == ref.as_dict(want.kappa)

    @pytest.mark.parametrize("graph", degenerate_graphs())
    def test_degenerate_spaces(self, graph):
        cg = CSRGraph.from_graph(graph)
        space = CSRSpace.from_graph(cg, 2, 3)
        space.validate()
        ref = NucleusSpace(graph, 2, 3)
        assert sorted(space.s_degrees()) == sorted(ref.s_degrees())
        assert set(space.cliques) == set(ref.cliques)

    def test_cliques_are_a_lazy_view(self):
        cg = CSRGraph.from_graph(powerlaw_cluster_graph(40, 3, 0.5, seed=5))
        space = CSRSpace.from_graph(cg, 2, 3)
        assert isinstance(space.cliques, CliqueArrayView)
        assert space.cliques[0] == tuple(space.cliques)[0]
        assert space.find_index(space.cliques[3]) == 3

    def test_space_pickles_with_lazy_cliques(self):
        cg = CSRGraph.from_graph(powerlaw_cluster_graph(30, 3, 0.5, seed=6))
        space = CSRSpace.from_graph(cg, 2, 3)
        clone = pickle.loads(pickle.dumps(space))
        assert list(clone.cliques) == list(space.cliques)
        assert clone.s_degrees() == space.s_degrees()


class TestApplicationsOnCSRGraph:
    def test_query_estimates_match_dict_graph(self, dict_local_indices):
        from repro.core.query import estimate_local_indices

        graph = powerlaw_cluster_graph(50, 3, 0.5, seed=12)
        cg = CSRGraph.from_graph(graph)
        queries = [tuple(e) for e in list(graph.edges())[:5]]
        want = dict_local_indices(graph, queries, 2, 3, hops=1)
        got = estimate_local_indices(cg, queries, 2, 3, hops=1)
        assert dict(got) == dict(want)
        assert got.ball_size == want.ball_size
        assert got.subgraph_edges == want.subgraph_edges

    def test_degree_levels_match_dict_graph(self):
        from repro.core.levels import degree_levels

        graph = powerlaw_cluster_graph(50, 3, 0.5, seed=12)
        cg = CSRGraph.from_graph(graph)
        got = degree_levels(cg, 2, 3)
        want = degree_levels(NucleusSpace(graph, 2, 3))
        assert len(got) == len(want)
        assert [len(level) for level in got] == [len(level) for level in want]

    def test_densest_matches_dict_graph(self):
        from repro.core.densest import best_nucleus
        from repro.core.hierarchy import build_hierarchy
        from repro.core.peeling import peeling_decomposition

        graph = powerlaw_cluster_graph(50, 3, 0.5, seed=12)
        cg = CSRGraph.from_graph(graph)
        space = NucleusSpace(graph, 2, 3)
        hierarchy = build_hierarchy(space, peeling_decomposition(space).kappa)
        n_dict, d_dict = best_nucleus(graph, 2, 3, hierarchy=hierarchy)
        n_csr, d_csr = best_nucleus(cg, 2, 3)
        assert d_csr == pytest.approx(d_dict)
        assert n_csr.vertices == n_dict.vertices
