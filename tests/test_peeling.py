"""Tests for the peeling baseline (Algorithm 1)."""

import networkx as nx
import pytest
from peel_witness import assert_peel_witness

from repro.core.peeling import core_numbers_bz, peel_order, peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    heterogeneous_cluster_graph,
    hierarchical_community_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph

#: Seeded generator families of the parity world: ``family(seed) -> Graph``.
FAMILIES = {
    "er": lambda seed: erdos_renyi_graph(40, 0.2, seed=seed),
    "ba": lambda seed: barabasi_albert_graph(60, 3, seed=seed),
    "ws": lambda seed: watts_strogatz_graph(50, 6, 0.2, seed=seed),
    "plc": lambda seed: powerlaw_cluster_graph(60, 4, 0.7, seed=seed),
    "hetero": lambda seed: heterogeneous_cluster_graph(60, 2, 7, 0.6, seed=seed),
    "planted": lambda seed: planted_clique_graph(40, 9, 0.1, seed=seed),
    "hier": lambda seed: hierarchical_community_graph(2, 3, 7, seed=seed),
}

#: Fixed corner cases of the parity world.
CORNERS = {
    "empty": Graph(),
    "k2": complete_graph(2),
    "star": Graph(edges=[(0, i) for i in range(1, 9)]),
    "k7": complete_graph(7),
    "ring": ring_of_cliques(4, 5),
}

WORLD_INSTANCES = [(1, 2), (2, 3), (3, 4)]


class TestCoreDecomposition:
    def test_paper_example(self, paper_core_graph, paper_core_numbers):
        result = peeling_decomposition(paper_core_graph, 1, 2)
        assert {c[0]: k for c, k in zip(result.cliques, result.kappa)} == paper_core_numbers

    def test_matches_networkx(self, medium_powerlaw_graph):
        result = peeling_decomposition(medium_powerlaw_graph, 1, 2)
        mine = {c[0]: k for c, k in zip(result.cliques, result.kappa)}
        assert mine == nx.core_number(medium_powerlaw_graph.to_networkx())

    def test_bz_direct_matches_space_based(self, medium_powerlaw_graph):
        direct = core_numbers_bz(medium_powerlaw_graph)
        result = peeling_decomposition(medium_powerlaw_graph, 1, 2)
        assert direct == {c[0]: k for c, k in zip(result.cliques, result.kappa)}

    def test_complete_graph(self):
        result = peeling_decomposition(complete_graph(5), 1, 2)
        assert set(result.kappa) == {4}

    def test_empty_graph(self):
        result = peeling_decomposition(Graph(), 1, 2)
        assert result.kappa == []
        assert result.converged

    def test_isolated_vertices_have_zero_core(self):
        g = Graph(edges=[(0, 1)], vertices=[9])
        result = peeling_decomposition(g, 1, 2)
        assert result.as_dict()[(9,)] == 0


class TestTrussDecomposition:
    def test_single_triangle(self, triangle_graph):
        result = peeling_decomposition(triangle_graph, 2, 3)
        assert set(result.kappa) == {1}

    def test_complete_graph(self):
        # in K5 every edge is in 3 triangles and the whole graph is a 3-truss
        result = peeling_decomposition(complete_graph(5), 2, 3)
        assert set(result.kappa) == {3}

    def test_ring_of_cliques_bridges_are_zero(self):
        # four cliques: the bridge edges form a 4-cycle, so they sit in no triangle
        g = ring_of_cliques(4, 4)
        result = peeling_decomposition(g, 2, 3)
        kappa = result.as_dict()
        bridges = [e for e, k in kappa.items() if k == 0]
        assert len(bridges) == 4
        # clique edges all have truss number 2 (each edge of a K4 is in 2 triangles)
        assert all(k == 2 for e, k in kappa.items() if k != 0)

    def test_three_ring_bridges_form_a_one_truss(self):
        # with three cliques the bridges themselves form a triangle,
        # so every bridge edge has truss number exactly 1
        g = ring_of_cliques(3, 4)
        kappa = peeling_decomposition(g, 2, 3).as_dict()
        bases = {0, 4, 8}
        bridge_values = [k for e, k in kappa.items() if set(e) <= bases]
        assert bridge_values == [1, 1, 1]

    def test_matches_networkx_ktruss_membership(self, small_powerlaw_graph):
        """An edge with truss number >= k must be in networkx's k_truss(k+2) subgraph
        (networkx uses the 'k-2 triangles' convention)."""
        result = peeling_decomposition(small_powerlaw_graph, 2, 3)
        kappa = result.as_dict()
        max_k = max(kappa.values())
        for k in range(1, max_k + 1):
            nx_truss = nx.k_truss(small_powerlaw_graph.to_networkx(), k + 2)
            nx_edges = {tuple(sorted(e)) for e in nx_truss.edges()}
            mine = {e for e, val in kappa.items() if val >= k}
            assert mine == nx_edges


class TestThreeFourDecomposition:
    def test_complete_graph(self):
        # in K6 every triangle is in 3 four-cliques; whole graph is the 3-(3,4) nucleus
        result = peeling_decomposition(complete_graph(6), 3, 4)
        assert set(result.kappa) == {3}

    def test_planted_clique_dominates(self, planted_graph):
        result = peeling_decomposition(planted_graph, 3, 4)
        kappa = result.as_dict()
        # triangles inside the planted 12-clique have the maximum kappa
        planted = {tri for tri in kappa if set(tri) <= set(range(12))}
        max_kappa = max(kappa.values())
        assert all(kappa[tri] == max_kappa for tri in planted)
        # a triangle fully inside the planted clique is in at least 9 4-cliques there
        assert max_kappa >= 9


class TestPeelOrder:
    def test_is_permutation(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        order = peel_order(space)
        assert sorted(order) == list(range(len(space)))

    def test_kappa_non_decreasing_along_order(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        kappa = peeling_decomposition(space).kappa
        order = peel_order(space)
        values = [kappa[i] for i in order]
        assert values == sorted(values)


class TestParityWorld:
    """The level-synchronous CSR peel against Algorithm 1 on a seeded world.

    κ must match exactly; the removal orders may differ within a level, so
    each is held to the peel-witness conditions instead.
    """

    @staticmethod
    def check(graph, r, s):
        space = NucleusSpace(graph, r, s)
        reference = peeling_decomposition(space)
        result = peeling_decomposition(space.to_csr())
        assert result.kappa == reference.kappa
        for run in (reference, result):
            assert_peel_witness(space, run.kappa, run.operations["_peel_order"])

    @pytest.mark.parametrize("rs", WORLD_INSTANCES)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_graph(self, family, seed, rs):
        self.check(FAMILIES[family](seed), *rs)

    @pytest.mark.parametrize("rs", WORLD_INSTANCES)
    @pytest.mark.parametrize("name", sorted(CORNERS))
    def test_corner_case(self, name, rs):
        self.check(CORNERS[name], *rs)


class TestArguments:
    def test_graph_without_rs_raises(self, triangle_graph):
        with pytest.raises(ValueError):
            peeling_decomposition(triangle_graph)

    def test_operations_recorded(self, small_powerlaw_graph):
        result = peeling_decomposition(small_powerlaw_graph, 1, 2)
        assert result.operations["cliques_processed"] == len(result.kappa)
        assert result.operations["degree_decrements"] >= 0
