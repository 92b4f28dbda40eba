"""Tests for the space protocol shared by the dict and CSR representations.

The application layer (hierarchy, densest, levels, query) is written against
:class:`repro.core.protocol.SpaceLike`; these tests pin the conformance of
both concrete space classes and the cross-representation agreement of every
protocol operation.
"""

import pytest

from repro.core.csr import CSRSpace
from repro.core.protocol import SpaceLike, find_index, space_graph, vertices_of
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import (
    complete_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

INSTANCES = [(1, 2), (2, 3), (3, 4)]


def _graphs():
    return [
        powerlaw_cluster_graph(40, 4, 0.6, seed=1),
        ring_of_cliques(3, 5),
        complete_graph(6),
    ]


class TestConformance:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_both_space_classes_satisfy_the_protocol(self, rs):
        graph = ring_of_cliques(3, 4)
        dict_space = NucleusSpace(graph, *rs)
        csr_space = CSRSpace.from_graph(graph, *rs)
        assert isinstance(dict_space, SpaceLike)
        assert isinstance(csr_space, SpaceLike)

    def test_space_graph_resolution(self):
        graph = ring_of_cliques(3, 4)
        dict_space = NucleusSpace(graph, 1, 2)
        assert space_graph(dict_space) is graph
        assert space_graph(dict_space.to_csr()) is graph
        # a graph-built space carries the CSRGraph it was enumerated from
        built = space_graph(CSRSpace.from_graph(graph, 1, 2))
        assert isinstance(built, CSRGraph)
        assert built.to_graph() == graph
        assert space_graph(CSRSpace.from_graph(built, 1, 2)) is built

    def test_graph_reference_not_pickled(self):
        import pickle

        csr = CSRSpace.from_graph(ring_of_cliques(3, 4), 2, 3)
        clone = pickle.loads(pickle.dumps(csr))
        assert space_graph(clone) is None
        assert clone.s_degrees() == csr.s_degrees()

    def test_vertices_of_materialises_unions(self):
        graph = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
        space = CSRSpace.from_graph(graph, 2, 3)
        everything = vertices_of(space, range(len(space)))
        assert everything == {0, 1, 2, 3}
        single = vertices_of(space, [space.index_of((0, 1))])
        assert single == {0, 1}


class TestSCliqueGroups:
    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4)])
    def test_groups_agree_across_representations(self, rs):
        for graph in _graphs():
            dict_space = NucleusSpace(graph, *rs)
            csr_space = dict_space.to_csr()
            dict_groups = dict_space.s_clique_groups()
            assert dict_groups == csr_space.s_clique_groups()
            assert len(dict_groups) == dict_space.number_of_s_cliques()

    def test_each_group_is_one_s_clique(self):
        graph = complete_graph(5)
        space = NucleusSpace(graph, 2, 3)
        groups = space.s_clique_groups()
        # K5 has C(5,3) = 10 triangles, each a group of 3 edge indices
        assert len(groups) == 10
        assert all(len(g) == 3 for g in groups)
        assert all(tuple(sorted(g)) == g for g in groups)

    def test_zero_s_cliques_yield_no_groups(self):
        star = Graph([(0, i) for i in range(1, 6)])  # triangle-free
        assert NucleusSpace(star, 2, 3).s_clique_groups() == []
        assert CSRSpace.from_graph(star, 2, 3).s_clique_groups() == []


class TestIndexLookup:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_find_index_agrees_across_representations(self, rs):
        graph = powerlaw_cluster_graph(40, 4, 0.6, seed=2)
        dict_space = NucleusSpace(graph, *rs)
        csr_space = dict_space.to_csr()
        built = CSRSpace.from_graph(graph, *rs)
        for i, clique in enumerate(dict_space.cliques):
            shuffled = tuple(reversed(clique))
            assert find_index(dict_space, shuffled) == i
            assert find_index(csr_space, shuffled) == i
            assert built.cliques[find_index(built, shuffled)] == clique

    def test_find_index_missing_returns_none(self):
        graph = Graph([(0, 1), (1, 2)])
        for space in (NucleusSpace(graph, 1, 2), CSRSpace.from_graph(graph, 1, 2)):
            assert space.find_index((99,)) is None

    def test_csr_index_of_raises_on_missing(self):
        space = CSRSpace.from_graph(Graph([(0, 1)]), 1, 2)
        assert space.index_of((1,)) == 1
        with pytest.raises(KeyError):
            space.index_of((7,))

    def test_csr_reverse_index_is_lazy_and_memoised(self):
        # a list-backed space (the flattened dict space) keeps a dict
        space = NucleusSpace(Graph([(0, 1), (1, 2)]), 1, 2).to_csr()
        assert space._index is None  # nothing built until a tuple lookup
        space.find_index((1,))
        first = space._index
        assert first is not None
        space.find_index((2,))
        assert space._index is first
