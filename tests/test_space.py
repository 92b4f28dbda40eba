"""Tests for the NucleusSpace abstraction."""

import pytest

from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.cliques import count_k_cliques
from repro.graph.graph import Graph
from repro.graph.triangles import edge_triangle_counts


class TestValidation:
    def test_invalid_r_s(self, triangle_graph):
        with pytest.raises(ValueError):
            NucleusSpace(triangle_graph, 2, 2)
        with pytest.raises(ValueError):
            NucleusSpace(triangle_graph, 0, 2)

    def test_validate_passes_on_all_instances(self, small_powerlaw_graph):
        for r, s in [(1, 2), (2, 3), (3, 4)]:
            NucleusSpace(small_powerlaw_graph, r, s).validate()


class TestVertexEdgeSpace:
    def test_counts(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        assert len(space) == small_powerlaw_graph.number_of_vertices()
        assert space.number_of_s_cliques() == small_powerlaw_graph.number_of_edges()

    def test_s_degrees_are_vertex_degrees(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        for i, (v,) in enumerate(space.cliques):
            assert space.s_degree(i) == small_powerlaw_graph.degree(v)

    def test_neighbors_are_graph_neighbors(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        i = space.index_of((0,))
        neighbor_vertices = {space.cliques[j][0] for j in space.neighbors(i)}
        assert neighbor_vertices == set(triangle_graph.neighbors(0))

    def test_isolated_vertex_has_empty_context(self):
        g = Graph(edges=[(0, 1)], vertices=[5])
        space = NucleusSpace(g, 1, 2)
        i = space.index_of((5,))
        assert space.s_degree(i) == 0
        assert space.contexts(i) == []

    def test_integer_vertices_index_in_numeric_order(self):
        # Regression: sorting vertices by repr() put 10 before 2, so integer-
        # labelled graphs got a surprising (1, 2) clique order.  The sort key
        # is now type-stable and numeric within a type.
        g = Graph(vertices=[12, 10, 2, 0, 7, 1, 11])
        space = NucleusSpace(g, 1, 2)
        assert space.cliques == [(0,), (1,), (2,), (7,), (10,), (11,), (12,)]

    def test_mixed_type_vertices_still_build(self):
        g = Graph(edges=[(1, "b"), ("b", 2), (2, 10)])
        space = NucleusSpace(g, 1, 2)
        space.validate()
        # integers sort numerically within their type group
        ints = [c[0] for c in space.cliques if isinstance(c[0], int)]
        assert ints == sorted(ints)


class TestEdgeTriangleSpace:
    def test_counts(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 2, 3)
        assert len(space) == small_powerlaw_graph.number_of_edges()
        assert space.number_of_s_cliques() == count_k_cliques(small_powerlaw_graph, 3)

    def test_s_degrees_are_triangle_counts(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 2, 3)
        expected = edge_triangle_counts(small_powerlaw_graph)
        for i, edge in enumerate(space.cliques):
            assert space.s_degree(i) == expected[edge]

    def test_contexts_have_two_other_edges(self, k6_graph):
        space = NucleusSpace(k6_graph, 2, 3)
        for i in range(len(space)):
            for others in space.contexts(i):
                assert len(others) == 2


class TestTriangleFourCliqueSpace:
    def test_counts(self, small_powerlaw_graph):
        space = NucleusSpace(small_powerlaw_graph, 3, 4)
        assert len(space) == count_k_cliques(small_powerlaw_graph, 3)
        assert space.number_of_s_cliques() == count_k_cliques(small_powerlaw_graph, 4)

    def test_contexts_have_three_other_triangles(self, k6_graph):
        space = NucleusSpace(k6_graph, 3, 4)
        for i in range(len(space)):
            for others in space.contexts(i):
                assert len(others) == 3

    def test_k6_s_degrees(self, k6_graph):
        # every triangle of K6 is in exactly 3 four-cliques (choose the 4th vertex)
        space = NucleusSpace(k6_graph, 3, 4)
        assert set(space.s_degrees()) == {3}


class TestGenericSpace:
    def test_2_4_space_on_k6(self, k6_graph):
        space = NucleusSpace(k6_graph, 2, 4)
        assert len(space) == 15
        # every edge of K6 is in C(4,2)=6 four-cliques
        assert set(space.s_degrees()) == {6}
        assert space.number_of_s_cliques() == 15

    def test_1_3_space_matches_vertex_triangle_counts(self, small_powerlaw_graph):
        from repro.graph.triangles import vertex_triangle_counts

        space = NucleusSpace(small_powerlaw_graph, 1, 3)
        expected = vertex_triangle_counts(small_powerlaw_graph)
        for i, (v,) in enumerate(space.cliques):
            assert space.s_degree(i) == expected[v]

    @pytest.mark.parametrize("r, s", [(1, 2), (2, 3), (3, 4), (2, 4), (1, 3)])
    def test_mixed_labels_match_the_csr_route(self, r, s):
        # Regression: the generic builder looked up each s-clique's
        # sub-tuples as sliced, but a slice of a canonical s-clique over
        # incomparable labels ((2.5, 0) in type-name order) is not always
        # the canonical r-clique ((0, 2.5)) registered for it: (2, 4)
        # raised KeyError.
        ring = [0, "a", 2.5]
        edges = [(ring[i], ring[(i + 1) % 3]) for i in range(3)]
        edges += [(v, hub) for v in ring for hub in (1, 2)] + [(1, 2)]
        g = Graph(edges=edges)
        space = NucleusSpace(g, r, s)
        space.validate()
        expected = peeling_decomposition(CSRSpace.from_graph(g, r, s)).as_dict()
        assert peeling_decomposition(space).as_dict() == expected


class TestHelpers:
    def test_index_of_accepts_any_order(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 2, 3)
        assert space.index_of((1, 0)) == space.index_of((0, 1))

    def test_as_dict(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        mapping = space.as_dict(space.s_degrees())
        assert mapping[(0,)] == 2

    def test_as_dict_length_mismatch(self, triangle_graph):
        space = NucleusSpace(triangle_graph, 1, 2)
        with pytest.raises(ValueError):
            space.as_dict([1])

    def test_restricted_to(self, two_clique_bridge_graph):
        space = NucleusSpace.restricted_to(
            two_clique_bridge_graph, 1, 2, set(range(5))
        )
        assert len(space) == 5
