"""End-to-end integration tests across modules.

These mirror how a downstream user would combine the pieces: build or load a
graph, run a decomposition, extract the hierarchy, estimate a handful of
queries, and compare against the exact answer.
"""

from repro import (
    Graph,
    and_decomposition,
    build_hierarchy,
    core_decomposition,
    estimate_local_indices,
    nucleus_decomposition,
    peeling_decomposition,
    snd_decomposition,
    truss_decomposition,
)
from repro.core.metrics import accuracy_report
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.graph.generators import hierarchical_community_graph
from repro.graph.io import read_edge_list, write_edge_list


class TestPublicApiSurface:
    def test_top_level_imports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestFullPipeline:
    def test_io_decompose_hierarchy_roundtrip(self, tmp_path):
        graph = load_dataset("toy")
        path = tmp_path / "toy.txt"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path)
        assert reloaded == graph

        space = NucleusSpace(reloaded, 2, 3)
        exact = peeling_decomposition(space)
        local = and_decomposition(space)
        assert local.kappa == exact.kappa

        hierarchy = build_hierarchy(space, local)
        # six K5s in a ring: six top trusses
        top = hierarchy.nuclei_at(hierarchy.max_k())
        assert len(top) == 6

    def test_hierarchical_communities_are_recovered(self):
        """On a nested-community benchmark the truss hierarchy recovers the
        planted communities as its dense leaves — the citation-network use
        case the paper motivates.  (The k-core hierarchy cannot separate
        equal-density communities joined by a single edge, which is exactly
        why the paper advocates the triangle-connected decompositions.)"""
        graph = hierarchical_community_graph(
            levels=2, branching=3, leaf_size=8, p_intra=0.9, p_decay=0.05, seed=21
        )
        space = NucleusSpace(graph, 2, 3)
        result = truss_decomposition(space, algorithm="and")
        hierarchy = build_hierarchy(space, result)
        assert len(hierarchy.roots()) >= 1
        deepest = max(hierarchy.depth_of(n.node_id) for n in hierarchy.nodes)
        assert deepest >= 1
        communities = [set(range(i * 8, (i + 1) * 8)) for i in range(3)]
        dense_leaves = [n for n in hierarchy.leaves() if n.k_high >= 2]
        assert len(dense_leaves) >= 3
        for leaf in dense_leaves:
            assert any(leaf.vertices <= community for community in communities)

    def test_partial_run_then_refine(self):
        """A capped run can be 'continued' by rerunning with more iterations;
        accuracy improves monotonically (the trade-off the paper exploits)."""
        graph = load_dataset("sw")
        space = NucleusSpace(graph, 2, 3)
        exact = peeling_decomposition(space).kappa
        reports = []
        for cap in (1, 3, 10):
            partial = snd_decomposition(space, max_iterations=cap)
            reports.append(accuracy_report(partial.kappa, exact))
        errors = [r["mean_absolute_error"] for r in reports]
        assert errors[2] <= errors[1] <= errors[0]

    def test_query_agrees_with_global_on_moderate_radius(self):
        graph = load_dataset("toy")
        exact = core_decomposition(graph, algorithm="peeling").as_dict()
        queries = [(v,) for v in list(graph.vertices())[:8]]
        estimates = estimate_local_indices(graph, queries, 1, 2, hops=2)
        # a 2-hop ball around any vertex of a K5-ring covers its whole clique,
        # so the core estimates are exact
        for q in queries:
            assert estimates[q] == exact[q]

    def test_all_three_instances_on_one_graph(self):
        graph = load_dataset("toy")
        for r, s in ((1, 2), (2, 3), (3, 4)):
            exact = nucleus_decomposition(graph, r, s, algorithm="peeling")
            local = nucleus_decomposition(graph, r, s, algorithm="and")
            assert local.kappa == exact.kappa

    def test_string_vertices_work_end_to_end(self):
        graph = Graph(
            [
                ("alice", "bob"),
                ("bob", "carol"),
                ("carol", "alice"),
                ("carol", "dave"),
            ]
        )
        result = truss_decomposition(graph, algorithm="snd")
        assert result.as_dict()[("alice", "bob")] == 1
        assert result.as_dict()[("carol", "dave")] == 0
