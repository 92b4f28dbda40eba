"""Parity tests for the Euler-interval hierarchy index.

Every interval-index answer (ancestry, containment, members, threshold
lookups) is compared against a forest-walk reference computed from the
``Nucleus`` object API, over property-tested random hierarchies — and the
index must produce those answers without ever materialising a
``Nucleus.vertices`` set.
"""

import random

import numpy as np
import pytest

from repro.core.csr import CSRSpace
from repro.core.hierarchy import build_hierarchy
from repro.core.intervals import INDEX_ARRAYS, HierarchyIndex
from repro.core.peeling import peeling_decomposition
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import (
    powerlaw_cluster_graph,
    ring_of_cliques,
    watts_strogatz_graph,
)

# a spread of shapes: dense clustered, ring-of-cliques (deep forests),
# sparse rewired rings (many shallow components), across (r, s) instances
CASES = [
    (powerlaw_cluster_graph(48, 3, 0.6, seed=11), 1, 2),
    (powerlaw_cluster_graph(40, 4, 0.8, seed=12), 2, 3),
    (ring_of_cliques(6, 5), 2, 3),
    (ring_of_cliques(4, 5), 3, 4),
    (watts_strogatz_graph(60, 4, 0.3, seed=13), 1, 2),
    (watts_strogatz_graph(40, 6, 0.2, seed=14), 2, 3),
]


def _built(case):
    graph, r, s = case
    space = CSRSpace.from_graph(CSRGraph.from_graph(graph), r, s)
    hierarchy = build_hierarchy(space, peeling_decomposition(space))
    return hierarchy, hierarchy.interval_index()


# ----------------------------------------------------------------------
# forest-walk reference answers
# ----------------------------------------------------------------------
def _ref_is_ancestor(hierarchy, ancestor_id, node_id):
    by_id = {n.node_id: n for n in hierarchy.nodes}
    current = node_id
    while current is not None:
        if current == ancestor_id:
            return True
        current = by_id[current].parent
    return False


def _ref_descendants(hierarchy, node_id):
    by_id = {n.node_id: n for n in hierarchy.nodes}
    out, todo = [], [node_id]
    while todo:
        nid = todo.pop()
        out.append(nid)
        todo.extend(by_id[nid].children)
    return sorted(out)


def _ref_nucleus_containing(hierarchy, clique_index, k):
    hits = [
        n.node_id
        for n in hierarchy.nodes
        if n.k_low <= k <= n.k_high and clique_index in n.clique_indices
    ]
    assert len(hits) <= 1, "reference: nuclei at one threshold must be disjoint"
    return hits[0] if hits else None


@pytest.mark.parametrize("case", range(len(CASES)))
class TestParity:
    def test_ancestor_queries_match_forest_walk(self, case):
        hierarchy, index = _built(CASES[case])
        ids = [n.node_id for n in hierarchy.nodes]
        rng = random.Random(case)
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(200)]
        for a, b in pairs:
            assert index.is_ancestor(a, b) == _ref_is_ancestor(hierarchy, a, b)
            assert index.is_ancestor(a, b, strict=True) == (
                a != b and _ref_is_ancestor(hierarchy, a, b)
            )

    def test_descendants_match_forest_walk(self, case):
        hierarchy, index = _built(CASES[case])
        for node in hierarchy.nodes:
            assert sorted(index.descendant_ids(node.node_id).tolist()) == (
                _ref_descendants(hierarchy, node.node_id)
            )

    def test_membership_matches_clique_indices(self, case):
        hierarchy, index = _built(CASES[case])
        num_cliques = index.num_cliques()
        rng = random.Random(100 + case)
        sample = rng.sample(range(num_cliques), min(25, num_cliques))
        for node in hierarchy.nodes:
            expected = set(node.clique_indices)
            assert set(index.members(node.node_id).tolist()) == expected
            assert index.member_count(node.node_id) == len(expected)
            for i in sample:
                assert index.contains_clique(node.node_id, i) == (i in expected)

    def test_threshold_queries_match_forest_walk(self, case):
        hierarchy, index = _built(CASES[case])
        rng = random.Random(200 + case)
        sample = rng.sample(
            range(index.num_cliques()), min(20, index.num_cliques())
        )
        for i in sample:
            # one past max_k on both sides of the valid range
            for k in range(-1, index.max_k() + 2):
                assert index.nucleus_containing(i, k) == (
                    _ref_nucleus_containing(hierarchy, i, k)
                ), (i, k)

    def test_nuclei_at_matches_k_ranges(self, case):
        hierarchy, index = _built(CASES[case])
        for k in range(index.max_k() + 2):
            expected = sorted(
                n.node_id for n in hierarchy.nodes if n.k_low <= k <= n.k_high
            )
            assert sorted(index.nuclei_at(k).tolist()) == expected

    def test_queries_never_materialise_vertices(self, case):
        hierarchy, index = _built(CASES[case])
        for node in hierarchy.nodes:
            index.members(node.node_id)
            index.member_count(node.node_id)
            index.descendant_ids(node.node_id)
            index.is_ancestor(0, node.node_id)
        for i in range(min(10, index.num_cliques())):
            index.contains_clique(0, i)
            index.nucleus_containing(i, 1)
        for node in hierarchy.nodes:
            assert node._vertices is None, (
                "an interval query materialised Nucleus.vertices"
            )


# ----------------------------------------------------------------------
# structural invariants and API edges
# ----------------------------------------------------------------------
class TestStructure:
    def test_preorder_is_a_permutation(self):
        _, index = _built(CASES[0])
        assert sorted(index.node_ids.tolist()) == list(range(len(index)))
        assert np.array_equal(
            index.pre_of_id[index.node_ids], np.arange(len(index))
        )

    def test_roots_cover_all_cliques(self):
        hierarchy, index = _built(CASES[1])
        roots = [n.node_id for n in hierarchy.nodes if n.parent is None]
        assert sum(index.member_count(r) for r in roots) == index.num_cliques()

    def test_member_runs_are_contiguous_and_sorted_by_leaf(self):
        _, index = _built(CASES[2])
        leaf_sorted = index.leaf_pos[index.clique_order]
        assert np.all(leaf_sorted[:-1] <= leaf_sorted[1:])

    def test_lazy_index_is_cached(self):
        hierarchy, index = _built(CASES[0])
        assert hierarchy.interval_index() is index

    def test_arrays_round_trip(self):
        _, index = _built(CASES[3])
        clone = HierarchyIndex.from_arrays(index.arrays())
        assert clone == index
        assert tuple(index.arrays()) == INDEX_ARRAYS

    def test_validation_rejects_bad_arrays(self):
        _, index = _built(CASES[0])
        arrays = dict(index.arrays())
        del arrays["post"]
        with pytest.raises(ValueError, match="missing index arrays"):
            HierarchyIndex(**arrays)
        arrays = dict(index.arrays())
        arrays["post"] = arrays["post"][:-1]
        with pytest.raises(ValueError, match="length disagrees"):
            HierarchyIndex(**arrays)

    def test_unknown_node_and_clique_raise(self):
        _, index = _built(CASES[0])
        with pytest.raises(KeyError):
            index.position_of(len(index) + 5)
        with pytest.raises(KeyError):
            index.nucleus_containing(index.num_cliques() + 5, 0)

    def test_empty_hierarchy(self):
        space = CSRSpace.from_graph(
            CSRGraph.from_edge_arrays([], [], num_vertices=3), 2, 3
        )
        hierarchy = build_hierarchy(space, peeling_decomposition(space))
        index = hierarchy.interval_index()
        assert len(index) == 0 and index.num_cliques() == 0
        assert index.max_k() == 0
        assert index.nuclei_at(0).size == 0

    def test_dict_backend_produces_identical_index(self):
        from repro.core.space import NucleusSpace

        graph, r, s = CASES[2]
        dict_space = NucleusSpace(graph, r, s)
        dict_hier = build_hierarchy(dict_space, peeling_decomposition(dict_space))
        # to_csr() indexes the cliques as the dict space does, so the two
        # hierarchies live over the same index space
        csr_space = dict_space.to_csr()
        csr_hier = build_hierarchy(csr_space, peeling_decomposition(csr_space))
        assert dict_hier.interval_index() == csr_hier.interval_index()
