"""Both tiers list the r-cliques of a graph in one order.

``NucleusSpace`` (the dict oracle) and ``CSRSpace.from_graph`` (the array
tier) index the r-cliques alike: lexicographic order of their vertex-id
rows, ids given in ``sorted_vertices`` order.  So the clique lists are
equal, every clique's contexts name the same partners, and a dict-kernel
result lines up by index with the array space, with no re-keying through
``as_dict()``.  Checked over every generator family, the degenerate shapes
and a graph whose labels mix ints, floats and strings.
"""

from collections import Counter

import pytest

from repro.core.asynd import and_decomposition
from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph import generators as gen
from repro.graph.graph import Graph

INSTANCES = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]


def _mixed_labels(graph: Graph) -> Graph:
    """``graph`` relabelled so its cliques mix ints, floats and strings.

    ``sorted_vertices`` groups by type name (floats before ints before
    strings), so id order and the natural order of a clique's labels differ.
    """
    def label(v):
        return (v, v + 0.5, f"v{v}")[v % 3]

    out = Graph((label(u), label(v)) for u, v in graph.edges())
    for v in graph.vertices():
        out.add_vertex(label(v))
    return out


GRAPHS = {
    "complete": gen.complete_graph(7),
    "erdos_renyi": gen.erdos_renyi_graph(36, 0.2, seed=1),
    "barabasi_albert": gen.barabasi_albert_graph(45, 4, seed=2),
    "watts_strogatz": gen.watts_strogatz_graph(36, 6, 0.2, seed=3),
    "powerlaw_cluster": gen.powerlaw_cluster_graph(50, 4, 0.7, seed=4),
    "heterogeneous_cluster": gen.heterogeneous_cluster_graph(50, 2, 6, 0.6, seed=5),
    "planted_clique": gen.planted_clique_graph(36, 8, 0.1, seed=6),
    "ring_of_cliques": gen.ring_of_cliques(5, 5),
    "hierarchical_community": gen.hierarchical_community_graph(
        levels=2, branching=3, leaf_size=6, seed=7
    ),
    "union": gen.union_of_graphs(
        [gen.complete_graph(5), gen.erdos_renyi_graph(12, 0.3, seed=8)]
    ),
    "empty": Graph(),
    "k2": Graph([(0, 1)]),
    "star": Graph([(0, i) for i in range(1, 7)]),
    "path": Graph([(i, i + 1) for i in range(6)]),
    "ring": Graph([(i, (i + 1) % 7) for i in range(7)]),
    "k6_isolated": Graph(gen.complete_graph(6).edges(), vertices=[20, 11]),
    "mixed_labels": _mixed_labels(gen.powerlaw_cluster_graph(40, 4, 0.7, seed=9)),
}


@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_both_tiers_index_cliques_alike(name, r, s):
    graph = GRAPHS[name]
    oracle = NucleusSpace(graph, r, s)
    built = CSRSpace.from_graph(graph, r, s)
    assert list(oracle.cliques) == list(built.cliques)
    for i in range(len(built)):
        assert Counter(map(frozenset, oracle.contexts(i))) == Counter(
            map(frozenset, built.contexts(i))
        )
    exact = peeling_decomposition(built)
    for result in (peeling_decomposition(oracle), and_decomposition(oracle)):
        assert result.operations["backend"] == "dict"
        result.check_aligned(built.cliques)
        assert result.kappa == exact.kappa


@pytest.mark.parametrize("r, s", INSTANCES)
def test_to_csr_is_the_graph_built_space(r, s):
    graph = GRAPHS["mixed_labels"]
    space = NucleusSpace(graph, r, s)
    csr = space.to_csr()
    assert space.to_csr() is csr
    built = CSRSpace.from_graph(graph, r, s)
    assert list(csr.cliques.labels) == list(built.cliques.labels)
    for name in ("ctx_offsets", "ctx_members"):
        assert getattr(csr, name).tobytes() == getattr(built, name).tobytes()
