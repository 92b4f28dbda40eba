"""Shared fixtures: small graphs with known decompositions.

The ``paper_core_graph`` fixture is the toy graph of the paper's Figure 2
(k-core illustration): six vertices a–f whose core numbers and SND iteration
behaviour are spelled out in the text, so it doubles as a ground-truth
fixture for the local algorithms.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import (
    complete_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph


@pytest.fixture
def empty_graph() -> Graph:
    return Graph()


@pytest.fixture
def single_edge_graph() -> Graph:
    return Graph([(0, 1)])


@pytest.fixture
def triangle_graph() -> Graph:
    return Graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def paper_core_graph() -> Graph:
    """The Figure 2 k-core example graph.

    Vertices a..f with edges a-b, a-e, e-f, b-c, b-d, c-d.  Degrees are
    a:2 b:3 c:2 d:2 e:2 f:1 and core numbers are b,c,d -> 2 and a,e,f -> 1.
    The paper walks through SND on exactly this graph: τ1(a)=2, τ2(a)=1,
    convergence in two iterations.
    """
    return Graph(
        [
            ("a", "b"),
            ("a", "e"),
            ("e", "f"),
            ("b", "c"),
            ("b", "d"),
            ("c", "d"),
        ]
    )


PAPER_CORE_NUMBERS = {"a": 1, "b": 2, "c": 2, "d": 2, "e": 1, "f": 1}


@pytest.fixture
def paper_core_numbers() -> dict:
    return dict(PAPER_CORE_NUMBERS)


@pytest.fixture
def two_clique_bridge_graph() -> Graph:
    """Two K5s joined by a single bridge edge: a crisp two-nucleus hierarchy."""
    return ring_of_cliques(num_cliques=2, clique_size=5)


@pytest.fixture
def k6_graph() -> Graph:
    return complete_graph(6)


@pytest.fixture
def small_powerlaw_graph() -> Graph:
    """A 120-vertex clustered power-law graph: the workhorse random fixture."""
    return powerlaw_cluster_graph(120, 4, 0.4, seed=42)


@pytest.fixture
def medium_powerlaw_graph() -> Graph:
    return powerlaw_cluster_graph(250, 5, 0.35, seed=7)


@pytest.fixture
def planted_graph() -> Graph:
    return planted_clique_graph(n=80, clique_size=12, p=0.05, seed=11)


def _dict_local_indices(graph, queries, r, s, *, hops, algorithm="and"):
    """The dict oracle of :func:`repro.core.query.estimate_local_indices`.

    The h-hop ball's induced subgraph is decomposed on a
    :class:`NucleusSpace`, so the dict kernels run.  ``graph`` is either
    representation; a :class:`CSRGraph` ball is converted to a dict graph.
    """
    from repro.core.asynd import and_decomposition
    from repro.core.query import QueryEstimate
    from repro.core.snd import snd_decomposition
    from repro.core.space import NucleusSpace
    from repro.graph.cliques import canonical_clique

    cliques = [canonical_clique(tuple(q)) for q in queries]
    ball = graph.bfs_ball([v for clique in cliques for v in clique], hops)
    subgraph = graph.subgraph(ball)
    if not isinstance(subgraph, Graph):
        subgraph = subgraph.to_graph()
    space = NucleusSpace(subgraph, r, s)
    run = and_decomposition if algorithm == "and" else snd_decomposition
    result = run(space)
    assert result.operations["backend"] == "dict"
    estimates = {}
    for clique in cliques:
        index = space.find_index(clique)
        estimates[clique] = 0 if index is None else result.kappa_at(index)
    return QueryEstimate(
        estimates,
        ball_size=len(ball),
        subgraph_edges=subgraph.number_of_edges(),
        iterations=result.iterations,
    )


@pytest.fixture
def dict_local_indices():
    """The dict oracle of ``estimate_local_indices`` (see above)."""
    return _dict_local_indices
