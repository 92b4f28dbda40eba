"""Dense-subgraph extraction utilities built on top of the decompositions.

The paper's motivation is finding dense subgraphs and the relations among
them.  This module turns κ indices / hierarchies into concrete subgraph
answers and provides the classic greedy 2-approximation of the densest
subgraph (Charikar / Asahiro et al.) as an independent baseline:

* :func:`charikar_densest_subgraph` — peel minimum-degree vertices, keep the
  prefix with the best average degree; a 1/2-approximation of the maximum
  average-degree subgraph.
* :func:`max_core_subgraph` — the vertices of maximum core number (the
  k-core heuristic for dense subgraphs; also a 1/2-approximation).
* :func:`best_nucleus` — the nucleus of the (r, s) hierarchy with the best
  edge density among those with at least ``min_size`` vertices; for r ≥ 2
  this is typically denser than the k-core answer, which is the empirical
  argument for nucleus decomposition in the paper.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.csr import CSRSpace
from repro.core.hierarchy import Nucleus, NucleusHierarchy, build_hierarchy
from repro.core.peeling import peeling_decomposition
from repro.graph.graph import Graph, Vertex

__all__ = [
    "average_degree_density",
    "charikar_densest_subgraph",
    "max_core_subgraph",
    "best_nucleus",
]


def average_degree_density(graph: Graph, vertices: Set[Vertex]) -> float:
    """Average-degree density |E(S)| / |S| of the induced subgraph.

    This is the objective of the densest-subgraph problem (not the 0..1 edge
    density used elsewhere); 0.0 for empty vertex sets.
    """
    if not vertices:
        return 0.0
    sub = graph.subgraph(vertices)
    return sub.number_of_edges() / sub.number_of_vertices()


def charikar_densest_subgraph(graph: Graph) -> Tuple[Set[Vertex], float]:
    """Greedy 1/2-approximation of the densest (max average degree) subgraph.

    Repeatedly removes a minimum-degree vertex and remembers the intermediate
    vertex set with the best |E|/|V|; returns that set and its density.
    Runs in O(|E| log |V|) with a simple re-scan (adequate at this scale).
    """
    working = graph.copy()
    best_set: Set[Vertex] = set(working.vertices())
    best_density = average_degree_density(graph, best_set)
    current: Set[Vertex] = set(working.vertices())
    while working.number_of_vertices() > 1:
        victim = min(current, key=lambda v: (working.degree(v), repr(v)))
        working.remove_vertex(victim)
        current.discard(victim)
        density = (
            working.number_of_edges() / working.number_of_vertices()
            if working.number_of_vertices()
            else 0.0
        )
        if density > best_density:
            best_density = density
            best_set = set(current)
    return best_set, best_density


def max_core_subgraph(graph: Graph) -> Tuple[Set[Vertex], float]:
    """Vertices of maximum core number and their average-degree density.

    The max core is the classic peeling heuristic for dense subgraphs and is
    itself a 1/2-approximation of the densest subgraph.
    """
    if graph.number_of_vertices() == 0:
        return set(), 0.0
    result = peeling_decomposition(graph, 1, 2)
    top = result.vertices_with_kappa_at_least(result.max_kappa())
    return top, average_degree_density(graph, top)


def best_nucleus(
    graph: Graph,
    r: int = 3,
    s: int = 4,
    *,
    min_size: int = 3,
    hierarchy: Optional[NucleusHierarchy] = None,
) -> Tuple[Optional[Nucleus], float]:
    """The densest nucleus of the (r, s) hierarchy with at least ``min_size`` vertices.

    Density here is the 0..1 edge density (2|E| / |V|(|V|-1)) the paper uses
    to compare nuclei; the paper's empirical finding is that (3, 4) nuclei are
    denser than the best k-cores and k-trusses of comparable size.

    A prebuilt ``hierarchy`` can be supplied to avoid recomputation (the
    dict oracle builds one from a :class:`NucleusSpace`); without one the
    graph is flattened directly via :meth:`CSRSpace.from_graph` — the dict
    space is never constructed — and peeling + hierarchy construction run
    natively on it.  Returns ``(None, 0.0)`` when no nucleus meets the size
    threshold.
    """
    if hierarchy is None:
        space = CSRSpace.from_graph(graph, r, s)
        kappa = peeling_decomposition(space).kappa
        hierarchy = build_hierarchy(space, kappa)
    best: Optional[Nucleus] = None
    best_density = 0.0
    for node in hierarchy.nodes:
        if len(node.vertices) < min_size:
            continue
        density = hierarchy.density_of(node.node_id)
        if density > best_density or (
            best is not None
            and density == best_density
            and len(node.vertices) > len(best.vertices)
        ):
            best = node
            best_density = density
    return best, best_density
