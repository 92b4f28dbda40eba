"""Query-driven local estimation of κ indices (the paper's final scenario).

The global algorithms compute κ for *every* r-clique.  When only a handful
of vertices or edges are of interest — e.g. "how deep in the core hierarchy
is this user?" — the local formulation lets us run the τ iteration on a
bounded neighbourhood of the query instead of the whole graph: take the
h-hop ball around the queried vertices, take the (r, s) space of the induced
subgraph, and iterate.  The induced subgraph misses the s-cliques that
straddle the boundary, so an estimate never exceeds the global κ; it
improves with the hop radius, and experiment E8 quantifies that trade-off.

The ball's space comes from one of two routes, with the same estimate:

* a graph source (or a bundle stored for another instance) builds it with
  :meth:`CSRSpace.from_graph` on the induced subgraph;
* an opened :class:`~repro.store.bundle.Bundle` that stores the requested
  (r, s) space slices it with :meth:`CSRSpace.restrict`, so no clique is
  enumerated again, and counts the ball's edges only when
  ``subgraph_edges`` is read.

Either way the default ``"and"`` runs the batched kernel's pass loop
(the one :func:`~repro.core.csr.and_decomposition_csr` runs) and reads τ
at the queried indices; no result object is built.

>>> import tempfile
>>> from repro.core.csr import CSRSpace
>>> from repro.graph.csr_graph import CSRGraph
>>> from repro.graph.generators import ring_of_cliques
>>> from repro.store import open_bundle, save_bundle
>>> graph = CSRGraph.from_graph(ring_of_cliques(4, 5))
>>> query = next(iter(graph.edges()))
>>> from_graph = estimate_local_indices(graph, [query], 2, 3, hops=1)
>>> with tempfile.TemporaryDirectory() as tmp:
...     space = CSRSpace.from_graph(graph, 2, 3)
...     bundle = open_bundle(save_bundle(tmp + "/b", graph=graph, space=space))
...     sliced = estimate_local_indices(bundle, [query], 2, 3, hops=1)
>>> sliced == from_graph, sliced.ball_size == from_graph.ball_size
(True, True)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.asynd import and_decomposition
from repro.core.csr import CSRSpace, GraphSource, _and_passes
from repro.core.snd import snd_decomposition
from repro.core.space import Clique
from repro.graph.cliques import canonical_clique
from repro.graph.csr_graph import CSRGraph
from repro.graph.graph import Vertex

__all__ = ["estimate_local_indices", "QueryEstimate"]


class QueryEstimate(dict):
    """Mapping r-clique tuple → estimated κ, with run metadata attached.

    Behaves like a plain dict; extra attributes carry the size of the local
    neighbourhood and the number of iterations the local run needed, so
    experiments can report cost alongside accuracy.

    ``subgraph_edges`` is the ball's edge count: an int, or a
    ``(graph, ball ids)`` pair whose :meth:`CSRGraph.edges_within` count is
    taken on first read and cached, so a caller that never reads it never
    pays for it.
    """

    def __init__(
        self,
        values: Dict[Clique, int],
        *,
        ball_size: int,
        subgraph_edges: Union[int, Tuple[CSRGraph, Any]],
        iterations: int,
    ) -> None:
        super().__init__(values)
        self.ball_size = ball_size
        self._subgraph_edges = subgraph_edges
        self.iterations = iterations

    @property
    def subgraph_edges(self) -> int:
        """Edges of the ball's induced subgraph."""
        if isinstance(self._subgraph_edges, tuple):
            graph, ball = self._subgraph_edges
            self._subgraph_edges = graph.edges_within(ball)
        return self._subgraph_edges


def estimate_local_indices(
    graph: GraphSource,
    queries: Iterable[Sequence[Vertex]],
    r: int,
    s: int,
    *,
    hops: int = 2,
    algorithm: str = "and",
    max_iterations: Optional[int] = None,
) -> QueryEstimate:
    """Estimate κ_s for the queried r-cliques using only a local neighbourhood.

    Parameters
    ----------
    graph:
        The full graph (only the h-hop ball around the queries is touched).
        Either representation works: with a dict :class:`Graph` the ball is
        carved out by the Python BFS, with an array-native
        :class:`~repro.graph.csr_graph.CSRGraph` both the BFS and the
        induced-subgraph construction are numpy-vectorised and the ball's
        space is filled from the batch enumerators.  An opened store
        :class:`~repro.store.bundle.Bundle` is accepted too: its memmapped
        graph serves the BFS, and when it stores the (r, s) space the ball's
        space is sliced out of it (:meth:`CSRSpace.restrict`) instead of
        enumerated; otherwise its graph is used like any other.
    queries:
        Iterable of r-cliques given as vertex sequences — single vertices for
        (1, 2), edges for (2, 3), triangles for (3, 4).  Each query must be a
        clique of the graph of size ``r``.
    hops:
        Radius of the BFS ball (in the ordinary graph metric) taken around
        the union of query vertices.  ``hops=0`` uses only the query vertices
        themselves.
    algorithm:
        ``"and"`` (default) or ``"snd"`` for the local iteration.
    max_iterations:
        Optional iteration cap forwarded to the local algorithm.

    Returns
    -------
    QueryEstimate
        Maps each queried r-clique (canonical tuple) to its estimated κ.
        The ball's space is the space of an induced subgraph, which holds
        a subset of the s-cliques, so every converged estimate is at most
        the clique's global κ.  A bundle's sliced space and the space
        built from the same graph give the same estimates, ball size,
        subgraph edge count and iteration count.

    Raises
    ------
    ValueError
        If a query is not an r-clique of the graph.
    StoreFormatError
        If a bundle source stores no graph.
    """
    from repro.store.bundle import Bundle  # deferred: store imports core

    bundle = graph if isinstance(graph, Bundle) else None
    if bundle is not None:
        # the ball is carved out of the stored adjacency either way
        graph = bundle.graph
    query_list: List[Clique] = []
    for q in queries:
        clique = canonical_clique(tuple(q))
        if len(clique) != r:
            raise ValueError(f"query {clique!r} does not have {r} vertices")
        query_list.append(clique)

    seeds: List[Vertex] = [v for clique in query_list for v in clique]
    if bundle is not None and bundle.has("space") and (bundle.r, bundle.s) == (r, s):
        seed_ids = [i for i in map(graph.find_id, seeds) if i is not None]
        ball = graph.bfs_ball_ids(seed_ids, hops)
        _check_queries(graph, query_list)
        space = bundle.space.restrict(bundle.space_vertex_ids(ball))
        subgraph_edges = (graph, ball)  # counted when first read
    else:
        ball = graph.bfs_ball(seeds, hops)
        subgraph = graph.subgraph(ball)
        _check_queries(subgraph, query_list)
        space = CSRSpace.from_graph(subgraph, r, s)
        subgraph_edges = subgraph.number_of_edges()

    if algorithm == "and" and max_iterations is None:
        # the batched kernel's pass loop, read straight off its τ
        tau, iterations, *_ = _and_passes(space)
        kappa_at = tau.item
    elif algorithm in ("and", "snd"):
        run = and_decomposition if algorithm == "and" else snd_decomposition
        result = run(space, max_iterations=max_iterations)
        iterations = result.iterations
        kappa_at = result.kappa_at
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    estimates: Dict[Clique, int] = {}
    for clique in query_list:
        index = space.find_index(clique)
        # a queried clique with no s-clique in the ball has local κ 0
        estimates[clique] = 0 if index is None else kappa_at(index)

    return QueryEstimate(
        estimates,
        ball_size=len(ball),
        subgraph_edges=subgraph_edges,
        iterations=iterations,
    )


def _check_queries(graph: GraphSource, query_list: List[Clique]) -> None:
    """Raise ``ValueError`` unless every query is a clique of ``graph``."""
    for clique in query_list:
        for u in clique:
            if u not in graph:
                raise ValueError(f"query vertex {u!r} is not in the graph")
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                if not graph.has_edge(clique[i], clique[j]):
                    raise ValueError(f"query {clique!r} is not a clique of the graph")


def query_accuracy(
    estimates: Dict[Clique, int], exact: Dict[Clique, int]
) -> Tuple[float, float]:
    """Return (exact-match fraction, mean absolute error) for query estimates."""
    if not estimates:
        return 1.0, 0.0
    matches = 0
    total_error = 0
    for clique, value in estimates.items():
        truth = exact[clique]
        if value == truth:
            matches += 1
        total_error += abs(value - truth)
    return matches / len(estimates), total_error / len(estimates)
