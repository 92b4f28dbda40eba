"""E8 — query-driven scenario: estimating κ for a handful of vertices/edges.

The paper's closing experiment runs the local algorithms on a subset of
vertices/edges to estimate core and truss numbers without touching the whole
graph.  We sample random query r-cliques, estimate their κ with
:func:`repro.core.query.estimate_local_indices` for increasing hop radii,
and report accuracy against the exact decomposition together with the size
of the neighbourhood actually processed — the cost/accuracy curve that makes
the query-driven mode attractive.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.query import estimate_local_indices
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = ["run_query_driven", "format_query_driven"]


def run_query_driven(
    dataset: str,
    r: int = 1,
    s: int = 2,
    *,
    num_queries: int = 20,
    hop_radii: Sequence[int] = (0, 1, 2, 3),
    seed: int = 13,
    graph=None,
) -> List[Dict[str, object]]:
    """Accuracy of query-driven κ estimates as a function of the hop radius.

    One row per hop radius with the exact-match fraction, mean absolute
    error, and the mean fraction of the graph's vertices inside the processed
    neighbourhood (the cost measure).  The exact baseline and every local
    ball run on a :class:`CSRSpace`; queries are sampled by clique *index*
    and compared index-to-index, so no tuple-keyed κ dict is ever built.  An explicit ``graph`` (either
    representation — e.g. a :class:`~repro.graph.csr_graph.CSRGraph`
    freshly ingested from an edge list, whose h-hop balls are then carved
    out with the vectorised BFS) overrides the dataset lookup; ``dataset``
    then only labels the rows.  :meth:`CSRSpace.from_graph` builds one
    space per graph, whichever class holds it, so a registry dataset and
    the same graph as a ``CSRGraph`` sample the same queries (cliques
    indexed in sorted vertex-id order).
    """
    if graph is None:
        graph = load_dataset(dataset)
    space = CSRSpace.from_graph(graph, r, s)
    exact_kappa = peeling_decomposition(space).kappa

    rng = random.Random(seed)
    if not len(space):
        return []
    indices = rng.sample(range(len(space)), min(num_queries, len(space)))
    queries = [(space.clique_of(i), exact_kappa[i]) for i in indices]
    total_vertices = max(graph.number_of_vertices(), 1)

    rows: List[Dict[str, object]] = []
    for hops in hop_radii:
        matches = 0
        abs_error = 0
        ball_fraction = 0.0
        for query, truth in queries:
            estimate = estimate_local_indices(graph, [query], r, s, hops=hops)
            value = estimate[query]
            if value == truth:
                matches += 1
            abs_error += abs(value - truth)
            ball_fraction += estimate.ball_size / total_vertices
        count = len(queries)
        rows.append(
            {
                "dataset": dataset,
                "r": r,
                "s": s,
                "hops": hops,
                "queries": count,
                "exact_fraction": round(matches / count, 4),
                "mean_abs_error": round(abs_error / count, 4),
                "mean_ball_fraction": round(ball_fraction / count, 4),
            }
        )
    return rows


def run_query_driven_suite(
    dataset: str,
    *,
    num_queries: int = 15,
    hop_radii: Sequence[int] = (1, 2, 3),
    seed: int = 13,
    graph=None,
) -> List[Dict[str, object]]:
    """Query-driven accuracy for both the core (1,2) and truss (2,3) cases."""
    rows: List[Dict[str, object]] = []
    for r, s in ((1, 2), (2, 3)):
        rows.extend(
            run_query_driven(
                dataset,
                r,
                s,
                num_queries=num_queries,
                hop_radii=hop_radii,
                seed=seed,
                graph=graph,
            )
        )
    return rows


def format_query_driven(rows: Sequence[Dict[str, object]]) -> str:
    """Render the query-driven accuracy table as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "hops",
            "queries",
            "exact_fraction",
            "mean_abs_error",
            "mean_ball_fraction",
        ],
        title="Query-driven estimation — accuracy vs neighbourhood radius",
    )
