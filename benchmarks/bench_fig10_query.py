"""E8 — query-driven estimation: accuracy and cost vs neighbourhood radius.

Regenerates the query-driven scenario: estimate core and truss numbers for a
random sample of vertices/edges from bounded neighbourhoods only.
"""

import random
import statistics
import time

from repro.core.csr import CSRSpace
from repro.core.query import estimate_local_indices
from repro.datasets.registry import load_dataset
from repro.experiments.query_driven import (
    format_query_driven,
    run_query_driven,
    run_query_driven_suite,
)
from repro.store import open_bundle, save_bundle


def test_fig10_core_and_truss_queries(benchmark):
    rows = benchmark.pedantic(
        run_query_driven_suite,
        args=("fb",),
        kwargs={"num_queries": 12, "hop_radii": (1, 2, 3)},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_query_driven(rows))
    # larger neighbourhoods never reduce accuracy on average
    for r, s in ((1, 2), (2, 3)):
        series = [row for row in rows if row["r"] == r and row["s"] == s]
        assert series[-1]["mean_abs_error"] <= series[0]["mean_abs_error"]


def test_fig10_cost_grows_with_radius(benchmark):
    rows = benchmark.pedantic(
        run_query_driven,
        args=("sse", 1, 2),
        kwargs={"num_queries": 15, "hop_radii": (0, 1, 2, 3)},
        rounds=1,
        iterations=1,
    )
    fractions = [row["mean_ball_fraction"] for row in rows]
    assert fractions == sorted(fractions)


def test_fig10_bundle_queries(benchmark, tmp_path, bench_record):
    """hops=1 truss queries on a reopened bundle, which slices the stored
    space, checked against the graph route that enumerates each ball.

    The total serving time of the 100 queries (``bundle_query_s``), the
    median µs per query (``query_us_p50``) and the median ball size are
    recorded for the trend, with no floor: the query kernel is the local
    AND on each ball.
    """
    graph = load_dataset("fb", "csr")
    space = CSRSpace.from_graph(graph, 2, 3)
    bundle = open_bundle(save_bundle(tmp_path / "fb", graph=graph, space=space))
    queries = random.Random(0).sample(list(space.cliques), 100)
    elapsed = []
    per_query = []

    def serve():
        served = []
        t0 = time.perf_counter()
        for q in queries:
            t1 = time.perf_counter()
            served.append(estimate_local_indices(bundle, [q], 2, 3, hops=1))
            per_query.append(time.perf_counter() - t1)
        elapsed.append(time.perf_counter() - t0)
        return served

    estimates = benchmark.pedantic(serve, rounds=1, iterations=1)
    bench_record(
        name="bundle_queries",
        bundle_query_s=round(min(elapsed), 4),
        query_us_p50=round(statistics.median(per_query) * 1e6, 1),
        queries=len(queries),
        ball_vertices_p50=statistics.median(e.ball_size for e in estimates),
    )
    for query, sliced in zip(queries, estimates):
        reference = estimate_local_indices(graph, [query], 2, 3, hops=1)
        assert dict(sliced) == dict(reference)
        assert (sliced.ball_size, sliced.subgraph_edges, sliced.iterations) == (
            reference.ball_size,
            reference.subgraph_edges,
            reference.iterations,
        )
