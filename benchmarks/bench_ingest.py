"""Ingestion: edge-list file → decomposition-ready (2, 3) space.

The array-native substrate's claim: going from bytes on disk to a space the
kernels can run on is dominated by the pure-Python ingestion layer, not by
the kernels.  On the 2000-vertex power-law instance shared with
``bench_backend_speedup`` / ``bench_hierarchy`` this bench times, from the
same edge-list file:

* ``dict_read_s`` / ``dict_space_s`` — ``read_edge_list`` into the dict
  ``Graph``, then ``NucleusSpace`` construction (the historical path);
* ``array_read_s`` / ``array_space_s`` — ``read_edge_list_arrays`` into a
  ``CSRGraph``, then ``CSRSpace.from_graph`` filled from the batch
  enumerators (the ``backend="csr"`` path; no dict adjacency, no per-clique
  tuples);
* ``array_orient_s`` — ``CSRGraph.forward_csr`` alone on a freshly read
  graph, the degeneracy orientation every space build starts from
  (recorded for the trend, no floor).

κ parity is asserted in every mode — the two spaces index their cliques
differently, so the comparison is keyed by clique, and the values must be
byte-identical.  The end-to-end speedup target (≥ 3×) is asserted in full
mode; smoke mode records the same fields into ``BENCH_smoke.json`` for the
rolling trend gate.
"""

import time

import pytest

from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.io import read_edge_list, read_edge_list_arrays, write_edge_list

N, M, P, SEED = 2000, 10, 0.9, 5

#: full-mode floor for (dict read + space) / (array read + space); ~6x on a
#: quiet machine, asserted with margin for shared runners
INGEST_TARGET = 3.0


@pytest.fixture(scope="module")
def edge_list_path(tmp_path_factory):
    graph = powerlaw_cluster_graph(N, M, P, seed=SEED)
    path = tmp_path_factory.mktemp("ingest") / "graph.txt"
    write_edge_list(graph, path)
    return path


def _best_of(repeats, fn, *args):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _orient_time(path):
    """Seconds ``forward_csr`` takes on a freshly read graph (no floor)."""
    graph = read_edge_list_arrays(path)
    t0 = time.perf_counter()
    graph.forward_csr()
    return time.perf_counter() - t0


def test_ingest_array_vs_dict(edge_list_path, smoke_mode, bench_record):
    reps = 1 if smoke_mode else 3

    t_dict_read, dict_graph = _best_of(reps, read_edge_list, edge_list_path)
    t_dict_space, dict_space = _best_of(reps, NucleusSpace, dict_graph, 2, 3)
    t_array_read, csr_graph = _best_of(reps, read_edge_list_arrays, edge_list_path)
    t_array_orient = min(_orient_time(edge_list_path) for _ in range(reps))
    t_array_space, csr_space = _best_of(
        reps, CSRSpace.from_graph, csr_graph, 2, 3
    )

    # byte-identical kappa, keyed by clique (the index orders differ)
    dict_kappa = dict_space.as_dict(
        peeling_decomposition(dict_space, backend="dict").kappa
    )
    csr_kappa = dict(
        zip(csr_space.cliques, peeling_decomposition(csr_space).kappa)
    )
    assert csr_kappa == dict_kappa

    dict_total = t_dict_read + t_dict_space
    array_total = t_array_read + t_array_space
    speedup = dict_total / array_total if array_total else float("inf")
    bench_record(
        name="ingest_23",
        dict_read_s=round(t_dict_read, 4),
        dict_space_s=round(t_dict_space, 4),
        array_read_s=round(t_array_read, 4),
        array_space_s=round(t_array_space, 4),
        array_orient_s=round(t_array_orient, 4),
        dict_total_s=round(dict_total, 4),
        array_total_s=round(array_total, 4),
        speedup=round(speedup, 2),
        edges=csr_graph.number_of_edges(),
        smoke=smoke_mode,
    )
    print(
        f"\ningest (2,3) on {csr_graph.number_of_edges()} edges: dict "
        f"{dict_total * 1000:.1f} ms (read {t_dict_read * 1000:.1f} + space "
        f"{t_dict_space * 1000:.1f}), array {array_total * 1000:.1f} ms "
        f"(read {t_array_read * 1000:.1f} + space {t_array_space * 1000:.1f}; "
        f"orient alone {t_array_orient * 1000:.1f}) -> {speedup:.2f}x"
    )
    if not smoke_mode:
        assert speedup >= INGEST_TARGET, (
            f"array ingestion only {speedup:.2f}x faster than the dict path "
            f"(target {INGEST_TARGET}x)"
        )


def test_space_construction(edge_list_path, smoke_mode, bench_record):
    """Serial ``CSRSpace.from_graph`` build times at (2, 3) and (3, 4).

    Recorded for the trend, with no floor.  Each timing starts from a
    graph whose orientation is already cached, so it covers the triangle
    pass, the (3, 4) pair pass and the buffer assembly.
    """
    reps = 1 if smoke_mode else 3
    times = {}
    sizes = {}
    for r, s in ((2, 3), (3, 4)):
        best = float("inf")
        for _ in range(reps):
            graph = read_edge_list_arrays(edge_list_path)
            graph.forward_csr()
            t0 = time.perf_counter()
            space = CSRSpace.from_graph(graph, r, s)
            best = min(best, time.perf_counter() - t0)
        times[(r, s)] = best
        sizes[(r, s)] = len(space)
    bench_record(
        name="space_construct",
        space_23_s=round(times[(2, 3)], 4),
        space_34_s=round(times[(3, 4)], 4),
        r_cliques_23=sizes[(2, 3)],
        r_cliques_34=sizes[(3, 4)],
        smoke=smoke_mode,
    )
    print(
        f"\nspace construction: (2,3) {times[(2, 3)] * 1000:.1f} ms on "
        f"{sizes[(2, 3)]} edges, (3,4) {times[(3, 4)] * 1000:.1f} ms on "
        f"{sizes[(3, 4)]} triangles"
    )


#: full-mode floor for cold (parse + enumerate + decompose) over warm
#: (open_bundle + point kappa lookup); real ratios are in the thousands,
#: the ISSUE 6 acceptance floor is 10x
WARM_OPEN_TARGET = 10.0


def test_bundle_cold_vs_warm(edge_list_path, tmp_path, smoke_mode, bench_record):
    """Cold edge-list → decompose vs warm ``open_bundle`` + κ point lookup.

    The store's claim: a second run on the same dataset skips parse,
    enumeration and decomposition entirely.  Cold is the full
    ``read_edge_list_arrays`` → ``CSRSpace.from_graph`` → peeling pipeline;
    warm reopens the bundle saved from the cold run (memmap, zero parse)
    and serves one point κ lookup.  κ and the hierarchy interval index are
    asserted identical between the two paths.
    """
    from repro.core.hierarchy import build_hierarchy
    from repro.store import open_bundle, save_bundle

    reps = 1 if smoke_mode else 3

    def cold():
        graph = read_edge_list_arrays(edge_list_path)
        space = CSRSpace.from_graph(graph, 2, 3)
        return graph, space, peeling_decomposition(space)

    t_cold, (graph, space, result) = _best_of(reps, cold)
    hierarchy = build_hierarchy(space, result)
    probe = space.cliques[len(space) // 2]
    bundle_path = save_bundle(
        tmp_path / "bundle",
        graph=graph, space=space, result=result, hierarchy=hierarchy,
    )

    def warm():
        bundle = open_bundle(bundle_path)
        return bundle, bundle.kappa_of(probe)

    t_warm, (bundle, warm_kappa) = _best_of(reps, warm)

    # parity: byte-identical kappa and an identical hierarchy forest
    assert warm_kappa == result.kappa_of(probe)
    assert bundle.kappa.tolist() == result.kappa
    assert bundle.index == hierarchy.interval_index()

    speedup = t_cold / t_warm if t_warm else float("inf")
    bench_record(
        name="bundle_warm_open",
        cold_s=round(t_cold, 4),
        warm_s=round(t_warm, 6),
        speedup=round(speedup, 1),
        edges=graph.number_of_edges(),
        r_cliques=len(space),
        smoke=smoke_mode,
    )
    print(
        f"\nbundle (2,3) on {graph.number_of_edges()} edges: cold "
        f"{t_cold * 1000:.1f} ms, warm open + kappa lookup "
        f"{t_warm * 1000:.3f} ms -> {speedup:.0f}x"
    )
    assert speedup >= WARM_OPEN_TARGET, (
        f"warm bundle open only {speedup:.1f}x faster than the cold "
        f"pipeline (target {WARM_OPEN_TARGET}x)"
    )
