"""Hierarchy construction: CSR-native vs the dict round-trip.

The application-layer refactor's claim: building the k-(r, s) nucleus
hierarchy straight from the CSR space a fast kernel run already holds beats
the historical path, which had to materialise the dict-of-tuples
``NucleusSpace`` first (the array → dict round-trip) before the hierarchy
could be assembled.  This bench measures, on the 2000-vertex (2, 3)
power-law instance used by ``bench_backend_speedup``:

* ``roundtrip_s`` — ``NucleusSpace`` construction + hierarchy on it (what a
  CSR-backed end-to-end run used to pay);
* ``dict_s`` — hierarchy construction alone on a prebuilt dict space;
* ``csr_s`` — hierarchy construction alone on the CSR space (the
  end-to-end path: one array pass straight from the CSR arrays).

A second row, ``hierarchy_many_levels``, times the worst case for a
level-by-level build: a power-law graph united with the complete graphs
K3 … K159 at (1, 2), so κ_max = 158 and every level is non-empty.  It
records the array build (``build_s``) next to the union-find reference
construction kept in ``tests/hierarchy_reference.py`` (``reference_s``).

A third row, ``hierarchy_pipeline_scale``, builds the (2, 3) hierarchy at
the size of the pipeline benchmark's truss workload,
``powerlaw_cluster_graph(10000, 8, 0.9)`` (1000 vertices in smoke mode),
from the κ of the AND, and records ``build_s`` next to the same reference
assert.

Forest parity (same rows: k ranges, member counts, densities, parents, with
nodes named by their vertices because the dict space indexes the cliques in
its own order; identical index arrays for the many-level row) is asserted in every mode;
the speedup target only in full mode, because single-shot smoke timings on
shared runners are noise.  The many-level and pipeline-scale rows have no
timing floor.  The
recorded ``*_s`` fields feed the rolling benchmark trend gate
(``repro.perf.trend``).
"""

import sys
import time
from pathlib import Path

import pytest

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.hierarchy import build_hierarchy
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import complete_graph, powerlaw_cluster_graph, union_of_graphs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from hierarchy_reference import build_hierarchy as reference_hierarchy  # noqa: E402
from hierarchy_reference import build_interval_index as reference_index  # noqa: E402

FULL_N, SMOKE_N = 2000, 400
M, P, SEED = 10, 0.9, 5

#: full-mode floor for roundtrip_s / csr_s ("measurably faster", with margin
#: well below the ~7x observed on a quiet machine)
ROUNDTRIP_TARGET = 1.5


@pytest.fixture(scope="module")
def workload(request):
    smoke = request.getfixturevalue("smoke_mode")
    n = SMOKE_N if smoke else FULL_N
    graph = powerlaw_cluster_graph(n, M, P, seed=SEED)
    csr = CSRSpace.from_graph(graph, 2, 3)
    kappa = peeling_decomposition(csr).kappa
    return graph, csr, kappa


def _rows_by_vertices(hierarchy):
    """``to_rows()`` with each node id (own and parent's) swapped for the
    node's sorted vertices, which do not depend on the clique indexing."""
    members = {node.node_id: tuple(sorted(node.vertices)) for node in hierarchy.nodes}
    return sorted(
        (
            members[row["id"]],
            members.get(row["parent"], ()),
            row["k"],
            row["k_low"],
            row["num_vertices"],
            row["num_r_cliques"],
            row["density"],
            row["depth"],
        )
        for row in hierarchy.to_rows()
    )


def _best_of(repeats, fn, *args, **kwargs):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_hierarchy_csr_vs_dict_roundtrip(workload, smoke_mode, bench_record):
    graph, csr, kappa = workload
    reps = 1 if smoke_mode else 3
    by_clique = csr.as_dict(kappa)

    def roundtrip():
        # the dict space indexes the cliques in its own order: κ is re-keyed
        space = NucleusSpace(graph, 2, 3)
        dict_kappa = [by_clique[clique] for clique in space.cliques]
        return space, dict_kappa, build_hierarchy(space, dict_kappa)

    t_roundtrip, (dict_space, dict_kappa, h_roundtrip) = _best_of(reps, roundtrip)
    t_dict, h_dict = _best_of(reps, build_hierarchy, dict_space, dict_kappa)
    t_csr, h_csr = _best_of(reps, build_hierarchy, csr, kappa)

    # identical forest structure across paths, densities included
    rows_csr = _rows_by_vertices(h_csr)
    assert rows_csr == _rows_by_vertices(h_roundtrip)
    assert rows_csr == _rows_by_vertices(h_dict)

    speedup = t_roundtrip / t_csr if t_csr else float("inf")
    bench_record(
        name="hierarchy_build",
        roundtrip_s=round(t_roundtrip, 4),
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        nodes=len(h_csr),
        smoke=smoke_mode,
    )
    print(
        f"\nhierarchy (2,3) on {len(csr)} edges, {len(h_csr)} nuclei: "
        f"dict round-trip {t_roundtrip * 1000:.1f} ms, dict-only "
        f"{t_dict * 1000:.1f} ms, csr {t_csr * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if not smoke_mode:
        assert speedup >= ROUNDTRIP_TARGET, (
            f"CSR hierarchy construction only {speedup:.2f}x faster than the "
            f"dict round-trip (target {ROUNDTRIP_TARGET}x)"
        )


#: complete graphs K3 … K159 give κ_max = 158 at (1, 2)
MANY_LEVEL_SIZES = range(3, 160)


def _forest(hierarchy):
    return [
        (n.node_id, n.k_low, n.k_high, tuple(n.clique_indices), n.parent, tuple(n.children))
        for n in hierarchy.nodes
    ]


def test_hierarchy_many_levels(smoke_mode, bench_record):
    n = SMOKE_N if smoke_mode else FULL_N
    graph = union_of_graphs(
        [powerlaw_cluster_graph(n, M, P, seed=SEED)]
        + [complete_graph(size) for size in MANY_LEVEL_SIZES]
    )
    space = CSRSpace.from_graph(graph, 1, 2)
    kappa = peeling_decomposition(space).kappa
    reps = 1 if smoke_mode else 3

    t_build, built = _best_of(reps, build_hierarchy, space, kappa)
    t_reference, reference = _best_of(1, reference_hierarchy, space, kappa)

    assert max(kappa) == MANY_LEVEL_SIZES[-1] - 1
    assert built.interval_index() == reference_index(reference)
    assert _forest(built) == _forest(reference)

    bench_record(
        name="hierarchy_many_levels",
        build_s=round(t_build, 4),
        reference_s=round(t_reference, 4),
        levels=max(kappa) + 1,
        nodes=len(built),
        smoke=smoke_mode,
    )
    print(
        f"\nhierarchy (1,2) over {max(kappa) + 1} levels on {len(space)} vertices, "
        f"{len(built)} nuclei: array build {t_build * 1000:.1f} ms, "
        f"reference {t_reference * 1000:.1f} ms"
    )


#: the pipeline benchmark's truss graph, and its smoke-mode stand-in
PIPELINE_N, PIPELINE_SMOKE_N = 10000, 1000
PIPELINE_M, PIPELINE_P = 8, 0.9


def test_hierarchy_pipeline_scale(smoke_mode, bench_record):
    n = PIPELINE_SMOKE_N if smoke_mode else PIPELINE_N
    graph = powerlaw_cluster_graph(n, PIPELINE_M, PIPELINE_P, seed=SEED)
    space = CSRSpace.from_graph(graph, 2, 3)
    result = and_decomposition_csr(space)
    reps = 1 if smoke_mode else 5

    t_build, built = _best_of(reps, build_hierarchy, space, result)
    t_reference, reference = _best_of(1, reference_hierarchy, space, result.kappa)
    assert built.interval_index() == reference_index(reference)

    bench_record(
        name="hierarchy_pipeline_scale",
        build_s=round(t_build, 4),
        reference_s=round(t_reference, 4),
        cliques=len(space),
        nodes=len(built),
        smoke=smoke_mode,
    )
    print(
        f"\nhierarchy (2,3) on {len(space)} edges, {len(built)} nuclei: "
        f"array build {t_build * 1000:.1f} ms, reference {t_reference * 1000:.1f} ms"
    )
