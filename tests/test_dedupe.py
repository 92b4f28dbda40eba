"""Sort-based dedupe, the array degree levels and binary-searched clique
lookups, each against the implementation it replaced.

The references below are the interpreted or hash-based code paths these
functions used to be; outputs must match them exactly, buffer for buffer.
"""

import random

import numpy as np
import pytest
from permuted_space import permuted_space

from repro.core.csr import CSRSpace
from repro.core.decomposition import nucleus_decomposition
from repro.core.levels import _degree_levels_generic, degree_levels
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph, SortedRows, _sorted_unique
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph
from repro.store import open_bundle, save_bundle


def star_graph(leaves: int) -> Graph:
    """Hub plus spokes: edges and vertices, but not a single triangle."""
    return Graph(edges=[(0, i) for i in range(1, leaves + 1)])


GRAPHS = {
    "powerlaw": powerlaw_cluster_graph(90, 4, 0.6, seed=3),
    "dense": powerlaw_cluster_graph(50, 7, 0.9, seed=11),
    "gnp": erdos_renyi_graph(60, 0.15, seed=29),
    "k6": complete_graph(6),
    "star": star_graph(7),
    "empty": Graph(),
}
INSTANCES = [(1, 2), (2, 3), (3, 4), (1, 3)]


# ----------------------------------------------------------------------
# references: the code these paths replaced
# ----------------------------------------------------------------------
def degeneracy_order_reference(graph):
    """Batch peeling with the hash-based ``np.unique`` it used to call."""
    n = graph.number_of_vertices()
    cur = graph.degree_array().copy()
    alive = np.ones(n, dtype=bool)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    k = 0
    batch = np.flatnonzero(cur == 0)
    while filled < n:
        if batch.size == 0:
            active = np.flatnonzero(alive)
            k = int(cur[active].min())
            batch = active[cur[active] <= k]
        alive[batch] = False
        out[filled:filled + batch.size] = batch
        filled += batch.size
        nbrs = np.concatenate(
            [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in batch]
            or [np.empty(0, dtype=np.int64)]
        )
        nbrs = nbrs[alive[nbrs]]
        if nbrs.size:
            np.subtract.at(cur, nbrs, 1)
            touched = np.unique(nbrs)
            batch = touched[cur[touched] <= k]
        else:
            batch = np.empty(0, dtype=np.int64)
    return out


def edge_csr_reference(src, dst, n):
    """Symmetric, deduplicated, self-loop-free CSR built with Python sets."""
    rows = [set() for _ in range(n)]
    for u, v in zip(src, dst):
        if u != v:
            rows[u].add(v)
            rows[v].add(u)
    indptr = [0]
    indices = []
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return indptr, indices


# ----------------------------------------------------------------------
class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [-3],
            [5, 5, 5, 5],
            [0, 1, 2, 3, 10, 11],
            [1, 1, 2, 2, 2, 9, 9],
            [9, 3, 3, 1, -4, 2**62, -(2**62), 0, 9],
        ],
        ids=["empty", "singleton", "negative", "all-duplicate", "sorted",
             "sorted-dups", "extremes"],
    )
    def test_matches_np_unique(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        got = _sorted_unique(arr)
        want = np.unique(arr)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_np_unique_random(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 5000))
        high = int(rng.choice([2, 50, 10**6, 2**62]))
        arr = rng.integers(-high, high, size, dtype=np.int64)
        assert _sorted_unique(arr).tobytes() == np.unique(arr).tobytes()

    def test_input_is_not_modified(self):
        arr = np.array([3, 1, 2, 1], dtype=np.int64)
        _sorted_unique(arr)
        assert arr.tolist() == [3, 1, 2, 1]


class TestDegreeLevels:
    """The one-step-per-level CSR peel against the generic re-scan."""

    @pytest.mark.parametrize("rs", INSTANCES)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_array_built_space_matches_generic(self, name, rs):
        space = CSRSpace.from_graph(CSRGraph.from_graph(GRAPHS[name]), *rs)
        assert degree_levels(space) == _degree_levels_generic(space)

    @pytest.mark.parametrize("rs", INSTANCES)
    @pytest.mark.parametrize("name", ["powerlaw", "star", "empty"])
    def test_dict_built_space_matches_generic(self, name, rs):
        space = NucleusSpace(GRAPHS[name], *rs)
        assert degree_levels(space.to_csr()) == _degree_levels_generic(space)

    def test_memmapped_space_matches_generic(self, tmp_path):
        graph = CSRGraph.from_graph(GRAPHS["dense"])
        space = CSRSpace.from_graph(graph, 3, 4)
        bundle = open_bundle(save_bundle(tmp_path / "b", graph=graph, space=space))
        assert degree_levels(bundle.space) == _degree_levels_generic(space)


class TestCSRGraphBuffers:
    @pytest.mark.parametrize("seed", range(6))
    def test_from_edge_arrays_matches_set_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        m = rng.randint(0, 5 * n)
        src = [rng.randrange(n) for _ in range(m)]
        dst = [rng.randrange(n) for _ in range(m)]
        graph = CSRGraph.from_edge_arrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            num_vertices=n,
        )
        indptr, indices = edge_csr_reference(src, dst, n)
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert graph.indptr.tolist() == indptr
        assert graph.indices.tolist() == indices

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_degeneracy_order_matches_hash_unique_reference(self, name):
        graph = CSRGraph.from_graph(GRAPHS[name])
        got = graph.degeneracy_order()
        assert got.tobytes() == degeneracy_order_reference(graph).tobytes()

    def test_ball_and_subgraph_ids(self):
        graph = CSRGraph.from_graph(GRAPHS["powerlaw"])
        dict_graph = GRAPHS["powerlaw"]
        seeds = [5, 0, 5, 17]
        for radius in range(3):
            ball = graph.bfs_ball_ids(np.asarray(seeds, dtype=np.int64), radius)
            assert ball.tolist() == sorted(dict_graph.bfs_ball(seeds, radius))
        sub = graph.subgraph_ids(np.asarray([9, 0, 5, 5, 77, 0], dtype=np.int64))
        assert list(sub.labels) == [0, 5, 9, 77]
        assert sorted(sub.edges()) == sorted(
            dict_graph.subgraph([0, 5, 9, 77]).edges()
        )


# ----------------------------------------------------------------------
def _full_scan(table, row):
    """First index whose row equals ``row`` as a vertex set, or ``None``."""
    hits = np.flatnonzero(
        (np.sort(table, axis=1) == np.sort(np.asarray(row, dtype=np.int64))).all(
            axis=1
        )
    )
    return int(hits[0]) if hits.size else None


class TestPointLookups:
    def test_sorted_rows_matches_full_scan(self):
        rng = np.random.default_rng(4)
        table = rng.integers(0, 12, (300, 3), dtype=np.int64)
        ordered = np.sort(table, axis=1)
        # an already ordered table, duplicate rows included, takes no sort
        ordered = ordered[np.lexsort(ordered.T[::-1])]
        for table in (table, ordered):
            rows = SortedRows(table)
            for row in list(table[:50]) + list(rng.integers(0, 12, (200, 3))):
                assert rows.find(row.tolist()) == _full_scan(table, row)
            assert rows.find([1, 2]) is None
        assert SortedRows(np.empty((0, 2), dtype=np.int64)).find([0, 1]) is None

    def test_lead_runs_match_binary_search(self):
        rng = np.random.default_rng(8)
        table = rng.integers(0, 12, (300, 3), dtype=np.int64)
        ids = np.arange(16, dtype=np.int64)  # 12..15 lead no row
        for table in (table, table[:, :1], np.empty((0, 2), dtype=np.int64)):
            rows = SortedRows(table)
            first, last = rows.lead_runs(ids)
            lead = rows.columns[0]
            assert np.array_equal(first, np.searchsorted(lead, ids, "left"))
            assert np.array_equal(last, np.searchsorted(lead, ids, "right"))

    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_find_index_on_array_space(self, rs):
        graph = CSRGraph.from_graph(GRAPHS["dense"])
        space = CSRSpace.from_graph(graph, *rs)
        expected = {clique: i for i, clique in enumerate(space.cliques)}
        for clique, i in expected.items():
            assert space.find_index(tuple(reversed(clique))) == i
        for absent in [(-1,) * rs[0], tuple(range(1000, 1000 + rs[0])), ("x",) * rs[0]]:
            assert space.find_index(absent) is None
        assert space.find_index((0,) * (rs[0] + 1)) is None

    @pytest.mark.parametrize("source", ["arrays", "permuted"])
    def test_bundle_kappa_of_matches_full_scan(self, tmp_path, source):
        space = CSRSpace.from_graph(CSRGraph.from_graph(GRAPHS["dense"]), 2, 3)
        if source == "permuted":
            # the clique table is not lex-sorted and has its own labels
            space = permuted_space(space, 4, own_labels=True)
        result = nucleus_decomposition(space, 2, 3)
        bundle = open_bundle(
            save_bundle(tmp_path / source, space=space, result=result)
        )
        table = np.asarray(bundle.load_array("space.clique_ids"))
        kappa = dict(zip(space.cliques, result.kappa))
        for i, clique in enumerate(space.cliques):
            assert bundle.clique_index_of(clique[::-1]) == i
            assert bundle.kappa_of(clique) == kappa[clique]
            assert bundle.space.find_index(clique) == i
        labels = list(bundle.space.cliques.labels)
        ids = {label: i for i, label in enumerate(labels)}
        rng = random.Random(2)
        vertices = sorted(ids)
        for _ in range(200):
            u, v = rng.sample(vertices, 2)
            want = _full_scan(table, [ids[u], ids[v]])
            assert bundle.clique_index_of((u, v)) == want
        assert bundle.clique_index_of(("absent", 0)) is None
        with pytest.raises(KeyError):
            bundle.kappa_of(("absent", 0))
        with pytest.raises(ValueError):
            bundle.clique_index_of(tuple(vertices[:3]))
