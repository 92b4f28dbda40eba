"""Query estimates on an opened bundle: the sliced route equals the graph route.

A bundle that stores the requested (r, s) space answers
``estimate_local_indices`` by restricting the stored incidence to the
h-hop ball (:meth:`CSRSpace.restrict`) instead of enumerating the ball's
cliques again.  These tests pin that route to the
:class:`~repro.graph.csr_graph.CSRGraph` route: the whole
:class:`QueryEstimate` (values, ``ball_size``, ``subgraph_edges``,
``iterations``) must be identical, the restricted spaces must be the induced
subgraphs' spaces, and every estimate must stay at or below the exact κ.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from permuted_space import permuted_space

import repro.core.csr as csr_module
from repro.core.asynd import and_decomposition
from repro.core.csr import _AND_BLOCK, CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.query import estimate_local_indices
from repro.graph.csr_graph import CSRGraph, _runs
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    heterogeneous_cluster_graph,
    hierarchical_community_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
    union_of_graphs,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.store import StoreFormatError, open_bundle, save_bundle

INSTANCES = [(1, 2), (2, 3), (3, 4)]
HOPS = (0, 1, 2)

#: Every family of :mod:`repro.graph.generators`, small enough for (3, 4).
FAMILIES = {
    "complete": lambda seed: complete_graph(7),
    "erdos_renyi": lambda seed: erdos_renyi_graph(36, 0.2, seed=seed),
    "barabasi_albert": lambda seed: barabasi_albert_graph(45, 4, seed=seed),
    "watts_strogatz": lambda seed: watts_strogatz_graph(36, 6, 0.2, seed=seed),
    "powerlaw_cluster": lambda seed: powerlaw_cluster_graph(50, 4, 0.7, seed=seed),
    "heterogeneous_cluster": lambda seed: heterogeneous_cluster_graph(
        50, 2, 6, 0.6, seed=seed
    ),
    "planted_clique": lambda seed: planted_clique_graph(36, 8, 0.1, seed=seed),
    "ring_of_cliques": lambda seed: ring_of_cliques(5, 5),
    "hierarchical_community": lambda seed: hierarchical_community_graph(
        levels=2, branching=3, leaf_size=6, seed=seed
    ),
    "union": lambda seed: union_of_graphs(
        [complete_graph(5), ring_of_cliques(3, 4), erdos_renyi_graph(12, 0.3, seed=seed)]
    ),
}


def _with_strays(graph: Graph) -> Graph:
    """``graph`` plus a pendant and an isolated vertex (label tables differ)."""
    out = Graph(graph.edges())
    for v in graph.vertices():
        out.add_vertex(v)
    anchor = min(graph.vertices())
    out.add_edge(anchor, 10_000)
    out.add_vertex(10_001)
    return out


def _as_strings(graph: Graph) -> Graph:
    """The same graph with vertex ``v`` relabelled to ``"v<v>"``."""
    out = Graph((f"v{u}", f"v{v}") for u, v in graph.edges())
    for v in graph.vertices():
        out.add_vertex(f"v{v}")
    return out


def _save(tmp_path_factory, graph, space):
    path = tmp_path_factory.mktemp("bundle")
    return open_bundle(save_bundle(path / "b", graph=graph, space=space))


def _query_cliques(space, count: int, rng: random.Random):
    cliques = list(space.cliques)
    return rng.sample(cliques, min(count, len(cliques)))


def _assert_same(sliced, reference) -> None:
    assert dict(sliced) == dict(reference)
    assert sliced.ball_size == reference.ball_size
    assert sliced.subgraph_edges == reference.subgraph_edges
    assert sliced.iterations == reference.iterations


def _assert_parity(bundle, graph, queries, r, s) -> None:
    """Every query alone, all of them together, each hop radius and algorithm."""
    batches = [[q] for q in queries] + [queries]
    for hops in HOPS:
        for algorithm in ("and", "snd"):
            for batch in batches:
                sliced = estimate_local_indices(
                    bundle, batch, r, s, hops=hops, algorithm=algorithm
                )
                reference = estimate_local_indices(
                    graph, batch, r, s, hops=hops, algorithm=algorithm
                )
                _assert_same(sliced, reference)


# ----------------------------------------------------------------------
# parity with the CSRGraph route
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("r,s", INSTANCES)
def test_bundle_route_matches_graph_route(tmp_path_factory, family, r, s):
    graph = CSRGraph.from_graph(FAMILIES[family](1))
    bundle = _save(tmp_path_factory, graph, CSRSpace.from_graph(graph, r, s))
    queries = _query_cliques(bundle.space, 4, random.Random(family))
    _assert_parity(bundle, graph, queries, r, s)


@pytest.mark.parametrize("r,s", INSTANCES)
def test_string_labels(tmp_path_factory, r, s):
    source = _as_strings(_with_strays(powerlaw_cluster_graph(40, 4, 0.6, seed=3)))
    graph = CSRGraph.from_graph(source)
    bundle = _save(tmp_path_factory, graph, CSRSpace.from_graph(graph, r, s))
    queries = _query_cliques(bundle.space, 4, random.Random(r))
    _assert_parity(bundle, graph, queries, r, s)


@pytest.mark.parametrize("r,s", INSTANCES)
def test_dict_built_space_bundle(tmp_path_factory, r, s):
    """A bundle as earlier versions saved a NucleusSpace: the clique table
    is not lex-ordered, and (for r > 1) the space's label table differs
    from the graph's."""
    source = _with_strays(powerlaw_cluster_graph(45, 4, 0.7, seed=5))
    space = permuted_space(CSRSpace.from_graph(source, r, s), r, own_labels=True)
    bundle = _save(tmp_path_factory, source, space)
    perm = bundle.space.cliques.sorted_rows().perm
    assert not np.array_equal(perm, np.arange(len(perm)))
    if r > 1:
        assert len(bundle.space.cliques.labels) < len(bundle.graph.labels)
    queries = _query_cliques(bundle.space, 4, random.Random(r + 10))
    _assert_parity(bundle, CSRGraph.from_graph(source), queries, r, s)


def test_sliced_route_enumerates_nothing(tmp_path_factory, monkeypatch):
    graph = CSRGraph.from_graph(ring_of_cliques(4, 5))
    bundle = _save(tmp_path_factory, graph, CSRSpace.from_graph(graph, 2, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("the sliced route built a subgraph or a space")

    monkeypatch.setattr(CSRSpace, "from_graph", classmethod(refuse))
    monkeypatch.setattr(CSRGraph, "subgraph", refuse)
    estimate = estimate_local_indices(bundle, [(0, 1)], 2, 3, hops=1)
    assert estimate[(0, 1)] == 3


# ----------------------------------------------------------------------
# the restriction itself
# ----------------------------------------------------------------------
def _contexts_by_label(space):
    """Per clique, its sorted contexts as sorted partner-clique tuples."""
    cliques = list(space.cliques)
    return {
        cliques[i]: sorted(
            tuple(sorted(cliques[j] for j in ctx)) for ctx in space.contexts(i)
        )
        for i in range(len(space))
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("r,s", INSTANCES)
def test_restrict_is_the_induced_subgraph_space(family, r, s):
    graph = CSRGraph.from_graph(FAMILIES[family](2))
    space = CSRSpace.from_graph(graph, r, s)
    rng = np.random.default_rng(len(family))
    n = graph.number_of_vertices()
    subsets = [
        np.arange(n, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        rng.choice(n, size=n // 2, replace=False),
        graph.bfs_ball_ids([int(rng.integers(n))], 1),
    ]
    for ids in subsets:
        sub = space.restrict(ids)
        sub.validate()
        induced = CSRSpace.from_graph(graph.subgraph_ids(ids), r, s)
        assert list(sub.cliques) == list(induced.cliques)
        assert _contexts_by_label(sub) == _contexts_by_label(induced)
        for i in range(len(sub)):
            assert sub.neighbors(i) == induced.neighbors(i)


def _restrict_by_rows(space, vertex_ids):
    """``(ctx_offsets, ctx_members, clique ids)`` of ``space.restrict``,
    computed on the ``(contexts, stride)`` row table: the reference for the
    flat-slot restriction, which must give the same buffers."""
    stride = space.stride
    rows = space.cliques.sorted_rows()
    keep = np.unique(np.asarray(vertex_ids, dtype=np.int64))
    in_set = np.zeros(len(space.cliques.labels), dtype=bool)
    in_set[keep] = True
    candidates = np.flatnonzero(in_set[rows.columns[0]])
    for column in rows.columns[1:]:
        candidates = candidates[in_set[column[candidates]]]
    kept = np.sort(rows.perm[candidates])
    n = len(kept)
    ctx_off = np.asarray(space.ctx_offsets)
    counts = ctx_off[kept + 1] - ctx_off[kept]
    partners = np.asarray(space.ctx_members).reshape(-1, stride)[
        _runs(ctx_off[kept], counts)
    ]
    local_of = np.full(len(space), -1, dtype=np.int64)
    local_of[kept] = np.arange(n, dtype=np.int64)
    local = local_of[partners]
    whole = (local >= 0).all(axis=1)
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)[whole]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=n))))
    ids = np.asarray(space.cliques.ids)[kept]
    return offsets, local[whole].reshape(-1), ids


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("r,s", INSTANCES + [(1, 3), (2, 4)])
def test_flat_slot_restrict_matches_the_row_table(family, r, s):
    # at s = r + 1 a context's partners share their one vertex outside the
    # owner, so they survive together; (1, 3) and (2, 4) need every column
    source = FAMILIES[family](3)
    graph = CSRGraph.from_graph(source)
    rng = np.random.default_rng(len(family) + r)
    n = graph.number_of_vertices()
    subsets = [
        np.arange(n, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        rng.choice(n, size=n // 2, replace=False),
        graph.bfs_ball_ids([int(rng.integers(n))], 1),
        graph.bfs_ball_ids([int(rng.integers(n))], 2),
    ]
    # a graph-built space and one whose clique table is permuted
    built = CSRSpace.from_graph(graph, r, s)
    for space in (built, permuted_space(built, r + s)):
        for vertex_ids in subsets:
            sub = space.restrict(vertex_ids)
            offsets, members, clique_ids = _restrict_by_rows(space, vertex_ids)
            assert np.array_equal(sub.ctx_offsets, offsets)
            assert np.array_equal(sub.ctx_members, members)
            assert np.array_equal(np.asarray(sub.cliques.ids), clique_ids)


@pytest.mark.parametrize("r,s", INSTANCES)
def test_restrict_to_every_vertex_keeps_the_space(tmp_path_factory, r, s):
    graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 4, 0.7, seed=9))
    space = CSRSpace.from_graph(graph, r, s)
    for source in (space, _save(tmp_path_factory, graph, space).space):
        whole = source.restrict(np.arange(graph.number_of_vertices(), dtype=np.int64))
        whole.validate()
        for name in ("ctx_offsets", "ctx_members"):
            assert np.array_equal(getattr(whole, name), getattr(space, name))
        for i in range(len(space)):
            assert whole.neighbors(i) == space.neighbors(i)
        assert and_decomposition(whole).kappa == and_decomposition(space).kappa


def test_dict_graph_space_restricts_like_its_csr_graph():
    """A dict Graph builds its space through its CSRGraph, so every
    graph-built space can be sliced."""
    graph = ring_of_cliques(3, 4)
    csr_graph = CSRGraph.from_graph(graph)
    ball = csr_graph.bfs_ball_ids([0], 1)
    sub = CSRSpace.from_graph(graph, 2, 3).restrict(ball)
    expected = CSRSpace.from_graph(csr_graph, 2, 3).restrict(ball)
    assert list(sub.cliques) == list(expected.cliques)
    assert np.array_equal(sub.ctx_members, expected.ctx_members)


def test_restricted_view_finds_through_its_base():
    graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
    space = CSRSpace.from_graph(graph, 2, 3)
    sub = space.restrict(graph.bfs_ball_ids([0], 1))
    for i, clique in enumerate(sub.cliques):
        assert sub.find_index(clique) == i
    outside = next(c for c in space.cliques if c not in list(sub.cliques))
    assert sub.find_index(outside) is None
    assert sub.find_index((0, 99)) is None


# ----------------------------------------------------------------------
# the bundle route's kernel and its lazy edge count
# ----------------------------------------------------------------------
def test_large_ball_runs_the_counted_kernel(tmp_path_factory, monkeypatch):
    """A 2-hop ball around a hub holds more than ``_AND_BLOCK`` edges, so
    the query's AND takes the counted kernel, not the one-block one."""
    graph = CSRGraph.from_graph(powerlaw_cluster_graph(3000, 4, 0.7, seed=1))
    space = CSRSpace.from_graph(graph, 2, 3)
    bundle = _save(tmp_path_factory, graph, space)
    truth = dict(zip(space.cliques, peeling_decomposition(space).kappa))
    hub = int(graph.degree_array().argmax())
    queries = [(hub, int(graph.neighbor_ids(hub)[0]))]
    queries += _query_cliques(space, 2, random.Random(3))
    sizes = []
    count = csr_module._and_count

    def spy(ctx_off, *args):
        sizes.append(len(ctx_off) - 1)
        return count(ctx_off, *args)

    monkeypatch.setattr(csr_module, "_and_count", spy)
    for query in queries:
        reference = estimate_local_indices(graph, [query], 2, 3, hops=2)
        del sizes[:]
        sliced = estimate_local_indices(bundle, [query], 2, 3, hops=2)
        _assert_same(sliced, reference)
        for clique, value in sliced.items():
            assert 0 <= value <= truth[clique]
        if query == queries[0]:
            assert sizes and sizes[0] > _AND_BLOCK


def test_bundle_route_counts_ball_edges_when_read(truss_bundle, monkeypatch):
    _, graph, bundle = truss_bundle
    query = [next(iter(graph.edges()))]
    reference = estimate_local_indices(graph, query, 2, 3, hops=1)
    calls = []
    edges_within = CSRGraph.edges_within

    def spy(self, ids):
        calls.append(len(ids))
        return edges_within(self, ids)

    monkeypatch.setattr(CSRGraph, "edges_within", spy)
    sliced = estimate_local_indices(bundle, query, 2, 3, hops=1)
    assert calls == []
    assert sliced.subgraph_edges == reference.subgraph_edges
    assert sliced.subgraph_edges == reference.subgraph_edges
    assert calls == [sliced.ball_size]


# ----------------------------------------------------------------------
# lower bound: a ball is an induced subgraph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_estimates_never_exceed_exact_kappa(tmp_path_factory, family, seed):
    graph = CSRGraph.from_graph(FAMILIES[family](seed))
    rng = random.Random(seed)
    for r, s in INSTANCES:
        space = CSRSpace.from_graph(graph, r, s)
        exact = peeling_decomposition(space)
        truth = dict(zip(space.cliques, exact.kappa))
        bundle = _save(tmp_path_factory, graph, space)
        queries = _query_cliques(space, 5, rng)
        for hops in (0, 1, 2, 3):
            for source in (bundle, graph):
                estimate = estimate_local_indices(source, queries, r, s, hops=hops)
                for clique, value in estimate.items():
                    assert 0 <= value <= truth[clique]


# ----------------------------------------------------------------------
# routing: everything that is not a matching bundle keeps its route
# ----------------------------------------------------------------------
@pytest.fixture
def truss_bundle(tmp_path_factory):
    source = powerlaw_cluster_graph(40, 4, 0.7, seed=4)
    graph = CSRGraph.from_graph(source)
    return source, graph, _save(tmp_path_factory, graph, CSRSpace.from_graph(graph, 2, 3))


def test_other_instance_falls_back_to_the_stored_graph(truss_bundle, monkeypatch):
    _, graph, bundle = truss_bundle
    monkeypatch.setattr(CSRSpace, "restrict", None)
    for hops in HOPS:
        _assert_same(
            estimate_local_indices(bundle, [(0,), (3,)], 1, 2, hops=hops),
            estimate_local_indices(graph, [(0,), (3,)], 1, 2, hops=hops),
        )


def test_space_only_bundle_raises_store_format_error(tmp_path):
    graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
    bundle = open_bundle(
        save_bundle(tmp_path / "b", space=CSRSpace.from_graph(graph, 2, 3))
    )
    with pytest.raises(StoreFormatError):
        estimate_local_indices(bundle, [(0, 1)], 2, 3, hops=1)


def test_dict_backend_on_a_bundle_takes_the_dict_route(
    truss_bundle, dict_local_indices
):
    # the dict oracle decomposes NucleusSpace(graph.subgraph(ball), r, s):
    # on the bundle's stored graph it walks the source graph's schedule, and
    # its estimates are the sliced route's
    source, _, bundle = truss_bundle
    queries = [next(iter(source.edges()))]
    for hops in HOPS:
        oracle = dict_local_indices(bundle.graph, queries, 2, 3, hops=hops)
        _assert_same(oracle, dict_local_indices(source, queries, 2, 3, hops=hops))
        sliced = estimate_local_indices(bundle, queries, 2, 3, hops=hops)
        assert dict(sliced) == dict(oracle)
        assert sliced.ball_size == oracle.ball_size
        assert sliced.subgraph_edges == oracle.subgraph_edges


@pytest.mark.parametrize(
    "queries",
    [[(0, 99)], [(98, 99)], [(0, 1), (0, 99)]],
    ids=["unknown-vertex", "unknown-both", "second-query"],
)
def test_unknown_vertex_message_matches(truss_bundle, queries):
    _, graph, bundle = truss_bundle
    with pytest.raises(ValueError) as on_graph:
        estimate_local_indices(graph, queries, 2, 3, hops=1)
    with pytest.raises(ValueError) as on_bundle:
        estimate_local_indices(bundle, queries, 2, 3, hops=1)
    assert str(on_bundle.value) == str(on_graph.value)
    assert "is not in the graph" in str(on_bundle.value)


def test_non_clique_message_matches(truss_bundle):
    _, graph, bundle = truss_bundle
    n = graph.number_of_vertices()
    u, v = next(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    )
    for hops in HOPS:
        with pytest.raises(ValueError) as on_graph:
            estimate_local_indices(graph, [(u, v)], 2, 3, hops=hops)
        with pytest.raises(ValueError) as on_bundle:
            estimate_local_indices(bundle, [(u, v)], 2, 3, hops=hops)
        assert str(on_bundle.value) == str(on_graph.value)
        assert "is not a clique of the graph" in str(on_bundle.value)
