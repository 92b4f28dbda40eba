"""The position-carrying (2, 3) and (3, 4) builders against two references.

``CSRSpace.from_graph`` builds the (2, 3) and (3, 4) spaces of a
:class:`CSRGraph` from one triangle pass that carries forward positions, so
no sub-clique is searched for by its vertices.  Over a world of graphs
(every generator family sampled with a fixed seed, plus the degenerate
shapes) two references check it:

* a pure-Python one over ``forward_csr()`` (:func:`_reference_triangles`,
  :func:`_reference_edge_triangle`, :func:`_reference_triangle_quad`),
  which shares no search, sort or pair generator with the library, so the
  triangle positions and both builders' arrays must equal it byte for
  byte at every chunk size;
* the generic route — ``_incidence_arrays_generic`` over
  ``clique_batches``, assembled by ``_from_incidence_arrays`` — which
  still serves every other (r, s): the clique table and the two incidence
  buffers must match it, every clique's neighbours must equal the
  reference relation (:mod:`and_reference`), and κ must equal the dict
  backend's peeling.

``count_k_cliques`` and ``clique_batches`` are checked against
``networkx`` for k = 3..5.
"""

import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from and_reference import neighbour_rows

from repro.core.csr import (
    CSRSpace,
    _incidence_arrays_edge_triangle,
    _incidence_arrays_generic,
    _incidence_arrays_triangle_quad,
)
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph import generators as gen
from repro.graph.csr_graph import (
    DEFAULT_BATCH_SIZE,
    CliqueArrayView,
    CSRGraph,
    _key_budget,
    _sorted_hits,
)
from repro.graph.graph import Graph

INSTANCES = [(2, 3), (3, 4)]
BATCH_SIZES = [1, 3, DEFAULT_BATCH_SIZE]


def _world():
    """Name → dict graph: each generator family drawn from one seeded stream."""
    rng = random.Random(20181)

    def seed():
        return rng.randrange(1 << 30)

    world = {
        "erdos_renyi": gen.erdos_renyi_graph(
            rng.randint(40, 70), rng.uniform(0.1, 0.25), seed=seed()
        ),
        "barabasi_albert": gen.barabasi_albert_graph(
            rng.randint(50, 90), rng.randint(2, 5), seed=seed()
        ),
        "watts_strogatz": gen.watts_strogatz_graph(
            rng.randint(40, 70), 2 * rng.randint(2, 4), rng.uniform(0.05, 0.3),
            seed=seed(),
        ),
        "powerlaw_cluster": gen.powerlaw_cluster_graph(
            rng.randint(60, 100), rng.randint(3, 6), rng.uniform(0.5, 0.9),
            seed=seed(),
        ),
        "heterogeneous_cluster": gen.heterogeneous_cluster_graph(
            rng.randint(60, 90), 2, rng.randint(5, 8), rng.uniform(0.5, 0.9),
            seed=seed(),
        ),
        "planted_clique": gen.planted_clique_graph(
            rng.randint(40, 60), rng.randint(6, 9), rng.uniform(0.05, 0.15),
            seed=seed(),
        ),
        "ring_of_cliques": gen.ring_of_cliques(rng.randint(3, 6), rng.randint(4, 6)),
        "hierarchical_community": gen.hierarchical_community_graph(
            levels=2, branching=3, leaf_size=rng.randint(5, 8), seed=seed()
        ),
        "complete_k8": gen.complete_graph(8),
        "union": gen.union_of_graphs([
            gen.complete_graph(5),
            gen.erdos_renyi_graph(30, 0.2, seed=seed()),
        ]),
        "no_edges": Graph(vertices=range(6)),
        # a 6-cycle with the chord (0, 3): bipartite, so no triangle
        "triangle_free": Graph(edges=[
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3),
        ]),
        "isolated_vertices": Graph(
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3)],
            vertices=[10, 11, 12],
        ),
        "string_labels": Graph(edges=[
            ("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d"),
            ("b", "d"), ("d", "e"), ("e", "a"), ("e", "c"),
        ]),
    }
    return world


WORLD = _world()


def _buffers(space: CSRSpace):
    """The clique table and both incidence buffers as bytes, and the neighbours."""
    neighbours = [space.neighbors(i) for i in range(len(space))]
    assert neighbours == neighbour_rows(space)
    return (
        np.asarray(space.cliques.ids).tobytes(),
        space.ctx_offsets.tobytes(),
        space.ctx_members.tobytes(),
        neighbours,
    )


def _generic(graph: CSRGraph, r: int, s: int) -> CSRSpace:
    ids, groups = _incidence_arrays_generic(graph, r, s)
    return CSRSpace._from_incidence_arrays(
        r, s, CliqueArrayView(ids, graph.labels), groups, graph
    )


@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_builders_match_the_generic_route(name, r, s):
    graph = WORLD[name]
    csr_graph = CSRGraph.from_graph(graph)
    space = CSRSpace.from_graph(csr_graph, r, s)
    assert _buffers(space) == _buffers(_generic(csr_graph, r, s))
    exact = peeling_decomposition(NucleusSpace(graph, r, s)).as_dict()
    kappa = peeling_decomposition(space).kappa
    assert dict(zip(space.cliques, kappa)) == exact


@pytest.mark.parametrize("r, s", INSTANCES)
def test_many_chunks_give_the_same_bytes(r, s):
    """A tiny batch size splits every pair pass into many chunks."""
    csr_graph = CSRGraph.from_graph(WORLD["powerlaw_cluster"])
    assert len(list(csr_graph.triangle_positions(batch_size=3))) > 20
    chunked = CSRSpace._from_csr_graph(csr_graph, r, s, batch_size=3)
    assert _buffers(chunked) == _buffers(CSRSpace.from_graph(csr_graph, r, s))


def test_triangle_positions_name_the_edges():
    """``(p, q, r)`` are the forward positions of ``u→v``, ``u→w``, ``v→w``."""
    csr_graph = CSRGraph.from_graph(WORLD["planted_clique"])
    fptr, fidx = csr_graph.forward_csr()
    src = np.repeat(np.arange(len(fptr) - 1), np.diff(fptr))
    m = csr_graph.number_of_edges()
    batches = list(csr_graph.triangle_positions())
    p, q, r = (np.concatenate(c) for c in zip(*batches))
    assert (src[p] == src[q]).all() and (src[r] == fidx[p]).all()
    assert (fidx[r] == fidx[q]).all()
    keys = p * m + q
    assert (keys[1:] > keys[:-1]).all()
    rows = np.column_stack((src[p], fidx[p], fidx[q]))
    assert rows.tobytes() == np.concatenate(list(csr_graph.clique_batches(3))).tobytes()


def test_forward_edge_ids_index_the_edge_table():
    csr_graph = CSRGraph.from_graph(WORLD["erdos_renyi"])
    fptr, fidx = csr_graph.forward_csr()
    src = np.repeat(np.arange(len(fptr) - 1), np.diff(fptr))
    edges = csr_graph.edge_array()[csr_graph.forward_edge_ids()]
    assert (edges[:, 0] == np.minimum(src, fidx)).all()
    assert (edges[:, 1] == np.maximum(src, fidx)).all()


def test_quad_keys_guard_against_overflow(monkeypatch):
    """The ``p * m + q`` keys are checked before one is formed: a graph with
    too many edges raises OverflowError instead of wrapping a key."""
    csr_graph = CSRGraph.from_graph(gen.complete_graph(5))
    monkeypatch.setattr(CSRGraph, "number_of_edges", lambda self: 2**32)
    with pytest.raises(OverflowError, match="int64"):
        CSRSpace.from_graph(csr_graph, 3, 4)


# ----------------------------------------------------------------------
# the pure-Python reference: dicts and loops over the forward adjacency
# ----------------------------------------------------------------------
def _forward_rows(csr_graph: CSRGraph):
    """Each source's forward positions, and the position of every edge v → w."""
    fptr, fidx = (a.tolist() for a in csr_graph.forward_csr())
    rows = [range(fptr[u], fptr[u + 1]) for u in range(len(fptr) - 1)]
    where = {(u, fidx[p]): p for u, row in enumerate(rows) for p in row}
    return rows, fidx, where


def _reference_triangles(csr_graph: CSRGraph):
    """Every triangle as positions ``(p, q, r)``, in ``(p, q)`` order."""
    rows, fidx, where = _forward_rows(csr_graph)
    return [
        (p, q, where[(fidx[p], fidx[q])])
        for row in rows
        for p, q in combinations(row, 2)
        if (fidx[p], fidx[q]) in where
    ]


def _reference_edge_triangle(csr_graph: CSRGraph):
    """(2, 3): the sorted edge table, and each triangle's sorted edge rows."""
    rows, fidx, where = _forward_rows(csr_graph)
    edges = sorted(tuple(sorted(edge)) for edge in where)
    row_of = {edge: i for i, edge in enumerate(edges)}
    source = {p: u for u, row in enumerate(rows) for p in row}
    groups = [
        sorted(row_of[tuple(sorted((source[x], fidx[x])))] for x in triangle)
        for triangle in _reference_triangles(csr_graph)
    ]
    return _table(edges, 2), _table(groups, 3)


def _reference_triangle_quad(csr_graph: CSRGraph):
    """(3, 4): the sorted triangle table, and each 4-clique's triangle rows.

    A 4-clique ``u, v, w, x`` (ascending rank) comes once, from the
    source ``u``, in the order of the positions of ``u → v``, ``u → w``
    and ``u → x``.
    """
    rows, fidx, where = _forward_rows(csr_graph)
    triangles = sorted(
        tuple(sorted((u, fidx[p], fidx[q])))
        for u, row in enumerate(rows)
        for p, q in combinations(row, 2)
        if (fidx[p], fidx[q]) in where
    )
    index = {t: i for i, t in enumerate(triangles)}
    groups = []
    for u, row in enumerate(rows):
        for p, q, x in combinations(row, 3):
            v, w, y = fidx[p], fidx[q], fidx[x]
            if {(v, w), (v, y), (w, y)} <= where.keys():
                groups.append(sorted(
                    index[tuple(sorted(c))]
                    for c in combinations((u, v, w, y), 3)
                ))
    return _table(triangles, 3), _table(groups, 4)


def _table(rows, width):
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _positions(csr_graph: CSRGraph, batch_size: int):
    batches = list(csr_graph.triangle_positions(batch_size=batch_size))
    if not batches:
        return np.empty((0, 3), dtype=np.int64)
    return np.column_stack([np.concatenate(c) for c in zip(*batches)])


def _same_arrays(got, want):
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_triangle_positions_match_the_reference(name, batch_size):
    csr_graph = CSRGraph.from_graph(WORLD[name])
    want = _table(_reference_triangles(csr_graph), 3)
    assert _same_arrays([_positions(csr_graph, batch_size)], [want])


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_builders_match_the_reference(name, batch_size):
    csr_graph = CSRGraph.from_graph(WORLD[name])
    assert _same_arrays(
        _incidence_arrays_edge_triangle(csr_graph, batch_size),
        _reference_edge_triangle(csr_graph),
    )
    assert _same_arrays(
        _incidence_arrays_triangle_quad(csr_graph, batch_size),
        _reference_triangle_quad(csr_graph),
    )


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(WORLD))
def test_clique_enumeration_matches_networkx(name, k):
    graph = WORLD[name]
    csr_graph = CSRGraph.from_graph(graph)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges())
    want = sorted(
        tuple(sorted(csr_graph.id_of(v) for v in clique))
        for clique in nx.enumerate_all_cliques(nx_graph)
        if len(clique) == k
    )
    got = sorted(
        tuple(row)
        for batch in csr_graph.clique_batches(k)
        for row in np.sort(batch, axis=1).tolist()
    )
    assert got == want
    assert csr_graph.count_k_cliques(k) == len(want)


def test_packed_needles_guard_against_overflow(monkeypatch):
    """The pair test packs ``v * n + rank[w]`` with a needle index: a
    graph with too many vertices for a row's pairs raises OverflowError
    instead of wrapping a key."""
    csr_graph = CSRGraph.from_graph(gen.complete_graph(6))
    csr_graph.forward_csr()
    # n * n = 2**60 leaves room for 4 needles; K6's first row has 10 pairs
    monkeypatch.setattr(CSRGraph, "number_of_vertices", lambda self: 2**30)
    with pytest.raises(OverflowError, match="int64"):
        list(csr_graph.triangle_positions())


@pytest.mark.parametrize("span", [1, 3, 1000**2, 2**60, 2**62 + 1])
def test_key_budget_is_the_largest_fitting_count(span):
    """A chunk of ``_key_budget`` needles packs; one more would not fit."""
    budget = _key_budget(span, 2**62)
    assert budget & (budget - 1) == 0
    assert span * budget < 2**63 <= span * budget * 2
    table = np.arange(0, min(span, 10), dtype=np.int64)
    keys = np.full(min(budget, 64), span - 1, dtype=np.int64)
    sel, pos = _sorted_hits(table, keys, span)
    assert sel.tolist() == (list(range(len(keys))) if span <= 10 else [])
    if budget < 64:
        with pytest.raises(OverflowError, match="int64"):
            _sorted_hits(table, np.zeros(budget + 1, dtype=np.int64), span)
