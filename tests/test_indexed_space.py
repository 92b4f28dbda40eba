"""The position-carrying (2, 3) and (3, 4) builders against the generic route.

``CSRSpace.from_graph`` builds the (2, 3) and (3, 4) spaces of a
:class:`CSRGraph` from one triangle pass that carries forward positions, so
no sub-clique is searched for by its vertices.  The generic route —
``_incidence_arrays_generic`` over ``clique_batches``, assembled by
``_from_incidence_arrays`` — still serves every other (r, s) and is the
reference here: over a world of graphs (every generator family sampled with
a fixed seed, plus the degenerate shapes) the clique table and the two
incidence buffers must match it byte for byte, every clique's neighbours
must equal the reference relation (:mod:`and_reference`), and κ must equal
the dict backend's peeling.
"""

import random

import numpy as np
import pytest
from and_reference import neighbour_rows

from repro.core.csr import CSRSpace, _incidence_arrays_generic
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph import generators as gen
from repro.graph.csr_graph import CliqueArrayView, CSRGraph
from repro.graph.graph import Graph

INSTANCES = [(2, 3), (3, 4)]


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
