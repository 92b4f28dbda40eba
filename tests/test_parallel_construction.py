"""Pool-bound space construction: byte-identity, one fork batch, κ parity.

``CSRSpace.from_graph(..., pool=pool)`` builds the space serially and binds
it on the pool at once.  The buffers must be **byte-identical** to a plain
build — same clique order, same context order, same neighbour lists — and
the sweeps that follow must run on the binding's single fork batch.  The
cases cover graph shapes that stress the chunk partitioner (empty ranges,
one dominant vertex, dense uniform work, non-integer labels), worker counts
and start methods.
"""

import random

import numpy as np
import pytest
from and_reference import neighbour_rows

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.decomposition import nucleus_decomposition
from repro.core.peeling import peeling_decomposition
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import (
    complete_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph
from repro.parallel.procpool import PersistentPool, process_and_decomposition


def space_bytes(space: CSRSpace):
    """Everything that must match for two spaces to be interchangeable."""
    neighbours = [space.neighbors(i) for i in range(len(space))]
    assert neighbours == neighbour_rows(space)
    return (
        space.stride,
        space.ctx_offsets.tobytes(),
        space.ctx_members.tobytes(),
        neighbours,
        np.asarray(space.cliques.ids).tobytes(),
    )


def star_graph(n: int) -> Graph:
    g = Graph()
    g.add_edges_from((0, i) for i in range(1, n))
    return g


def labelled_graph() -> Graph:
    g = Graph()
    g.add_edges_from([
        ("a", "b"), ("b", "c"), ("a", "c"),
        ("c", 7), ("a", 7), ("b", 7), (7, "z"), ("z", "a"),
    ])
    return g


GRAPHS = {
    "random": lambda: powerlaw_cluster_graph(70, 3, 0.4, seed=11),
    "empty": Graph,
    "star": lambda: star_graph(12),
    "clique": lambda: complete_graph(7),
    "mixed-label": labelled_graph,
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_space_matches_serial(self, name, workers):
        graph = CSRGraph.from_graph(GRAPHS[name]())
        for r, s in [(1, 2), (2, 3), (3, 4)]:
            serial = CSRSpace.from_graph(graph, r, s)
            with PersistentPool(workers) as pool:
                bound = CSRSpace.from_graph(graph, r, s, pool=pool)
                if len(bound):
                    assert pool.run_and(bound).kappa == (
                        peeling_decomposition(serial).kappa
                    ), (name, r, s)
            assert space_bytes(bound) == space_bytes(serial), (name, r, s)

    def test_spawn_start_method(self):
        """Same identity when the pool forks via spawn (pickled specs)."""
        graph = CSRGraph.from_graph(ring_of_cliques(4, 5))
        serial = CSRSpace.from_graph(graph, 2, 3)
        with PersistentPool(2, start_method="spawn") as pool:
            par = CSRSpace.from_graph(graph, 2, 3, pool=pool)
        assert space_bytes(par) == space_bytes(serial)

    def test_validation(self):
        """Construction has no parallel mode: the pool only binds a space."""
        graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
        with pytest.raises(TypeError, match="parallel"):
            CSRSpace.from_graph(graph, 2, 3, parallel="process")
        with pytest.raises(TypeError, match="workers"):
            CSRSpace.from_graph(graph, 2, 3, workers=2)
        with pytest.raises(ValueError, match="r < s"):
            CSRSpace.from_graph(graph, 3, 3, pool=object())


class TestSharedBinding:
    def test_one_fork_serves_enumeration_and_sweep(self):
        """Construction binds the pool; the sweeps reuse its worker batch."""
        graph = CSRGraph.from_graph(ring_of_cliques(6, 5))
        serial = and_decomposition_csr(CSRSpace.from_graph(graph, 3, 4))
        with PersistentPool(3) as pool:
            space = CSRSpace.from_graph(graph, 3, 4, pool=pool)
            assert pool.forks == 3, "construction did not bind the pool"
            result = pool.run_and(space)
            again = pool.run_and(space, max_iterations=1)
            assert pool.forks == 3, "a sweep re-forked the pool"
        assert result.kappa == serial.kappa
        assert again.iterations == 1

    def test_second_space_on_a_graph_bound_pool(self):
        """Building a second space on a bound pool rebinds it to that space
        with one more fork batch, and both sweeps match exact peeling."""
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(200, 5, 0.5, seed=3))
        serial = CSRSpace.from_graph(graph, 2, 3)
        exact = peeling_decomposition(serial).kappa
        with PersistentPool(2) as pool:
            first = CSRSpace.from_graph(graph, 2, 3, pool=pool)
            assert pool.run_and(first).kappa == exact
            second = CSRSpace.from_graph(graph, 2, 3, pool=pool)
            assert space_bytes(second) == space_bytes(serial)
            assert pool.run_and(second).kappa == exact
            assert pool.forks == 4

    def test_dataset_space_and_process_route_from_a_csr_graph(self):
        """``load_dataset(space=)`` and ``parallel="process"`` take a
        CSRGraph: the space is built serially, κ matches exact peeling."""
        from repro.datasets.registry import load_dataset

        graph, space = load_dataset("toy", "csr", space=(3, 4))
        assert space_bytes(space) == space_bytes(CSRSpace.from_graph(graph, 3, 4))
        exact = peeling_decomposition(space).kappa
        result = nucleus_decomposition(
            graph, 3, 4, algorithm="and", parallel="process", workers=2
        )
        assert result.kappa == exact

    def test_process_decomposition_from_graph_source(self):
        """The one-shot wrapper accepts CSRGraph sources."""
        from repro.parallel.procpool import process_and_decomposition

        graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 3, 0.4, seed=8))
        space = CSRSpace.from_graph(graph, 2, 3)
        exact = peeling_decomposition(space).kappa
        result = process_and_decomposition(graph, 2, 3, workers=2)
        assert result.kappa == and_decomposition_csr(space).kappa == exact


class TestProcessAnd:
    """The process-pool AND: κ parity with serial, across worker counts,
    for dict-graph and array-native graph sources."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("array_source", [True, False])
    def test_kappa_parity(self, workers, array_source):
        graph = powerlaw_cluster_graph(80, 3, 0.4, seed=5)
        serial = nucleus_decomposition(graph, 2, 3, algorithm="and")
        source = CSRGraph.from_graph(graph) if array_source else graph
        result = process_and_decomposition(source, 2, 3, workers=workers)
        # an array-native source indexes its cliques in sorted-id order
        assert result.as_dict() == serial.as_dict()
        assert result.converged
        assert result.algorithm == "and-process"

    def test_dispatch_through_nucleus_decomposition(self):
        graph = ring_of_cliques(5, 4)
        serial = nucleus_decomposition(graph, 2, 3, algorithm="and")
        result = nucleus_decomposition(
            graph, 2, 3, algorithm="and", parallel="process", workers=3
        )
        assert result.kappa == serial.kappa
        assert result.operations["backend"] == "csr"

    def test_dict_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            nucleus_decomposition(
                ring_of_cliques(3, 4), 2, 3, algorithm="and",
                parallel="process", backend="dict",
            )

    def test_empty_space(self):
        result = process_and_decomposition(star_graph(8), 3, 4)
        assert result.kappa == [] and result.converged


class TestCliqueCountLimit:
    """``count_k_cliques(limit=)`` stops inside a batch, not after it."""

    def test_limit_is_exact_lower_bound(self):
        graph = CSRGraph.from_graph(complete_graph(12))
        total = graph.count_k_cliques(3)
        assert total == 220
        for limit in (1, 7, 219, 220, 500):
            got = graph.count_k_cliques(3, limit=limit)
            assert got == min(limit, total), limit

    def test_limit_random_graph(self):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(90, 4, 0.5, seed=6))
        total = graph.count_k_cliques(4)
        rng = random.Random(0)
        for _ in range(5):
            limit = rng.randint(1, total + 10)
            assert graph.count_k_cliques(4, limit=limit) == min(limit, total)
