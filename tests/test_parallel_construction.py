"""Parallel space construction: byte-identity, pool binding reuse, chaos.

The contract of ``CSRSpace.from_graph(parallel="process")`` is stronger than
κ parity: the constructed buffers must be **byte-identical** to the serial
build — same clique order, same context order, same neighbour lists — so
that bundles, hierarchies and benchmarks are oblivious to how the space was
enumerated.  The cases here assert that identity over graph shapes chosen to
stress the partitioner (empty ranges, one dominant vertex, dense uniform
work, non-integer labels), across worker counts and start methods, plus the
supervised recovery path when enumeration jobs crash or stall mid-flight.
"""

import random

import numpy as np
import pytest

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
from repro.resilience import faults
from repro.resilience.supervisor import ResiliencePolicy, SupervisedPool


def space_bytes(space: CSRSpace):
    """Everything that must match for two spaces to be interchangeable."""
    return (
        space.stride,
        space.ctx_offsets.tobytes(),
        space.ctx_members.tobytes(),
        space.nbr_offsets.tobytes(),
        space.nbr_members.tobytes(),
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
            par = CSRSpace.from_graph(
                graph, r, s, parallel="process", workers=workers
            )
            assert space_bytes(par) == space_bytes(serial), (name, r, s)

    def test_spawn_start_method(self):
        """Same identity when the pool forks via spawn (pickled specs)."""
        graph = CSRGraph.from_graph(ring_of_cliques(4, 5))
        serial = CSRSpace.from_graph(graph, 2, 3)
        with PersistentPool(2, start_method="spawn") as pool:
            par = CSRSpace.from_graph(graph, 2, 3, pool=pool)
        assert space_bytes(par) == space_bytes(serial)

    def test_run_enumerate_matches_clique_batches(self):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 3, 0.5, seed=4))
        with PersistentPool(3) as pool:
            for k in (2, 3, 4):
                serial = np.concatenate(
                    list(graph.clique_batches(k))
                    or [np.empty((0, k), dtype=np.int64)]
                )
                table = pool.run_enumerate(graph, k)
                assert table.tobytes() == serial.tobytes(), k

    def test_validation(self):
        graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
        with pytest.raises(ValueError, match="parallel"):
            CSRSpace.from_graph(graph, 2, 3, parallel="thread")
        with pytest.raises(ValueError, match="workers"):
            CSRSpace.from_graph(graph, 2, 3, workers=2)
        with pytest.raises(ValueError, match="CSRGraph"):
            CSRSpace.from_graph(ring_of_cliques(3, 4), 2, 3, parallel="process")


class TestSharedBinding:
    def test_one_fork_serves_enumeration_and_sweep(self):
        """Construction and the subsequent sweep reuse one worker batch."""
        graph = CSRGraph.from_graph(ring_of_cliques(6, 5))
        serial = and_decomposition_csr(CSRSpace.from_graph(graph, 3, 4))
        with PersistentPool(3) as pool:
            space = CSRSpace.from_graph(graph, 3, 4, pool=pool)
            forks_after_build = pool.forks
            result = pool.run_and(space)
            assert pool.forks == forks_after_build, "sweep re-forked the pool"
            assert pool.enumerations == 2  # k=3 and k=4 enumeration passes
        assert result.kappa == serial.kappa

    def test_second_space_on_a_graph_bound_pool(self):
        """A pool whose graph binding already carries a late-bound space
        still enumerates over vertex ranges when the graph is rebuilt."""
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(200, 5, 0.5, seed=3))
        serial = CSRSpace.from_graph(graph, 2, 3)
        exact = peeling_decomposition(serial).kappa
        with PersistentPool(2) as pool:
            first = CSRSpace.from_graph(graph, 2, 3, pool=pool)
            assert pool.run_and(first).kappa == exact
            second = CSRSpace.from_graph(graph, 2, 3, pool=pool)
            assert space_bytes(second) == space_bytes(serial)
            assert pool.run_and(second).kappa == exact

    def test_process_decomposition_from_graph_source(self):
        """The one-shot wrappers route CSRGraph sources through the pool."""
        from repro.parallel.procpool import (
            process_and_decomposition,
            process_snd_decomposition,
        )

        from repro.core.csr import snd_decomposition_csr

        graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 3, 0.4, seed=8))
        space = CSRSpace.from_graph(graph, 2, 3)
        serial = and_decomposition_csr(space)
        result = process_and_decomposition(graph, 2, 3, workers=2)
        assert result.kappa == serial.kappa
        snd_serial = snd_decomposition_csr(space)
        snd = process_snd_decomposition(graph, 2, 3, workers=2)
        assert snd.kappa == snd_serial.kappa
        assert snd.iterations == snd_serial.iterations


CHAOS_POLICY = ResiliencePolicy(
    max_retries=3,
    backoff_base=0.01,
    backoff_cap=0.05,
    job_timeout=2.0,
)


class TestEnumerationChaos:
    @pytest.fixture(autouse=True)
    def _isolated_plan(self, monkeypatch):
        monkeypatch.delenv(faults.PLAN_ENV, raising=False)
        faults._reset_env_cache()
        yield
        faults._reset_env_cache()

    @pytest.mark.parametrize("phase", [0, 1], ids=["count", "fill"])
    def test_enum_crash_recovers_byte_identical(self, phase):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(70, 3, 0.4, seed=13))
        serial = CSRSpace.from_graph(graph, 2, 3)
        plan = {"faults": [{
            "kind": "enum-crash", "worker": 0, "phase": phase,
            "mode": "hard-exit",
        }]}
        with faults.fault_plan(plan) as injector:
            with SupervisedPool(workers=2, policy=CHAOS_POLICY) as pool:
                space = pool.build_space(graph, 2, 3)
                events = pool.events
        assert injector.fired.get("enum-crash") == 1
        assert events.retries > 0 or events.fallbacks > 0
        assert space_bytes(space) == space_bytes(serial)

    def test_enum_stall_resolves_via_deadline(self):
        graph = CSRGraph.from_graph(ring_of_cliques(4, 5))
        serial = CSRSpace.from_graph(graph, 2, 3)
        plan = {"faults": [{
            "kind": "enum-stall", "worker": 1, "phase": 0, "seconds": 30.0,
        }]}
        with faults.fault_plan(plan) as injector:
            with SupervisedPool(workers=2, policy=CHAOS_POLICY) as pool:
                space = pool.build_space(graph, 2, 3)
        assert injector.fired.get("enum-stall") == 1
        assert space_bytes(space) == space_bytes(serial)

    def test_unlimited_crashes_fall_back_to_serial(self):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 3, 0.4, seed=2))
        serial = CSRSpace.from_graph(graph, 2, 3)
        plan = {"faults": [
            {"kind": "enum-crash", "worker": w, "phase": 0,
             "mode": "hard-exit", "times": -1}
            for w in range(2)
        ]}
        with faults.fault_plan(plan):
            with SupervisedPool(workers=2, policy=CHAOS_POLICY) as pool:
                space = pool.build_space(graph, 2, 3)
                assert pool.events.fallbacks > 0
        assert space_bytes(space) == space_bytes(serial)

    def test_enum_faults_do_not_fire_on_sweep_jobs(self):
        """Fault family selection: an enum-crash spec must survive a sweep
        dispatch untouched and fire on the next enumeration."""
        graph = CSRGraph.from_graph(ring_of_cliques(4, 4))
        space_serial = CSRSpace.from_graph(graph, 2, 3)
        plan = {"faults": [{
            "kind": "enum-crash", "worker": 0, "phase": 0, "mode": "raise",
        }]}
        with faults.fault_plan(plan) as injector:
            with PersistentPool(2) as pool:
                pool.run_and(space_serial)  # sweep job: must not consume it
                assert not injector.fired
            with SupervisedPool(workers=2, policy=CHAOS_POLICY) as sup:
                space = sup.build_space(graph, 2, 3)
        assert injector.fired.get("enum-crash") == 1
        assert space_bytes(space) == space_bytes(space_serial)


class TestProcessAnd:
    """The process-pool AND: κ parity with serial, across worker counts and
    notification, for dict-graph sources."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("notification", [True, False])
    def test_kappa_parity(self, workers, notification):
        graph = powerlaw_cluster_graph(80, 3, 0.4, seed=5)
        serial = nucleus_decomposition(graph, 2, 3, algorithm="and")
        result = process_and_decomposition(
            graph, 2, 3, workers=workers, notification=notification
        )
        assert result.kappa == serial.kappa
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
        with pytest.raises(ValueError, match="dict"):
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
