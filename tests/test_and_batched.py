"""Property tests for the frontier-batched AND kernel and the schedule rule.

The batched kernel (:func:`and_decomposition_csr`) runs a Jacobi-within-
pass / Gauss–Seidel-across-passes schedule, so its iteration counts and τ
trajectories legitimately differ from the per-visit loop — what must hold,
and what these tests enforce, is the *fixed point*: κ parity with the dict
kernel on a :class:`NucleusSpace` and the per-visit loop over a CSR space
(both with and without notification) on random and degenerate inputs,
under shuffled orders.  The
per-visit loop promises the opposite contract — the exact dict trajectory
on either space — which ``tests/test_csr.py`` asserts.
"""

import pytest

from repro.core.asynd import and_decomposition
from repro.core.csr import and_decomposition_csr, snd_decomposition_csr
from repro.core.decomposition import nucleus_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph


def star_graph(leaves: int) -> Graph:
    """Hub plus ``leaves`` spokes: edges but not a single triangle."""
    return Graph(edges=[(0, i) for i in range(1, leaves + 1)])


RANDOM_GRAPHS = [
    powerlaw_cluster_graph(90, 4, 0.6, seed=3),
    powerlaw_cluster_graph(60, 6, 0.9, seed=11),
    erdos_renyi_graph(70, 0.12, seed=29),
]
DEGENERATE_GRAPHS = [
    Graph(),                 # empty: no r-cliques at all
    star_graph(6),           # r-cliques exist, zero s-cliques -> kappa all 0
    complete_graph(5),       # one maximal clique, uniform kappa
]
INSTANCES = [(1, 2), (2, 3), (3, 4)]


def _kappa(space, **kwargs):
    result = and_decomposition_csr(space.to_csr(), **kwargs)
    assert result.converged or kwargs.get("max_iterations") is not None
    return result.kappa


class TestBatchedFixedPoint:
    @pytest.mark.parametrize("rs", INSTANCES)
    @pytest.mark.parametrize("graph", RANDOM_GRAPHS + DEGENERATE_GRAPHS)
    @pytest.mark.parametrize("notification", [True, False])
    def test_kappa_parity_dict_vs_engines(self, graph, rs, notification):
        space = NucleusSpace(graph, *rs)
        reference = and_decomposition(space, notification=notification)
        assert reference.converged
        # the batched kernel always notifies; only the per-visit loop
        # runs without it
        assert _kappa(space) == reference.kappa
        visited = and_decomposition(
            space.to_csr(), notification=notification, order="natural"
        )
        assert visited.kappa == reference.kappa

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_kappa_parity_under_random_orders(self, seed):
        graph = powerlaw_cluster_graph(80, 5, 0.7, seed=17)
        space = NucleusSpace(graph, 2, 3)
        reference = and_decomposition(space)
        # a shuffled order is a schedule request: the per-visit loop runs
        # on the CSR space and reaches the order-independent fixed point
        shuffled = and_decomposition(space.to_csr(), order="random", seed=seed)
        assert shuffled.kappa == reference.kappa
        assert shuffled.operations["engine"] == "python"
        assert shuffled.operations["backend"] == "csr"
        assert _kappa(space) == reference.kappa

    def test_batched_engine_records_metadata(self):
        space = NucleusSpace(powerlaw_cluster_graph(50, 4, 0.5, seed=9), 2, 3)
        result = and_decomposition_csr(space.to_csr())
        ops = result.operations
        assert ops["engine"] == "numpy"
        assert ops["backend"] == "csr"
        assert ops["rho_evaluations"] > 0
        assert ops["h_index_calls"] > 0
        assert len(result.iteration_stats) == result.iterations
        # per-batch counters: each pass processes its whole frontier
        assert all(s.processed >= s.updated for s in result.iteration_stats)


class TestEngineSeam:
    """AND picks its kernel from the call: a request that reads the
    schedule runs the per-visit loop, every other one the batched kernel;
    there is no ``engine=`` knob."""

    def test_unknown_engine_rejected(self):
        csr = NucleusSpace(complete_graph(4), 1, 2).to_csr()
        with pytest.raises(TypeError, match="engine"):
            and_decomposition_csr(csr, engine="fortran")
        with pytest.raises(TypeError, match="engine"):
            and_decomposition(csr, engine="numpy")

    def test_batched_engine_validates_order_names(self):
        csr = NucleusSpace(complete_graph(4), 1, 2).to_csr()
        # the batched kernel has no schedule to order...
        with pytest.raises(TypeError, match="order"):
            and_decomposition_csr(csr, order="natural")
        # ...and an order request runs the per-visit loop, which checks it
        with pytest.raises(ValueError, match="ordering"):
            and_decomposition(csr, order="sideways")

    def test_dict_backend_runs_pervisit(self):
        # a NucleusSpace is a schedule request: it always runs per-visit
        space = NucleusSpace(complete_graph(4), 1, 2)
        result = and_decomposition(space)
        assert result.operations["backend"] == "dict"
        assert result.operations["engine"] == "python"

    def test_plain_graph_request_runs_batched(self):
        # a plain request on a graph source resolves to the batched kernel
        result = and_decomposition(complete_graph(4), 1, 2)
        assert result.operations["backend"] == "csr"
        assert result.operations["engine"] == "numpy"

    def test_auto_routes_trajectory_requests_to_pervisit(self):
        space = NucleusSpace(powerlaw_cluster_graph(40, 4, 0.5, seed=1), 2, 3)
        csr = space.to_csr()
        plain = and_decomposition(csr)
        assert plain.operations["engine"] == "numpy"
        schedule_requests = [
            {"order": "natural"},
            {"notification": False},
            {"order": "random", "seed": 3},
            {"record_history": True},
            {"on_iteration": lambda it, tau: None},
            {"reference_kappa": plain.kappa},
            {"max_iterations": 50},
        ]
        for request in schedule_requests:
            traced = and_decomposition(csr, **request)
            assert traced.operations["engine"] == "python", request
            assert traced.kappa == plain.kappa, request

    def test_removed_routes_are_rejected(self):
        """The deleted thread transport, numba tier, ``engine=`` and
        ``use_numpy=`` knobs fail loudly instead of silently running another
        route."""
        graph = complete_graph(5)
        csr = NucleusSpace(graph, 2, 3).to_csr()
        with pytest.raises(TypeError, match="engine"):
            and_decomposition_csr(csr, engine="numba")
        with pytest.raises(TypeError, match="engine"):
            nucleus_decomposition(graph, 2, 3, engine="python")
        with pytest.raises(ValueError, match=r"\('process',\)"):
            nucleus_decomposition(graph, 2, 3, parallel="thread")
        with pytest.raises(TypeError, match="use_numpy"):
            snd_decomposition_csr(csr, use_numpy=True)
        with pytest.raises(TypeError, match="use_numpy"):
            nucleus_decomposition(graph, 2, 3, algorithm="snd", use_numpy=False)
