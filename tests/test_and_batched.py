"""Property tests for the frontier-batched AND kernel and its engine seam.

The batched numpy tier (``engine="numpy"``) runs a Jacobi-within-pass /
Gauss–Seidel-across-passes schedule, so its iteration counts and τ
trajectories legitimately differ from the per-visit engines — what must
hold, and what these tests enforce, is the *fixed point*: κ parity with the
dict backend and the per-visit serial CSR kernel on random and degenerate
inputs, with and without notification, under shuffled orders.  The
per-visit python tier promises the opposite contract — the exact dict
trajectory — which ``tests/test_csr.py`` asserts.
"""

import pytest

from repro.core.asynd import and_decomposition
from repro.core.csr import ENGINES, and_decomposition_csr, snd_decomposition_csr
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
        reference = and_decomposition(
            space, backend="dict", notification=notification
        )
        assert reference.converged
        for engine in ("python", "numpy"):
            kappa = _kappa(space, notification=notification, engine=engine)
            assert kappa == reference.kappa, engine

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_kappa_parity_under_random_orders(self, seed):
        graph = powerlaw_cluster_graph(80, 5, 0.7, seed=17)
        space = NucleusSpace(graph, 2, 3)
        reference = and_decomposition(space, backend="dict")
        # auto resolves a shuffled order to a per-visit engine...
        shuffled = and_decomposition_csr(
            space.to_csr(), order="random", seed=seed
        )
        assert shuffled.kappa == reference.kappa
        assert shuffled.operations["engine"] == "python"
        # ...while the batched engine accepts and ignores it: the fixed
        # point is order-independent
        batched = _kappa(space, order="random", seed=seed, engine="numpy")
        assert batched == reference.kappa

    def test_batched_engine_records_metadata(self):
        space = NucleusSpace(powerlaw_cluster_graph(50, 4, 0.5, seed=9), 2, 3)
        result = and_decomposition_csr(space.to_csr(), engine="numpy")
        ops = result.operations
        assert ops["engine"] == "numpy"
        assert ops["backend"] == "csr"
        assert ops["rho_evaluations"] > 0
        assert ops["h_index_calls"] > 0
        assert len(result.iteration_stats) == result.iterations
        # per-batch counters: each pass processes its whole frontier
        assert all(s.processed >= s.updated for s in result.iteration_stats)

    def test_batched_instrumentation_parity(self):
        """history/callback/reference hooks work on the batched tier too."""
        space = NucleusSpace(powerlaw_cluster_graph(50, 4, 0.5, seed=9), 2, 3)
        reference = and_decomposition(space, backend="dict")
        seen = []
        result = and_decomposition_csr(
            space.to_csr(),
            engine="numpy",
            record_history=True,
            reference_kappa=reference.kappa,
            on_iteration=lambda it, tau: seen.append((it, list(tau))),
        )
        assert result.kappa == reference.kappa
        assert result.tau_history[0] != result.tau_history[-1]
        assert result.tau_history[-1] == reference.kappa
        assert [it for it, _ in seen] == list(range(1, result.iterations + 1))
        assert result.iteration_stats[-1].converged_count == len(space)


class TestEngineSeam:
    def test_unknown_engine_rejected(self):
        space = NucleusSpace(complete_graph(4), 1, 2)
        with pytest.raises(ValueError, match="engine"):
            and_decomposition_csr(space.to_csr(), engine="fortran")
        assert ENGINES == ("auto", "python", "numpy")

    def test_batched_engine_validates_order_names(self):
        space = NucleusSpace(complete_graph(4), 1, 2)
        with pytest.raises(ValueError, match="ordering"):
            and_decomposition_csr(
                space.to_csr(), engine="numpy", order="sideways"
            )

    def test_engine_requires_csr_backend(self):
        space = NucleusSpace(complete_graph(4), 1, 2)
        with pytest.raises(ValueError, match="csr"):
            and_decomposition(space, backend="dict", engine="numpy")

    def test_explicit_engine_forces_csr_resolution(self):
        # an explicit engine on a graph source routes through the csr backend
        result = and_decomposition(complete_graph(4), 1, 2, engine="numpy")
        assert result.operations["backend"] == "csr"
        assert result.operations["engine"] == "numpy"

    def test_auto_routes_trajectory_requests_to_pervisit(self):
        space = NucleusSpace(powerlaw_cluster_graph(40, 4, 0.5, seed=1), 2, 3)
        csr = space.to_csr()
        plain = and_decomposition_csr(csr)
        traced = and_decomposition_csr(csr, record_history=True)
        assert plain.operations["engine"] == "numpy"
        assert traced.operations["engine"] == "python"

    def test_removed_routes_are_rejected(self):
        """The deleted thread transport, numba tier and ``use_numpy=`` knob
        fail loudly instead of silently running another route."""
        graph = complete_graph(5)
        csr = NucleusSpace(graph, 2, 3).to_csr()
        with pytest.raises(ValueError, match=r"'auto', 'python', 'numpy'"):
            and_decomposition_csr(csr, engine="numba")
        with pytest.raises(ValueError, match=r"\('process',\)"):
            nucleus_decomposition(graph, 2, 3, parallel="thread")
        with pytest.raises(TypeError, match="use_numpy"):
            snd_decomposition_csr(csr, use_numpy=True)
        with pytest.raises(TypeError, match="use_numpy"):
            nucleus_decomposition(graph, 2, 3, algorithm="snd", use_numpy=False)
