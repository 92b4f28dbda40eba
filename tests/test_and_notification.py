"""The batched AND's notification against a wake-every-neighbour reference.

``_and_sweep`` flags a partner of a changed clique only where the partner's
τ lies above the clique's new value, reading the partners off the context
rows it already gathered.  The reference (:mod:`tests.and_reference`) runs
the same batched pass but wakes every S-neighbour.  Over a seeded world of
generator graphs the two must follow the same τ trajectory — κ,
iterations, per-pass ``updated`` and ``max_change`` — with κ equal to
peeling, and the kernel may never process more cliques than the reference.
The pool routes (``PersistentPool``, ``SupervisedPool`` under a fault
plan) must reach the same κ with notification on and off.
"""

import random

import pytest

from and_reference import and_wake_all, neighbour_rows
from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph import generators as gen
from repro.graph.csr_graph import CSRGraph
from repro.parallel.procpool import PersistentPool
from repro.resilience import faults
from repro.resilience.supervisor import ResiliencePolicy, SupervisedPool

INSTANCES = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def _world():
    """Name → CSRGraph: each generator family drawn from one seeded stream."""
    rng = random.Random(4711)

    def seed():
        return rng.randrange(1 << 30)

    graphs = {
        "erdos_renyi": gen.erdos_renyi_graph(
            rng.randint(30, 50), rng.uniform(0.15, 0.3), seed=seed()
        ),
        "barabasi_albert": gen.barabasi_albert_graph(
            rng.randint(40, 70), rng.randint(3, 5), seed=seed()
        ),
        "watts_strogatz": gen.watts_strogatz_graph(
            rng.randint(30, 50), 2 * rng.randint(2, 4), rng.uniform(0.05, 0.3),
            seed=seed(),
        ),
        "powerlaw_cluster": gen.powerlaw_cluster_graph(
            rng.randint(50, 80), rng.randint(3, 6), rng.uniform(0.5, 0.9),
            seed=seed(),
        ),
        "planted_clique": gen.planted_clique_graph(
            rng.randint(30, 50), rng.randint(6, 9), rng.uniform(0.05, 0.15),
            seed=seed(),
        ),
        "ring_of_cliques": gen.ring_of_cliques(rng.randint(3, 5), rng.randint(4, 6)),
        "hierarchical_community": gen.hierarchical_community_graph(
            levels=2, branching=3, leaf_size=rng.randint(5, 7), seed=seed()
        ),
    }
    return {name: CSRGraph.from_graph(g) for name, g in graphs.items()}


WORLD = _world()


@pytest.mark.parametrize("notification", [True, False], ids=["notify", "full"])
@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_kernel_follows_the_wake_all_trajectory(name, r, s, notification):
    space = CSRSpace.from_graph(WORLD[name], r, s)
    result = and_decomposition_csr(space, notification=notification)
    kappa, passes = and_wake_all(space, notification=notification)
    stats = result.iteration_stats
    assert result.kappa == kappa == peeling_decomposition(space).kappa
    assert result.iterations == len(passes)
    assert [st.updated for st in stats] == [p[0] for p in passes]
    assert [st.max_change for st in stats] == [p[2] for p in passes]
    assert all(st.processed <= p[1] for st, p in zip(stats, passes))
    if not notification:
        assert [st.processed for st in stats] == [p[1] for p in passes]


def test_notification_skips_cliques_that_cannot_drop():
    """On a graph with nested κ levels the kernel wakes strictly fewer."""
    space = CSRSpace.from_graph(WORLD["powerlaw_cluster"], 2, 3)
    result = and_decomposition_csr(space)
    _, passes = and_wake_all(space)
    assert sum(st.processed for st in result.iteration_stats) < sum(
        p[1] for p in passes
    )


@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", ["planted_clique", "watts_strogatz"])
def test_neighbors_are_the_distinct_context_partners(name, r, s):
    space = CSRSpace.from_graph(WORLD[name], r, s)
    rows = neighbour_rows(space)
    assert [space.neighbors(i) for i in range(len(space))] == rows
    dict_space = NucleusSpace(WORLD[name].to_graph(), r, s)
    by_clique = {
        dict_space.cliques[i]: {dict_space.cliques[j] for j in dict_space.neighbors(i)}
        for i in range(len(dict_space))
    }
    for i, clique in enumerate(space.cliques):
        assert {space.cliques[j] for j in rows[i]} == by_clique[clique]


@pytest.fixture(scope="module")
def pool_spaces():
    return [
        CSRSpace.from_graph(WORLD[name], r, s)
        for name, (r, s) in (
            ("powerlaw_cluster", (2, 3)),
            ("planted_clique", (3, 4)),
            ("barabasi_albert", (1, 2)),
        )
    ]


def test_persistent_pool_kappa_with_and_without_notification(pool_spaces):
    with PersistentPool(workers=2) as pool:
        for space in pool_spaces:
            exact = peeling_decomposition(space).kappa
            for notification in (True, False):
                result = pool.run_and(space, notification=notification)
                assert result.kappa == exact
                assert result.converged


@pytest.mark.parametrize("notification", [True, False], ids=["notify", "full"])
def test_supervised_pool_kappa_under_a_fault_plan(
    pool_spaces, monkeypatch, notification
):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults._reset_env_cache()
    space = pool_spaces[0]
    plan = [{"kind": "crash", "worker": 1, "round": 1}]
    policy = ResiliencePolicy(backoff_base=0.01, backoff_cap=0.05)
    try:
        with faults.fault_plan({"faults": plan}):
            with SupervisedPool(workers=2, policy=policy) as pool:
                result = pool.run_and(space, notification=notification)
    finally:
        faults._reset_env_cache()
    assert result.kappa == peeling_decomposition(space).kappa
    assert result.operations["resilience"]["retries"] == 1
