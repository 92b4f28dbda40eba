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

The serial kernel with notification is the counted one
(``_and_count``): its support counts must equal a from-scratch recount
(``support_counts``) after every pass, meet ``support ≥ τ`` at
convergence, and give the reference's passes on degenerate shapes too.
"""

import random

import numpy as np
import pytest

from and_reference import and_wake_all, neighbour_rows
from repro.core.csr import CSRSpace, _and_count, and_decomposition_csr, support_counts
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


def _counted_passes(space):
    """Drive ``_and_count`` pass by pass; yields ``(pass row, tau, support)``."""
    tau = np.diff(space.ctx_offsets)
    support = np.zeros(len(space), dtype=np.int64)
    step = _and_count(space.ctx_offsets, space.ctx_members, space.stride, tau, support)
    first = True
    while len(space):
        row = step(first)
        first = False
        yield row, tau, support
        if row[0] == 0:
            return


@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_support_counts_match_a_recount_after_every_pass(name, r, s):
    space = CSRSpace.from_graph(WORLD[name], r, s)
    passes = 0
    for _, tau, support in _counted_passes(space):
        passes += 1
        assert np.array_equal(support, support_counts(space, tau)), f"pass {passes}"
    assert passes == and_decomposition_csr(space).iterations
    assert (support >= tau).all()
    assert tau.tolist() == peeling_decomposition(space).kappa


@pytest.mark.parametrize("r, s", [(1, 2), (2, 3), (3, 4)])
def test_support_counts_follow_the_definition(r, s):
    """A context supports its owner iff no partner has a smaller τ."""
    space = CSRSpace.from_graph(WORLD["planted_clique"], r, s)
    rng = np.random.default_rng(r * 10 + s)
    tau = rng.integers(0, 6, len(space))
    expected = [
        sum(min(tau[j] for j in ctx) >= tau[i] for ctx in space.contexts(i))
        for i in range(len(space))
    ]
    assert support_counts(space, tau).tolist() == expected


@pytest.mark.parametrize("r, s", [(1, 2), (2, 3), (3, 4)])
def test_support_at_least_kappa_is_kappas_fixed_point(r, s):
    """``support ≥ τ`` holds at κ and fails once any clique's κ is raised."""
    space = CSRSpace.from_graph(WORLD["hierarchical_community"], r, s)
    kappa = np.asarray(peeling_decomposition(space).kappa, dtype=np.int64)
    assert (support_counts(space, kappa) >= kappa).all()
    for i in np.flatnonzero(np.diff(space.ctx_offsets))[::7]:
        raised = kappa.copy()
        raised[i] += 1
        assert (support_counts(space, raised) < raised).any()


def _degenerate_shapes():
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    return {
        "empty": CSRGraph.from_edges([]),
        "k2": CSRGraph.from_edges([(0, 1)]),
        "star": CSRGraph.from_edges([(0, v) for v in range(1, 8)]),
        "path": CSRGraph.from_edges([(v, v + 1) for v in range(9)]),
        "triangle_free": CSRGraph.from_edges(
            [(u, v) for u in range(4) for v in range(4, 8)]
        ),
        "k7": CSRGraph.from_edges(k7),
    }


SHAPES = _degenerate_shapes()


@pytest.mark.parametrize("r, s", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_degenerate_shapes_follow_the_reference_passes(name, r, s):
    space = CSRSpace.from_graph(SHAPES[name], r, s)
    kappa, passes = and_wake_all(space)
    rows = [row for row, _, _ in _counted_passes(space)]
    result = and_decomposition_csr(space)
    assert result.iterations == len(rows) == len(passes)
    assert [(u, m) for u, _, _, m in rows] == [(u, m) for u, _, m in passes]
    assert all(row[1] <= p[1] for row, p in zip(rows, passes))
    assert result.kappa == kappa == peeling_decomposition(space).kappa


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
