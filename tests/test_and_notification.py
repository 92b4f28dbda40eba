"""The batched AND's notification against a wake-every-neighbour reference.

The pool's round kernel ``_and_sweep`` flags a partner of a changed clique
only where the partner's τ lies above the clique's new value, reading the
partners off the context rows it already gathered.  The reference
(:mod:`tests.and_reference`) runs the same batched pass but wakes every
S-neighbour.  Over a seeded world of generator graphs the two must follow
the same τ trajectory — κ, iterations, per-pass ``updated`` and
``max_change`` — with κ equal to peeling, and the kernel may never process
more cliques than the reference.  The kernel's full passes (the pool's
first round and its verification sweep) must match the reference's full
passes exactly.  The pool routes (``PersistentPool`` at one to three
workers, ``SupervisedPool`` under a fault plan) must reach the same κ.

The serial kernel is the counted one (``_and_count``): it must take the
same trajectory while every frontier fits one block, its support counts
must equal a from-scratch recount (``support_counts``) after every pass,
meet ``support ≥ τ`` at convergence, and give the reference's passes on
degenerate shapes too.  A space of at most ``_AND_BLOCK`` cliques runs
plain Jacobi passes (``_and_jacobi``) instead: ``and_decomposition_csr``
must then give the counted kernel's τ after every pass, its per-pass
stats and its operations, and the block size must route a space to
exactly one of the two kernels.  With the block size cut to a few
cliques, every pass runs blocked: the counts must equal the recount after
every block, τ must never rise and stay at or below SND's Jacobi
trajectory pass for pass, and the AND may take no more passes than SND.
"""

import random

import numpy as np
import pytest

from and_reference import and_wake_all, neighbour_rows
from repro.core import csr
from repro.core.csr import (
    CSRSpace,
    _and_count,
    _and_sweep,
    and_decomposition_csr,
    support_counts,
)
from repro.core.decomposition import nucleus_decomposition
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph import generators as gen
from repro.graph.csr_graph import CSRGraph
from repro.parallel.procpool import PersistentPool, process_and_decomposition
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


def _swept_passes(space, full: bool):
    """Drive the pool's kernel ``_and_sweep`` over the one chunk ``[0, n)``.

    The first pass sweeps every clique, as a pool worker's first round
    does; later passes sweep the flagged cliques, or every clique again
    when ``full``.  Returns ``(kappa, passes)`` in the shape of
    :func:`and_wake_all`.
    """
    n = len(space)
    tau = np.diff(space.ctx_offsets)
    active = np.ones(n, dtype=np.uint8)
    sweep = _and_sweep(space.ctx_offsets, space.ctx_members, space.stride, tau, active)
    passes = []
    while n:
        updated, processed, _, max_change = sweep(0, n, full or not passes)
        passes.append((updated, processed, max_change))
        if updated == 0:
            break
    return tau.tolist(), passes


@pytest.mark.parametrize("notification", [True, False], ids=["notify", "full"])
@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_kernel_follows_the_wake_all_trajectory(name, r, s, notification):
    space = CSRSpace.from_graph(WORLD[name], r, s)
    kappa, passes = and_wake_all(space, notification=notification)
    swept, sweeps = _swept_passes(space, full=not notification)
    assert swept == kappa == peeling_decomposition(space).kappa
    assert [(u, m) for u, _, m in sweeps] == [(u, m) for u, _, m in passes]
    if not notification:
        assert sweeps == passes
        return
    assert all(own[1] <= ref[1] for own, ref in zip(sweeps, passes))
    result = and_decomposition_csr(space)
    stats = result.iteration_stats
    assert result.kappa == kappa
    assert [(st.updated, st.max_change) for st in stats] == [
        (u, m) for u, _, m in passes
    ]
    assert all(st.processed <= p[1] for st, p in zip(stats, passes))


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


@pytest.mark.parametrize("max_iterations", [None, 1, 2])
@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_one_block_spaces_follow_the_counted_passes(name, r, s, max_iterations):
    """``_and_jacobi``, pass for pass, against ``_and_count`` on one block."""
    space = CSRSpace.from_graph(WORLD[name], r, s)
    n = len(space)
    assert n <= csr._AND_BLOCK
    counted = [(row, tau.copy()) for row, tau, _ in _counted_passes(space)]
    counted = counted[:max_iterations]
    result = and_decomposition_csr(space, max_iterations=max_iterations)
    assert result.iterations == len(counted)
    assert result.converged == (n == 0 or counted[-1][0][0] == 0)
    assert [
        (st.updated, st.processed, st.skipped, st.max_change)
        for st in result.iteration_stats
    ] == [(u, p, n - p, m) for (u, p, _, m), _ in counted]
    assert result.operations == {
        "rho_evaluations": sum(row[2] for row, _ in counted),
        "h_index_calls": sum(row[0] for row, _ in counted),
        "skipped_cliques": sum(n - row[1] for row, _ in counted),
        "blocks": sum(1 for row, _ in counted if row[0]),
        "backend": "csr",
        "engine": "numpy",
    }
    for k, (_, tau) in enumerate(counted, start=1):
        kappa = and_decomposition_csr(space, max_iterations=k).kappa
        assert kappa == tau.tolist(), f"pass {k}"


def test_the_block_size_routes_between_the_kernels(monkeypatch):
    """Up to ``_AND_BLOCK`` cliques run ``_and_jacobi``, more ``_and_count``."""
    calls = []

    def spy(name):
        kernel = getattr(csr, name)

        def bind(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(csr, name, bind)

    spy("_and_jacobi")
    spy("_and_count")
    for n, kernel in [
        (csr._AND_BLOCK, "_and_jacobi"),
        (csr._AND_BLOCK + 1, "_and_count"),
    ]:
        calls.clear()
        # a (1, 2) space of exactly n cliques: the vertices of a path
        path = CSRGraph.from_edges([(v, v + 1) for v in range(n - 1)])
        space = CSRSpace.from_graph(path, 1, 2)
        assert len(space) == n
        result = and_decomposition_csr(space)
        assert calls == [kernel]
        assert result.kappa == peeling_decomposition(space).kappa


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


class _BlockChecks:
    """numpy, except that ``split`` checks the counts between blocks.

    ``_and_count`` cuts a large frontier with ``np.split`` and runs the
    blocks in order, so a generator over the blocks sees the state after
    each block before it hands out the next one.
    """

    def __init__(self, space, tau, support):
        self.space, self.tau, self.support = space, tau, support
        self.blocks = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def split(self, frontier, cuts):
        for block in np.split(frontier, cuts):
            before = self.tau.copy()
            yield block
            self.blocks += 1
            assert (self.tau <= before).all(), f"τ rose in block {self.blocks}"
            assert np.array_equal(
                self.support, support_counts(self.space, self.tau)
            ), f"block {self.blocks}"


def _check_blocked_passes(space):
    """Run ``_and_count`` pass by pass with the checks of the block rule."""
    n = len(space)
    jacobi = snd_decomposition(space, record_history=True)
    tau = np.diff(space.ctx_offsets)
    support = np.zeros(n, dtype=np.int64)
    checks = _BlockChecks(space, tau, support)
    passes = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr, "_np", checks)
        step = _and_count(
            space.ctx_offsets, space.ctx_members, space.stride, tau, support
        )
        while n:
            before = tau.copy()
            updated = step(passes == 0)[0]
            passes += 1
            assert (tau <= before).all(), f"τ rose in pass {passes}"
            assert np.array_equal(support, support_counts(space, tau)), passes
            jacobi_tau = jacobi.tau_history[min(passes, jacobi.iterations)]
            assert (tau <= np.asarray(jacobi_tau)).all(), f"pass {passes}"
            if updated == 0:
                break
    assert tau.tolist() == peeling_decomposition(space).kappa
    assert passes <= jacobi.iterations
    return passes, checks.blocks


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("r, s", INSTANCES)
@pytest.mark.parametrize("name", sorted(WORLD))
def test_blocked_passes_keep_the_counts_and_stay_below_jacobi(
    name, r, s, block, monkeypatch
):
    space = CSRSpace.from_graph(WORLD[name], r, s)
    monkeypatch.setattr(csr, "_AND_BLOCK", block)
    passes, checked = _check_blocked_passes(space)
    result = and_decomposition_csr(space)
    assert result.iterations == passes
    assert result.kappa == peeling_decomposition(space).kappa
    frontiers = [st.updated for st in result.iteration_stats]
    assert result.operations["blocks"] == sum(-(-m // block) for m in frontiers)
    assert checked == sum(-(-m // block) for m in frontiers if m > block)


def test_a_frontier_past_the_block_size_runs_blocked():
    """The real block size, on a graph whose first frontier exceeds it."""
    graph = CSRGraph.from_graph(gen.powerlaw_cluster_graph(3000, 4, 0.7, seed=11))
    space = CSRSpace.from_graph(graph, 2, 3)
    result = and_decomposition_csr(space)
    assert result.iteration_stats[0].updated > csr._AND_BLOCK
    passes, blocks = _check_blocked_passes(space)
    assert blocks > 1
    assert result.iterations == passes
    assert result.operations["blocks"] > result.iterations
    assert result.kappa == peeling_decomposition(space).kappa


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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_persistent_pool_kappa_equals_peeling(pool_spaces, workers):
    with PersistentPool(workers=workers) as pool:
        for space in pool_spaces:
            result = pool.run_and(space)
            assert result.kappa == peeling_decomposition(space).kappa
            assert result.converged


# round 0 is the workers' full sweep, round 1 a flagged one
@pytest.mark.parametrize("crash_round", [1, 0], ids=["notify", "full"])
def test_supervised_pool_kappa_under_a_fault_plan(
    pool_spaces, monkeypatch, crash_round
):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults._reset_env_cache()
    space = pool_spaces[0]
    plan = [{"kind": "crash", "worker": 1, "round": crash_round}]
    policy = ResiliencePolicy(backoff_base=0.01, backoff_cap=0.05)
    try:
        with faults.fault_plan({"faults": plan}):
            with SupervisedPool(workers=2, policy=policy) as pool:
                result = pool.run_and(space)
    finally:
        faults._reset_env_cache()
    assert result.kappa == peeling_decomposition(space).kappa
    assert result.operations["resilience"]["retries"] == 1


def test_removed_schedule_knobs_raise_type_error(pool_spaces):
    """The CSR tier has one AND schedule: notified passes, static chunks.

    The full-sweep mode, re-balancing and the batched kernel's trajectory
    hooks are gone; passing one fails before any worker is forked.
    """
    space = pool_spaces[0]
    with PersistentPool(workers=2) as pool:
        with SupervisedPool(workers=2) as supervised:
            calls = {
                "notification": [
                    lambda: and_decomposition_csr(space, notification=False),
                    lambda: pool.run_and(space, notification=False),
                    lambda: process_and_decomposition(space, notification=False),
                    lambda: supervised.run_and(space, notification=False),
                    lambda: nucleus_decomposition(
                        space, parallel="process", notification=False
                    ),
                ],
                "record_history": [
                    lambda: and_decomposition_csr(space, record_history=True),
                ],
                "rebalance": [lambda: pool.run_and(space, rebalance=False)],
            }
            for keyword, rejected in calls.items():
                for call in rejected:
                    with pytest.raises(TypeError, match=keyword):
                        call()
        assert pool.forks == 0
