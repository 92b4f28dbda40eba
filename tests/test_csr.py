"""CSR array backend: structure round-trips and dict/CSR kernel parity.

The contract under test: for every graph, every (r, s) instance, every
algorithm and every ordering, the CSR kernels produce κ (and iteration
behaviour) identical to the dict backend.  Property-style over the
deterministic generators.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from peel_witness import assert_peel_witness

from repro.core.asynd import and_decomposition
from repro.core import csr as csr_module
from repro.core.csr import (
    _AND_BLOCK,
    CSRSpace,
    _stable_order,
    and_decomposition_csr,
    resolve_space,
    snd_decomposition_csr,
)
from repro.core.decomposition import nucleus_decomposition
from repro.core.peeling import peel_order, peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import (
    erdos_renyi_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
    union_of_graphs,
)
from repro.graph.csr_graph import CSRGraph
from repro.graph.graph import Graph

INSTANCES = [(1, 2), (2, 3), (3, 4)]


def assert_neighbours_match(csr, space):
    """``csr.neighbors(i)`` is the dict space's neighbour set, for every i."""
    assert len(csr) == len(space)
    for i in range(len(space)):
        assert csr.neighbors(i) == tuple(sorted(space.neighbors(i)))


def assert_same_buffers(a, b):
    """Two CSR spaces are equal buffer for buffer, labels included."""
    assert (a.r, a.s) == (b.r, b.s)
    assert np.array_equal(a.cliques.ids, b.cliques.ids)
    assert list(a.cliques.labels) == list(b.cliques.labels)
    assert a.ctx_offsets.tobytes() == b.ctx_offsets.tobytes()
    assert a.ctx_members.tobytes() == b.ctx_members.tobytes()


def assert_same_trajectory(a, b):
    """κ, iteration count, τ history and every per-iteration stats row."""
    assert a.kappa == b.kappa
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.tau_history == b.tau_history
    assert [s.as_row() for s in a.iteration_stats] == [
        s.as_row() for s in b.iteration_stats
    ]


def same_counters(a, b):
    """The two results' ``operations`` agree on every key but ``backend``."""
    def counters(result):
        return {k: v for k, v in result.operations.items() if k != "backend"}

    return counters(a) == counters(b)


def random_graphs():
    return [
        powerlaw_cluster_graph(120, 4, 0.4, seed=42),
        planted_clique_graph(90, 10, 0.07, seed=7),
        erdos_renyi_graph(70, 0.12, seed=3),
        ring_of_cliques(5, 5),
    ]


@pytest.fixture(params=range(4), ids=["powerlaw", "planted", "er", "ring"])
def any_graph(request):
    return random_graphs()[request.param]


class TestCSRSpaceStructure:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_round_trip_and_validate(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        csr = space.to_csr()
        csr.validate()
        assert len(csr) == len(space)
        assert csr.r == space.r and csr.s == space.s
        assert csr.cliques == space.cliques
        assert csr.s_degrees() == space.s_degrees()
        assert csr.number_of_s_cliques() == space.number_of_s_cliques()
        for i in range(len(space)):
            assert csr.s_degree(i) == space.s_degree(i)
            # context multisets coincide (order within a context preserved)
            assert sorted(csr.contexts(i)) == sorted(space.contexts(i))
            assert set(csr.neighbors(i)) == set(space.neighbors(i))

    def test_pickle_round_trip(self):
        space = NucleusSpace(powerlaw_cluster_graph(80, 4, 0.4, seed=1), 2, 3)
        csr = space.to_csr()
        clone = pickle.loads(pickle.dumps(csr))
        clone.validate()
        assert clone.cliques == csr.cliques
        assert list(clone.ctx_offsets) == list(csr.ctx_offsets)
        assert list(clone.ctx_members) == list(csr.ctx_members)
        assert_neighbours_match(clone, space)
        # the clone must be fully usable
        assert (
            and_decomposition_csr(clone).kappa == and_decomposition_csr(csr).kappa
        )

    def test_member_contexts_inverse(self):
        # read from the member side, the context rows name each s-clique
        # once per partner: every clique that owns a context of an s-clique
        # appears as a partner in the other members' contexts of it
        space = NucleusSpace(powerlaw_cluster_graph(60, 4, 0.5, seed=2), 2, 3)
        csr = space.to_csr()
        owned = Counter()
        as_member = Counter()
        for i in range(len(csr)):
            for ctx in csr.contexts(i):
                assert i not in ctx
                group = tuple(sorted((i,) + ctx))
                owned[(i, group)] += 1
                for j in ctx:
                    as_member[(j, group)] += 1
        assert owned.keys() == as_member.keys()
        assert set(owned.values()) == {1}
        assert set(as_member.values()) == {csr.stride}
        # every membership is accounted for exactly once
        assert sum(as_member.values()) == len(csr.ctx_members)

    def test_nbytes_positive(self):
        csr = NucleusSpace(ring_of_cliques(3, 4), 1, 2).to_csr()
        assert csr.nbytes() > 0

    def test_validate_catches_corruption(self):
        csr = NucleusSpace(ring_of_cliques(3, 4), 2, 3).to_csr()
        csr.ctx_members[0] = len(csr) + 5
        with pytest.raises(AssertionError):
            csr.validate()

    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4)])
    def test_validate_catches_an_inconsistent_context_row(self, rs):
        # an in-range partner swapped for another clique: the s-clique's
        # context rows then name different member sets
        csr = NucleusSpace(powerlaw_cluster_graph(40, 4, 0.6, seed=3), *rs).to_csr()
        csr.validate()
        for slot in (0, len(csr.ctx_members) - 1):
            broken = pickle.loads(pickle.dumps(csr))
            broken.ctx_members[slot] = (broken.ctx_members[slot] + 1) % len(csr)
            with pytest.raises(AssertionError, match="s-clique"):
                broken.validate()

    def test_as_dict_matches_space(self):
        space = NucleusSpace(ring_of_cliques(3, 4), 1, 2)
        csr = space.to_csr()
        values = list(range(len(space)))
        assert csr.as_dict(values) == space.as_dict(values)
        with pytest.raises(ValueError):
            csr.as_dict(values + [0])


def contexts_by_clique(space):
    """Clique → its contexts, each the sorted tuple of its partner cliques.

    Sorted by ``repr``, so mixed-type labels order too.  Index-free, so
    two spaces compare equal exactly when their incidence agrees, whatever
    the order of their context rows and partners.
    """
    cliques = list(space.cliques)
    return {
        cliques[i]: sorted(
            (tuple(sorted((cliques[p] for p in ctx), key=repr))
             for ctx in space.contexts(i)),
            key=repr,
        )
        for i in range(len(space))
    }


def neighbours_by_clique(space):
    """Clique → the set of its S-neighbour cliques."""
    cliques = list(space.cliques)
    return {
        cliques[i]: {cliques[p] for p in space.neighbors(i)}
        for i in range(len(space))
    }


def assert_same_space_by_clique(direct, space):
    """``direct`` is ``space`` up to clique indexing: same cliques, contexts
    and neighbours, each keyed by clique."""
    assert direct.r == space.r and direct.s == space.s
    assert len(direct) == len(space)
    assert contexts_by_clique(direct) == contexts_by_clique(space)
    assert neighbours_by_clique(direct) == neighbours_by_clique(space)


MIXED_LABELS = Graph(
    edges=[(0, "a"), ("a", "c"), ("c", 0), (0, (1, 2)), ("a", (1, 2)),
           ("c", (1, 2)), (10, 2), (2, 0)],
    vertices=["z", 7],
)


class TestFromGraph:
    """Direct graph-to-CSR construction holds the dict space's incidence.

    Both index the cliques in sorted vertex-id order; the contexts are
    compared by clique, so their row and partner order does not matter.
    """

    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4), (1, 3)])
    def test_structure_identical_to_dict_path(self, any_graph, rs):
        direct = CSRSpace.from_graph(any_graph, *rs)
        direct.validate()
        dict_space = NucleusSpace(any_graph, *rs)
        assert list(direct.cliques) == dict_space.cliques
        assert_same_space_by_clique(direct, dict_space)

    @pytest.mark.parametrize("rs", INSTANCES)
    def test_empty_and_tiny_graphs(self, rs):
        for graph in (Graph(), Graph(edges=[(0, 1)], vertices=[0, 1, 2])):
            direct = CSRSpace.from_graph(graph, *rs)
            direct.validate()
            via_dict = NucleusSpace(graph, *rs).to_csr()
            assert direct.cliques == via_dict.cliques
            assert list(direct.ctx_members) == list(via_dict.ctx_members)

    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4), (1, 3)])
    @pytest.mark.parametrize(
        "graph",
        [
            Graph(),                                         # empty
            Graph(vertices=[0, 1, 2, 3]),                    # only isolated vertices
            Graph(edges=[(0, 1), (2, 3)], vertices=[4, 5]),  # isolated + edges
            Graph(edges=[(0, 1), (1, 2), (2, 3)]),           # path: no s-cliques
            Graph(edges=[("a", "b"), ("b", "c")], vertices=["z"]),  # non-int labels
            MIXED_LABELS,                                    # mixed label types
        ],
        ids=["empty", "isolated", "mixed", "path", "labels", "mixed_types"],
    )
    def test_degenerate_inputs_byte_identical(self, graph, rs):
        """Empty graphs, isolated vertices and zero-s-clique spaces hold the
        dict space's cliques and incidence, and build the same buffers from
        either graph class."""
        direct = CSRSpace.from_graph(graph, *rs)
        direct.validate()
        assert_same_space_by_clique(direct, NucleusSpace(graph, *rs))
        assert_same_buffers(direct, CSRSpace.from_graph(CSRGraph.from_graph(graph), *rs))

    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4), (1, 3)])
    def test_dict_graph_takes_the_csr_graph_route(self, any_graph, rs):
        """One builder: a dict Graph gives the buffers of its CSRGraph."""
        direct = CSRSpace.from_graph(any_graph, *rs)
        assert isinstance(direct.graph, CSRGraph)
        assert_same_buffers(
            direct, CSRSpace.from_graph(CSRGraph.from_graph(any_graph), *rs)
        )

    def test_kappa_parity_all_algorithms(self, any_graph):
        direct = CSRSpace.from_graph(any_graph, 2, 3)
        exact = peeling_decomposition(NucleusSpace(any_graph, 2, 3)).as_dict()
        assert peeling_decomposition(direct).as_dict() == exact
        assert and_decomposition_csr(direct).as_dict() == exact
        assert snd_decomposition_csr(direct).as_dict() == exact

    def test_invalid_rs(self):
        with pytest.raises(ValueError):
            CSRSpace.from_graph(Graph(), 2, 2)
        with pytest.raises(ValueError):
            CSRSpace.from_graph(Graph(), 0, 2)

    def test_csr_backend_skips_dict_space(self, monkeypatch):
        """A Graph source must never build a NucleusSpace."""
        graph = powerlaw_cluster_graph(60, 4, 0.5, seed=2)
        expected = peeling_decomposition(NucleusSpace(graph, 2, 3)).as_dict()

        def forbidden(self, *args, **kwargs):
            raise AssertionError("NucleusSpace built on the direct CSR path")

        monkeypatch.setattr(NucleusSpace, "__init__", forbidden)
        result = nucleus_decomposition(graph, 2, 3, algorithm="snd")
        assert result.as_dict() == expected
        assert result.operations["backend"] == "csr"

    def test_graph_source_requires_rs(self):
        with pytest.raises(ValueError):
            snd_decomposition_csr(Graph([(0, 1)]))

    @pytest.mark.parametrize(
        "n, size",
        [(1, 5), (2, 1000), (300, 5000), (65536, 200000), (65537, 200000),
         (1 << 20, 100000), (1 << 33, 50000)],
    )
    def test_radix_order_is_the_stable_argsort(self, n, size):
        """One 16-bit radix digit up to n = 65536, the packed-key sort beyond."""
        keys = np.random.default_rng(n).integers(0, n, size, dtype=np.int64)
        # force the largest key, so every digit of n - 1 is exercised
        keys[size // 2] = n - 1
        assert np.array_equal(_stable_order(keys, n), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize(
        "n, distinct, size",
        [(65537, 3, 200000), (1 << 20, 17, 150000), (1 << 33, 1, 50000)],
    )
    def test_packed_order_keeps_ties_in_slot_order(self, n, distinct, size):
        """Above 65536, ties (size >> distinct keys) decide the order."""
        rng = np.random.default_rng(distinct)
        values = rng.choice(n, distinct, replace=False).astype(np.int64)
        keys = values[rng.integers(0, distinct, size)]
        assert np.array_equal(_stable_order(keys, n), np.argsort(keys, kind="stable"))

    def test_packed_order_refuses_overflowing_keys(self):
        keys = np.array([3, 0, 2, 1], dtype=np.int64)
        with pytest.raises(OverflowError):
            _stable_order(keys, 1 << 62)  # (1 << 62) * 4 slots >= 2**63


class TestBackendSelection:
    """The type of the space picks the kernels; there is no ``backend=``."""

    def test_resolve_space_follows_the_type(self):
        graph = ring_of_cliques(3, 4)
        small = NucleusSpace(graph, 1, 2)
        assert resolve_space(small, None, None) is small
        csr = small.to_csr()
        assert resolve_space(csr, None, None) is csr
        built = resolve_space(graph, 1, 2)
        assert isinstance(built, CSRSpace)
        assert built.cliques == small.cliques

    def test_auto_picks_csr_for_large_spaces(self):
        space = NucleusSpace(powerlaw_cluster_graph(400, 4, 0.3, seed=4), 1, 2)
        result = and_decomposition(space.to_csr())
        assert result.operations.get("backend") == "csr"
        assert result.kappa == and_decomposition(space).kappa

    def test_auto_routes_large_graph_straight_to_csr(self, monkeypatch):
        """A large Graph must never build the dict space."""
        graph = powerlaw_cluster_graph(400, 4, 0.3, seed=4)
        expected = peeling_decomposition(NucleusSpace(graph, 1, 2)).kappa

        def forbidden(self, *args, **kwargs):
            raise AssertionError("NucleusSpace built on the graph's CSR route")

        monkeypatch.setattr(NucleusSpace, "__init__", forbidden)
        result = nucleus_decomposition(graph, 1, 2, algorithm="snd")
        assert result.kappa == expected
        assert result.operations["backend"] == "csr"

    def test_auto_picks_csr_for_small_graph(self, triangle_graph):
        result = nucleus_decomposition(triangle_graph, 1, 2, algorithm="and")
        assert result.operations["backend"] == "csr"
        oracle = nucleus_decomposition(
            NucleusSpace(triangle_graph, 1, 2), algorithm="and"
        )
        assert oracle.operations["backend"] == "dict"
        assert oracle.kappa == result.kappa

    def test_process_pool_never_resolves_dict(self, small_powerlaw_graph):
        """Regression: a prebuilt NucleusSpace with parallel='process' runs on
        the CSR buffers: the pool has no dict kernels."""
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        result = nucleus_decomposition(
            space, parallel="process", algorithm="and", workers=2
        )
        assert result.operations["backend"] == "csr"
        assert result.kappa == peeling_decomposition(space).kappa

    def test_csr_space_rejects_dict_backend(self):
        csr = NucleusSpace(ring_of_cliques(3, 4), 1, 2).to_csr()
        with pytest.raises(TypeError, match="backend"):
            and_decomposition(csr, backend="dict")

    def test_nucleus_decomposition_forwards_backend(self, triangle_graph):
        # the space passed is forwarded to the kernels: NucleusSpace runs
        # the dict kernels, the graph the CSR kernels, with one κ
        for algorithm in ("peeling", "snd", "and"):
            a = nucleus_decomposition(triangle_graph, 1, 2, algorithm=algorithm)
            b = nucleus_decomposition(
                NucleusSpace(triangle_graph, 1, 2), algorithm=algorithm
            )
            assert a.kappa == b.kappa
            assert a.operations.get("backend") == "csr"
            assert b.operations.get("backend") == "dict"


    @pytest.mark.parametrize("flat", [False, True], ids=["nucleus", "csr"])
    def test_operations_name_the_space_that_ran(self, flat):
        space = NucleusSpace(powerlaw_cluster_graph(40, 4, 0.5, seed=1), 2, 3)
        source = space.to_csr() if flat else space
        backend = "csr" if flat else "dict"
        runs = {
            "peeling": peeling_decomposition(source),
            "snd": snd_decomposition(source),
            "and": and_decomposition(source),
            "and-natural": and_decomposition(source, order="natural"),
            "nucleus": nucleus_decomposition(source, algorithm="snd"),
        }
        for name, result in runs.items():
            assert result.operations["backend"] == backend, name
        # a NucleusSpace reads the schedule; a CSRSpace runs the batched
        # kernel unless the call asks for a schedule
        engine = "numpy" if flat else "python"
        assert runs["and"].operations["engine"] == engine
        assert runs["and-natural"].operations["engine"] == "python"
        # the batched kernel has no dict form: it flattens a NucleusSpace
        assert and_decomposition_csr(source).operations["backend"] == "csr"

    @pytest.mark.parametrize("flat", [False, True], ids=["nucleus", "csr"])
    def test_degree_levels_run_on_the_space_given(self, flat, monkeypatch):
        from repro.core import levels

        space = NucleusSpace(powerlaw_cluster_graph(40, 4, 0.5, seed=1), 2, 3)
        source = space.to_csr() if flat else space
        ran = []

        def spy(name):
            original = getattr(levels, name)

            def kernel(space):
                ran.append(name)
                return original(space)

            monkeypatch.setattr(levels, name, kernel)

        spy("_degree_levels_csr")
        spy("_degree_levels_generic")
        expected = levels.degree_levels(space.to_csr())
        del ran[:]
        assert levels.degree_levels(source) == expected
        assert ran == ["_degree_levels_csr" if flat else "_degree_levels_generic"]

    def test_backend_keyword_is_gone_everywhere(self, triangle_graph):
        from repro.core.densest import best_nucleus, max_core_subgraph
        from repro.core.levels import (
            convergence_upper_bound,
            degree_levels,
            level_of_each_clique,
        )
        from repro.core.query import estimate_local_indices
        from repro.experiments.quality_metric import run_quality_metric
        from repro.experiments.query_driven import (
            run_query_driven,
            run_query_driven_suite,
        )
        from repro.experiments.runtime import run_runtime_comparison

        g = triangle_graph
        calls = [
            lambda: peeling_decomposition(g, 2, 3, backend="dict"),
            lambda: snd_decomposition(g, 2, 3, backend="dict"),
            lambda: and_decomposition(g, 2, 3, backend="csr"),
            lambda: nucleus_decomposition(g, 2, 3, backend="auto"),
            lambda: nucleus_decomposition(g, 2, 3, algorithm="snd", backend="csr"),
            lambda: degree_levels(g, 2, 3, backend="dict"),
            lambda: level_of_each_clique(g, 2, 3, backend="dict"),
            lambda: convergence_upper_bound(g, 2, 3, backend="dict"),
            lambda: estimate_local_indices(g, [(0, 1)], 2, 3, backend="dict"),
            lambda: max_core_subgraph(g, backend="dict"),
            lambda: best_nucleus(g, 2, 3, backend="dict"),
            lambda: run_query_driven("toy", backend="dict"),
            lambda: run_query_driven_suite("toy", backend="dict"),
            lambda: run_quality_metric("toy", backend="dict"),
            lambda: run_runtime_comparison(["toy"], backend="csr"),
            lambda: nucleus_decomposition(g, 2, 3, algorithm="peeling", backend="dict"),
            lambda: nucleus_decomposition(g, 2, 3, parallel="process", backend="csr"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="backend"):
                call()


class TestKernelParity:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_and_kappa_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        csr = space.to_csr()
        reference = and_decomposition(space)
        # a plain request runs the batched kernel, whose iteration counts
        # legitimately differ — κ parity still holds
        result = and_decomposition(csr)
        assert result.operations["engine"] == "numpy"
        assert result.kappa == reference.kappa
        assert result.converged and reference.converged
        # an explicit order runs the per-visit loop on the CSR space, which
        # reproduces the dict trajectory exactly
        pervisit = and_decomposition(csr, order="natural")
        assert pervisit.operations["engine"] == "python"
        assert_same_trajectory(pervisit, reference)

    @pytest.mark.parametrize(
        "order", ["natural", "degree", "degree_desc", "random", "peel"]
    )
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_and_parity_across_orders(self, rs, order):
        graph = powerlaw_cluster_graph(100, 4, 0.45, seed=13)
        space = NucleusSpace(graph, *rs)
        csr = space.to_csr()
        # "peel" is each space's own peel order, and the two peels break
        # ties within a level differently: hand the dict side the CSR's
        dict_order = peel_order(csr) if order == "peel" else order
        for notification in (True, False):
            options = dict(seed=5, record_history=True, notification=notification)
            a = and_decomposition(space, order=dict_order, **options)
            b = and_decomposition(csr, order=order, **options)
            assert b.operations["engine"] == "python"
            assert_same_trajectory(a, b)

    def test_and_kappa_order_parity(self):
        graph = powerlaw_cluster_graph(100, 4, 0.45, seed=13)
        space = NucleusSpace(graph, 2, 3)
        hint = peeling_decomposition(space).kappa
        a = and_decomposition(space, order="kappa", kappa_hint=hint)
        b = and_decomposition(space.to_csr(), order="kappa", kappa_hint=hint)
        assert_same_trajectory(a, b)

    @pytest.mark.parametrize("notification", [True, False])
    def test_and_notification_parity(self, any_graph, notification):
        space = NucleusSpace(any_graph, 2, 3)
        a = and_decomposition(space, notification=notification)
        b = and_decomposition(
            space.to_csr(), notification=notification, order="natural"
        )
        assert_same_trajectory(a, b)

    def test_and_max_iterations_parity(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        for cap in (0, 1, 2):
            a = and_decomposition(space, max_iterations=cap)
            b = and_decomposition(space.to_csr(), max_iterations=cap)
            assert_same_trajectory(a, b)

    @pytest.mark.parametrize("rs", INSTANCES + [(1, 3), (2, 4)])
    def test_snd_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        csr = space.to_csr()
        reference = snd_decomposition(space, record_history=True)
        result = snd_decomposition_csr(csr, record_history=True)
        assert_same_trajectory(result, reference)
        assert same_counters(result, reference)

    def test_snd_parity_above_and_block(self, monkeypatch):
        """Past ``_AND_BLOCK`` cliques SND runs the counted kernel, never
        blocked, on a space where the AND's blocked path engages."""
        graph = union_of_graphs(
            [powerlaw_cluster_graph(600, 5, 0.9, seed=seed) for seed in range(3)]
        )
        space = NucleusSpace(graph, 2, 3)
        csr = space.to_csr()
        assert len(csr) > _AND_BLOCK
        blocked = and_decomposition_csr(csr)
        assert blocked.operations["blocks"] > blocked.iterations
        bound = []
        counted = csr_module._and_count

        def spy(*args):
            bound.append(args[-1])
            return counted(*args)

        monkeypatch.setattr(csr_module, "_and_count", spy)
        for cap in (None, 0, 1, 3):
            reference = snd_decomposition(space, max_iterations=cap, record_history=True)
            result = snd_decomposition_csr(csr, max_iterations=cap, record_history=True)
            assert_same_trajectory(result, reference)
            assert same_counters(result, reference)
        assert bound == [None] * 4

    def test_snd_max_iterations_parity(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        csr = space.to_csr()
        for cap in (0, 1, 3):
            a = snd_decomposition(space, max_iterations=cap)
            b = snd_decomposition_csr(csr, max_iterations=cap)
            assert a.kappa == b.kappa and a.converged == b.converged
            assert a.iterations == b.iterations

    @pytest.mark.parametrize("rs", INSTANCES)
    def test_peeling_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        a = peeling_decomposition(space)
        b = peeling_decomposition(space.to_csr())
        assert a.kappa == b.kappa
        # the routes break ties within a level differently; both orders
        # must still witness κ
        for result in (a, b):
            assert_peel_witness(space, result.kappa, result.operations["_peel_order"])

    def test_reference_kappa_counts_match(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        exact = peeling_decomposition(space).kappa
        a = and_decomposition(space, reference_kappa=exact)
        b = and_decomposition(space.to_csr(), reference_kappa=exact)
        assert [s.converged_count for s in a.iteration_stats] == [
            s.converged_count for s in b.iteration_stats
        ]

    def test_on_iteration_callback(self):
        space = NucleusSpace(powerlaw_cluster_graph(60, 4, 0.5, seed=2), 2, 3)
        seen = []
        and_decomposition(
            space.to_csr(), on_iteration=lambda it, tau: seen.append((it, list(tau)))
        )
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
        trailing = seen[-1][1]
        exact = peeling_decomposition(space).kappa
        assert trailing == exact


class TestEdgeCases:
    def test_empty_graph(self):
        csr = NucleusSpace(Graph(), 1, 2).to_csr()
        csr.validate()
        assert len(csr) == 0
        assert and_decomposition_csr(csr).kappa == []
        assert snd_decomposition_csr(csr).kappa == []

    def test_isolated_vertices(self):
        graph = Graph(edges=[(0, 1)], vertices=[0, 1, 2, 3])
        space = NucleusSpace(graph, 1, 2)
        csr = space.to_csr()
        ref = and_decomposition(space)
        assert and_decomposition_csr(csr).kappa == ref.kappa

    def test_triangle_graph(self, triangle_graph):
        for rs in [(1, 2), (2, 3)]:
            space = NucleusSpace(triangle_graph, *rs)
            ref = peeling_decomposition(space)
            assert and_decomposition_csr(space.to_csr()).kappa == ref.kappa

    def test_csr_constructor_validates_rs(self):
        with pytest.raises(ValueError):
            CSRSpace(2, 2, [], [0], [])
