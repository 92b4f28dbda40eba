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
from repro.core.csr import (
    CSRSpace,
    _stable_order,
    and_decomposition_csr,
    resolve_backend,
    resolve_process_backend,
    snd_decomposition_csr,
)
from repro.core.decomposition import nucleus_decomposition
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import (
    erdos_renyi_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
)
from repro.graph.graph import Graph

INSTANCES = [(1, 2), (2, 3), (3, 4)]


def assert_neighbours_match(csr, space):
    """``csr.neighbors(i)`` is the dict space's neighbour set, for every i."""
    assert len(csr) == len(space)
    for i in range(len(space)):
        assert csr.neighbors(i) == tuple(sorted(space.neighbors(i)))


def assert_same_trajectory(a, b):
    """κ, iteration count, τ history and every per-iteration stats row."""
    assert a.kappa == b.kappa
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.tau_history == b.tau_history
    assert [s.as_row() for s in a.iteration_stats] == [
        s.as_row() for s in b.iteration_stats
    ]


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


class TestFromGraph:
    """Direct graph-to-CSR construction must equal the dict-then-convert path."""

    @pytest.mark.parametrize("rs", INSTANCES + [(2, 4), (1, 3)])
    def test_structure_identical_to_dict_path(self, any_graph, rs):
        via_dict = NucleusSpace(any_graph, *rs).to_csr()
        direct = CSRSpace.from_graph(any_graph, *rs)
        direct.validate()
        assert direct.r == via_dict.r and direct.s == via_dict.s
        assert direct.cliques == via_dict.cliques
        assert list(direct.ctx_offsets) == list(via_dict.ctx_offsets)
        assert list(direct.ctx_members) == list(via_dict.ctx_members)
        assert_neighbours_match(direct, NucleusSpace(any_graph, *rs))

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
        ],
        ids=["empty", "isolated", "mixed", "path", "labels"],
    )
    def test_degenerate_inputs_byte_identical(self, graph, rs):
        """Empty graphs, isolated vertices and zero-s-clique spaces must
        flatten to exactly the arrays the dict-then-convert path produces."""
        direct = CSRSpace.from_graph(graph, *rs)
        direct.validate()
        via_dict = NucleusSpace(graph, *rs).to_csr()
        assert direct.cliques == via_dict.cliques
        assert list(direct.ctx_offsets) == list(via_dict.ctx_offsets)
        assert list(direct.ctx_members) == list(via_dict.ctx_members)
        assert_neighbours_match(direct, NucleusSpace(graph, *rs))

    def test_kappa_parity_all_algorithms(self, any_graph):
        direct = CSRSpace.from_graph(any_graph, 2, 3)
        exact = peeling_decomposition(any_graph, 2, 3, backend="dict")
        assert peeling_decomposition(direct).kappa == exact.kappa
        assert and_decomposition_csr(direct).kappa == exact.kappa
        assert snd_decomposition_csr(direct).kappa == exact.kappa

    def test_invalid_rs(self):
        with pytest.raises(ValueError):
            CSRSpace.from_graph(Graph(), 2, 2)
        with pytest.raises(ValueError):
            CSRSpace.from_graph(Graph(), 0, 2)

    def test_csr_backend_skips_dict_space(self, monkeypatch):
        """backend='csr' with a Graph source must never build a NucleusSpace."""
        graph = powerlaw_cluster_graph(60, 4, 0.5, seed=2)
        expected = peeling_decomposition(graph, 2, 3, backend="dict").kappa

        def forbidden(self, *args, **kwargs):
            raise AssertionError("NucleusSpace built on the direct CSR path")

        monkeypatch.setattr(NucleusSpace, "__init__", forbidden)
        result = nucleus_decomposition(graph, 2, 3, algorithm="snd", backend="csr")
        assert result.kappa == expected
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
    def test_resolve_backend_values(self):
        small = NucleusSpace(ring_of_cliques(3, 4), 1, 2)
        assert resolve_backend("dict", small) == "dict"
        assert resolve_backend("csr", small) == "csr"
        assert resolve_backend("auto", small) == "csr"  # a fixed rule, no size probe
        with pytest.raises(ValueError):
            resolve_backend("magic", small)

    def test_auto_picks_csr_for_large_spaces(self):
        space = NucleusSpace(powerlaw_cluster_graph(400, 4, 0.3, seed=4), 1, 2)
        assert resolve_backend("auto", space) == "csr"
        result = and_decomposition(space)  # backend="auto"
        assert result.operations.get("backend") == "csr"

    def test_auto_routes_large_graph_straight_to_csr(self, monkeypatch):
        """backend='auto' on a large Graph must never build the dict space."""
        graph = powerlaw_cluster_graph(400, 4, 0.3, seed=4)
        expected = peeling_decomposition(graph, 1, 2, backend="dict").kappa

        def forbidden(self, *args, **kwargs):
            raise AssertionError("NucleusSpace built on the auto CSR route")

        monkeypatch.setattr(NucleusSpace, "__init__", forbidden)
        result = nucleus_decomposition(graph, 1, 2, algorithm="snd", backend="auto")
        assert result.kappa == expected
        assert result.operations["backend"] == "csr"

    def test_auto_picks_csr_for_small_graph(self, triangle_graph):
        result = nucleus_decomposition(triangle_graph, 1, 2, algorithm="and")
        assert result.operations["backend"] == "csr"
        explicit = nucleus_decomposition(
            triangle_graph, 1, 2, algorithm="and", backend="dict"
        )
        assert explicit.kappa == result.kappa

    def test_resolve_process_backend(self):
        assert resolve_process_backend("auto") == "csr"
        assert resolve_process_backend("csr") == "csr"
        with pytest.raises(ValueError, match="dict"):
            resolve_process_backend("dict")
        with pytest.raises(ValueError, match="magic"):
            resolve_process_backend("magic")

    def test_process_pool_never_resolves_dict(self, small_powerlaw_graph):
        """Regression: a small prebuilt NucleusSpace with backend='auto' and
        parallel='process' must run on CSR, not fall back to dict sizing."""
        space = NucleusSpace(small_powerlaw_graph, 1, 2)
        result = nucleus_decomposition(
            space, parallel="process", algorithm="snd", workers=2, backend="auto"
        )
        assert result.operations["backend"] == "csr"
        assert result.kappa == peeling_decomposition(space).kappa

    def test_csr_space_rejects_dict_backend(self):
        csr = NucleusSpace(ring_of_cliques(3, 4), 1, 2).to_csr()
        with pytest.raises(ValueError):
            and_decomposition(csr, backend="dict")

    def test_nucleus_decomposition_forwards_backend(self, triangle_graph):
        for algorithm in ("peeling", "snd", "and"):
            a = nucleus_decomposition(triangle_graph, 1, 2, algorithm=algorithm)
            b = nucleus_decomposition(
                triangle_graph, 1, 2, algorithm=algorithm, backend="csr"
            )
            assert a.kappa == b.kappa
            assert b.operations.get("backend") == "csr"


class TestKernelParity:
    @pytest.mark.parametrize("rs", INSTANCES)
    def test_and_kappa_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        csr = space.to_csr()
        reference = and_decomposition(space, backend="dict")
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
        for notification in (True, False):
            options = dict(
                order=order,
                seed=5,
                record_history=True,
                notification=notification,
            )
            a = and_decomposition(space, backend="dict", **options)
            b = and_decomposition(csr, **options)
            assert b.operations["engine"] == "python"
            assert_same_trajectory(a, b)

    def test_and_kappa_order_parity(self):
        graph = powerlaw_cluster_graph(100, 4, 0.45, seed=13)
        space = NucleusSpace(graph, 2, 3)
        hint = peeling_decomposition(space, backend="dict").kappa
        a = and_decomposition(space, order="kappa", kappa_hint=hint, backend="dict")
        b = and_decomposition(space.to_csr(), order="kappa", kappa_hint=hint)
        assert_same_trajectory(a, b)

    @pytest.mark.parametrize("notification", [True, False])
    def test_and_notification_parity(self, any_graph, notification):
        space = NucleusSpace(any_graph, 2, 3)
        a = and_decomposition(space, notification=notification, backend="dict")
        b = and_decomposition(
            space.to_csr(), notification=notification, order="natural"
        )
        assert_same_trajectory(a, b)

    def test_and_max_iterations_parity(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        for cap in (0, 1, 2):
            a = and_decomposition(space, max_iterations=cap, backend="dict")
            b = and_decomposition(space.to_csr(), max_iterations=cap)
            assert_same_trajectory(a, b)

    @pytest.mark.parametrize("rs", INSTANCES)
    def test_snd_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        csr = space.to_csr()
        reference = snd_decomposition(space, backend="dict", record_history=True)
        result = snd_decomposition_csr(csr, record_history=True)
        assert result.kappa == reference.kappa
        assert result.iterations == reference.iterations
        assert result.tau_history == reference.tau_history

    def test_snd_max_iterations_parity(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        csr = space.to_csr()
        for cap in (0, 1, 3):
            a = snd_decomposition(space, max_iterations=cap, backend="dict")
            b = snd_decomposition_csr(csr, max_iterations=cap)
            assert a.kappa == b.kappa and a.converged == b.converged
            assert a.iterations == b.iterations

    @pytest.mark.parametrize("rs", INSTANCES)
    def test_peeling_parity(self, any_graph, rs):
        space = NucleusSpace(any_graph, *rs)
        a = peeling_decomposition(space, backend="dict")
        b = peeling_decomposition(space, backend="csr")
        assert a.kappa == b.kappa
        # the routes break ties within a level differently; both orders
        # must still witness κ
        for result in (a, b):
            assert_peel_witness(space, result.kappa, result.operations["_peel_order"])

    def test_reference_kappa_counts_match(self, any_graph):
        space = NucleusSpace(any_graph, 2, 3)
        exact = peeling_decomposition(space, backend="dict").kappa
        a = and_decomposition(space, reference_kappa=exact, backend="dict")
        b = and_decomposition(space.to_csr(), reference_kappa=exact)
        assert [s.converged_count for s in a.iteration_stats] == [
            s.converged_count for s in b.iteration_stats
        ]

    def test_on_iteration_callback(self):
        space = NucleusSpace(powerlaw_cluster_graph(60, 4, 0.5, seed=2), 2, 3)
        seen = []
        and_decomposition_csr(
            space.to_csr(), on_iteration=lambda it, tau: seen.append((it, list(tau)))
        )
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
        trailing = seen[-1][1]
        exact = peeling_decomposition(space, backend="dict").kappa
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
        ref = and_decomposition(space, backend="dict")
        assert and_decomposition_csr(csr).kappa == ref.kappa

    def test_triangle_graph(self, triangle_graph):
        for rs in [(1, 2), (2, 3)]:
            space = NucleusSpace(triangle_graph, *rs)
            ref = peeling_decomposition(space, backend="dict")
            assert and_decomposition_csr(space.to_csr()).kappa == ref.kappa

    def test_csr_constructor_validates_rs(self):
        with pytest.raises(ValueError):
            CSRSpace(2, 2, [], [0], [])
