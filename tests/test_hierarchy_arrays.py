"""The array-native hierarchy build against the reference union-find sweep.

``build_hierarchy`` emits the nucleus forest straight as interval-index
arrays.  These tests pin it to the independent reference construction in
``hierarchy_reference`` (union-find sweep plus DFS labelling) on seeded
graphs of every generator family, with the peeling κ and with perturbed,
non-fixed-point κ; check that a stored index serves the hierarchy without a
rebuild; and check that the file-to-bundle path builds no ``Nucleus``.
"""

import random

import numpy as np
import pytest
from hierarchy_reference import build_hierarchy as reference_hierarchy
from hierarchy_reference import build_interval_index as reference_index
from test_applications_parity import forest_shape

from repro.core import hierarchy as hierarchy_module
from repro.core.csr import CSRSpace
from repro.core.densest import best_nucleus
from repro.core.hierarchy import NucleusHierarchy, build_hierarchy
from repro.core.intervals import INDEX_ARRAYS
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    heterogeneous_cluster_graph,
    hierarchical_community_graph,
    planted_clique_graph,
    powerlaw_cluster_graph,
    ring_of_cliques,
    union_of_graphs,
    watts_strogatz_graph,
)
from repro.store import open_bundle, save_bundle

INSTANCES = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]


def family_graphs(seed):
    """One small graph per generator family, seeded."""
    return [
        erdos_renyi_graph(60, 0.12, seed=seed),
        barabasi_albert_graph(60, 3, seed=seed),
        watts_strogatz_graph(60, 6, 0.25, seed=seed),
        powerlaw_cluster_graph(60, 4, 0.7, seed=seed),
        heterogeneous_cluster_graph(60, 2, 6, 0.6, seed=seed),
        planted_clique_graph(60, 8, 0.1, seed=seed),
        hierarchical_community_graph(
            levels=2, branching=3, leaf_size=7, p_intra=0.9, p_decay=0.3, seed=seed
        ),
        union_of_graphs([ring_of_cliques(3, 4 + seed % 2), complete_graph(5 + seed)]),
    ]


def perturbed(kappa, seed):
    """A non-fixed-point κ: every value moved by at most two, kept >= 0."""
    rng = random.Random(seed)
    return [max(0, k + rng.randint(-2, 2)) for k in kappa]


def assert_matches_reference(space, kappa):
    built = build_hierarchy(space, kappa)
    reference = reference_hierarchy(space, kappa)
    expected = reference_index(reference).arrays()
    for name, array in built.interval_index().arrays().items():
        assert np.array_equal(array, expected[name]), name
    assert forest_shape(built) == forest_shape(reference)


@pytest.mark.parametrize("rs", INSTANCES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_reference_on_generator_families(rs, seed):
    for graph in family_graphs(seed):
        for space in (NucleusSpace(graph, *rs), CSRSpace.from_graph(graph, *rs)):
            kappa = peeling_decomposition(space).kappa
            assert_matches_reference(space, kappa)
            assert_matches_reference(space, perturbed(kappa, seed))


def test_matches_reference_across_many_levels():
    graph = union_of_graphs(
        [powerlaw_cluster_graph(60, 3, 0.5, seed=4)]
        + [complete_graph(size) for size in range(3, 24)]
    )
    space = CSRSpace.from_graph(graph, 1, 2)
    kappa = peeling_decomposition(space).kappa
    assert max(kappa) == 22
    assert_matches_reference(space, kappa)


@pytest.mark.parametrize("rs", INSTANCES)
def test_build_reads_the_incidence_not_the_s_clique_groups(rs, monkeypatch):
    """The stars come straight from the lead context rows: neither space
    lists its s-cliques, and a dict space is read through its one
    memoised flattening."""

    def forbidden(*args):
        raise AssertionError("the hierarchy listed the s-cliques")

    monkeypatch.setattr(CSRSpace, "s_clique_table", forbidden)
    monkeypatch.setattr(CSRSpace, "s_clique_groups", forbidden)
    monkeypatch.setattr(NucleusSpace, "s_clique_groups", forbidden)
    graph = powerlaw_cluster_graph(40, 4, 0.7, seed=2)
    dict_space = NucleusSpace(graph, *rs)
    for space in (dict_space, CSRSpace.from_graph(graph, *rs)):
        build_hierarchy(space, peeling_decomposition(space))
    flattened = dict_space.to_csr()
    build_hierarchy(dict_space, peeling_decomposition(dict_space))
    assert dict_space.to_csr() is flattened


def test_index_arrays_are_flat_int64():
    space = CSRSpace.from_graph(powerlaw_cluster_graph(40, 4, 0.7, seed=3), 2, 3)
    index = build_hierarchy(space, peeling_decomposition(space)).interval_index()
    assert tuple(index.arrays()) == INDEX_ARRAYS
    assert all(a.dtype == np.int64 and a.ndim == 1 for a in index.arrays().values())


class TestFromIndex:
    @pytest.fixture
    def stored(self, tmp_path):
        graph = CSRGraph.from_graph(
            union_of_graphs([powerlaw_cluster_graph(60, 4, 0.7, seed=8), ring_of_cliques(3, 5)])
        )
        space = CSRSpace.from_graph(graph, 2, 3)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        path = save_bundle(
            tmp_path / "b", graph=graph, space=space, result=result, hierarchy=hierarchy
        )
        return graph, hierarchy, open_bundle(path)

    def test_serves_the_same_rows_and_best_nucleus(self, stored):
        graph, fresh, bundle = stored
        loaded = NucleusHierarchy.from_index(bundle.space, bundle.result, bundle.index)
        assert loaded.interval_index() is bundle.index
        assert loaded.to_rows() == fresh.to_rows()
        best_loaded, density_loaded = best_nucleus(bundle.graph, 2, 3, hierarchy=loaded)
        best_fresh, density_fresh = best_nucleus(graph, 2, 3, hierarchy=fresh)
        assert density_loaded == density_fresh
        assert best_loaded.node_id == best_fresh.node_id
        assert best_loaded.vertices == best_fresh.vertices

    def test_rejects_a_mismatched_index(self, stored):
        _, _, bundle = stored
        with pytest.raises(ValueError, match="clique counts"):
            NucleusHierarchy.from_index(bundle.space, bundle.result.kappa[:-1], bundle.index)


def test_bundle_path_builds_no_nucleus(tmp_path, monkeypatch):
    """build → interval_index → save_bundle stays on the arrays."""
    built = []
    original = hierarchy_module.Nucleus.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(hierarchy_module.Nucleus, "__init__", counting_init)
    graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 4, 0.7, seed=9))
    space = CSRSpace.from_graph(graph, 2, 3)
    result = peeling_decomposition(space)
    hierarchy = build_hierarchy(space, result)
    hierarchy.interval_index()
    save_bundle(tmp_path / "b", graph=graph, space=space, result=result, hierarchy=hierarchy)
    assert built == []
    assert len(hierarchy.nodes) == len(hierarchy) and len(built) == len(hierarchy)


def test_cli_load_serves_the_stored_index(tmp_path, capsys, monkeypatch):
    from repro import cli

    path = str(tmp_path / "bundle")
    args = ["--hierarchy", "--densest"]
    assert cli.main(["decompose", "--dataset", "toy", "--r", "2", "--s", "3",
                     "--save", path, *args]) == 0
    cold = capsys.readouterr().out

    def no_rebuild(*_args, **_kwargs):
        raise AssertionError("decompose --load rebuilt the hierarchy")

    monkeypatch.setattr(cli, "build_hierarchy", no_rebuild)
    assert cli.main(["decompose", "--load", path, *args]) == 0
    warm = capsys.readouterr().out
    tables = cold[cold.index("nucleus hierarchy"):cold.index("saved bundle")]
    assert tables.strip() in warm


def test_negative_kappa_is_rejected():
    space = NucleusSpace(complete_graph(4), 1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        build_hierarchy(space, [3, 3, -1, 3])
