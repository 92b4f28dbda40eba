"""Tests for the on-disk bundle store (save_bundle / open_bundle).

Two families: round-trip fidelity (byte-identical κ, identical graph
buffers, identical hierarchy interval index after save → memmap reopen)
and format robustness (corrupt / truncated / version-mismatched bundles
raise :class:`StoreFormatError` with a useful message, never a numpy
shape error).
"""

import json
import os
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.asynd import and_decomposition
from repro.core.csr import CSRSpace, resolve_space
from repro.core.decomposition import nucleus_decomposition
from repro.core.hierarchy import build_hierarchy
from repro.core.peeling import peel_order, peeling_decomposition
from repro.core.query import estimate_local_indices
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.graph.csr_graph import CliqueArrayView, CSRGraph
from repro.graph.generators import powerlaw_cluster_graph, ring_of_cliques
from repro.graph.graph import Graph
import repro.store.bundle as bundle_module
from repro.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    Bundle,
    StoreFormatError,
    open_bundle,
    save_bundle,
)


#: A small (2, 3) bundle (graph, space, result, index) written by the last
#: version-1 writer, which also stored the neighbour relation.
V1_BUNDLE = Path(__file__).parent / "fixtures" / "bundle_v1"


@pytest.fixture()
def saved(tmp_path):
    """A full bundle (graph + space + result + hierarchy) and its inputs."""
    graph = CSRGraph.from_graph(powerlaw_cluster_graph(60, 3, 0.5, seed=7))
    space = CSRSpace.from_graph(graph, 2, 3)
    result = peeling_decomposition(space)
    hierarchy = build_hierarchy(space, result)
    path = save_bundle(
        tmp_path / "b", graph=graph, space=space, result=result, hierarchy=hierarchy
    )
    return path, graph, space, result, hierarchy


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_graph_buffers_byte_identical(self, saved):
        path, graph, *_ = saved
        reopened = open_bundle(path).graph
        assert np.array_equal(reopened.indptr, graph.indptr)
        assert np.array_equal(reopened.indices, graph.indices)
        assert list(reopened.labels) == list(graph.labels)

    def test_kappa_byte_identical(self, saved):
        path, _, _, result, _ = saved
        bundle = open_bundle(path)
        assert np.array_equal(
            bundle.kappa, np.asarray(result.kappa, dtype=np.int64)
        )
        assert bundle.result.kappa == result.kappa
        assert bundle.result.algorithm == result.algorithm
        assert bundle.result.converged == result.converged

    def test_space_cliques_and_incidence_identical(self, saved):
        path, _, space, result, _ = saved
        reopened = open_bundle(path).space
        assert reopened.r == space.r and reopened.s == space.s
        assert list(reopened.cliques) == list(space.cliques)
        for name in ("ctx_offsets", "ctx_members"):
            assert np.array_equal(
                np.frombuffer(getattr(space, name), dtype=np.int64),
                np.asarray(getattr(reopened, name)),
            )
        for i in range(len(space)):
            assert reopened.neighbors(i) == space.neighbors(i)
        # the memmapped space is a working kernel substrate
        assert peeling_decomposition(reopened).kappa == result.kappa

    def test_reopened_space_speaks_python_ints(self, saved):
        path, _, space, result, _ = saved
        reopened = open_bundle(path).space
        i = max(range(len(space)), key=space.s_degree)
        assert type(reopened.s_degree(i)) is int
        assert all(type(d) is int for d in reopened.s_degrees())
        assert reopened.s_degrees() == space.s_degrees()
        assert all(type(j) is int for j in reopened.neighbors(i))
        assert reopened.neighbors(i) == space.neighbors(i)
        assert reopened.contexts(i) == space.contexts(i)
        assert all(type(j) is int for ctx in reopened.contexts(i) for j in ctx)
        peeled = peeling_decomposition(reopened)
        visited = and_decomposition(reopened, order="natural")
        assert visited.operations["engine"] == "python"
        for kappa in (peeled.kappa, visited.kappa):
            assert kappa == result.kappa
            assert all(type(k) is int for k in kappa)
            json.dumps(kappa)

    @pytest.mark.parametrize("notification", [True, False])
    @pytest.mark.parametrize(
        "order", ["natural", "degree", "degree_desc", "random", "peel"]
    )
    @pytest.mark.parametrize("rs", [(1, 2), (2, 3), (3, 4)])
    def test_reopened_space_walks_the_dict_schedule(
        self, tmp_path, rs, order, notification
    ):
        """The per-visit loop over a memmapped space is the dict oracle's."""
        space = NucleusSpace(powerlaw_cluster_graph(60, 3, 0.5, seed=7), *rs)
        reopened = open_bundle(save_bundle(tmp_path / "b", space=space)).space
        options = dict(seed=5, notification=notification, record_history=True)
        # "peel" is each space's own peel order, and the dict and CSR peels
        # break ties within a level differently: hand the dict side the CSR's
        dict_order = peel_order(reopened) if order == "peel" else order
        a = and_decomposition(space, order=dict_order, **options)
        b = and_decomposition(reopened, order=order, **options)
        assert b.operations["backend"] == "csr"
        assert (b.kappa, b.iterations, b.tau_history) == (
            a.kappa,
            a.iterations,
            a.tau_history,
        )
        assert [s.as_row() for s in b.iteration_stats] == [
            s.as_row() for s in a.iteration_stats
        ]
        assert all(type(k) is int for k in b.kappa)

    def test_hierarchy_index_identical(self, saved):
        path, _, _, _, hierarchy = saved
        assert open_bundle(path).index == hierarchy.interval_index()

    def test_buffers_are_memmapped(self, saved):
        path, *_ = saved
        bundle = open_bundle(path)
        assert isinstance(bundle.kappa, np.memmap)
        assert not bundle.kappa.flags.writeable
        indptr = bundle.graph.indptr
        assert isinstance(indptr, np.memmap) or isinstance(indptr.base, np.memmap)

    def test_verify_passes_on_clean_bundle(self, saved):
        path, *_ = saved
        open_bundle(path, verify=True)

    def test_kappa_of_point_lookup(self, saved):
        path, _, space, result, _ = saved
        bundle = open_bundle(path)
        for i in random.Random(5).sample(range(len(space)), 10):
            clique = space.cliques[i]
            assert bundle.kappa_of(clique) == result.kappa_of(clique)
        with pytest.raises(KeyError):
            bundle.kappa_of((10**6, 10**6 + 1))

    def test_dict_built_space_round_trips(self, tmp_path):
        graph = ring_of_cliques(5, 4)
        space = NucleusSpace(graph, 2, 3)
        result = peeling_decomposition(space)
        hierarchy = build_hierarchy(space, result)
        path = save_bundle(
            tmp_path / "d", graph=graph, space=space, result=result,
            hierarchy=hierarchy,
        )
        bundle = open_bundle(path, verify=True)
        assert list(bundle.space.cliques) == list(space.cliques)
        assert bundle.result.kappa == result.kappa
        assert bundle.index == hierarchy.interval_index()

    def test_string_labels_round_trip(self, tmp_path):
        graph = CSRGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        path = save_bundle(tmp_path / "s", graph=graph)
        reopened = open_bundle(path).graph
        assert list(reopened.labels) == ["a", "b", "c"]
        assert list(reopened.neighbors("b")) == ["a", "c"]

    def test_mixed_labels_round_trip_via_json(self, tmp_path):
        graph = CSRGraph.from_edges([(0, "x"), ("x", 2.5)])
        path = save_bundle(tmp_path / "m", graph=graph)
        assert list(open_bundle(path).graph.labels) == list(graph.labels)

    def test_partial_bundle_result_only(self, tmp_path):
        space = CSRSpace.from_graph(
            CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]), 1, 2
        )
        result = peeling_decomposition(space)
        bundle = open_bundle(save_bundle(tmp_path / "p", result=result))
        assert bundle.kappa.tolist() == result.kappa
        with pytest.raises(StoreFormatError, match="no 'space' component"):
            bundle.space

    def test_save_requires_a_component(self, tmp_path):
        with pytest.raises(ValueError, match="at least one component"):
            save_bundle(tmp_path / "e")

    def test_save_rejects_mismatched_instance(self, tmp_path):
        space = CSRSpace.from_graph(
            CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]), 1, 2
        )
        other = peeling_decomposition(
            CSRSpace.from_graph(CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]), 2, 3)
        )
        with pytest.raises(ValueError, match="disagrees"):
            save_bundle(tmp_path / "x", space=space, result=other)


# ----------------------------------------------------------------------
# saving over an existing bundle
# ----------------------------------------------------------------------
#: Opens bundle A, memory-maps every buffer, saves a much smaller bundle B
#: into the same directory, then reads A's maps again.  A writer that
#: truncates the old files in place changes A's bytes under it and kills
#: this process with SIGBUS once a map reads past the new end of file.
OVERWRITE_SCRIPT = """
import sys
import numpy as np
from repro.core.csr import CSRSpace
from repro.core.hierarchy import build_hierarchy
from repro.core.peeling import peeling_decomposition
from repro.graph.csr_graph import CSRGraph
from repro.graph.generators import complete_graph, powerlaw_cluster_graph
from repro.store import open_bundle, save_bundle

def parts(graph):
    graph = CSRGraph.from_graph(graph)
    space = CSRSpace.from_graph(graph, 2, 3)
    result = peeling_decomposition(space)
    return dict(graph=graph, space=space, result=result,
                hierarchy=build_hierarchy(space, result))

path = sys.argv[1]
save_bundle(path, **parts(powerlaw_cluster_graph(300, 6, 0.8, seed=1)))
a = open_bundle(path)
names = sorted(a.manifest["buffers"])
before = {name: np.array(a.load_array(name)) for name in names}
save_bundle(path, **parts(complete_graph(4)))
changed = [name for name in names if not np.array_equal(a.load_array(name), before[name])]
assert not changed, changed
assert open_bundle(path, verify=True).kappa.tolist() == [2] * 6
print("ok")
"""


class TestOverwrite:
    def test_open_readers_keep_their_bytes(self, tmp_path):
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", OVERWRITE_SCRIPT, str(tmp_path / "b")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
        assert done.stdout.strip() == "ok"

    def test_interrupted_overwrite_is_not_a_bundle(self, saved, monkeypatch):
        """A save that fails after its first buffers must not leave the old
        manifest vouching for the new files."""
        path, *_ = saved
        real_save, calls = np.save, []

        def failing_save(file, array, *args, **kwargs):
            calls.append(file)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return real_save(file, array, *args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
        space = CSRSpace.from_graph(graph, 2, 3)
        with pytest.raises(OSError, match="no space"):
            save_bundle(path, graph=graph, space=space, result=peeling_decomposition(space))
        with pytest.raises(StoreFormatError, match="not a bundle"):
            open_bundle(path)


# ----------------------------------------------------------------------
# format robustness: every corruption is a StoreFormatError
# ----------------------------------------------------------------------
class TestFormatErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a bundle"):
            open_bundle(tmp_path / "nope")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreFormatError, match=MANIFEST_NAME):
            open_bundle(tmp_path / "empty")

    def test_unparsable_manifest(self, saved):
        path, *_ = saved
        (path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreFormatError, match="unreadable manifest"):
            open_bundle(path)

    def test_wrong_format_name(self, saved):
        path, *_ = saved
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format"] = "other-thing"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="not a 'repro-bundle'"):
            open_bundle(path)

    def test_version_mismatch(self, saved):
        path, *_ = saved
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="unsupported bundle format version"):
            open_bundle(path)

    def test_missing_buffer_file(self, saved):
        path, *_ = saved
        (path / "result.kappa.npy").unlink()
        with pytest.raises(StoreFormatError, match="missing buffer file"):
            open_bundle(path).kappa

    def test_truncated_buffer(self, saved):
        path, *_ = saved
        file = path / "result.kappa.npy"
        file.write_bytes(file.read_bytes()[: file.stat().st_size // 2])
        with pytest.raises(StoreFormatError, match="truncated"):
            open_bundle(path).kappa

    def test_dtype_mismatch(self, saved):
        path, *_ = saved
        kappa = np.load(path / "result.kappa.npy")
        np.save(path / "result.kappa.npy", kappa.astype(np.int32))
        # int32 halves the payload, so either check may fire first — both
        # must surface as StoreFormatError, not a numpy reshape error
        with pytest.raises(StoreFormatError, match="truncated|disagrees"):
            open_bundle(path).kappa

    def test_shape_mismatch(self, saved):
        path, *_ = saved
        kappa = np.load(path / "result.kappa.npy")
        np.save(path / "result.kappa.npy", np.append(kappa, [0, 0]))
        with pytest.raises(StoreFormatError, match="disagrees with the manifest"):
            open_bundle(path).kappa

    def test_bitflip_caught_by_verify(self, saved):
        path, *_ = saved
        file = path / "result.kappa.npy"
        raw = bytearray(file.read_bytes())
        raw[-1] ^= 0xFF
        file.write_bytes(bytes(raw))
        open_bundle(path)  # lazy open never reads the payload
        with pytest.raises(StoreFormatError, match="checksum mismatch"):
            open_bundle(path, verify=True)

    def test_unknown_buffer_requested(self, saved):
        path, *_ = saved
        with pytest.raises(StoreFormatError, match="lacks buffer"):
            open_bundle(path).load_array("no.such.buffer")


# ----------------------------------------------------------------------
# wiring: resolvers, decomposition entry point, query layer, dataset cache
# ----------------------------------------------------------------------
class TestWiring:
    def test_resolve_space_uses_stored_space(self, saved):
        path, *_ = saved
        bundle = open_bundle(path)
        assert resolve_space(bundle, 2, 3) is bundle.space
        assert resolve_space(bundle, None, None) is bundle.space

    def test_resolve_space_falls_back_to_graph(self, saved):
        path, _, space, *_ = saved
        other = resolve_space(open_bundle(path), 1, 2)
        assert isinstance(other, CSRSpace)
        assert (other.r, other.s) == (1, 2)

    def test_nucleus_decomposition_accepts_bundle(self, saved):
        path, _, _, result, _ = saved
        rerun = nucleus_decomposition(open_bundle(path), 2, 3, algorithm="peeling")
        assert rerun.kappa == result.kappa

    def test_query_layer_accepts_bundle(self, saved):
        path, graph, *_ = saved
        bundle = open_bundle(path)
        edge = (int(graph.indices[0]), 0)
        est = estimate_local_indices(bundle, [edge], 2, 3, hops=1)
        ref = estimate_local_indices(graph, [edge], 2, 3, hops=1)
        assert dict(est) == dict(ref)

    @pytest.mark.parametrize(
        "relabel",
        [None, lambda v: 10 * v + 3, lambda v: f"v{v}"],
        ids=["compact", "int", "str"],
    )
    def test_shared_label_table_passes_ids_through(
        self, tmp_path, monkeypatch, relabel
    ):
        source = powerlaw_cluster_graph(40, 3, 0.5, seed=2)
        if relabel is not None:
            source = Graph((relabel(u), relabel(v)) for u, v in source.edges())
        graph = CSRGraph.from_graph(source)
        space = CSRSpace.from_graph(graph, 2, 3)
        bundle = open_bundle(save_bundle(tmp_path / "b", graph=graph, space=space))

        def refuse(self):
            raise AssertionError("a shared label table needs no label map")

        monkeypatch.setattr(CliqueArrayView, "label_ids", refuse)
        ids = np.array([0, 5, 7, 39], dtype=np.int64)
        assert np.array_equal(bundle.space_vertex_ids(ids), ids)
        assert np.array_equal(bundle.space_vertex_ids(ids[::-1]), ids[::-1])

    @pytest.mark.parametrize("relabel", [lambda v: 10 * v + 3, lambda v: f"v{v}"],
                             ids=["int", "str"])
    def test_shared_label_table_is_encoded_once(self, tmp_path, monkeypatch, relabel):
        source = powerlaw_cluster_graph(40, 3, 0.5, seed=2)
        graph = CSRGraph.from_graph(
            Graph((relabel(u), relabel(v)) for u, v in source.edges())
        )
        space = CSRSpace.from_graph(graph, 2, 3)
        assert space.cliques.labels is graph.labels
        encoded = []
        encode = bundle_module._encode_labels

        def spy(labels):
            encoded.append(labels)
            return encode(labels)

        monkeypatch.setattr(bundle_module, "_encode_labels", spy)
        path = save_bundle(tmp_path / "b", graph=graph, space=space)
        assert len(encoded) == 1 and encoded[0] is graph.labels
        assert (path / "graph.labels.npy").read_bytes() == (
            path / "space.labels.npy"
        ).read_bytes()
        bundle = open_bundle(path)
        assert list(bundle.space.cliques.labels) == list(graph.labels)

    def test_reopened_label_maps_have_plain_keys(self, saved):
        path, graph, *_ = saved
        bundle = open_bundle(path)
        assert isinstance(bundle.graph.labels, np.ndarray)
        for v in range(graph.number_of_vertices()):
            label = graph.labels[v]
            assert bundle.graph.find_id(label) == v
            assert bundle.graph.find_id(np.int64(label)) == v
        assert bundle.graph.find_id(10_000) is None
        keys = bundle.space.cliques.label_ids()
        assert all(type(key) is int for key in keys)

    def test_bundle_without_usable_component_raises(self, tmp_path):
        result = peeling_decomposition(
            CSRSpace.from_graph(CSRGraph.from_edges([(0, 1)]), 1, 2)
        )
        bundle = open_bundle(save_bundle(tmp_path / "r", result=result))
        with pytest.raises(ValueError, match="neither a space nor a graph"):
            resolve_space(bundle, 1, 2)

    def test_load_dataset_cache_dir(self, tmp_path):
        fresh = load_dataset("fb", "csr")
        cached = load_dataset("fb", "csr", cache_dir=tmp_path / "cache")
        again = load_dataset("fb", "csr", cache_dir=tmp_path / "cache")
        for g in (cached, again):
            assert np.array_equal(g.indptr, fresh.indptr)
            assert np.array_equal(g.indices, fresh.indices)
        # the warm copy reads straight off the bundle memmap
        assert isinstance(again.indptr, np.memmap) or isinstance(
            again.indptr.base, np.memmap
        )

    def test_load_dataset_cache_dir_requires_csr(self, tmp_path):
        with pytest.raises(ValueError, match="cache_dir requires"):
            load_dataset("fb", "dict", cache_dir=tmp_path)

    def test_load_dataset_rebuilds_invalid_cache_entry(self, tmp_path):
        entry = tmp_path / "cache" / "fb"
        entry.mkdir(parents=True)
        (entry / MANIFEST_NAME).write_text("garbage")
        graph = load_dataset("fb", "csr", cache_dir=tmp_path / "cache")
        assert np.array_equal(graph.indptr, load_dataset("fb", "csr").indptr)

    def test_bundle_repr_and_summary(self, saved):
        path, *_ = saved
        bundle = open_bundle(path)
        assert isinstance(bundle, Bundle)
        assert "(2,3)" in bundle.summary()
        assert bundle.has("graph") and not bundle.has("nonsense")


# ----------------------------------------------------------------------
# corruption recovery: quarantine and rebuild
# ----------------------------------------------------------------------
ALL_BUFFER_KINDS = (
    "graph.indptr",
    "graph.indices",
    "space.ctx_offsets",
    "space.ctx_members",
    "space.nbr_offsets",
    "space.nbr_members",
    "space.clique_ids",
    "result.kappa",
)


class TestCorruptionRecovery:
    """A flipped byte in any buffer kind must be *caught* (verified open)
    and *survivable* (the dataset cache quarantines and rebuilds)."""

    @pytest.mark.parametrize("buffer_name", ALL_BUFFER_KINDS)
    def test_verified_open_catches_any_flipped_buffer(
        self, saved, tmp_path, buffer_name
    ):
        from repro.resilience.faults import FaultInjector

        path, *_ = saved
        if buffer_name not in json.loads((path / MANIFEST_NAME).read_text())["buffers"]:
            # the neighbour buffers exist in version-1 bundles only; their
            # checksums are still verified there
            path = shutil.copytree(V1_BUNDLE, tmp_path / "v1")
        hit = FaultInjector(
            [{"kind": "corrupt", "buffer": buffer_name}]
        ).corrupt_bundle(path)
        assert hit == 1
        with pytest.raises(StoreFormatError, match="checksum|crc|CRC"):
            open_bundle(path, verify=True)
        # the unverified open stays lazy and cheap: corruption in buffer
        # payloads is the *verified* open's job to catch
        open_bundle(path)

    @pytest.mark.parametrize("buffer_name", ["graph.indptr", "graph.indices"])
    def test_cache_quarantines_and_rebuilds_with_parity(
        self, tmp_path, buffer_name
    ):
        from repro.datasets.registry import CACHE_EVENTS
        from repro.resilience.faults import FaultInjector

        fresh = load_dataset("fb", "csr")
        cache = tmp_path / "cache"
        load_dataset("fb", "csr", cache_dir=cache)
        FaultInjector(
            [{"kind": "corrupt", "buffer": buffer_name}]
        ).corrupt_bundle(cache / "fb")

        quarantined_before = CACHE_EVENTS["quarantined"]
        rebuilt = load_dataset("fb", "csr", cache_dir=cache)
        assert np.array_equal(rebuilt.indptr, fresh.indptr)
        assert np.array_equal(rebuilt.indices, fresh.indices)
        assert CACHE_EVENTS["quarantined"] == quarantined_before + 1
        assert (cache / "fb.corrupt-0").is_dir()
        # the quarantined copy is preserved for post-mortem, the live
        # entry is healthy again
        open_bundle(cache / "fb", verify=True)

    def test_quarantine_names_never_collide(self, tmp_path):
        from repro.resilience.faults import FaultInjector

        cache = tmp_path / "cache"
        for expected in ("fb.corrupt-0", "fb.corrupt-1"):
            load_dataset("fb", "csr", cache_dir=cache)
            FaultInjector([{"kind": "corrupt"}]).corrupt_bundle(cache / "fb")
            load_dataset("fb", "csr", cache_dir=cache)
            assert (cache / expected).is_dir()

    def test_save_time_corruption_fault_hook(self, tmp_path):
        """An active ``corrupt`` fault plan damages the bundle as it is
        saved — and its one-shot budget means the rebuild comes out clean."""
        from repro.resilience import faults

        graph = CSRGraph.from_graph(ring_of_cliques(3, 4))
        with faults.fault_plan({"faults": [{"kind": "corrupt"}]}) as injector:
            path = save_bundle(tmp_path / "sabotaged", graph=graph)
            assert injector.fired.get("corrupt") == 1
            with pytest.raises(StoreFormatError):
                open_bundle(path, verify=True)
            # budget spent: a re-save inside the same plan is untouched
            clean = save_bundle(tmp_path / "clean", graph=graph)
            open_bundle(clean, verify=True)

    def test_quarantine_logs_a_warning(self, tmp_path, caplog):
        from repro.resilience.faults import FaultInjector

        cache = tmp_path / "cache"
        load_dataset("fb", "csr", cache_dir=cache)
        FaultInjector([{"kind": "corrupt"}]).corrupt_bundle(cache / "fb")
        with caplog.at_level("WARNING", logger="repro.datasets.registry"):
            load_dataset("fb", "csr", cache_dir=cache)
        assert any("quarantined" in rec.message for rec in caplog.records)


# ----------------------------------------------------------------------
# format versions
# ----------------------------------------------------------------------
class TestFormatVersions:
    """Version 2 dropped the neighbour buffers; version-1 bundles still open
    and answer exactly like a freshly saved version-2 bundle."""

    @pytest.fixture()
    def pair(self, tmp_path):
        graph = CSRGraph.from_graph(powerlaw_cluster_graph(40, 3, 0.5, seed=7))
        space = CSRSpace.from_graph(graph, 2, 3)
        result = peeling_decomposition(space)
        fresh = save_bundle(
            tmp_path / "v2", graph=graph, space=space, result=result,
            hierarchy=build_hierarchy(space, result),
        )
        return open_bundle(V1_BUNDLE, verify=True), open_bundle(fresh, verify=True)

    def test_versions_on_disk(self, pair):
        old, new = pair
        assert old.manifest["version"] == 1
        assert new.manifest["version"] == FORMAT_VERSION == 2
        assert "space.nbr_offsets" in old.manifest["buffers"]
        assert not any("nbr" in name for name in new.manifest["buffers"])

    def test_v1_answers_equal_v2(self, pair):
        old, new = pair
        assert np.array_equal(old.kappa, new.kappa)
        assert old.result.kappa == new.result.kappa
        for clique in new.space.cliques:
            assert old.clique_index_of(clique) == new.clique_index_of(clique)
            assert old.kappa_of(clique) == new.kappa_of(clique)
        assert old.clique_index_of((0, 99)) is None
        queries = list(new.space.cliques)[::7]
        for hops in (0, 1, 2):
            a = estimate_local_indices(old, queries, 2, 3, hops=hops)
            b = estimate_local_indices(new, queries, 2, 3, hops=hops)
            assert dict(a) == dict(b)
            assert (a.ball_size, a.subgraph_edges, a.iterations) == (
                b.ball_size, b.subgraph_edges, b.iterations
            )

    def test_v1_space_ignores_the_neighbour_buffers(self, pair):
        old, new = pair
        space = old.space
        assert not hasattr(space, "nbr_offsets")
        space.validate()
        assert [space.neighbors(i) for i in range(len(space))] == [
            new.space.neighbors(i) for i in range(len(space))
        ]
        assert and_decomposition(space).kappa == old.result.kappa

    @pytest.mark.parametrize("version", [3, 0, True, "1", 1.0])
    def test_other_versions_refused(self, tmp_path, version):
        path = shutil.copytree(V1_BUNDLE, tmp_path / "other")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["version"] = version
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="unsupported bundle format version"):
            open_bundle(path)
