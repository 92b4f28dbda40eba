"""Versioned on-disk store for graphs, clique spaces and decompositions.

Every run used to re-parse and re-enumerate from scratch: the CSR substrate
(:class:`~repro.graph.csr_graph.CSRGraph`,
:class:`~repro.core.csr.CSRSpace`) and the decomposition outputs lived only
in RAM.  A *bundle* is the durable counterpart — a directory holding

* one ``.npy`` file per flat int64 buffer (graph adjacency, space incidence,
  κ array, interval-index arrays), and
* a small JSON ``manifest.json`` recording the format version, the (r, s)
  instance, per-buffer dtype/shape/CRC32 and the vertex-label table.

:func:`save_bundle` writes any subset of the pipeline's artefacts;
:func:`open_bundle` reopens them through ``numpy.memmap`` — no parsing, no
enumeration, lazy page-in — so a second run on the same dataset skips
parse + enumerate + decompose entirely, and graphs larger than RAM stay
usable as long as the working set pages in.  The normative description of
the layout lives in ``docs/FORMAT.md``; structural violations raise
:class:`StoreFormatError` (never a bare numpy shape error).

Examples
--------
>>> import tempfile
>>> from repro.core.csr import CSRSpace
>>> from repro.core.peeling import peeling_decomposition
>>> from repro.graph.csr_graph import CSRGraph
>>> graph = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
>>> space = CSRSpace.from_graph(graph, 1, 2)
>>> result = peeling_decomposition(space)
>>> with tempfile.TemporaryDirectory() as tmp:
...     path = save_bundle(tmp + "/toy", graph=graph, space=space, result=result)
...     bundle = open_bundle(path)
...     (bundle.result.kappa == result.kappa, int(bundle.kappa[3]))
(True, 1)
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.intervals import HierarchyIndex

from repro.core.csr import CSRSpace
from repro.core.hierarchy import NucleusHierarchy
from repro.core.result import DecompositionResult
from repro.core.space import NucleusSpace, _binomial
from repro.graph.csr_graph import CliqueArrayView, CSRGraph
from repro.graph.graph import Graph
from repro.resilience.errors import StoreFormatError
from repro.resilience.faults import get_active as _active_faults

__all__ = [
    "Bundle",
    "StoreFormatError",
    "save_bundle",
    "open_bundle",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
]

#: The ``format`` field every manifest must carry.
FORMAT_NAME = "repro-bundle"

#: Major format version written by :func:`save_bundle`.  Forward
#: compatibility is handled by bumping the version, never by silently
#: reinterpreting buffers (see docs/FORMAT.md).
FORMAT_VERSION = 2

#: Versions :func:`open_bundle` reads.  A version-1 bundle also stored
#: the S-neighbour relation as two more ``space.*`` buffers; its other
#: buffers mean the same, and the reader ignores those two.
_READABLE_VERSIONS = (1, 2)

#: File name of the manifest inside a bundle directory.  The manifest is
#: removed first and written last: a directory without one is an
#: incomplete write, not a bundle.
MANIFEST_NAME = "manifest.json"

#: Buffer names of each component (docs/FORMAT.md is the normative list).
GRAPH_BUFFERS = ("graph.indptr", "graph.indices")
SPACE_BUFFERS = (
    "space.ctx_offsets",
    "space.ctx_members",
    "space.clique_ids",
)
RESULT_BUFFERS = ("result.kappa",)


# StoreFormatError lives in repro.resilience.errors now (re-parented under
# the taxonomy so supervisors can classify it as fatal); it stays importable
# from here, where it is raised and callers have always found it.


# ----------------------------------------------------------------------
# label tables
# ----------------------------------------------------------------------
def _identity_labels(labels: Sequence[Any]) -> bool:
    return (
        isinstance(labels, range)
        and labels.start == 0
        and labels.step == 1
    )


def _same_labels(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Whether two decoded label tables hold equal labels in the same order."""
    if len(a) != len(b):
        return False
    if isinstance(a, list) or isinstance(b, list):
        return list(a) == list(b)
    # ranges and int64 buffers
    return bool(_np.array_equal(a, b))


def _encode_labels(labels: Sequence[Any]) -> Tuple[Dict[str, Any], Any]:
    """Encode a vertex-label table: ``(manifest descriptor, array or None)``.

    Three encodings: ``identity`` (labels are ``0..n-1``, nothing stored),
    ``buffer`` (homogeneous int or str labels as an ``.npy`` sidecar, the
    returned array; :func:`_store_labels` names it) and ``json`` (anything
    JSON-scalar, inline in the manifest).
    """
    if _identity_labels(labels):
        return {"kind": "identity", "n": len(labels)}, None
    # a reopened bundle's table is an int64 memmap: its items are numpy ints
    values = labels.tolist() if isinstance(labels, _np.ndarray) else list(labels)
    types = {type(v) for v in values}
    if types <= {int}:
        return {"kind": "buffer"}, _np.asarray(values, dtype=_np.int64)
    if types <= {str}:
        return {"kind": "buffer"}, _np.asarray(values)
    if all(isinstance(v, (bool, int, float, str)) for v in values):
        return {"kind": "json", "values": values}, None
    raise StoreFormatError(
        "vertex labels must be int, str, float or bool to be stored; got "
        f"types {sorted(t.__name__ for t in types)}"
    )


def _store_labels(
    encoded: Tuple[Dict[str, Any], Any],
    buffer_name: str,
    writer: Callable[[str, Any], None],
) -> Dict[str, Any]:
    """Write an encoded label table's array, if any; returns its descriptor."""
    spec, table = encoded
    if table is None:
        return spec
    writer(buffer_name, table)
    return dict(spec, buffer=buffer_name)


def _decode_labels(spec: Dict[str, Any], loader: Callable[[str], Any]) -> Any:
    kind = spec.get("kind")
    if kind == "identity":
        return range(int(spec["n"]))
    if kind == "buffer":
        table = loader(spec["buffer"])
        # string tables materialise to plain str (numpy scalar types leak
        # into canonical orderings otherwise); int tables stay memmapped
        return table.tolist() if table.dtype.kind == "U" else table
    if kind == "json":
        return list(spec["values"])
    raise StoreFormatError(f"unknown label encoding {kind!r} in manifest")


# ----------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------
def save_bundle(
    path: Union[str, os.PathLike],
    *,
    graph: Optional[Union[Graph, CSRGraph]] = None,
    space: Optional[Union[NucleusSpace, CSRSpace]] = None,
    result: Optional[DecompositionResult] = None,
    hierarchy: Optional[NucleusHierarchy] = None,
) -> Path:
    """Persist pipeline artefacts as a versioned binary bundle.

    Parameters
    ----------
    path : str or path-like
        Target directory (created if absent).  Saving over a bundle first
        removes its manifest, so an interrupted save never leaves an old
        manifest over new buffers; the new manifest is written last,
        atomically.  Each old buffer file is unlinked just before its new
        one is written, never truncated: a reader that opened the old
        bundle keeps reading the old bytes through its memory maps.
    graph : Graph or CSRGraph, optional
        The source graph.  A dict :class:`Graph` is converted to its CSR
        form first — bundles always store flat arrays.
    space : NucleusSpace or CSRSpace, optional
        The (r, s) clique space; a :class:`NucleusSpace` is stored as its
        ``to_csr()`` (identical indexing).  Its clique table and label
        table are stored alongside the two incidence buffers.
    result : DecompositionResult, optional
        κ array plus algorithm metadata.  ``tau_history``, per-iteration
        stats and operation counters are *not* persisted (they are
        diagnostics, not state).
    hierarchy : NucleusHierarchy or HierarchyIndex, optional
        The nucleus hierarchy, stored as its Euler-interval index arrays
        (see :mod:`repro.core.intervals`); an already-built
        :class:`~repro.core.intervals.HierarchyIndex` is accepted too.

    Returns
    -------
    pathlib.Path
        The bundle directory.

    Raises
    ------
    ValueError
        No component given, or inconsistent (r, s) between components.
    StoreFormatError
        A label table that cannot be encoded.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graph.csr_graph import CSRGraph
    >>> g = CSRGraph.from_edges([("a", "b"), ("b", "c")])
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     bundle = open_bundle(save_bundle(tmp + "/g", graph=g))
    ...     list(bundle.graph.neighbors("b"))
    ['a', 'c']
    """
    if graph is None and space is None and result is None and hierarchy is None:
        raise ValueError("save_bundle needs at least one component")
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    # from here on the directory is not a bundle until the new manifest lands
    (target / MANIFEST_NAME).unlink(missing_ok=True)

    buffers: Dict[str, Dict[str, Any]] = {}
    components: Dict[str, Dict[str, Any]] = {}

    def write(name: str, array) -> None:
        array = _np.ascontiguousarray(array)
        if array.dtype == object:
            raise StoreFormatError(f"buffer {name!r} has object dtype")
        filename = f"{name}.npy"
        # a new file, not a truncated one: an open reader's memory map of
        # the old file keeps its bytes (truncation would also make ext4
        # flush the file's data)
        (target / filename).unlink(missing_ok=True)
        _np.save(target / filename, array)
        buffers[name] = {
            "file": filename,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "crc32": zlib.crc32(array),
        }

    r = s = None
    graph_labels = None  # the graph's label table and its encoding

    if graph is not None:
        if isinstance(graph, Graph):
            graph = CSRGraph.from_graph(graph)
        write("graph.indptr", graph.indptr)
        write("graph.indices", graph.indices)
        graph_labels = (graph.labels, _encode_labels(graph.labels))
        components["graph"] = {
            "labels": _store_labels(graph_labels[1], "graph.labels", write)
        }

    if space is not None:
        if isinstance(space, NucleusSpace):
            space = space.to_csr()
        r, s = space.r, space.s
        write("space.ctx_offsets", space.ctx_offsets)
        write("space.ctx_members", space.ctx_members)
        ids = _np.asarray(space.cliques.ids, dtype=_np.int64)
        write("space.clique_ids", ids.reshape(len(ids), r))
        labels = space.cliques.labels
        # a space built from this graph shares its table: encode it once
        if graph_labels is not None and labels is graph_labels[0]:
            encoded = graph_labels[1]
        else:
            encoded = _encode_labels(labels)
        components["space"] = {
            "labels": _store_labels(encoded, "space.labels", write)
        }

    if result is not None:
        if r is not None and (result.r, result.s) != (r, s):
            raise ValueError(
                f"result instance ({result.r},{result.s}) disagrees with "
                f"space instance ({r},{s})"
            )
        r, s = result.r, result.s
        if space is not None and len(result.kappa) != len(space):
            raise ValueError("result kappa length disagrees with the space")
        write("result.kappa", result._kappa_values())
        components["result"] = {
            "algorithm": result.algorithm,
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
        }

    if hierarchy is not None:
        index = (
            hierarchy.interval_index()
            if isinstance(hierarchy, NucleusHierarchy)
            else hierarchy
        )
        for name, arr in index.arrays().items():
            write(f"index.{name}", arr)
        components["index"] = {"arrays": sorted(index.arrays())}

    manifest: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "created_unix": int(time.time()),
        "components": components,
        "buffers": buffers,
    }
    if r is not None:
        manifest["r"], manifest["s"] = int(r), int(s)

    tmp = target / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, target / MANIFEST_NAME)

    # fault-injection hook: an active plan with "corrupt" specs flips bytes
    # in the buffer files just written, so a later verified open fails its
    # CRC and the cache's quarantine-and-rebuild path is exercised for real
    injector = _active_faults()
    if injector is not None:
        injector.corrupt_bundle(target)
    return target


# ----------------------------------------------------------------------
# opening
# ----------------------------------------------------------------------
def open_bundle(
    path: Union[str, os.PathLike], *, verify: bool = False
) -> "Bundle":
    """Open a bundle directory for memmap-backed reads.

    Only the manifest is read eagerly; every buffer opens as a read-only
    ``numpy.memmap`` whose pages fault in on first access — a warm open is
    O(manifest), not O(data).  dtype and shape are validated against the
    manifest on each buffer open (cheap, header-only); pass ``verify=True``
    to additionally check every buffer's CRC32 (reads all data).

    Raises
    ------
    StoreFormatError
        Missing/unparsable manifest, unknown format or version, and — at
        component access time — missing, truncated or mismatched buffers.

    Examples
    --------
    >>> open_bundle("/nonexistent")  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    repro.store.bundle.StoreFormatError: ...
    """
    target = Path(path)
    manifest_path = target / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreFormatError(f"no {MANIFEST_NAME} in {target} — not a bundle")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"unreadable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise StoreFormatError(
            f"{manifest_path} is not a {FORMAT_NAME!r} manifest"
        )
    version = manifest.get("version")
    # JSON true would compare equal to 1
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise StoreFormatError(
            f"unsupported bundle format version {version!r} "
            f"(this reader supports versions {list(_READABLE_VERSIONS)}); "
            "refusing to reinterpret buffers"
        )
    for key in ("components", "buffers"):
        if not isinstance(manifest.get(key), dict):
            raise StoreFormatError(f"manifest {manifest_path} lacks {key!r}")
    bundle = Bundle(target, manifest)
    if verify:
        bundle.verify()
    return bundle


class Bundle:
    """An opened bundle: lazy, memmap-backed views of its components.

    Construct via :func:`open_bundle`.  Component properties build their
    in-memory objects on first access and cache them; until then only the
    manifest has been read.  All buffers are read-only memmaps — mutate
    nothing.

    Attributes
    ----------
    path : pathlib.Path
        The bundle directory.
    manifest : dict
        The parsed manifest (treat as read-only).
    """

    def __init__(self, path: Path, manifest: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self._arrays: Dict[str, Any] = {}
        self._graph = None
        self._space = None
        self._cliques = None
        self._result = None
        self._index = None
        self._vertex_map = None
        self._shared_labels: Optional[bool] = None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bundle({str(self.path)!r}, components={sorted(self.components)})"

    @property
    def components(self) -> Dict[str, Any]:
        return self.manifest["components"]

    @property
    def r(self) -> Optional[int]:
        return self.manifest.get("r")

    @property
    def s(self) -> Optional[int]:
        return self.manifest.get("s")

    def has(self, component: str) -> bool:
        """True when the named component (graph/space/result/index) exists."""
        return component in self.components

    def _component(self, name: str) -> Dict[str, Any]:
        try:
            return self.components[name]
        except KeyError:
            raise StoreFormatError(
                f"bundle {self.path} has no {name!r} component "
                f"(available: {sorted(self.components)})"
            ) from None

    # ------------------------------------------------------------------
    # buffer access
    # ------------------------------------------------------------------
    def load_array(self, name: str) -> Any:
        """Open buffer ``name`` as a read-only memmap (cached).

        dtype and shape are checked against the manifest, and the file size
        against the expected payload, so truncation and type drift surface
        as :class:`StoreFormatError` here instead of as numpy errors later.
        """
        if name in self._arrays:
            return self._arrays[name]
        entry = self.manifest["buffers"].get(name)
        if entry is None:
            raise StoreFormatError(f"bundle {self.path} lacks buffer {name!r}")
        file = self.path / entry["file"]
        if not file.is_file():
            raise StoreFormatError(f"missing buffer file {file}")
        dtype = _np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        expected = dtype.itemsize * int(_np.prod(shape)) if shape else dtype.itemsize
        if file.stat().st_size < expected:
            raise StoreFormatError(
                f"buffer file {file} is truncated: {file.stat().st_size} bytes "
                f"on disk, {expected} bytes of payload expected"
            )
        try:
            array = _np.load(file, mmap_mode="r", allow_pickle=False)
        except Exception as exc:
            raise StoreFormatError(f"cannot open buffer file {file}: {exc}") from exc
        if array.dtype != dtype or array.shape != shape:
            raise StoreFormatError(
                f"buffer {name!r} disagrees with the manifest: file has "
                f"dtype={array.dtype.str} shape={array.shape}, manifest says "
                f"dtype={dtype.str} shape={shape}"
            )
        self._arrays[name] = array
        return array

    def verify(self) -> None:
        """Check every buffer's CRC32 against the manifest (reads all data)."""
        for name, entry in self.manifest["buffers"].items():
            array = self.load_array(name)
            crc = zlib.crc32(_np.ascontiguousarray(array))
            if crc != entry["crc32"]:
                raise StoreFormatError(
                    f"checksum mismatch for buffer {name!r} in {self.path}: "
                    f"stored {entry['crc32']}, computed {crc}"
                )

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The stored graph as a memmap-backed :class:`CSRGraph`."""
        if self._graph is None:
            spec = self._component("graph")
            labels = _decode_labels(spec["labels"], self.load_array)
            self._graph = CSRGraph(
                self.load_array("graph.indptr"),
                self.load_array("graph.indices"),
                None if isinstance(labels, range) else labels,
            )
        return self._graph

    @property
    def space(self) -> CSRSpace:
        """The stored clique space as a memmap-backed :class:`CSRSpace`.

        Accepted everywhere a ``CSRSpace`` is (kernels, hierarchy, pool);
        the incidence buffers stay on disk until the kernels touch them.
        """
        if self._space is None:
            r, s = int(self.manifest["r"]), int(self.manifest["s"])
            space = CSRSpace.__new__(CSRSpace)
            space.r = r
            space.s = s
            space.stride = _binomial(s, r) - 1
            space.cliques = self._clique_view()
            space.graph = self.graph if self.has("graph") else None
            space.ctx_offsets = self.load_array("space.ctx_offsets")
            space.ctx_members = self.load_array("space.ctx_members")
            self._space = space
        return self._space

    def _clique_view(self) -> CliqueArrayView:
        """The stored clique table as a lazy view (cached, shared with
        :attr:`space`): a point lookup needs only it, not the incidence."""
        if self._cliques is None:
            spec = self._component("space")
            self._cliques = CliqueArrayView(
                self.load_array("space.clique_ids"),
                _decode_labels(spec["labels"], self.load_array),
            )
        return self._cliques

    def space_vertex_ids(self, graph_ids) -> Any:
        """Clique-table vertex ids of the stored graph's vertex ids ``graph_ids``.

        The graph and the space carry a label table each: a space built
        from the stored graph shares its table, while a bundle written by
        an earlier version may label only the vertices that lie in one of
        its r-cliques.  Whether the two tables are equal is checked once;
        when they are, an id means the same vertex in both and
        ``graph_ids`` come back as they are.  Otherwise the id map is built
        once, by label, and vertices the space does not label are dropped.
        """
        ids = _np.asarray(graph_ids, dtype=_np.int64)
        if self._shared_labels is None:
            labels = self.graph.labels
            space_labels = self.space.cliques.labels
            self._shared_labels = _same_labels(labels, space_labels)
            if not self._shared_labels:
                plain = labels.tolist() if hasattr(labels, "tolist") else labels
                label_ids = self.space.cliques.label_ids()
                self._vertex_map = _np.fromiter(
                    (label_ids.get(label, -1) for label in plain),
                    dtype=_np.int64,
                    count=len(plain),
                )
        if self._shared_labels:
            return ids
        ids = self._vertex_map[ids]
        return ids[ids >= 0]

    @property
    def kappa(self) -> Any:
        """The κ array as a read-only int64 memmap (point lookups are O(1))."""
        self._component("result")
        return self.load_array("result.kappa")

    @property
    def result(self) -> DecompositionResult:
        """The stored decomposition as a :class:`DecompositionResult`.

        κ materialises to a list here (the result API contract), next to
        a copy of the stored array; use :attr:`kappa` / :meth:`kappa_of`
        for lookups that should stay on the memmap.
        """
        if self._result is None:
            spec = self._component("result")
            kappa = self.kappa
            cliques = (
                self.space.cliques
                if self.has("space")
                else [None] * len(kappa)
            )
            self._result = DecompositionResult(
                r=int(self.manifest["r"]),
                s=int(self.manifest["s"]),
                algorithm=spec["algorithm"],
                kappa=kappa,
                cliques=cliques,
                iterations=int(spec["iterations"]),
                converged=bool(spec["converged"]),
                operations={"backend": "csr", "source": "bundle"},
            )
        return self._result

    @property
    def index(self) -> "HierarchyIndex":
        """The stored hierarchy interval index (memmap-backed arrays)."""
        if self._index is None:
            from repro.core.intervals import HierarchyIndex

            spec = self._component("index")
            self._index = HierarchyIndex.from_arrays(
                {name: self.load_array(f"index.{name}") for name in spec["arrays"]}
            )
        return self._index

    # ------------------------------------------------------------------
    # point queries served from the memmaps
    # ------------------------------------------------------------------
    def clique_index_of(self, clique: Sequence) -> Optional[int]:
        """Index of an r-clique (given as vertex labels), or ``None``.

        Served by the stored space's :class:`CliqueArrayView`: its label
        map and a binary-search index over the memmapped clique table are
        built on the first lookup and cached, so a lookup is a few
        ``searchsorted`` calls and no per-clique tuple is ever built.  The
        incidence buffers are not opened.
        """
        cliques = self._clique_view()
        width = cliques.ids.shape[1]
        if len(clique) != width:
            raise ValueError(
                f"query has {len(clique)} vertices, the space stores "
                f"{width}-cliques"
            )
        return cliques.find(clique)

    def kappa_of(self, clique: Iterable) -> int:
        """κ of one r-clique, straight off the memmaps (KeyError if absent)."""
        index = self.clique_index_of(tuple(clique))
        if index is None:
            raise KeyError(tuple(clique))
        return int(self.kappa[index])

    def summary(self) -> str:
        """One-line human-readable description (used by the CLI)."""
        parts = [f"bundle {self.path}"]
        if self.r is not None:
            parts.append(f"({self.r},{self.s})")
        parts.append(f"components: {', '.join(sorted(self.components))}")
        if self.has("result"):
            spec = self._component("result")
            parts.append(
                f"{spec['algorithm']} result over "
                f"{self.manifest['buffers']['result.kappa']['shape'][0]} r-cliques"
            )
        return " — ".join(parts)
