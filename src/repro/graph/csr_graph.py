"""Array-native graph substrate: CSR adjacency plus batch clique enumeration.

:class:`repro.graph.graph.Graph` stores adjacency as ``dict[vertex, set]`` —
the right reference semantics, but every enumeration walks Python objects and
every clique becomes a Python tuple.  After the kernels and the application
layer went array-native, that ingestion layer dominated the end-to-end cost.
:class:`CSRGraph` is the flat-array counterpart:

* sorted CSR adjacency — ``indptr`` (length ``n + 1``) and ``indices``
  (neighbour ids, ascending within each row), both ``int64`` numpy arrays —
  over compact integer vertex ids ``0..n-1``;
* a label ↔ id table (ids are assigned in :func:`sorted_vertices` order, so
  id order and canonical label order agree);
* a numpy-vectorised degeneracy ordering (batch peeling: every wave removes
  *all* vertices whose residual degree is at most the current level, which is
  a valid degeneracy ordering and needs only a handful of array passes);
* an oriented forward-adjacency CSR derived from that ordering, from which
  triangles and k-cliques are enumerated as **index-array batches** — an
  ``(m, k)`` int64 array per batch, never a per-clique Python tuple.

The conversion pair :meth:`CSRGraph.from_graph` / :meth:`CSRGraph.to_graph`
bridges the two representations, and the label-facing query API
(``has_edge`` / ``neighbors`` / ``subgraph`` / ``bfs_ball`` / ...) mirrors
``Graph`` closely enough that graph consumers like the query-driven
estimator accept either class unchanged.  :class:`CliqueArrayView` completes
the tuple-free story: it is the lazy ``cliques`` sequence of a CSR space
built from a :class:`CSRGraph`, materialising a canonical label tuple only
when an index is actually read (a human-facing answer), not during
construction or kernel execution.

"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels import kernel
from repro.graph.cliques import canonical_clique
from repro.graph.graph import Edge, Graph, Vertex, sorted_vertices

__all__ = ["CSRGraph", "CliqueArrayView", "SortedRows"]

#: Default bound on the number of candidate pairs examined per enumeration
#: batch; one batch materialises a few int64 arrays of roughly this length.
DEFAULT_BATCH_SIZE = 1 << 20

#: Starting candidate-pair budget of a ``count_k_cliques(limit=...)`` probe.
#: The budget doubles after every chunk that stays below the limit, so a
#: probe that early-exits touches only a few thousand pairs while an
#: unbounded count still converges to :data:`DEFAULT_BATCH_SIZE` chunks.
PROBE_BATCH_SIZE = 1 << 12


class CliqueArrayView:
    """Lazy, immutable clique sequence over an ``(n, k)`` id array.

    Stands in for the ``cliques`` list of a CSR space built from a
    :class:`CSRGraph`: ``len`` / ``getitem`` / iteration behave like a list
    of canonical clique tuples, but a tuple is only materialised when an
    index is read.  ``ids`` rows hold vertex ids sorted ascending and
    ``labels`` is any id-indexable label table (a list, or ``range(n)`` for
    identity labels), so the whole view is two compact references plus the
    lookup index :meth:`find` builds on first use.
    """

    __slots__ = ("ids", "labels", "_label_ids", "_rows", "_base", "_taken")

    def __init__(self, ids, labels) -> None:
        self.ids = ids
        self.labels = labels
        self._label_ids: Optional[Dict[Vertex, int]] = None
        self._rows: Optional["SortedRows"] = None
        self._base: Optional["CliqueArrayView"] = None
        self._taken = None

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        labels = self.labels
        return canonical_clique(tuple(labels[v] for v in self.ids[index].tolist()))

    def __iter__(self) -> Iterator[Tuple]:
        labels = self.labels
        for row in self.ids.tolist():
            yield canonical_clique(tuple(labels[v] for v in row))

    def __contains__(self, clique) -> bool:
        return any(c == clique for c in self)

    def label_ids(self) -> Dict[Vertex, int]:
        """The label → vertex id map, built on first use and cached."""
        if self._label_ids is None:
            labels = self.labels
            plain = labels.tolist() if hasattr(labels, "tolist") else labels
            self._label_ids = {label: i for i, label in enumerate(plain)}
        return self._label_ids

    def sorted_rows(self) -> "SortedRows":
        """The :class:`SortedRows` index over ``ids``, built on first use."""
        if self._rows is None:
            self._rows = SortedRows(self.ids)
        return self._rows

    def take(self, indices) -> "CliqueArrayView":
        """The view over the rows ``indices`` (an ascending int64 array).

        :meth:`find` on the sub-view asks this view and maps the hit with
        one binary search over ``indices``, so a taken view never builds a
        lookup index of its own.
        """
        sub = CliqueArrayView(np.asarray(self.ids)[indices], self.labels)
        sub._base = self
        sub._taken = indices
        return sub

    def find(self, clique) -> Optional[int]:
        """Index of ``clique`` (vertex labels in any order), or ``None``.

        The label map (:meth:`label_ids`) and the row index
        (:meth:`sorted_rows`) are built on first use and cached, so a
        lookup is a few binary searches and no clique tuple is
        materialised.
        """
        if self._base is not None:
            index = self._base.find(clique)
            if index is None:
                return None
            at = int(np.searchsorted(self._taken, index))
            found = at < len(self._taken) and int(self._taken[at]) == index
            return at if found else None
        label_ids = self.label_ids()
        try:
            row = [label_ids[v] for v in clique]
        except KeyError:
            return None
        return self.sorted_rows().find(row)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, CliqueArrayView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        return (CliqueArrayView, (self.ids, self.labels))

    def __repr__(self) -> str:
        width = self.ids.shape[1] if self.ids.ndim == 2 else 1
        return f"CliqueArrayView({len(self)} cliques of {width} vertices)"


class SortedRows:
    """Binary-search index over the rows of an ``(n, k)`` int64 id table.

    Each row is read as a vertex set (its ids sorted), and the rows are put
    in lexicographic order by one stable sort.  :meth:`find` then narrows
    the matching range one column at a time with ``searchsorted``:
    O(k log n) per lookup instead of comparing the query with every row.
    Equal rows keep their table order, so the lowest index wins, as in a
    first-hit scan.  A table already in that order (every array-built
    space's) is detected in linear time and not sorted.
    """

    __slots__ = ("perm", "columns")

    def __init__(self, table) -> None:
        table = np.asarray(table, dtype=np.int64)
        if table.ndim == 1:
            table = table.reshape(-1, 1)
        if not (table[:, 1:] >= table[:, :-1]).all():
            table = np.sort(table, axis=1)
        # consecutive rows in order iff each row's first differing column rises
        step = table[1:] - table[:-1]
        lead = step[np.arange(len(step), dtype=np.int64), (step != 0).argmax(axis=1)]
        if (lead >= 0).all():
            self.perm = np.arange(len(table), dtype=np.int64)
        else:
            self.perm = np.lexsort(table.T[::-1])
        self.columns = [np.ascontiguousarray(col[self.perm]) for col in table.T]

    def find(self, row) -> Optional[int]:
        """Table index of the row holding the ids of ``row``, or ``None``."""
        if len(row) != len(self.columns):
            return None
        lo, hi = 0, len(self.perm)
        for column, value in zip(self.columns, sorted(row)):
            segment = column[lo:hi]
            lo, hi = (
                lo + int(np.searchsorted(segment, value, "left")),
                lo + int(np.searchsorted(segment, value, "right")),
            )
            if lo == hi:
                return None
        return int(self.perm[lo])


# ----------------------------------------------------------------------
# flat-array helpers (module-level so the incidence builders can reuse them)
# ----------------------------------------------------------------------
@kernel
def _sorted_unique(keys):
    """Sorted distinct values of a 1-D int64 array; equals ``np.unique(keys)``.

    numpy 2.x answers a bare ``np.unique`` from a hash table, which on the
    large, nearly sorted key arrays of this package costs tens of times
    more than a sort followed by dropping each element equal to its
    predecessor.
    """
    keys = np.sort(keys)
    distinct = keys[1:] != keys[:-1]
    return np.concatenate((keys[:1], keys[1:][distinct]))


def _compact_labels(labels):
    """``(uniq, inverse)`` of a 1-D label array, as ``np.unique`` returns them.

    ``uniq`` holds the distinct labels ascending and ``inverse`` (int64)
    the position of each label in it.  Signed integer labels of span at
    most ``2 * len(labels)`` are compacted with a presence bitmap: the
    distinct labels are its set positions, and a label's id is the running
    count of set positions up to it, minus one.  That is two passes over
    the bitmap and one gather instead of a sort.
    """
    if labels.size and np.issubdtype(labels.dtype, np.signedinteger):
        low, high = int(labels.min()), int(labels.max())
        if high - low < 2 * labels.size:
            offset = labels.astype(np.int64, copy=False) - low
            present = _id_mask(high - low + 1, offset)
            ids = np.cumsum(present, dtype=np.int64)
            ids -= 1
            return np.flatnonzero(present) + low, ids[offset]
    uniq, inverse = np.unique(labels, return_inverse=True)
    return uniq, inverse.astype(np.int64, copy=False)


def _id_mask(n: int, ids):
    """Membership flags over the ids ``0..n-1``: True exactly at ``ids``."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _runs(starts, counts):
    """Concatenated ``arange(start, start + count)`` over the pairs."""
    shifts = np.cumsum(counts) - counts
    return np.repeat(starts - shifts, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


def _segment_take(ptr, data, rows):
    """Concatenate ``data[ptr[r]:ptr[r+1]]`` for every ``r`` in ``rows``."""
    return data[_runs(ptr[rows], ptr[rows + 1] - ptr[rows])]


def _pairs_within(ptr):
    """All ordered index pairs ``(i, j)``, ``i < j``, inside each segment.

    ``ptr`` bounds segments of a flat element array of length ``ptr[-1]``;
    the return value is two int64 arrays of *global element positions*
    ``(first, second)`` covering every within-segment pair exactly once,
    in segment order, with ``second`` ascending per ``first``.
    """
    lens = ptr[1:] - ptr[:-1]
    total_elems = int(ptr[-1])
    if total_elems == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.arange(total_elems, dtype=np.int64) - np.repeat(ptr[:-1], lens)
    cnt = np.repeat(lens, lens) - pos - 1  # pairs in which each element is first
    total = int(cnt.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    first = np.repeat(np.arange(total_elems, dtype=np.int64), cnt)
    shifts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(cnt)[:-1]))
    second = first + 1 + (np.arange(total, dtype=np.int64) - np.repeat(shifts, cnt))
    return first, second


def _select_rows(ptr, data, rows):
    """Row-subset of a CSR structure: new ``(ptr, data)`` over ``rows``."""
    counts = ptr[rows + 1] - ptr[rows]
    new_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_ptr[1:])
    return new_ptr, _segment_take(ptr, data, rows)


def _chunk_rows_by_pairs(ptr, batch_size):
    """Split CSR rows into chunks of at most ~``batch_size`` candidate pairs.

    Greedy: a chunk takes rows while their pair total stays within the
    budget.  A single row whose pair count alone exceeds the budget still
    forms its own chunk, so progress is always made.  One binary search over
    the running pair total finds each cut, so the cost grows with the number
    of chunks, not of rows.
    """
    total = _pair_totals(ptr)
    lo = 0
    while lo < len(total):
        hi = _next_cut(total, lo, batch_size)
        yield lo, hi
        lo = hi


def _pair_totals(ptr):
    """Running total of the within-row pair counts of a CSR structure."""
    lens = ptr[1:] - ptr[:-1]
    return np.cumsum(lens * (lens - 1) // 2)


def _next_cut(total, lo: int, budget: int) -> int:
    """End of the greedy chunk that starts at row ``lo`` (see above)."""
    spent = int(total[lo - 1]) if lo else 0
    return max(lo + 1, int(np.searchsorted(total, spent + budget, "right")))


class CSRGraph:
    """An undirected simple graph as sorted CSR arrays over integer ids.

    Construct with :meth:`from_edge_arrays` (id arrays),
    :meth:`from_edges` (label pairs), :meth:`from_graph` (a dict
    :class:`Graph`), or :func:`repro.graph.io.read_edge_list_arrays`
    (straight from an edge-list file, no dict graph in between).

    The id-facing API (``*_ids`` methods, ``indptr``/``indices``) is what
    the vectorised enumeration and the CSR space construction consume; the
    label-facing API mirrors :class:`Graph` for interoperability.

    Parameters
    ----------
    indptr : array-like of int64, shape ``(n + 1,)``
        Row offsets: the neighbour ids of vertex ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending.  Accepts
        anything ``numpy.ascontiguousarray`` does — including read-only
        memmaps from an on-disk bundle, which are wrapped without a copy.
    indices : array-like of int64, shape ``(2m,)``
        Flattened neighbour lists (each undirected edge appears in both
        directions).
    labels : sequence, optional
        Label table mapping vertex id → original label; must have exactly
        ``n`` entries.  Omitted means identity labels, kept as a
        ``range`` so nothing is materialised per vertex.

    Examples
    --------
    >>> g = CSRGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    >>> g.number_of_vertices(), g.number_of_edges()
    (3, 3)
    >>> list(g.neighbors("b"))
    ['a', 'c']
    >>> g.indptr.tolist(), g.indices.tolist()
    ([0, 2, 4, 6], [1, 2, 0, 2, 0, 1])

    The id arrays feed the vectorised clique enumeration directly:

    >>> g.count_k_cliques(3)
    1
    """

    __slots__ = (
        "indptr",
        "indices",
        "labels",
        "_label_ids",
        "_num_edges",
        "_order",
        "_rank",
        "_forward",
        "_forward_keys",
        "_edge_ids",
    )

    def __init__(self, indptr, indices, labels=None) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        n = len(self.indptr) - 1
        # identity labels stay a range (no per-vertex objects materialised)
        self.labels = range(n) if labels is None else labels
        if len(self.labels) != n:
            raise ValueError(
                f"label table has {len(self.labels)} entries for {n} vertices"
            )
        self._label_ids: Optional[Dict[Vertex, int]] = None
        self._num_edges = len(self.indices) // 2
        self._order = None
        self._rank = None
        self._forward = None
        self._forward_keys = None
        self._edge_ids = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        src,
        dst,
        *,
        num_vertices: Optional[int] = None,
        labels=None,
    ) -> "CSRGraph":
        """Build from parallel id arrays (one entry per edge, any order).

        Self-loops are dropped and duplicate / reversed duplicates collapse
        (the graph is simple), mirroring :meth:`Graph.from_edge_list`.
        ``num_vertices`` covers trailing isolated vertices; ``labels`` maps
        ids back to original vertex labels (identity when omitted).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        n = int(num_vertices)
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if src.size and max(int(src.max()), int(dst.max())) >= n:
            raise ValueError("vertex id out of range for num_vertices")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # symmetrise then dedupe via the (row, col) key; the unique keys come
        # back sorted, which *is* the CSR layout (rows ascending, sorted
        # neighbours within each row)
        _check_key_space(n, n)
        key = _sorted_unique(
            np.concatenate((src * n + dst, dst * n + src))
            if src.size
            else np.empty(0, dtype=np.int64)
        )
        rows = key // n
        indices = key % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, indices, labels)

    @classmethod
    def from_label_arrays(cls, u, v) -> "CSRGraph":
        """Build from parallel arrays of vertex *labels* (compacted to ids).

        Ids are assigned in sorted label order, which coincides with
        :func:`sorted_vertices` for homogeneous label types — the invariant
        the lazy clique materialisation relies on.  Signed integer labels
        whose span ``max - min + 1`` is at most twice the number of
        endpoints (a bitmap no larger than the input) get their ids from a
        presence bitmap and its running count; any other labels go through
        ``np.unique``.  Both give the same ids and the same label table.
        Self-loops are dropped before ids are assigned, so a label that only
        appears in a self-loop is no vertex, as in
        :func:`repro.graph.io.read_edge_list`.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        keep = u != v
        if not keep.all():
            u, v = u[keep], v[keep]
        uniq, inverse = _compact_labels(np.concatenate((u, v)))
        return cls.from_edge_arrays(
            inverse[: len(u)],
            inverse[len(u):],
            num_vertices=len(uniq),
            labels=uniq.tolist(),
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "CSRGraph":
        """Build from an iterable of ``(u, v)`` label pairs (plus isolated
        vertices), the convenience mirror of ``Graph(edges, vertices)``."""
        edge_list = [(u, v) for u, v in edges]
        seen: Set[Vertex] = set()
        for u, v in edge_list:
            seen.add(u)
            seen.add(v)
        if vertices is not None:
            seen.update(vertices)
        labels = sorted_vertices(seen)
        ids = {label: i for i, label in enumerate(labels)}
        src = np.fromiter((ids[u] for u, _ in edge_list), dtype=np.int64,
                          count=len(edge_list))
        dst = np.fromiter((ids[v] for _, v in edge_list), dtype=np.int64,
                          count=len(edge_list))
        return cls.from_edge_arrays(
            src, dst, num_vertices=len(labels), labels=labels
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert a dict :class:`Graph` (labels and structure preserved)."""
        return cls.from_edges(graph.edges(), vertices=graph.vertices())

    def to_graph(self) -> Graph:
        """Convert back to the dict :class:`Graph` reference representation."""
        graph = Graph(vertices=self.labels)
        labels = self.labels
        indptr, indices = self.indptr.tolist(), self.indices.tolist()
        for u in range(self.number_of_vertices()):
            lu = labels[u]
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if u < v:
                    graph.add_edge(lu, labels[v])
        return graph

    # ------------------------------------------------------------------
    # id-facing queries
    # ------------------------------------------------------------------
    def number_of_vertices(self) -> int:
        return len(self.indptr) - 1

    def number_of_edges(self) -> int:
        return self._num_edges

    def degree_array(self):
        """Per-id degrees as an int64 array."""
        return self.indptr[1:] - self.indptr[:-1]

    def neighbor_ids(self, v: int):
        """Neighbour ids of vertex id ``v`` (a read-only CSR slice)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def label_of(self, v: int) -> Vertex:
        return self.labels[v]

    def id_of(self, label: Vertex) -> int:
        """Vertex id of a label; raises ``KeyError`` when absent."""
        found = self.find_id(label)
        if found is None:
            raise KeyError(label)
        return found

    def find_id(self, label: Vertex) -> Optional[int]:
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_ids.get(label)

    def edge_array(self):
        """All edges once, as an ``(m, 2)`` id array with ``u < v`` rows,
        sorted lexicographically (the canonical (2, *) clique table)."""
        rows = np.repeat(
            np.arange(self.number_of_vertices(), dtype=np.int64),
            self.degree_array(),
        )
        keep = rows < self.indices
        return np.column_stack((rows[keep], self.indices[keep]))

    def bfs_ball_ids(self, seed_ids, radius: int):
        """Ids within ``radius`` hops of any seed id (sorted, vectorised)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        n = self.number_of_vertices()
        visited = np.zeros(n, dtype=bool)
        frontier = _sorted_unique(np.asarray(seed_ids, dtype=np.int64))
        visited[frontier] = True
        for _ in range(radius):
            if frontier.size == 0:
                break
            nbrs = _segment_take(self.indptr, self.indices, frontier)
            nbrs = _sorted_unique(nbrs[~visited[nbrs]])
            if nbrs.size == 0:
                break
            visited[nbrs] = True
            frontier = nbrs
        return np.flatnonzero(visited)

    def subgraph_ids(self, ids) -> "CSRGraph":
        """Induced subgraph of the given ids (labels preserved, relabelled
        to a compact id range in the same ascending order)."""
        ids = _sorted_unique(np.asarray(ids, dtype=np.int64))
        mask = _id_mask(self.number_of_vertices(), ids)
        renumber = np.cumsum(mask) - 1  # old id -> new id where mask holds
        counts = self.indptr[ids + 1] - self.indptr[ids]
        rows = np.repeat(ids, counts)
        cols = _segment_take(self.indptr, self.indices, ids)
        keep = mask[cols]
        rows, cols = renumber[rows[keep]], renumber[cols[keep]]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(ids)), out=indptr[1:])
        labels = self.labels
        if isinstance(labels, range):
            new_labels = ids.tolist()
        else:
            new_labels = [labels[i] for i in ids.tolist()]
        return CSRGraph(indptr, cols, new_labels)

    def edges_within(self, ids) -> int:
        """Number of edges with both endpoints among the distinct ``ids``:
        the edge count of ``subgraph_ids(ids)``, without building it."""
        ids = np.asarray(ids, dtype=np.int64)
        inside = _id_mask(self.number_of_vertices(), ids)
        return int(inside[_segment_take(self.indptr, self.indices, ids)].sum()) // 2

    # ------------------------------------------------------------------
    # label-facing queries (the Graph-compatible surface)
    # ------------------------------------------------------------------
    def has_vertex(self, label: Vertex) -> bool:
        return self.find_id(label) is not None

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        iu, iv = self.find_id(u), self.find_id(v)
        if iu is None or iv is None:
            return False
        row = self.neighbor_ids(iu)
        pos = int(np.searchsorted(row, iv))
        return pos < len(row) and int(row[pos]) == iv

    def neighbors(self, label: Vertex) -> List[Vertex]:
        """Neighbour labels of a vertex (a fresh list, unlike ``Graph``)."""
        labels = self.labels
        return [labels[i] for i in self.neighbor_ids(self.id_of(label)).tolist()]

    def degree(self, label: Vertex) -> int:
        v = self.id_of(label)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> Dict[Vertex, int]:
        return dict(zip(self.labels, self.degree_array().tolist()))

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.labels)

    def edges(self) -> Iterator[Edge]:
        labels = self.labels
        for u, v in self.edge_array().tolist():
            yield (labels[u], labels[v])

    def density(self) -> float:
        n = self.number_of_vertices()
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    def max_degree(self) -> int:
        return int(self.degree_array().max(initial=0))

    def bfs_ball(self, sources: Iterable[Vertex], radius: int) -> Set[Vertex]:
        """Labels within ``radius`` hops of any source (BFS over arrays)."""
        seeds = [
            i for i in (self.find_id(s) for s in sources) if i is not None
        ]
        if not seeds:
            if radius < 0:
                raise ValueError("radius must be non-negative")
            return set()
        labels = self.labels
        return {labels[i] for i in self.bfs_ball_ids(seeds, radius).tolist()}

    def subgraph(self, vertices: Iterable[Vertex]) -> "CSRGraph":
        """Induced subgraph by labels (absent labels are ignored)."""
        ids = [i for i in (self.find_id(v) for v in vertices) if i is not None]
        return self.subgraph_ids(np.asarray(ids, dtype=np.int64))

    def __contains__(self, label: Vertex) -> bool:
        return self.has_vertex(label)

    def __len__(self) -> int:
        return self.number_of_vertices()

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.labels)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(|V|={self.number_of_vertices()}, "
            f"|E|={self.number_of_edges()})"
        )

    def __getstate__(self):
        return {
            "indptr": self.indptr,
            "indices": self.indices,
            "labels": self.labels,
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["indptr"], state["indices"], state["labels"])

    # ------------------------------------------------------------------
    # degeneracy ordering and oriented enumeration
    # ------------------------------------------------------------------
    def degeneracy_order(self):
        """A degeneracy ordering of the vertex ids, as an int64 array.

        Batch peeling: every wave removes *all* live vertices whose residual
        degree is at most the current level ``k`` (levels only increase, and
        a wave's removals can only pull further vertices down to the level,
        which the next wave collects from the touched neighbours).  Each
        vertex therefore has at most ``k <= degeneracy(G)`` neighbours later
        in the ordering — the property the oriented clique enumeration
        needs — while the whole computation is a few numpy passes per wave
        instead of a per-vertex Python loop.
        """
        if self._order is None:
            n = self.number_of_vertices()
            cur = self.degree_array().copy()
            alive = np.ones(n, dtype=bool)
            out = np.empty(n, dtype=np.int64)
            filled = 0
            k = 0
            batch = np.flatnonzero(cur == 0)
            while filled < n:
                if batch.size == 0:
                    active = np.flatnonzero(alive)
                    k = int(cur[active].min())
                    batch = active[cur[active] <= k]
                alive[batch] = False
                out[filled:filled + batch.size] = batch
                filled += batch.size
                nbrs = _segment_take(self.indptr, self.indices, batch)
                nbrs = nbrs[alive[nbrs]]
                if nbrs.size:
                    if nbrs.size * 4 >= n:
                        cur -= np.bincount(nbrs, minlength=n)
                    else:
                        np.subtract.at(cur, nbrs, 1)
                    touched = _sorted_unique(nbrs)
                    batch = touched[cur[touched] <= k]
                else:
                    batch = np.empty(0, dtype=np.int64)
            self._order = out
        return self._order

    def degeneracy_rank(self):
        """Position of every vertex id in :meth:`degeneracy_order`."""
        if self._rank is None:
            order = self.degeneracy_order()
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            self._rank = rank
        return self._rank

    def forward_csr(self):
        """Oriented forward adjacency ``(fptr, fidx)`` in CSR form.

        Every edge is kept once, oriented from the lower- to the
        higher-ranked endpoint; rows are indexed by vertex id and sorted by
        rank within each row, so the maximum row length is the graph's
        degeneracy — the bound that keeps enumeration candidate sets small.
        The layout is one argsort of the packed keys ``src * n + rank[dst]``:
        the keys are distinct, so any sort kind gives this one order, and
        the sorted keys are kept as :meth:`forward_keys`.
        """
        if self._forward is None:
            n = self.number_of_vertices()
            _check_key_space(n, n)
            rank = self.degeneracy_rank()
            rows = np.repeat(np.arange(n, dtype=np.int64), self.degree_array())
            keep = rank[rows] < rank[self.indices]
            src, dst = rows[keep], self.indices[keep]
            keys = src * n + rank[dst]
            order = np.argsort(keys)
            fptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=n), out=fptr[1:])
            self._forward = (fptr, dst[order])
            self._forward_keys = keys[order]
        return self._forward

    def _forward_sources(self):
        """Source vertex of every forward position (``fptr`` expanded)."""
        fptr, _ = self.forward_csr()
        n = self.number_of_vertices()
        return np.repeat(np.arange(n, dtype=np.int64), fptr[1:] - fptr[:-1])

    def forward_keys(self):
        """Sorted ``src * n + rank[dst]`` key of every forward position.

        :meth:`forward_csr` stores the oriented edges by source id, then by
        target rank, so key ``p`` belongs to position ``p`` and one search
        for ``v * n + rank[w]`` both tests the edge ``v → w`` and finds its
        position (:meth:`_pair_test`).  These are the keys the orientation
        sorted, kept beside it rather than rebuilt.
        """
        self.forward_csr()
        return self._forward_keys

    def forward_edge_ids(self):
        """Row of :meth:`edge_array` for every forward position (cached).

        One argsort of the ``min * n + max`` keys of the oriented edges:
        the edge table is those keys in ascending order.
        """
        if self._edge_ids is None:
            n = self.number_of_vertices()
            _check_key_space(n, n)
            _, fidx = self.forward_csr()
            src = self._forward_sources()
            keys = np.minimum(src, fidx) * n + np.maximum(src, fidx)
            ids = np.empty(len(keys), dtype=np.int64)
            ids[np.argsort(keys)] = np.arange(len(keys), dtype=np.int64)
            self._edge_ids = ids
        return self._edge_ids

    @kernel
    def _pair_test(self, v, w):
        """``(hit, pos)``: whether each edge ``v → w`` exists, and where.

        ``v`` and ``w`` are parallel id arrays with ``rank[v] < rank[w]``
        (two entries of one rank-sorted candidate row); ``pos`` is the
        forward position of the edge wherever ``hit`` holds.  This one
        search is the pair test of every enumeration and space builder.
        """
        table = self.forward_keys()
        keys = v * self.number_of_vertices() + self.degeneracy_rank()[w]
        if len(keys) == 0:
            return np.zeros(0, dtype=bool), keys
        pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        return table[pos] == keys, pos

    def triangle_positions(self, *, batch_size: int = DEFAULT_BATCH_SIZE):
        """Yield every triangle once, as forward-position triples ``(p, q, r)``.

        For a triangle whose vertices ascend in rank as ``u, v, w``, ``p``
        is the position of ``u → v``, ``q`` of ``u → w`` and ``r`` of
        ``v → w``.  Each within-row pair ``(p, q)`` of the forward
        adjacency costs one :meth:`_pair_test`.  Triangles come in the
        order of :meth:`clique_batches` ``(3)``, that is by ``p`` then
        ``q``, so the keys ``p * m + q`` ascend across all chunks.  Source
        rows are chunked to about ``batch_size`` candidate pairs.
        """
        fptr, fidx = self.forward_csr()
        for lo, hi in _chunk_rows_by_pairs(fptr, batch_size):
            base = fptr[lo]
            p, q = _pairs_within(fptr[lo:hi + 1] - base)
            if p.size == 0:
                continue
            p += base
            q += base
            hit, r = self._pair_test(fidx[p], fidx[q])
            if hit.any():
                yield p[hit], q[hit], r[hit]

    def degeneracy(self) -> int:
        """The graph's degeneracy (maximum forward-adjacency row length)."""
        fptr, _ = self.forward_csr()
        return int((fptr[1:] - fptr[:-1]).max(initial=0))

    def triangle_batches(self, *, batch_size: int = DEFAULT_BATCH_SIZE):
        """Yield triangles as ``(m, 3)`` id-array batches (each exactly once).

        Columns follow the degeneracy-rank orientation (lowest-ranked vertex
        first); sort rows with ``np.sort(batch, axis=1)`` for id order.
        """
        return self.clique_batches(3, batch_size=batch_size)

    def count_triangles(self, *, limit: Optional[int] = None) -> int:
        """Total triangle count, early-exiting once ``limit`` is reached."""
        return self.count_k_cliques(3, limit=limit)

    def clique_batches(self, k: int, *, batch_size: int = DEFAULT_BATCH_SIZE):
        """Yield every k-clique exactly once, as ``(m, k)`` id-array batches.

        The expansion mirrors :func:`repro.graph.cliques.enumerate_k_cliques`
        — each clique is discovered from its lowest-ranked vertex by
        intersecting forward neighbourhoods — but one *array* step extends
        every partial clique of a depth at once: candidate lists live in a
        CSR structure, the within-row pair generation and the edge tests
        (:meth:`_pair_test`) are single vectorised operations, and prefixes
        that cannot reach ``k`` vertices are pruned wholesale.  Source
        vertices are processed in chunks sized by candidate-pair count, so
        peak memory is bounded by ``batch_size`` regardless of graph size.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = self.number_of_vertices()
        if k == 1:
            if n:
                yield np.arange(n, dtype=np.int64).reshape(n, 1)
            return
        fptr, fidx = self.forward_csr()
        if k == 2:
            for lo, hi in _chunk_rows_by_pairs(fptr, batch_size):
                rows = np.repeat(
                    np.arange(lo, hi, dtype=np.int64), fptr[lo + 1:hi + 1] - fptr[lo:hi]
                )
                if rows.size:
                    yield np.column_stack((rows, fidx[fptr[lo]:fptr[hi]]))
            return
        for lo, hi in _chunk_rows_by_pairs(fptr, batch_size):
            batch = self._expand_chunk(lo, hi, k, fptr, fidx)
            if batch is not None and len(batch):
                yield batch

    def _expand_chunk(self, lo, hi, k, fptr, fidx):
        """Expand source vertices ``lo..hi-1`` to their k-cliques (one array)."""
        prefixes = np.arange(lo, hi, dtype=np.int64).reshape(hi - lo, 1)
        cptr, cidx = _select_rows(fptr, fidx, np.arange(lo, hi, dtype=np.int64))
        depth = 1
        while True:
            if cidx.size == 0:
                return None
            lens = cptr[1:] - cptr[:-1]
            row_of = np.repeat(np.arange(len(prefixes), dtype=np.int64), lens)
            if depth + 1 == k:
                # every remaining candidate completes a clique
                return np.column_stack((prefixes[row_of], cidx))
            first, second = _pairs_within(cptr)
            mask, _ = self._pair_test(cidx[first], cidx[second])
            # new prefixes: one per candidate element; its candidate list is
            # the later same-row elements adjacent to it
            new_counts = np.bincount(first[mask], minlength=cidx.size)
            new_prefixes = np.column_stack((prefixes[row_of], cidx))
            new_cidx = cidx[second[mask]]
            new_cptr = np.zeros(cidx.size + 1, dtype=np.int64)
            np.cumsum(new_counts, out=new_cptr[1:])
            # prune prefixes that cannot reach k vertices any more
            needed = k - (depth + 1)
            keep = np.flatnonzero(new_counts >= needed)
            if keep.size == 0:
                return None
            prefixes = new_prefixes[keep]
            cptr, cidx = _select_rows(new_cptr, new_cidx, keep)
            depth += 1

    def _count_chunk(self, lo, hi, k, fptr, fidx, cap=None) -> int:
        """Count the k-cliques sourced at vertices ``lo..hi-1`` (no output).

        The same depth-by-depth expansion as :meth:`_expand_chunk` minus the
        clique materialisation: no prefix table is carried and no
        ``(m, k)`` output array is stacked — only the candidate CSR survives
        each depth, so counting touches a fraction of the memory
        enumeration would.  ``cap`` bounds the answer: the count stops at
        the cap *inside* the chunk, so a caller's limit is honoured exactly
        instead of overshooting by up to a whole chunk.
        """
        cptr, cidx = _select_rows(fptr, fidx, np.arange(lo, hi, dtype=np.int64))
        depth = 1
        while True:
            if cidx.size == 0:
                return 0
            if depth + 1 == k:
                # every remaining candidate completes a clique
                size = int(cidx.size)
                return size if cap is None else min(size, cap)
            first, second = _pairs_within(cptr)
            mask, _ = self._pair_test(cidx[first], cidx[second])
            new_counts = np.bincount(first[mask], minlength=cidx.size)
            new_cidx = cidx[second[mask]]
            new_cptr = np.zeros(cidx.size + 1, dtype=np.int64)
            np.cumsum(new_counts, out=new_cptr[1:])
            needed = k - (depth + 1)
            keep = np.flatnonzero(new_counts >= needed)
            if keep.size == 0:
                return 0
            cptr, cidx = _select_rows(new_cptr, new_cidx, keep)
            depth += 1

    def count_k_cliques(self, k: int, *, limit: Optional[int] = None) -> int:
        """Total k-clique count, early-exiting once ``limit`` is reached.

        Counting never materialises clique rows: ``k <= 2`` are O(1) array
        reads, ``k >= 3`` runs the prefix expansion in count-only form
        (:meth:`_count_chunk`).  With ``limit`` the source vertices are
        consumed in *adaptively sized* chunks — starting at
        :data:`PROBE_BATCH_SIZE` candidate pairs and doubling after every
        chunk that stays below the limit — so a capped count on a dense
        graph exits inside its first few thousand pairs instead of paying a
        full :data:`DEFAULT_BATCH_SIZE` chunk first.  The answer is exact
        below the limit and exactly ``limit`` once reached: the cap is
        applied *inside* each chunk (:meth:`_count_chunk`), never
        overshooting by a chunk's worth of cliques.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = self.number_of_vertices()
        if k == 1:
            return n
        fptr, fidx = self.forward_csr()
        if k == 2:
            return int(fptr[n])
        total = _pair_totals(fptr)
        budget = DEFAULT_BATCH_SIZE if limit is None else PROBE_BATCH_SIZE
        count = 0
        lo = 0
        while lo < n:
            hi = _next_cut(total, lo, budget)
            count += self._count_chunk(
                lo, hi, k, fptr, fidx,
                cap=None if limit is None else limit - count,
            )
            lo = hi
            if limit is not None:
                if count >= limit:
                    return count
                budget = min(budget * 2, DEFAULT_BATCH_SIZE)
        return count


def _check_key_space(a: int, b: int) -> None:
    """Guard the ``x * a + y`` packed-key constructions against overflow."""
    if a and b and a > (2**63 - 1) // b:
        raise OverflowError(
            f"packed int64 keys need {a} * {b} < 2**63; graph too large for "
            "the keyed lookup paths"
        )
