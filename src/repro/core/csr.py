"""CSR (compressed sparse row) array backend for the nucleus space.

:class:`repro.core.space.NucleusSpace` stores contexts as Python lists of
tuples and neighbour sets of Python ints — convenient to build, expensive to
iterate: every ρ evaluation in the τ loops pays attribute lookups, generator
frames and pointer chasing.  :class:`CSRSpace` is the same structure flattened
into two integer arrays:

* ``ctx_offsets`` (length ``n + 1``) — clique ``i`` owns contexts
  ``ctx_offsets[i] .. ctx_offsets[i+1]`` (offsets count *contexts*, i.e.
  containing s-cliques);
* ``ctx_members`` — the other r-cliques of every context, concatenated.
  Each context has exactly ``C(s, r) - 1`` members (the *stride*), so context
  ``c`` occupies ``ctx_members[c * stride : (c + 1) * stride]``.

The S-degree of clique ``i`` is ``ctx_offsets[i+1] - ctx_offsets[i]``, and
its S-neighbours ``Ns(R)`` are the distinct partners of its context rows;
no separate neighbour relation is stored.

Both incidence buffers are numpy int64 arrays on every route: built in
memory, or read-only memmaps when reopened from an on-disk bundle.  A
``CSRSpace`` is cheap to pickle and to place in shared memory (flat buffers,
no per-element Python objects), which is what the process pool needs.

Each local algorithm has one round kernel that every tier runs:
:func:`_and_sweep` (one frontier-batched AND pass over a chunk of cliques)
and :func:`_snd_sweep` (one Jacobi SND step over a chunk).  The workers of
:class:`repro.parallel.procpool.PersistentPool` run them over their own
chunks of shared-memory views, and the serial engines of
:func:`and_decomposition_csr` / :func:`snd_decomposition_csr` over the
single chunk ``[0, n)``.  The serial AND with notification (the default)
runs :func:`_and_count` instead: one writer can keep a per-clique support
count up to date, so a pass gathers only the cliques whose τ drops, where
the pool's chunks gather every flagged clique and check it.  Both take the
same τ trajectory.  κ equals the dict-backend implementations in
:mod:`repro.core.asynd` and :mod:`repro.core.snd`, which the test-suite
asserts property-style.  AND's per-visit schedule has no kernel here: the
one loop in :mod:`repro.core.asynd` runs on this class through its read
API.  The exact baselines share one step, :func:`_retire`, which removes a
whole frontier of r-cliques at once: the level-synchronous peel of
:mod:`repro.core.peeling` and the degree levels of :mod:`repro.core.levels`
drive it.

The AND counters in ``result.operations`` and ``iteration_stats``:
``processed`` is the number of cliques a pass looks at (every clique in a
full pass, the counted frontier in a later one), ``skipped`` the rest, and
``rho_evaluations`` the context rows gathered (see
:func:`and_decomposition_csr`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from itertools import combinations

import numpy as _np

from repro.core.kernels import kernel
from repro.core.result import DecompositionResult, IterationStats
from repro.core.space import NucleusSpace, _binomial
from repro.graph.cliques import canonical_clique, enumerate_k_cliques
from repro.graph.csr_graph import (
    DEFAULT_BATCH_SIZE,
    CliqueArrayView,
    CSRGraph,
    _check_key_space,
    _chunk_rows_by_pairs,
    _id_mask,
    _pairs_within,
    _runs,
    _sorted_unique,
)
from repro.graph.graph import Graph, sorted_vertices
from repro.graph.triangles import degeneracy_ordering

__all__ = [
    "CSRSpace",
    "GraphSource",
    "BACKENDS",
    "resolve_backend",
    "resolve_process_backend",
    "and_decomposition_csr",
    "support_counts",
    "snd_decomposition_csr",
    "chunk_ranges",
    "weighted_ranges",
]

#: Valid values of the ``backend=`` parameter accepted by the decompositions.
#: ``"auto"`` means ``"csr"``; the dict backend runs only when asked for.
BACKENDS = ("auto", "dict", "csr")

Clique = Tuple

#: Anything the decomposition entry points accept as a graph source: the
#: dict reference representation or the array-native CSR substrate.
GraphSource = Union[Graph, CSRGraph]


def _row_min(rows):
    """Row minima of a narrow 2-D array, column by column (beats ``min(axis=1)``)."""
    low = rows[:, 0].copy()
    for column in range(1, rows.shape[1]):
        _np.minimum(low, rows[:, column], out=low)
    return low


class CSRSpace:
    """Flat-array view of an (r, s) clique space.

    Build one with :meth:`from_graph` (straight from either graph
    representation, no dict space in between), :meth:`from_space` (or
    ``NucleusSpace.to_csr()``); both end in the constructor, which takes
    prebuilt buffers and stores them as int64 arrays.  :meth:`restrict`
    cuts the space of an induced subgraph out of an existing one.  The
    read API mirrors
    :class:`NucleusSpace` (``__len__``, ``s_degree``, ``s_degrees``,
    ``contexts``, ``neighbors``, ``as_dict``) so ordering helpers and
    result construction work on either representation.

    Attributes
    ----------
    r, s : int
        The nucleus instance; r-cliques are indexed ``0..len(self) - 1``.
    stride : int
        ``C(s, r) − 1`` — partner cliques per context; ``ctx_members`` is
        grouped in runs of this length.
    cliques : sequence
        The r-clique tuples (or a lazy
        :class:`~repro.graph.csr_graph.CliqueArrayView`), index-aligned
        with every other buffer.
    ctx_offsets, ctx_members : flat int64 buffers
        CSR incidence of contexts: the contexts of clique ``i`` occupy
        ``ctx_members[ctx_offsets[i]:ctx_offsets[i + 1]]``, ``stride``
        entries per context.

    Both incidence buffers are numpy int64 arrays (read-only memmaps when
    reopened from an on-disk bundle); the read API below returns Python
    ints and tuples either way.  The S-neighbours of a clique are read off
    its context rows (:meth:`neighbors`).

    Examples
    --------
    >>> from repro.graph.generators import ring_of_cliques
    >>> space = CSRSpace.from_graph(ring_of_cliques(3, 4), 2, 3)
    >>> space.r, space.s, space.stride
    (2, 3, 2)
    >>> len(space)                 # edges of the graph = r-cliques of (2, 3)
    21
    >>> space.s_degree(0)          # triangles the first edge participates in
    2
    >>> space.find_index(space.cliques[5])
    5
    """

    __slots__ = (
        "r",
        "s",
        "stride",
        "cliques",
        "graph",
        "ctx_offsets",
        "ctx_members",
        "_index",
    )

    def __init__(
        self,
        r: int,
        s: int,
        cliques: Sequence[Clique],
        ctx_offsets: Sequence[int],
        ctx_members: Sequence[int],
        graph: Optional[Graph] = None,
    ) -> None:
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        self.r = r
        self.s = s
        self.stride = _binomial(s, r) - 1
        # a lazy id-table view stays lazy; any other sequence is copied
        self.cliques = (
            cliques if isinstance(cliques, CliqueArrayView) else list(cliques)
        )
        self.graph = graph
        self.ctx_offsets = _np.asarray(ctx_offsets, dtype=_np.int64)
        self.ctx_members = _np.asarray(ctx_members, dtype=_np.int64)
        self._index = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_space(cls, space: NucleusSpace) -> "CSRSpace":
        """Flatten a :class:`NucleusSpace` into CSR arrays."""
        n = len(space)
        stride = _binomial(space.s, space.r) - 1
        ctx_offsets = [0] * (n + 1)
        ctx_members: List[int] = []
        for i in range(n):
            contexts = space.contexts(i)
            for others in contexts:
                if len(others) != stride:
                    raise ValueError(
                        f"context of clique {i} has {len(others)} members, "
                        f"expected C({space.s},{space.r})-1 = {stride}"
                    )
                ctx_members.extend(others)
            ctx_offsets[i + 1] = ctx_offsets[i] + len(contexts)
        return cls(
            space.r,
            space.s,
            space.cliques,
            ctx_offsets,
            ctx_members,
            graph=space.graph,
        )

    @classmethod
    def from_graph(
        cls, graph: GraphSource, r: int, s: int, *, pool=None
    ) -> "CSRSpace":
        """Build the CSR space of ``graph`` directly, without a NucleusSpace.

        The dict-of-tuples :class:`NucleusSpace` is convenient for reference
        semantics but expensive to materialise (per-context tuples, per-clique
        neighbour sets) only to be flattened again by :meth:`from_space`.
        This constructor goes straight from the graph to the flat arrays.

        For a dict :class:`Graph` source, the clique indexing is identical to
        ``NucleusSpace(graph, r, s)`` (same enumeration order, same canonical
        tuples), so κ arrays computed on either representation are directly
        comparable, and the context structure matches :meth:`from_space`
        exactly.

        A :class:`CSRGraph` source takes the array-native route, and no
        per-clique Python tuple is ever created (``cliques`` becomes a lazy
        :class:`CliqueArrayView` over a lexicographically sorted id table):

        * **(1, 2)** — vertices and edges, no enumeration at all;
        * **(2, 3)** — one triangle pass that carries the forward positions
          of each triangle's three edges, so its group row is a gather
          (:func:`_incidence_arrays_edge_triangle`);
        * **(3, 4)** — the same triangle pass, then one search per pair of
          triangles that share their first edge tests the pair for a
          4-clique and names its remaining triangles
          (:func:`_incidence_arrays_triangle_quad`);
        * **generic r < s** — the batch k-clique enumerator for both levels
          plus a row-table lookup (:func:`_incidence_arrays_generic`).

        Clique *indices* follow the sorted id order of the array tables
        rather than the dict enumeration order; κ keyed by clique is
        identical either way.

        ``pool`` (a :class:`~repro.parallel.procpool.PersistentPool`) binds
        the serially built space on that pool: its segments are created and
        the workers forked now, so a following ``pool.run_and(space)`` or
        ``run_snd(space)`` sweeps without a second fork.
        """
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        if isinstance(graph, CSRGraph):
            space = cls._from_csr_graph(graph, r, s)
        else:
            if (r, s) == (1, 2):
                cliques, groups = _incidence_vertex_edge(graph)
            elif (r, s) == (2, 3):
                cliques, groups = _incidence_edge_triangle(graph)
            elif (r, s) == (3, 4):
                cliques, groups = _incidence_triangle_four_clique(graph)
            else:
                cliques, groups = _incidence_generic(graph, r, s)
            table = _np.array(groups, dtype=_np.int64).reshape(-1, _binomial(s, r))
            space = cls._from_incidence_arrays(r, s, cliques, table, graph)
        if pool is not None:
            pool.bind(space)
        return space

    @classmethod
    def _from_csr_graph(
        cls,
        graph: CSRGraph,
        r: int,
        s: int,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> "CSRSpace":
        """Array-native construction from a :class:`CSRGraph` source.

        ``batch_size`` bounds the candidate pairs of one enumeration chunk;
        the buffers do not depend on it.
        """
        if (r, s) == (1, 2):
            clique_ids, groups = _incidence_arrays_vertex_edge(graph)
        elif (r, s) == (2, 3):
            clique_ids, groups = _incidence_arrays_edge_triangle(graph, batch_size)
        elif (r, s) == (3, 4):
            clique_ids, groups = _incidence_arrays_triangle_quad(graph, batch_size)
        else:
            clique_ids, groups = _incidence_arrays_generic(graph, r, s)
        return cls._from_incidence_arrays(
            r, s, CliqueArrayView(clique_ids, graph.labels), groups, graph
        )

    @classmethod
    @kernel
    def _from_incidence_arrays(
        cls,
        r: int,
        s: int,
        cliques: Sequence[Clique],
        groups,
        graph: GraphSource,
    ) -> "CSRSpace":
        """Assemble the CSR buffers from array-shaped incidence.

        ``cliques`` are the r-cliques (a list of tuples for a dict
        :class:`Graph`, a lazy :class:`CliqueArrayView` for a
        :class:`CSRGraph` — no per-clique tuples are materialised here) and
        ``groups`` the ``(num_s, C(s, r))`` table mapping every s-clique to
        its member r-clique indices, in ``combinations`` order.  A stable
        order of the group owners (:func:`_stable_order`) places every
        context slot in s-clique enumeration order.  Slot ``o`` of the flat
        table sits in row ``o // C(s, r)`` and column ``o % C(s, r)``, so
        its partners are the other columns of that row; each partner column
        of the context rows is one gather from ``groups`` straight into the
        final buffer, with no copy of the partner table in between.
        """
        n = len(cliques)
        group_size = _binomial(s, r)
        stride = group_size - 1
        num_s = len(groups)
        ctx_offsets_np = _np.zeros(n + 1, dtype=_np.int64)
        if num_s:
            flat = _np.ascontiguousarray(groups, dtype=_np.int64).reshape(-1)
            _np.cumsum(_np.bincount(flat, minlength=n), out=ctx_offsets_np[1:])
            # context slots grouped by owner, in s-clique enumeration order;
            # slot o lies in row o // C(s, r) and column o % C(s, r)
            row_start = _stable_order(flat, n)
            owner_column = (row_start % group_size).astype(
                _np.min_scalar_type(group_size)
            )
            row_start -= owner_column
            ctx_members_np = _np.empty((len(row_start), stride), dtype=_np.int64)
            # partner j of the member in column c sits in column j + (j >= c);
            # a column is first written as positions in ``flat``, then
            # overwritten by the members at those positions
            for j, out in enumerate(ctx_members_np.T):
                _np.add(row_start, j, out=out)
                out += owner_column <= j
                out[...] = flat[out]
            ctx_members_np = ctx_members_np.reshape(-1)
        else:
            ctx_members_np = _np.empty(0, dtype=_np.int64)
        return cls(r, s, cliques, ctx_offsets_np, ctx_members_np, graph=graph)

    @kernel
    def restrict(self, vertex_ids) -> "CSRSpace":
        """The sub-space over the r-cliques whose vertices all lie in ``vertex_ids``.

        ``vertex_ids`` are vertex ids of the clique table, so the space must
        be array-indexed (built from a :class:`CSRGraph` or reopened from a
        bundle).  The result equals the space of the induced subgraph on
        those vertices: an s-clique lies in that subgraph exactly when all
        of its r-subcliques do, so a context row is kept only when every
        partner survives.  Surviving cliques keep their relative order and
        their vertex ids and labels, so ``find_index`` works unchanged.

        Every clique inside the set is led (smallest id) by a member of the
        set, so the candidates are the runs of the clique table's sorted
        first column at those ids (:meth:`CliqueArrayView.sorted_rows`);
        no vertex → clique map is needed.  Partners are checked and
        renumbered through one global → local table written at the kept
        indices only.  The cost follows the cliques led by the set and
        their contexts, not the whole space.

        Examples
        --------
        >>> from repro.graph.csr_graph import CSRGraph
        >>> graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        >>> space = CSRSpace.from_graph(graph, 2, 3)
        >>> sub = space.restrict([0, 1, 2])
        >>> list(sub.cliques), sub.number_of_s_cliques()
        ([(0, 1), (0, 2), (1, 2)], 1)
        """
        view = self.cliques
        if not isinstance(view, CliqueArrayView):
            raise ValueError(
                "restrict needs an array-indexed clique table; build the "
                "space from a CSRGraph or reopen it from a bundle"
            )
        # plain views: a memmap subclass pays wrapping costs on every op
        ctx_off = _np.asarray(self.ctx_offsets)
        members = _np.asarray(self.ctx_members).reshape(-1, self.stride)
        keep_ids = _sorted_unique(_np.asarray(vertex_ids, dtype=_np.int64))
        in_set = _id_mask(len(view.labels), keep_ids)
        rows = view.sorted_rows()
        first = _np.searchsorted(rows.columns[0], keep_ids, "left")
        last = _np.searchsorted(rows.columns[0], keep_ids, "right")
        positions = _runs(first, last - first)
        for column in rows.columns[1:]:
            positions = positions[in_set[column[positions]]]
        kept = _np.sort(rows.perm[positions])
        n = len(kept)
        counts = ctx_off[kept + 1] - ctx_off[kept]
        partners = members[_runs(ctx_off[kept], counts)]
        # global -> local table written at the kept slots only: np.empty
        # spares an O(len(self)) fill, and an unwritten slot read for a
        # dropped partner is caught because it cannot map back to it
        local_of = _np.empty(len(view), dtype=_np.int64)
        local_of[kept] = _np.arange(n, dtype=_np.int64)
        local = _np.clip(local_of[partners], 0, max(n - 1, 0))
        whole = _row_min(kept[local] == partners)  # row-wise AND
        owners = _np.repeat(_np.arange(n, dtype=_np.int64), counts)[whole]
        ctx_offsets = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(owners, minlength=n), out=ctx_offsets[1:])
        return CSRSpace(
            self.r, self.s, view.take(kept), ctx_offsets, local[whole].reshape(-1)
        )

    # ------------------------------------------------------------------
    # read API (mirrors NucleusSpace)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ctx_offsets) - 1

    def clique_of(self, index: int) -> Clique:
        return self.cliques[index]

    def index_of(self, clique: Sequence) -> int:
        """Index of an r-clique given in any vertex order (KeyError if absent).

        The reverse clique → index mapping is built lazily on first use and
        memoised, so index-only pipelines (the CSR-native application layer)
        never pay for it.
        """
        found = self.find_index(clique)
        if found is None:
            raise KeyError(canonical_clique(tuple(clique)))
        return found

    def find_index(self, clique: Sequence) -> Optional[int]:
        """Index of an r-clique given in any vertex order, or ``None``.

        An array-built space binary-searches its id table
        (:meth:`CliqueArrayView.find`); a list-backed one keeps a dict.
        """
        if isinstance(self.cliques, CliqueArrayView):
            return self.cliques.find(clique)
        if self._index is None:
            self._index = {c: i for i, c in enumerate(self.cliques)}
        return self._index.get(canonical_clique(tuple(clique)))

    def s_degree(self, index: int) -> int:
        return int(self.ctx_offsets[index + 1] - self.ctx_offsets[index])

    def s_degrees(self) -> List[int]:
        return _np.diff(self.ctx_offsets).tolist()

    def contexts(self, index: int) -> List[Tuple[int, ...]]:
        """Reconstruct the context tuples of one clique (test/compat path)."""
        stride = self.stride
        start, end = self.ctx_offsets[index:index + 2].tolist()
        rows = self.ctx_members[start * stride:end * stride].reshape(-1, stride)
        return [tuple(row) for row in rows.tolist()]

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Neighbour indices of one clique: its context partners, sorted, distinct."""
        start, end = self.ctx_offsets[index:index + 2].tolist()
        partners = self.ctx_members[start * self.stride:end * self.stride]
        return tuple(_sorted_unique(partners).tolist())

    def s_clique_table(self):
        """Every s-clique exactly once, as an int64 row led by its smallest member.

        Each s-clique owns ``C(s, r)`` context rows (one per member); only
        the row whose owner is the smallest member is kept.
        """
        owners = _np.repeat(
            _np.arange(len(self), dtype=_np.int64), _np.diff(self.ctx_offsets)
        )
        rows = self.ctx_members.reshape(len(owners), self.stride)
        keep = owners < _row_min(rows)
        return _np.column_stack((owners[keep], rows[keep]))

    def s_clique_groups(self) -> List[Tuple[int, ...]]:
        """Every s-clique exactly once, as its sorted member-index tuple.

        Mirrors :meth:`NucleusSpace.s_clique_groups`, built from
        :meth:`s_clique_table`.
        """
        full = _np.sort(self.s_clique_table(), axis=1)
        return sorted(tuple(group) for group in full.tolist())

    def number_of_s_cliques(self) -> int:
        per_s_clique = self.stride + 1
        return len(self.ctx_members) // self.stride // per_s_clique if self.stride else 0

    def as_dict(self, values: Sequence[int]) -> dict:
        if len(values) != len(self.cliques):
            raise ValueError("value array length does not match clique count")
        return {self.cliques[i]: values[i] for i in range(len(values))}

    def nbytes(self) -> int:
        """Total size of the flat buffers, in bytes."""
        return self.ctx_offsets.nbytes + self.ctx_members.nbytes

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural consistency checks (used by tests and debug assertions)."""
        n = len(self)
        if len(self.cliques) != n:
            raise AssertionError("clique list length disagrees with ctx_offsets")
        if self.ctx_offsets[0] != 0:
            raise AssertionError("offset arrays must start at 0")
        if (_np.diff(self.ctx_offsets) < 0).any():
            raise AssertionError("offsets must be non-decreasing")
        if self.ctx_offsets[n] * self.stride != len(self.ctx_members):
            raise AssertionError("ctx_members length disagrees with offsets * stride")
        values = self.ctx_members
        bad = values[(values < 0) | (values >= n)]
        if len(bad):
            raise AssertionError(f"ctx_members entry {int(bad[0])} out of range")
        width = self.stride + 1
        if self.ctx_offsets[n] % width != 0:
            raise AssertionError(
                "total context count is not a multiple of C(s, r); "
                "the space is inconsistent"
            )
        # context consistency: every s-clique's C(s, r) rows name the same
        # member set, one row owned by each member.  In lexicographic order
        # the sorted member sets of all rows are then the sorted s-clique
        # table with each row repeated C(s, r) times.
        table = _np.sort(self.s_clique_table(), axis=1)
        table = table[_np.lexsort(table.T[::-1])]
        owners = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(self.ctx_offsets))
        full = _np.sort(
            _np.column_stack((owners, values.reshape(-1, self.stride))), axis=1
        )
        order = _np.lexsort(full.T[::-1])
        if len(table) * width != len(full) or (
            full[order] != _np.repeat(table, width, axis=0)
        ).any():
            raise AssertionError("the context rows of an s-clique name different members")
        if (table[:, 1:] <= table[:, :-1]).any() or (
            _np.sort(owners[order].reshape(-1, width), axis=1) != table
        ).any():
            raise AssertionError("an s-clique's context rows are not one per member")

    def __getstate__(self):
        return {
            "r": self.r,
            "s": self.s,
            "stride": self.stride,
            "cliques": self.cliques,
            # the graph reference is deliberately dropped: worker processes
            # only run kernels over the flat arrays, and shipping the full
            # adjacency structure would defeat the compact-pickle property
            "graph": None,
            "ctx_offsets": self.ctx_offsets,
            "ctx_members": self.ctx_members,
            "_index": None,
        }

    def __setstate__(self, state) -> None:
        state.setdefault("graph", None)
        state.setdefault("_index", None)
        for name, value in state.items():
            object.__setattr__(self, name, value)


# ----------------------------------------------------------------------
# direct-from-graph incidence enumeration
# ----------------------------------------------------------------------
def _oriented_forward(graph: Graph):
    """Degeneracy order plus rank-sorted forward adjacency lists.

    One orientation pass serves the edge indexing, the triangle listing and
    the 4-clique listing of :meth:`CSRSpace.from_graph`; iterating forward
    neighbourhoods in rank order reproduces the exact enumeration sequence of
    :func:`repro.graph.cliques.enumerate_k_cliques`, which keeps the clique
    indexing identical to the :class:`NucleusSpace` construction path.
    """
    order = degeneracy_ordering(graph)
    rank = {v: i for i, v in enumerate(order)}
    forward = {v: [] for v in order}
    for u, v in graph.edges():
        if rank[u] < rank[v]:
            forward[u].append(v)
        else:
            forward[v].append(u)
    for v in forward:
        forward[v].sort(key=lambda x: rank[x])
    return order, forward


def _incidence_vertex_edge(graph: Graph):
    """(1, 2): r-cliques are vertices, s-cliques are edges."""
    cliques = [(v,) for v in sorted_vertices(graph.vertices())]
    index = {c[0]: i for i, c in enumerate(cliques)}
    groups: List[int] = []
    append = groups.append
    for u, v in graph.edges():
        append(index[u])
        append(index[v])
    return cliques, groups


def _incidence_edge_triangle(graph: Graph):
    """(2, 3): edge ids from the orientation, oriented triangle listing."""
    order, forward = _oriented_forward(graph)
    cliques: List[Clique] = []
    index = {}
    for u in order:
        for v in forward[u]:
            edge = canonical_clique((u, v))
            index[edge] = len(cliques)
            cliques.append(edge)
    groups: List[int] = []
    append = groups.append
    has_edge = graph.has_edge
    for u in order:
        out = forward[u]
        for i, v in enumerate(out):
            for w in out[i + 1:]:
                if has_edge(v, w):
                    a, b, c = canonical_clique((u, v, w))
                    append(index[(a, b)])
                    append(index[(a, c)])
                    append(index[(b, c)])
    return cliques, groups


def _incidence_triangle_four_clique(graph: Graph):
    """(3, 4): oriented triangle listing, then oriented 4-clique listing."""
    order, forward = _oriented_forward(graph)
    has_edge = graph.has_edge
    cliques: List[Clique] = []
    index = {}
    for u in order:
        out = forward[u]
        for i, v in enumerate(out):
            for w in out[i + 1:]:
                if has_edge(v, w):
                    tri = canonical_clique((u, v, w))
                    index[tri] = len(cliques)
                    cliques.append(tri)
    groups: List[int] = []
    append = groups.append
    for u in order:
        out = forward[u]
        for i, v in enumerate(out):
            out2 = [x for x in out[i + 1:] if has_edge(v, x)]
            for j, w in enumerate(out2):
                for x in out2[j + 1:]:
                    if has_edge(w, x):
                        quad = canonical_clique((u, v, w, x))
                        for tri in combinations(quad, 3):
                            append(index[tri])
    return cliques, groups


def _incidence_generic(graph: Graph, r: int, s: int):
    """Any r < s: the shared k-clique enumerator for both levels."""
    cliques: List[Clique] = []
    index = {}
    for clique in enumerate_k_cliques(graph, r):
        canon = canonical_clique(clique)
        index[canon] = len(cliques)
        cliques.append(canon)
    groups: List[int] = []
    append = groups.append
    for big in enumerate_k_cliques(graph, s):
        for sub in combinations(canonical_clique(big), r):
            append(index[sub])
    return cliques, groups


# ----------------------------------------------------------------------
# array-native incidence enumeration (CSRGraph sources)
# ----------------------------------------------------------------------
def _stack_rows(rows, width: int):
    """Concatenate ``(m_i, width)`` arrays; the empty list stacks to (0, width)."""
    rows = [r for r in rows if len(r)]
    if not rows:
        return _np.empty((0, width), dtype=_np.int64)
    return _np.concatenate(rows) if len(rows) > 1 else rows[0]


def _collect_sorted_batches(batches, width: int):
    """Stack id-array batches into one ``(m, width)`` table of sorted rows."""
    return _stack_rows([_np.sort(batch, axis=1) for batch in batches], width)


def _incidence_arrays_vertex_edge(graph: CSRGraph):
    """(1, 2): clique index *is* the vertex id; groups are the edge rows."""
    n = graph.number_of_vertices()
    clique_ids = _np.arange(n, dtype=_np.int64).reshape(n, 1)
    return clique_ids, graph.edge_array()


#: Sorting networks (compare-exchange column pairs) for 3 and 4 columns.
_SORTING_NETWORKS = {
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
}


@kernel
def _stable_order(keys, n: int):
    """``np.argsort(keys, kind="stable")`` for int64 ``keys`` in ``[0, n)``.

    Up to n = 2**16 the keys fit one ``uint16`` digit, whose stable argsort
    numpy runs as a radix sort, the fastest order there.  A second radix
    digit needs the first pass's order, the second pass's order and the
    radix scratch alive at once, which cost about 4.5 MB of the
    truss-pipeline benchmark's peak RSS.  Above 2**16 the order is one
    argsort of the packed keys ``key * L + slot`` (L = ``len(keys)``):
    they are distinct, so any sort kind returns exactly the stable order,
    and numpy's default sort of int64 is several times faster than its
    merge sort.  Only the packed keys and the order are alive during that
    sort.  Measured at seed 1 of the benchmark workloads (numpy 2.4.6,
    2-vCPU x86_64 VM): truss (2, 3), n = 79,964, merge 23.7 ms and packed
    8.7 ms; dense (2, 3), n = 43,314, radix 3.5 ms and packed 8.8 ms.
    """
    if n <= 1 << 16:
        return _np.argsort(keys.astype(_np.uint16), kind="stable")
    size = len(keys)
    _check_key_space(n, size)
    packed = keys * size
    packed += _np.arange(size, dtype=_np.int64)
    return _np.argsort(packed)


@kernel
def _sorted_columns(*columns):
    """Rows of the parallel int64 ``columns``, each sorted ascending.

    A sorting network of column-wise ``minimum`` / ``maximum`` passes: for
    the three or four columns of a group table this beats
    ``np.sort(axis=1)``, which sorts every short row on its own.  The
    columns are fresh gathers owned by the caller and are overwritten, so
    the network needs one scratch column, not two new ones per exchange.
    """
    cols = list(columns)
    spare = _np.empty_like(cols[0])
    for a, b in _SORTING_NETWORKS[len(cols)]:
        _np.minimum(cols[a], cols[b], out=spare)
        _np.maximum(cols[a], cols[b], out=cols[b])
        cols[a], spare = spare, cols[a]
    return _np.column_stack(cols)


def _incidence_arrays_edge_triangle(graph: CSRGraph, batch_size: int):
    """(2, 3): the edge table, and each triangle's edges as one gather.

    A triangle arrives as the forward positions of its three edges
    (:meth:`CSRGraph.triangle_positions`); ``forward_edge_ids`` maps a
    position to its row of the edge table, so the group row is those three
    rows, sorted — no edge is searched for again.
    """
    eid = graph.forward_edge_ids()
    group_rows = [
        _sorted_columns(eid[p], eid[q], eid[r])
        for p, q, r in graph.triangle_positions(batch_size=batch_size)
    ]
    return graph.edge_array(), _stack_rows(group_rows, 3)


def _incidence_arrays_triangle_quad(graph: CSRGraph, batch_size: int):
    """(3, 4): the triangle table, and each 4-clique's triangles by search.

    Triangles come from one position-carrying pass, keyed ``p * m + q``
    in ascending order (:meth:`CSRGraph.triangle_positions`).  A 4-clique
    with rank order ``u, v, w, x`` is a pair of triangles ``i = (u, v, w)``
    and ``j = (u, v, x)`` sharing the first position ``p`` (of ``u → v``):
    the key ``q[i] * m + q[j]`` finds ``(u, w, x)`` exactly when the
    4-clique exists, and ``r[i] * m + r[j]`` then finds ``(v, w, x)``.
    The pairs are walked per ``p``, in :meth:`CSRGraph.clique_batches`
    order.  The triangle table itself is in lexicographic id order: each
    triangle's two lowest edge rows give its sort key.
    """
    m = graph.number_of_edges()
    _check_key_space(m, m)
    eid = graph.forward_edge_ids()
    passes = list(graph.triangle_positions(batch_size=batch_size))
    empty = _np.empty(0, dtype=_np.int64)
    p, q, r = (
        [c[0] if len(c) == 1 else _np.concatenate(c) for c in zip(*passes)]
        if passes else [empty] * 3
    )
    del passes
    low = _sorted_columns(eid[p], eid[q], eid[r])
    order = _np.argsort(low[:, 0] * m + low[:, 1])
    edges = graph.edge_array()
    table = _np.column_stack(
        (edges[low[:, 0], 0], edges[low[:, 0], 1], edges[low[:, 1], 1])
    )[order]
    del low
    lex = _np.empty(len(order), dtype=_np.int64)
    lex[order] = _np.arange(len(order), dtype=_np.int64)
    del order
    keys = p * m + q
    tptr = _np.zeros(m + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(p, minlength=m), out=tptr[1:])
    group_rows = []
    for lo, hi in _chunk_rows_by_pairs(tptr, batch_size):
        base = tptr[lo]
        i, j = _pairs_within(tptr[lo:hi + 1] - base)
        if i.size == 0:
            continue
        i += base
        j += base
        wanted = q[i] * m + q[j]
        k = _np.minimum(_np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[k] == wanted
        i, j, k = i[hit], j[hit], k[hit]
        if i.size == 0:
            continue
        last = _np.searchsorted(keys, r[i] * m + r[j])
        group_rows.append(_sorted_columns(lex[i], lex[j], lex[k], lex[last]))
    return table, _stack_rows(group_rows, 4)


def _incidence_arrays_generic(graph: CSRGraph, r: int, s: int):
    """Any r < s: batch enumeration of both levels plus row-table lookup."""
    table = _collect_sorted_batches(graph.clique_batches(r), r)
    order = _np.lexsort(tuple(table[:, j] for j in reversed(range(r))))
    table = table[order]
    sub_cols = [
        _np.array(cols, dtype=_np.int64) for cols in combinations(range(s), r)
    ]
    group_rows = []
    for batch in graph.clique_batches(s):
        q = _np.sort(batch, axis=1)
        group_rows.append(
            _np.stack(
                [_lookup_rows(table, q[:, cols]) for cols in sub_cols], axis=1
            )
        )
    return table, _stack_rows(group_rows, _binomial(s, r))


@kernel
def _lookup_rows(table, queries):
    """Indices of ``queries`` rows inside the lex-sorted unique ``table``.

    Overflow-free row lookup: one ``np.unique(axis=0)`` over the stacked
    rows recovers, for every query row, its position in the sorted unique
    set — which equals its table index because the table is itself sorted
    and every query is guaranteed to be one of its rows (a sub-clique of an
    enumerated s-clique is an enumerated r-clique).
    """
    if len(queries) == 0:
        return _np.empty(0, dtype=_np.int64)
    combined = _np.concatenate((table, queries))
    uniq, inverse = _np.unique(combined, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.1 briefly changed the axis shape
    if len(uniq) != len(table):  # pragma: no cover - enumeration invariant
        raise AssertionError("query rows are not a subset of the clique table")
    return inverse[len(table):].astype(_np.int64, copy=False)


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def resolve_backend(
    backend: str, space: Union[NucleusSpace, CSRSpace]
) -> str:
    """Resolve a ``backend=`` argument to ``"dict"`` or ``"csr"``.

    ``"auto"`` always means the CSR kernels; the dict kernels run only on an
    explicit ``backend="dict"``.  A prebuilt :class:`CSRSpace` always runs
    on the CSR kernels — asking for the dict backend on one is an error
    because the tuple-keyed structure it would need has been discarded.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if isinstance(space, CSRSpace):
        if backend == "dict":
            raise ValueError("cannot run the dict backend on a CSRSpace")
        return "csr"
    return "dict" if backend == "dict" else "csr"


def resolve_process_backend(backend: str) -> str:
    """Resolve a ``backend=`` argument for a *process-pool* request.

    The shared-memory pool only runs on CSR buffers, so ``"auto"`` always
    means ``"csr"`` here — regardless of space size, and without building
    any space to measure.  Asking for the dict backend is an error, not a
    silent downgrade.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "dict":
        raise ValueError(
            "parallel='process' runs on the shared CSR buffers; "
            "backend='dict' cannot be honoured (use 'csr' or 'auto')"
        )
    return "csr"


def _unwrap_bundle(source, r: Optional[int], s: Optional[int], *, prefer_graph: bool = False):
    """Swap an opened :class:`~repro.store.bundle.Bundle` for a component.

    The stored space is used when it matches the requested instance (or no
    instance was requested); otherwise the stored graph, so a bundle saved
    for one (r, s) still serves as a graph source for another.  With
    ``prefer_graph`` the graph is taken even when the space matches — the
    dict backend cannot run on a memmapped :class:`CSRSpace`.
    """
    from repro.store.bundle import Bundle  # deferred: store imports this module

    if not isinstance(source, Bundle):
        return source
    if (
        not prefer_graph
        and source.has("space")
        and (r is None or (source.r, source.s) == (r, s))
    ):
        return source.space
    if source.has("graph"):
        return source.graph
    if source.has("space"):
        raise ValueError(
            f"bundle {source.path} stores a ({source.r},{source.s}) space and "
            f"no graph; cannot serve the requested ({r},{s}) instance"
        )
    raise ValueError(f"bundle {source.path} stores neither a space nor a graph")


def resolve_space(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int],
    s: Optional[int],
) -> Union[NucleusSpace, CSRSpace]:
    """Shared source-resolution for every decomposition entry point.

    A prebuilt space (either representation) passes through; a graph needs
    explicit ``r``/``s``.  A dict :class:`Graph` gets a fresh
    :class:`NucleusSpace`; a :class:`CSRGraph` goes straight to
    :meth:`CSRSpace.from_graph` (it has no dict representation to build).
    An opened bundle contributes its stored space when the instance matches,
    its stored graph otherwise (see :func:`_unwrap_bundle`).
    """
    source = _unwrap_bundle(source, r, s)
    if isinstance(source, (NucleusSpace, CSRSpace)):
        return source
    if r is None or s is None:
        raise ValueError("r and s are required when passing a graph")
    if isinstance(source, CSRGraph):
        return CSRSpace.from_graph(source, r, s)
    return NucleusSpace(source, r, s)


def resolve_space_for_backend(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int],
    s: Optional[int],
    backend: str,
) -> Tuple[Union[NucleusSpace, CSRSpace], str]:
    """Resolve source and backend together, skipping the dict detour.

    A :class:`Graph` or :class:`CSRGraph` source with ``backend="csr"`` or
    ``"auto"`` is constructed directly via :meth:`CSRSpace.from_graph` —
    the :class:`NucleusSpace` is never built.  An explicit
    ``backend="dict"`` builds the :class:`NucleusSpace` (through
    :meth:`CSRGraph.to_graph` for an array source).  Every other
    combination behaves like :func:`resolve_space` followed by
    :func:`resolve_backend`.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    source = _unwrap_bundle(source, r, s, prefer_graph=backend == "dict")
    if isinstance(source, (Graph, CSRGraph)):
        if r is None or s is None:
            raise ValueError("r and s are required when passing a graph")
        if backend == "dict":
            if isinstance(source, CSRGraph):
                source = source.to_graph()
            return NucleusSpace(source, r, s), "dict"
        return CSRSpace.from_graph(source, r, s), "csr"
    space = resolve_space(source, r, s)
    return space, resolve_backend(backend, space)


def _as_csr(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int],
    s: Optional[int],
) -> CSRSpace:
    source = _unwrap_bundle(source, r, s)
    if isinstance(source, (Graph, CSRGraph)):
        # direct construction: the dict-of-tuples detour is never built
        if r is None or s is None:
            raise ValueError("r and s are required when passing a graph")
        return CSRSpace.from_graph(source, r, s)
    if isinstance(source, CSRSpace):
        return source
    return source.to_csr()


# ----------------------------------------------------------------------
# AND kernel
# ----------------------------------------------------------------------
def _make_converged_counter(
    reference_kappa: Optional[List[int]],
) -> Callable[[Sequence[int]], int]:
    """Per-iteration convergence counter against a reference κ array.

    Vectorised: the interpreted ``sum(...)`` over all ``n`` cliques used to
    dominate instrumented kernel timings.
    """
    if reference_kappa is None:
        return lambda tau: -1
    ref = _np.asarray(reference_kappa, dtype=_np.int64)
    return lambda tau: int((_np.asarray(tau, dtype=_np.int64) == ref).sum())


def and_decomposition_csr(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    notification: bool = True,
    max_iterations: Optional[int] = None,
    record_history: bool = False,
    reference_kappa: Optional[List[int]] = None,
    on_iteration: Optional[Callable[[int, List[int]], None]] = None,
) -> DecompositionResult:
    """Frontier-batched AND (Algorithm 3) over a :class:`CSRSpace`.

    With ``notification`` (the default) each pass is one step of the
    counted kernel :func:`_and_count`: the first pass checks every clique
    and seeds the per-clique support counts, and every later pass visits
    only the cliques whose count has fallen below τ.  Without it every
    pass is a full sweep of the round kernel :func:`_and_sweep` over the
    one chunk ``[0, n)``, the kernel the process pool runs per worker
    chunk.  Each pass reads the pass-start τ (Jacobi within a pass,
    Gauss–Seidel across passes), so iteration counts and τ trajectories
    differ from the per-visit schedule of
    :func:`repro.core.asynd.and_decomposition`; κ is the same unique fixed
    point, which the property tests assert against the dict backend.  Both
    routes here take the same τ trajectory.

    The counters, per pass:

    * ``processed`` — the cliques the pass looks at: all ``n`` in a full
      pass (the first one, or every one without ``notification``); the
      frontier ``support < τ`` in a later counted pass, which is exactly
      the cliques that drop, so ``processed == updated`` there;
    * ``skipped`` — ``n - processed``: the cliques whose count (or, in the
      pool, whose missing flag) shows they cannot drop;
    * ``rho_evaluations`` — context rows gathered: every row in a full
      pass, plus the frontier's rows, gathered once to rank them (their
      re-read against the published τ is not charged again);
    * ``h_index_calls`` — the cliques whose τ dropped.

    τ = 0 cliques are looked at in a full pass and never gathered.
    """
    space = _as_csr(source, r, s)
    n = len(space)
    tau = _np.diff(space.ctx_offsets)
    if notification:
        support = _np.zeros(n, dtype=_np.int64)
        step = _and_count(space.ctx_offsets, space.ctx_members, space.stride, tau, support)
    else:
        sweep = _and_sweep(space.ctx_offsets, space.ctx_members, space.stride, tau, None)

        def step(first: bool):
            return sweep(0, n, True, False)

    count_converged = _make_converged_counter(reference_kappa)
    history: Optional[List[List[int]]] = [tau.tolist()] if record_history else None
    stats: List[IterationStats] = []
    rho_evaluations = 0
    h_calls = 0
    skipped_total = 0

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        updated, processed, evaluated, max_change = step(iteration == 1)
        rho_evaluations += evaluated
        h_calls += updated
        skipped_total += n - processed
        converged = updated == 0
        if history is not None:
            history.append(tau.tolist())
        if on_iteration is not None:
            on_iteration(iteration, tau.tolist())
        stats.append(
            IterationStats(
                iteration=iteration,
                updated=updated,
                processed=processed,
                skipped=n - processed,
                max_change=max_change,
                converged_count=count_converged(tau),
            )
        )

    return DecompositionResult.from_space(
        space,
        algorithm="and",
        kappa=tau.tolist(),
        iterations=iteration,
        converged=converged,
        tau_history=history,
        iteration_stats=stats,
        operations={
            "rho_evaluations": rho_evaluations,
            "h_index_calls": h_calls,
            "skipped_cliques": skipped_total,
            "backend": "csr",
            "engine": "numpy",
        },
    )


def support_counts(space: CSRSpace, tau):
    """Each clique's support under ``tau``, counted from scratch.

    ``support(R)`` is the number of R's contexts whose partners all have
    τ ≥ τ(R), that is, the s-cliques whose minimum τ is τ(R).  This is the
    Section 4.4 sustainability count applied to every clique at once.
    ``support ≥ τ`` everywhere is the fixed-point condition of the AND: it
    holds at κ, and any ``tau`` that meets it is ≤ κ.  :func:`_and_count`
    starts from these counts and keeps them up to date pass by pass.
    """
    total = int(space.ctx_offsets[len(space)])
    columns = space.ctx_members[:total * space.stride].reshape(total, space.stride).T
    return _support(space.ctx_offsets, columns, _np.asarray(tau, dtype=_np.int64))


@kernel
def _support(ctx_off, columns, tau):
    """Support counts from one gather per partner column plus a prefix sum."""
    rho = tau[columns[0]]
    for column in columns[1:]:
        _np.minimum(rho, tau[column], out=rho)
    held = rho >= _np.repeat(tau, ctx_off[1:] - ctx_off[:-1])
    del rho
    run = _np.zeros(len(held) + 1, dtype=_np.int64)
    _np.cumsum(held, out=run[1:])
    return run[ctx_off[1:]] - run[ctx_off[:-1]]


@kernel
def _and_count(ctx_off, members, stride: int, tau, support):
    """The counted AND kernel: a serial pass that gathers only cliques that drop.

    Binds the space buffers, the τ array and the int64 ``support`` counts
    (both updated in place; the engine allocates them, so a caller can read
    the counts between passes) and returns ``step(first)``, which runs one
    pass and returns ``(updated, processed, rho_evaluations, max_change)``
    as :func:`_and_sweep` does.  ``support(R)`` is the number of R's
    contexts whose partners all have τ ≥ τ(R) (:func:`support_counts`), so
    the Section 4.4 sustainability check keeps τ(R) iff
    ``support(R) ≥ τ(R)``.  The ``first`` pass runs that check on every
    clique, counting each support from scratch (:func:`_support`); every
    pass then takes the frontier ``support < τ``.  Each clique in it fails
    the check, so no check runs: the pass gathers the frontier's rows and
    computes each new τ as the h-index of its segment, one sort of packed
    ``(segment, -ρ)`` keys as in :func:`_and_sweep`.  The new τ lies
    strictly below the old one, since an h-index ≥ τ would have passed
    the check.

    After publishing the new τ, the pass brings the counts up to date from
    the frontier's rows alone, re-read against the published τ:

    * a changed clique recounts its support from its own rows;
    * an unchanged partner ``p`` loses an s-clique iff the s-clique's
      minimum τ over its members fell across τ(p): ``μ_old ≥ τ(p) >
      μ_new``.  τ only decreases, so no count grows.  An s-clique with
      several changed members is counted once, from the row of its
      smallest-index changed member (the rule :func:`_retire` uses), found
      through a byte flag per clique that marks the pass's changed cliques
      and is reset after it.

    Every other s-clique keeps all its τ values, so no other count moves.
    The frontier of each pass is therefore exactly the set of cliques whose
    check would fail, and the τ trajectory (per-pass updates, iterations)
    equals :func:`_and_sweep`'s; an empty frontier is the converging pass.
    The counts have one writer, which is why the pool's chunks keep
    :func:`_and_sweep`'s flags.
    """
    n = len(tau)
    total = int(ctx_off[n])
    columns = members[:total * stride].reshape(total, stride).T
    degrees = ctx_off[1:] - ctx_off[:-1]
    # packed sort-key base: every ρ is bounded by the maximum context count
    pack = int(degrees.max(initial=0)) + 2
    # engine-local scratch: False for the pass's changed cliques, never
    # shared or persisted
    still = _np.ones(n, dtype=bool)  # repro: noqa[ARR002]

    def step(first: bool):
        checked = 0
        if first:
            support[:] = _support(ctx_off, columns, tau)
            checked = total
        frontier = (support < tau).nonzero()[0]
        m = len(frontier)
        processed = n if first else m
        if m == 0:
            return 0, processed, checked, 0
        # support < τ implies τ > 0, so every segment is non-empty
        deg = degrees[frontier]
        starts = _np.cumsum(deg) - deg
        evaluated = int(starts[-1] + deg[-1])
        pos = _np.arange(evaluated, dtype=_np.int64) - _np.repeat(starts, deg)
        rows = pos + _np.repeat(ctx_off[frontier], deg)
        parts = [column[rows] for column in columns]
        del rows
        rho = tau[parts[0]]
        for part in parts[1:]:
            _np.minimum(rho, tau[part], out=rho)
        if m * pack <= 2**62:
            # packed keys ``segment * pack + (pack - 1 - ρ)``: one sort
            # ranks every segment's ρ descending, and equal keys are equal
            # values, so any sort order will do
            key = _np.repeat(_np.arange(pack - 1, m * pack, pack, dtype=_np.int64), deg)
            key -= rho
            key.sort()
            key %= pack
        else:  # pragma: no cover - needs ~2^31 cliques
            rep = _np.repeat(_np.arange(m, dtype=_np.int64), deg)
            key = pack - 1 - rho[_np.lexsort((-rho, rep))]
        # h = #{k : sorted ρ[k] >= k + 1} per segment, with key = pack - 1 - ρ
        new = _np.add.reduceat(key <= pack - 2 - pos, starts, dtype=_np.int64)
        del key, pos
        old = tau[frontier]
        tau[frontier] = new
        # re-read the partners against the published τ
        fresh = tau[parts[0]]
        for part in parts[1:]:
            _np.minimum(fresh, tau[part], out=fresh)
        bound = _np.repeat(new, deg)
        support[frontier] = _np.add.reduceat(fresh >= bound, starts, dtype=_np.int64)
        # μ over the row's s members, before and after the publish.  An
        # unchanged partner p has τ(p) ≥ μ_old, so it loses the s-clique
        # (μ_old ≥ τ(p) > μ_new) iff μ fell and τ(p) == μ_old.
        low = _np.minimum(fresh, bound, out=fresh)
        high = _np.minimum(rho, _np.repeat(old, deg), out=rho)
        fell = (low < high).nonzero()[0]
        if len(fell):
            high = high[fell]
            owner = _np.repeat(frontier, deg)[fell]
            parts = [part[fell] for part in parts]
            # count each s-clique from one row: the row whose owner has the
            # smallest index among its changed members
            still[frontier] = False
            free = [still[part] for part in parts]
            lead = free[0] | (parts[0] > owner)
            for part, flag in zip(parts[1:], free[1:]):
                lead &= flag | (part > owner)
            for part, flag in zip(parts, free):
                flag &= lead
                flag &= tau[part] == high
                _np.subtract.at(support, part[flag], 1)
            still[frontier] = True
        return m, processed, checked + evaluated, int((old - new).max())

    return step


@kernel
def _and_sweep(ctx_off, members, stride: int, tau, active):
    """The AND round kernel: one frontier-batched pass over a chunk.

    Binds the space buffers, the τ array and the byte-wide ``active`` flags
    (in-memory arrays or memmaps for the serial engine, which sweeps fully
    and passes ``None`` for the flags it never reads; zero-copy views over
    shared memory in the pool workers) and returns
    ``sweep(lo, hi, full, use_active)``.  A call updates ``tau[lo:hi]`` in
    place and returns ``(updated, processed, rho_evaluations,
    max_change)``.  Over the frontier ``F`` — the chunk's cliques with
    τ > 0, restricted to the flagged ones when ``use_active`` and not
    ``full`` — one call:

    1. *claims* the flags it sweeps (clears them before reading any τ, so
       a concurrent cross-chunk decrease either lands in the values read
       or re-raises the flag for the next pass); ``full`` sweeps and
       clears the whole chunk regardless of flags;
    2. *gathers* ρ, the minimum of the members' τ of every context of
       ``F``, column by column over the ``stride`` member slots;
    3. *reduces* with the Section 4.4 sustainability check — a clique
       keeps τ iff at least τ of its ρ values are ≥ τ — and computes the
       h-index of the failed segments only, as one sort of packed
       ``(segment, -ρ)`` keys plus a prefix-count ``bincount``, clamped
       with the current τ;
    4. *publishes* the drops into ``tau`` (the chunk is its only writer)
       and, with ``use_active``, *notifies* from the context rows already
       gathered for the changed cliques: a partner ``p`` of a changed
       clique ``i`` is flagged, across chunk boundaries too, only where
       ``τ(p) > τ'(i)``, the new value of ``i``.

    Why the notification is exact: a context of ``p`` that contains ``i``
    counts toward ``p``'s check (ρ ≥ τ(p)) only while every member's τ is
    ≥ τ(p).  When τ(p) ≤ τ'(i) ≤ τ(i), ``i`` satisfied that before and
    still does, so ``i``'s drop cannot change ``p``'s sustained count; a
    re-check would find ``p`` sustained and leave it.  Because τ only
    decreases, a later τ(p) stays ≤ τ'(i) and the skip stays safe.  The
    same holds for a peer's τ(p) read concurrently: a stale (larger) value
    only wakes ``p`` needlessly, and a fresh one is ``p``'s current τ, which
    its owner computed with ``i`` at a value ≥ τ(p) either way.  So the
    frontier of the next pass differs from waking every neighbour only by
    cliques that would not move, and the τ trajectory (per-pass updates,
    iterations) is the same.

    Any τ read is valid, whether the pass-start value (one chunk) or the
    latest a peer published (many chunks), because τ only decreases.
    """
    n = len(tau)
    total = int(ctx_off[n])
    columns = members[:total * stride].reshape(total, stride).T
    degrees = ctx_off[1:] - ctx_off[:-1]
    # packed sort-key base for the h-index reduction: every ρ is bounded by
    # the maximum context count, so ρ < pack always holds
    pack = int(degrees.max(initial=0)) + 2

    def sweep(lo: int, hi: int, full: bool, use_active: bool):
        if use_active and not full:
            # scan a private snapshot: peers set flags in this range
            # while it is read, which flatnonzero must not observe
            flagged = lo + _np.flatnonzero(active[lo:hi].copy())
            active[flagged] = 0  # claim before reading any neighbour value
            frontier = flagged[tau[flagged] > 0]
            processed = len(flagged)
        else:
            if use_active:
                active[lo:hi] = 0
            frontier = lo + _np.flatnonzero(tau[lo:hi] > 0)
            processed = hi - lo
        m = len(frontier)
        if m == 0:
            return 0, processed, 0, 0
        # τ > 0 implies at least one context, so every segment is non-empty
        deg = degrees[frontier]
        cs = _np.cumsum(deg) - deg
        evaluated = int(cs[-1] + deg[-1])
        rep = _np.repeat(_np.arange(m, dtype=_np.int64), deg)
        pos = _np.arange(evaluated, dtype=_np.int64) - cs[rep]
        rows = ctx_off[frontier][rep] + pos
        seg_rho = tau[columns[0][rows]]
        for column in columns[1:]:
            _np.minimum(seg_rho, tau[column[rows]], out=seg_rho)
        cur = tau[frontier]
        sustained = _np.bincount(rep[seg_rho >= cur[rep]], minlength=m)
        drop = sustained < cur
        changed = frontier[drop]
        updated = len(changed)
        if updated == 0:
            return 0, processed, evaluated, 0
        # h-index for the failed segments only.  Whole segments are kept,
        # so positions within kept segments stay contiguous and `pos[sel]`
        # doubles as the sorted rank sequence.
        sel = drop[rep]
        rep2 = (_np.cumsum(drop) - 1)[rep[sel]]
        if updated * pack <= 2**62:
            # one packed-key sort (segment ascending, ρ descending), ρ
            # decoded arithmetically — cheaper than argsort + a gather
            key = rep2 * pack + (pack - 1 - seg_rho[sel])
            key.sort(kind="stable")
            sorted_rho = pack - 1 - (key % pack)
        else:  # pragma: no cover - needs ~2^31 cliques
            sub_rho = seg_rho[sel]
            sorted_rho = sub_rho[_np.lexsort((-sub_rho, rep2))]
        # rep2 is non-decreasing, so the sort leaves it unpermuted;
        # h = #{k : sorted_rho[k] >= k + 1} per segment
        qualifies = sorted_rho >= pos[sel] + 1
        h = _np.bincount(rep2[qualifies], minlength=updated)
        old = cur[drop]
        new_values = _np.minimum(h, old)
        tau[changed] = new_values
        if use_active:
            # the failed segments' rows, against their owner's new τ
            changed_rows = rows[sel]
            bound = new_values[rep2]
            for column in columns:
                partners = column[changed_rows]
                active[partners[tau[partners] > bound]] = 1
        return updated, processed, evaluated, int((old - new_values).max())

    return sweep


# ----------------------------------------------------------------------
# SND kernel
# ----------------------------------------------------------------------
def snd_decomposition_csr(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    max_iterations: Optional[int] = None,
    record_history: bool = False,
    reference_kappa: Optional[List[int]] = None,
    on_iteration: Optional[Callable[[int, List[int]], None]] = None,
) -> DecompositionResult:
    """Array-native SND (Algorithm 2) over a :class:`CSRSpace`.

    Runs the round kernel :func:`_snd_sweep` over the one chunk ``[0, n)``
    with two τ buffers swapped every iteration.  κ, iteration counts and
    per-iteration stats are identical to
    :func:`repro.core.snd.snd_decomposition`.
    """
    space = _as_csr(source, r, s)
    n = len(space)
    total = int(space.ctx_offsets[n])
    sweep = _snd_sweep(space.ctx_offsets, space.ctx_members, space.stride, 0, n)
    tau = _np.diff(space.ctx_offsets)
    spare = _np.empty_like(tau)
    count_converged = _make_converged_counter(reference_kappa)
    history: Optional[List[List[int]]] = [tau.tolist()] if record_history else None
    stats: List[IterationStats] = []
    rho_evaluations = 0
    h_calls = 0

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        updated, max_change = sweep(tau, spare)
        tau, spare = spare, tau
        rho_evaluations += total
        h_calls += n
        converged = updated == 0
        if history is not None:
            history.append(tau.tolist())
        if on_iteration is not None:
            on_iteration(iteration, tau.tolist())
        stats.append(
            IterationStats(
                iteration=iteration,
                updated=updated,
                processed=n,
                skipped=0,
                max_change=max_change,
                converged_count=count_converged(tau),
            )
        )

    return DecompositionResult.from_space(
        space,
        algorithm="snd",
        kappa=tau.tolist(),
        iterations=iteration,
        converged=converged,
        tau_history=history,
        iteration_stats=stats,
        operations={
            "rho_evaluations": rho_evaluations,
            "h_index_calls": h_calls,
            "backend": "csr",
        },
    )


@kernel
def _snd_sweep(ctx_off, members, stride: int, lo: int, hi: int):
    """The SND round kernel: one synchronous Jacobi step over ``[lo, hi)``.

    Binds the space buffers (in-memory, memmapped or shared-memory views)
    and returns ``sweep(prev, nxt)``, which writes the new τ of the chunk
    into ``nxt[lo:hi]`` and returns ``(updated, max_change)`` over the
    chunk.  Per context, ρ is the minimum of the members' ``prev`` values,
    taken column by column over the ``stride`` member slots; per clique,
    τ is the h-index of its ρ values.  Only the O(chunk contexts) segment
    bookkeeping is chunk-local scratch.
    """
    lo_c, hi_c = int(ctx_off[lo]), int(ctx_off[hi])
    columns = members[lo_c * stride:hi_c * stride].reshape(hi_c - lo_c, stride).T
    offs = ctx_off[lo:hi + 1]
    degrees = offs[1:] - offs[:-1]
    # seg_ids[c] = owning clique of context c, pos_in_seg[c] = rank of c
    # within its clique after the descending sort below
    seg_ids = _np.repeat(_np.arange(hi - lo, dtype=_np.int64), degrees)
    pos_in_seg = _np.arange(hi_c - lo_c, dtype=_np.int64) - _np.repeat(
        offs[:-1] - lo_c, degrees
    )

    def sweep(prev, nxt):
        if hi_c > lo_c:
            rho = prev[columns[0]]
            for column in columns[1:]:
                _np.minimum(rho, prev[column], out=rho)
            # sort ρ descending within each clique's segment (lexsort is
            # stable and seg_ids is already non-decreasing, so segments stay
            # contiguous); h = #{k : sorted_rho[k] >= k + 1} per segment,
            # a prefix property because sorted_rho falls while k + 1 rises
            order = _np.lexsort((-rho, seg_ids))
            qualifies = rho[order] >= pos_in_seg + 1
            new = _np.bincount(seg_ids[qualifies], minlength=hi - lo)
        else:
            new = _np.zeros(hi - lo, dtype=_np.int64)
        old = prev[lo:hi]
        updated = int((new != old).sum())
        max_change = int((old - new).max(initial=0))
        nxt[lo:hi] = new
        return updated, max_change

    return sweep


# ----------------------------------------------------------------------
# peeling step
# ----------------------------------------------------------------------
@kernel
def _retire(ctx_off, members, deg, gone, front, stamp: int):
    """The peel step: remove the r-cliques ``front`` as sub-round ``stamp``.

    ``members`` is ``ctx_members`` viewed as ``(contexts, stride)`` rows,
    ``deg`` the live s-degrees and ``gone`` each clique's removal
    sub-round (any value above ``stamp`` while it is live); both are
    updated in place.  A clique's context rows are the s-cliques it lies
    in, so the step gathers the frontier's own rows and keeps a row iff

    * its s-clique was alive when the sub-round started (no partner was
      removed in an earlier one), and
    * its owner is the smallest-index frontier member of that s-clique,

    which is one test: every partner outranks the owner in (removal
    sub-round, index) order.  Each kept row is one s-clique dying now; its
    partners that survive the sub-round lose it from ``deg``.  Returns
    ``(touched, decrements)``: the distinct surviving partners that lost
    an s-clique, ascending, and the number of decrements applied.
    """
    gone[front] = stamp
    counts = ctx_off[front + 1] - ctx_off[front]
    partners = members[_runs(ctx_off[front], counts)]
    # rank = removal sub-round * scale + index; live cliques outrank all
    scale = len(deg) + 1
    owner_rank = _np.repeat(front + stamp * scale, counts)
    columns = partners.T
    keep = gone[columns[0]] * scale + columns[0] > owner_rank
    for column in columns[1:]:
        keep &= gone[column] * scale + column > owner_rank
    hit = partners[keep].ravel()
    hit = hit[gone[hit] > stamp]
    touched, lost = _np.unique(hit, return_counts=True)
    deg[touched] -= lost
    return touched, len(hit)


def chunk_ranges(n: int, num_chunks: int) -> Iterator[Tuple[int, int]]:
    """Split ``range(n)`` into contiguous, balanced, non-empty index ranges.

    Yields exactly ``min(n, num_chunks)`` ranges whose sizes differ by at
    most one; ``n == 0`` yields nothing.  Empty ranges are never emitted
    (``n < num_chunks`` simply produces fewer chunks), and the sizes are
    balanced rather than ceil-sized — the old ceil split could leave the
    last chunk with a fraction of the others' work (e.g. 10 over 4 chunks
    gave 3/3/3/1 instead of 3/3/2/2), which turns directly into load
    imbalance when each chunk is owned by one worker.

    Used by the parallel runners to dispatch CSR row ranges instead of
    per-index tasks: one task per chunk amortises the dispatch overhead over
    many ρ evaluations.
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if n <= 0:
        return
    chunks = min(n, num_chunks)
    base, extra = divmod(n, chunks)
    lo = 0
    for c in range(chunks):
        hi = lo + base + (1 if c < extra else 0)
        yield lo, hi
        lo = hi


def weighted_ranges(
    ctx_offsets: Sequence[int], num_chunks: int
) -> List[Tuple[int, int]]:
    """Contiguous index ranges balanced by *context count*, not index count.

    ``ctx_offsets`` is the CSR context-offset array (length ``n + 1``); the
    per-index sweep cost is proportional to the number of contexts, so the
    chunk boundaries are placed at (approximately) equal cumulative context
    counts.  Every returned range is non-empty; at most
    ``min(n, num_chunks)`` ranges are produced.  This is what the
    process-pool backend uses to assign per-worker chunk ownership.
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    n = len(ctx_offsets) - 1
    if n <= 0:
        return []
    chunks = min(n, num_chunks)
    total = ctx_offsets[n]
    if total == 0:
        return list(chunk_ranges(n, chunks))
    boundaries = [0]
    for c in range(1, chunks):
        target = total * c // chunks
        hi = bisect_left(ctx_offsets, target, boundaries[-1] + 1, n)
        # keep every chunk non-empty: strictly after the previous boundary,
        # and leave at least one index for each remaining chunk
        hi = max(hi, boundaries[-1] + 1)
        hi = min(hi, n - (chunks - c))
        boundaries.append(hi)
    boundaries.append(n)
    return list(zip(boundaries[:-1], boundaries[1:]))
