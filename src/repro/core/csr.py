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

A space built from a graph has one builder, :meth:`CSRSpace.from_graph`
over a :class:`~repro.graph.csr_graph.CSRGraph` (a dict ``Graph`` is
converted first), so one graph gives one space whichever class holds it.
Its cliques are indexed in sorted vertex-id order, and so are those of
:class:`repro.core.space.NucleusSpace`: ``NucleusSpace.to_csr()`` is
``CSRSpace.from_graph`` on the same graph, index-aligned with the oracle.

The pool's AND round kernel, :func:`_and_sweep`, runs one frontier-batched
pass over a chunk of cliques, driven by notification flags: the workers of
:class:`repro.parallel.procpool.PersistentPool` run it over their own
chunks of shared-memory views.  The serial local algorithms share one pass
kernel instead, picked by :func:`_pass_kernel`.  On a space of more than
``_AND_BLOCK`` cliques it is :func:`_and_count`: one writer can keep a
per-clique support count up to date, so a pass gathers only the cliques
whose τ drops, where the pool's chunks gather every flagged clique and
check it.  The serial AND, :func:`and_decomposition_csr`, lets it lower a
large frontier in ascending-τ blocks, each reading the τ the earlier blocks
published, so its passes are Gauss–Seidel where the pool's are Jacobi;
while every frontier fits one block the two take the same τ trajectory.
SND, :func:`snd_decomposition_csr`, sets no block limit, so each of its
passes is exactly one synchronous Jacobi step of Algorithm 2.  A space too
small to block a frontier (at most ``_AND_BLOCK`` cliques) runs
:func:`_and_jacobi`, plain Jacobi passes with the counted kernel's
trajectory and counters and none of its count bookkeeping.  κ equals the
dict-backend implementations in :mod:`repro.core.asynd` and
:mod:`repro.core.snd`, which the test-suite asserts property-style.  AND's
per-visit schedule has no kernel here: the one loop in
:mod:`repro.core.asynd` runs on this class through its read API.  The exact
baselines share one step, :func:`_retire`, which removes a whole frontier
of r-cliques at once: the level-synchronous peel of
:mod:`repro.core.peeling` and the degree levels of :mod:`repro.core.levels`
drive it.

The AND counters in ``result.operations`` and ``iteration_stats``:
``processed`` is the number of cliques a pass looks at (every clique in the
first pass, the counted frontier in a later one), ``skipped`` the rest, and
``rho_evaluations`` the context rows gathered (see
:func:`and_decomposition_csr`).  SND's counters follow the paper's cost
model instead (see :func:`snd_decomposition_csr`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from itertools import combinations

import numpy as _np

from repro.core.kernels import kernel
from repro.core.result import DecompositionResult, IterationStats
from repro.core.space import NucleusSpace, _binomial
from repro.graph.cliques import canonical_clique
from repro.graph.csr_graph import (
    DEFAULT_BATCH_SIZE,
    CliqueArrayView,
    CSRGraph,
    _check_key_space,
    _chunk_rows_by_pairs,
    _id_mask,
    _key_budget,
    _pairs_within,
    _runs,
    _sorted_hits,
    _sorted_unique,
)
from repro.graph.graph import Graph

__all__ = [
    "CSRSpace",
    "GraphSource",
    "resolve_space",
    "and_decomposition_csr",
    "support_counts",
    "snd_decomposition_csr",
    "chunk_ranges",
    "weighted_ranges",
]

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
    representation through one :class:`CSRGraph` route, no dict space in
    between; ``NucleusSpace.to_csr()`` is this route too); it ends in the
    constructor, which takes prebuilt buffers and stores them as int64
    arrays.  :meth:`restrict` cuts the space of an induced subgraph out of
    an existing one.  The read API mirrors
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
    cliques : CliqueArrayView
        The r-cliques, index-aligned with every other buffer: a lazy
        :class:`~repro.graph.csr_graph.CliqueArrayView` over a vertex-id
        table, in lexicographic order for a space built from a graph.
    graph : CSRGraph, optional
        The :class:`CSRGraph` the space was enumerated from (or the stored
        graph of a reopened bundle); ``None`` after unpickling or
        :meth:`restrict`.
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
    )

    def __init__(
        self,
        r: int,
        s: int,
        cliques: CliqueArrayView,
        ctx_offsets: Sequence[int],
        ctx_members: Sequence[int],
        graph: Optional[CSRGraph] = None,
    ) -> None:
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        self.r = r
        self.s = s
        self.stride = _binomial(s, r) - 1
        self.cliques = cliques
        self.graph = graph
        self.ctx_offsets = _np.asarray(ctx_offsets, dtype=_np.int64)
        self.ctx_members = _np.asarray(ctx_members, dtype=_np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: GraphSource, r: int, s: int, *, pool=None
    ) -> "CSRSpace":
        """Build the CSR space of ``graph`` straight from the graph.

        No dict-of-tuples :class:`NucleusSpace` (per-context tuples,
        per-clique neighbour sets) is materialised on the way.

        There is one construction path: a dict :class:`Graph` is first
        converted with :meth:`CSRGraph.from_graph`, so both graph classes
        give the same buffers, and ``graph`` on the result is always the
        :class:`CSRGraph` the space was built from.  No per-clique Python
        tuple is created (``cliques`` is a lazy :class:`CliqueArrayView`
        over a lexicographically sorted id table):

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

        Every pair search — the triangle pass's edge test
        (:meth:`CSRGraph._pair_test`) and the (3, 4) triangle-pair test —
        sorts its packed needles first and searches them in ascending key
        order, which costs well under half of a search in generation
        order; the hits come back in generation order, so the buffers are
        those of an unsorted search.

        Clique *indices* follow the sorted id order of the array tables:
        the r-cliques in lexicographic order of their vertex-id rows.
        ``NucleusSpace(graph, r, s)`` indexes its cliques the same way, and
        its ``to_csr()`` is this space.

        ``pool`` (a :class:`~repro.parallel.procpool.PersistentPool`) binds
        the serially built space on that pool: its segments are created and
        the workers forked now, so a following ``pool.run_and(space)``
        sweeps without a second fork.
        """
        if r < 1 or s <= r:
            raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
        if not isinstance(graph, CSRGraph):
            graph = CSRGraph.from_graph(graph)
        space = cls._from_csr_graph(graph, r, s)
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
        cliques: CliqueArrayView,
        groups,
        graph: CSRGraph,
    ) -> "CSRSpace":
        """Assemble the CSR buffers from array-shaped incidence.

        ``cliques`` are the r-cliques (a lazy :class:`CliqueArrayView`; no
        per-clique tuples are materialised here) and
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

        ``vertex_ids`` are vertex ids of the clique table.  The result
        equals the space of the induced subgraph on those vertices: an
        s-clique lies in that subgraph exactly when all of its r-subcliques
        do, so a context row is kept only when every partner survives.
        Surviving cliques keep their relative order and their vertex ids
        and labels, so ``find_index`` works unchanged.

        Every clique inside the set is led (smallest id) by a member of the
        set, so the candidates are the runs of the clique table's sorted
        first column at those ids (:meth:`CliqueArrayView.sorted_rows`),
        read off the pointer table :meth:`SortedRows.lead_runs` keeps over
        that column.  Partners are checked and
        renumbered through one global → local table written at the kept
        indices only.  The kept cliques' member slots are one flat gather;
        a row survives when each of its ``stride`` columns (strided slices
        of the flat slots) does, and one row mask repeated ``stride``
        times keeps the surviving slots.  The cost follows the cliques led
        by the set and their contexts, not the whole space.

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
        # plain views: a memmap subclass pays wrapping costs on every op
        ctx_off = _np.asarray(self.ctx_offsets)
        members = _np.asarray(self.ctx_members)
        stride = self.stride
        keep_ids = _np.asarray(vertex_ids, dtype=_np.int64)
        if not (keep_ids[1:] > keep_ids[:-1]).all():  # a BFS ball is sorted
            keep_ids = _sorted_unique(keep_ids)
        in_set = _id_mask(len(view.labels), keep_ids)
        rows = view.sorted_rows()
        first, last = rows.lead_runs(keep_ids)
        positions = _runs(first, last - first)
        for column in rows.columns[1:]:
            positions = positions[in_set[column[positions]]]
        kept = _np.sort(rows.perm[positions])
        n = len(kept)
        lo = ctx_off[kept]
        counts = ctx_off[kept + 1] - lo
        # the kept cliques' member slots, flat: row c is slots
        # c * stride .. (c + 1) * stride - 1 of ``partners``
        partners = members[_runs(lo * stride, counts * stride)]
        # global -> local table written at the kept slots only: np.empty
        # spares an O(len(self)) fill, and an unwritten slot read for a
        # dropped partner is caught because it cannot map back to it
        local_of = _np.empty(len(view), dtype=_np.int64)
        local_of[kept] = _np.arange(n, dtype=_np.int64)
        local = local_of[partners]
        # into range (``np.clip`` pays a Python-level dtype check per call)
        _np.minimum(local, max(n - 1, 0), out=local)
        _np.maximum(local, 0, out=local)
        # a row survives when every partner does: AND its columns, which
        # are the strided slices of the flat hits
        whole = _row_min((kept[local] == partners).reshape(-1, stride))
        owners = _np.repeat(_np.arange(n, dtype=_np.int64), counts)[whole]
        ctx_offsets = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(owners, minlength=n), out=ctx_offsets[1:])
        return CSRSpace(
            self.r,
            self.s,
            view.take(kept),
            ctx_offsets,
            local[_np.repeat(whole, stride)],
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

        A binary search of the id table (see :meth:`find_index`).
        """
        found = self.find_index(clique)
        if found is None:
            raise KeyError(canonical_clique(tuple(clique)))
        return found

    def find_index(self, clique: Sequence) -> Optional[int]:
        """Index of an r-clique given in any vertex order, or ``None``.

        Binary-searches the id table (:meth:`CliqueArrayView.find`); its
        label map and row index are built on first use and cached, so
        index-only pipelines never pay for them.
        """
        return self.cliques.find(clique)

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
        }

    def __setstate__(self, state) -> None:
        state.setdefault("graph", None)
        for name, value in state.items():
            object.__setattr__(self, name, value)


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
    truss-pipeline benchmark's peak RSS.  Above 2**16 the keys are packed
    as ``key * L + slot``, with ``L`` the least power of two not below
    ``len(keys)``: they are distinct, so one in-place ``sort`` orders them
    exactly as the stable argsort would, and the mask ``L - 1`` reads the
    order back, as in :func:`~repro.graph.csr_graph._sorted_hits`.  Only the
    packed keys are alive during that sort.  Measured at seed 3 of the
    benchmark workloads (numpy 2.4.6, 2-vCPU x86_64 VM, median of 21):
    dense (3, 4), 286,408 keys, sort 3.6 ms against 7.6 ms for an
    ``argsort`` of ``key * len(keys) + slot``; truss (2, 3), 234,729
    keys, 2.9 against 6.2 ms.
    """
    if n <= 1 << 16:
        return _np.argsort(keys.astype(_np.uint16), kind="stable")
    size = len(keys)
    shift = (size - 1).bit_length()
    _check_key_space(n, 1 << shift)
    packed = keys << shift
    packed |= _np.arange(size, dtype=_np.int64)
    packed.sort()
    packed &= (1 << shift) - 1
    return packed


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
    order, and each chunk's ``q`` keys are searched in key order with the
    hits returned in pair order (:func:`_sorted_hits`, the pair test's
    search).  The triangle table itself is in lexicographic id order: a
    triangle's two lowest edge rows give its sort key ``low0 * m + low1``,
    distinct per triangle, so one sort of ``key * L + index`` (``L`` a
    power of two) yields the order with a mask, cheaper than an
    ``argsort`` of the keys.
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
    shift = (max(len(p), 1) - 1).bit_length()
    _check_key_space(m * m, 1 << shift)
    order = low[:, 0] * m
    order += low[:, 1]
    order <<= shift
    order |= _np.arange(len(p), dtype=_np.int64)
    order.sort()
    # the sorted keys name each row's two lowest edges; the mask its triangle
    low0 = order >> shift
    low1 = low0 % m
    low0 //= m
    order &= (1 << shift) - 1
    edges = graph.edge_array()
    table = _np.column_stack((edges[low0, 0], edges[low0, 1], edges[low1, 1]))
    del low, low0, low1
    lex = _np.empty(len(order), dtype=_np.int64)
    lex[order] = _np.arange(len(order), dtype=_np.int64)
    del order
    keys = p * m + q
    tptr = _np.zeros(m + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(p, minlength=m), out=tptr[1:])
    group_rows = []
    for lo, hi in _chunk_rows_by_pairs(tptr, _key_budget(m * m, batch_size)):
        base = tptr[lo]
        i, j = _pairs_within(tptr[lo:hi + 1] - base)
        if i.size == 0:
            continue
        i += base
        j += base
        wanted = q[i] * m
        wanted += q[j]
        sel, k = _sorted_hits(keys, wanted, m * m)
        del wanted
        if sel.size == 0:
            continue
        i, j = i[sel], j[sel]
        del sel
        # every (v, w, x) key is a hit: search the keys in ascending order,
        # packed ``key * L + index`` as in _sorted_hits, and scatter the
        # positions back to pair order.  The hits are a subset of the
        # needles _sorted_hits packed, so this packing fits too.
        needle = r[i] * m
        needle += r[j]
        width = (len(i) - 1).bit_length()
        needle <<= width
        needle |= _np.arange(len(i), dtype=_np.int64)
        needle.sort()
        last = _np.empty(len(i), dtype=_np.int64)
        last[needle & ((1 << width) - 1)] = _np.searchsorted(keys, needle >> width)
        del needle
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
# space resolution: the type of the space picks the kernels
# ----------------------------------------------------------------------
def _unwrap_bundle(source, r: Optional[int], s: Optional[int]):
    """Swap an opened :class:`~repro.store.bundle.Bundle` for a component.

    The stored space is used when it matches the requested instance (or no
    instance was requested); otherwise the stored graph, so a bundle saved
    for one (r, s) still serves as a graph source for another.
    """
    from repro.store.bundle import Bundle  # deferred: store imports this module

    if not isinstance(source, Bundle):
        return source
    if source.has("space") and (r is None or (source.r, source.s) == (r, s)):
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

    The space's type picks the kernels: a :class:`CSRSpace` runs the CSR
    kernels, a :class:`NucleusSpace` the dict kernels (Algorithms 1–3 as
    written, over the :class:`~repro.core.protocol.SpaceLike` read API).
    A prebuilt space passes through.  A :class:`Graph` or
    :class:`CSRGraph` (``r``/``s`` required) is flattened by
    :meth:`CSRSpace.from_graph` without building the dict space, and an
    opened bundle gives its stored space when the instance matches, its
    stored graph otherwise (see :func:`_unwrap_bundle`).
    """
    source = _unwrap_bundle(source, r, s)
    if not isinstance(source, (Graph, CSRGraph)):
        return source
    if r is None or s is None:
        raise ValueError("r and s are required when passing a graph")
    return CSRSpace.from_graph(source, r, s)


def _as_csr(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int],
    s: Optional[int],
) -> CSRSpace:
    """:func:`resolve_space`, with a :class:`NucleusSpace` replaced by its ``to_csr()``."""
    space = resolve_space(source, r, s)
    return space if isinstance(space, CSRSpace) else space.to_csr()


# ----------------------------------------------------------------------
# AND kernel
# ----------------------------------------------------------------------
#: Most cliques :func:`_and_count` lowers against one τ snapshot: a larger
#: frontier runs as ascending-τ blocks of this size.  On the perfbench
#: graphs (2-vCPU x86 box) 2048 ran the warm AND fastest of 2048 / 4096 /
#: 8192.  A space of at most this many cliques never blocks a frontier,
#: so :func:`and_decomposition_csr` runs it through :func:`_and_jacobi`;
#: every dense-communities 1-hop query ball and nearly every truss one
#: takes that route.
_AND_BLOCK = 2048


def and_decomposition_csr(
    source: Union[GraphSource, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    max_iterations: Optional[int] = None,
) -> DecompositionResult:
    """Frontier-batched AND (Algorithm 3) over a :class:`CSRSpace`.

    On a space of more than ``_AND_BLOCK`` cliques each pass is one step
    of the counted kernel :func:`_and_count`: the first pass checks every
    clique and seeds the per-clique support counts, and every later pass
    visits only the cliques whose count has fallen below τ.  A pass lowers
    a frontier of at most ``_AND_BLOCK`` cliques against the pass-start τ;
    a larger frontier runs in ascending-τ blocks of that size, each reading
    the τ the earlier blocks published (Gauss–Seidel between blocks and
    across passes, Jacobi within a block).  Iteration counts and τ
    trajectories therefore differ from the per-visit schedule of
    :func:`repro.core.asynd.and_decomposition` and, once a frontier is
    blocked, from the pool's round kernel :func:`_and_sweep`; κ is the
    same unique fixed point, which the property tests assert against the
    dict backend.

    A space of at most ``_AND_BLOCK`` cliques, such as a 1-hop query ball,
    runs :func:`_and_jacobi` instead: every frontier there is one block,
    and a one-block counted pass is exactly a Jacobi step, so κ,
    ``iterations``, ``iteration_stats`` and every counter below are the
    ones :func:`_and_count` gives, without its count bookkeeping.

    The counters, per pass:

    * ``processed`` — the cliques the pass looks at: all ``n`` in the
      first pass; the frontier ``support < τ`` in a later pass, which is
      exactly the cliques that drop, so ``processed == updated`` there;
    * ``skipped`` — ``n - processed``: the cliques whose count shows they
      cannot drop;
    * ``rho_evaluations`` — context rows gathered: every row in the first
      pass, whose recount ranks the first block, plus the rows of every
      later block, gathered once to rank them (their re-read against the
      published τ is not charged again);
    * ``h_index_calls`` — the cliques whose τ dropped.

    ``operations["blocks"]`` is the number of blocks run over all passes:
    one per pass whose frontier fits one block, more once the blocked
    path engages.  τ = 0 cliques are looked at in the first pass and never
    gathered.
    """
    space = _as_csr(source, r, s)
    tau, iterations, converged, stats, operations = _and_passes(
        space, max_iterations
    )
    operations.update(backend="csr", engine="numpy")
    return DecompositionResult.from_space(
        space,
        algorithm="and",
        kappa=tau,
        iterations=iterations,
        converged=converged,
        iteration_stats=stats,
        operations=operations,
    )


def _and_passes(space: CSRSpace, max_iterations: Optional[int] = None):
    """The pass loop of :func:`and_decomposition_csr`, with no result built.

    Binds the kernel :func:`_pass_kernel` picks, with blocks of
    ``_AND_BLOCK`` cliques, runs passes until one lowers no τ
    or ``max_iterations`` passes have run, and returns ``(tau, iterations,
    converged, iteration_stats, operations)``: τ as an int64 array and the
    counters without the ``backend`` / ``engine`` tags.  A local query
    reads τ here directly.
    """
    n = len(space)
    tau, step = _pass_kernel(space, _AND_BLOCK)
    stats: List[IterationStats] = []
    rho_evaluations = 0
    h_calls = 0
    skipped_total = 0
    blocks = 0

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        updated, processed, evaluated, max_change = step(iteration == 1)
        rho_evaluations += evaluated
        h_calls += updated
        # the frontier is exactly the cliques that drop
        blocks += -(-updated // _AND_BLOCK)
        skipped_total += n - processed
        converged = updated == 0
        stats.append(
            IterationStats(
                iteration=iteration,
                updated=updated,
                processed=processed,
                skipped=n - processed,
                max_change=max_change,
                converged_count=-1,
            )
        )
    operations = {
        "rho_evaluations": rho_evaluations,
        "h_index_calls": h_calls,
        "skipped_cliques": skipped_total,
        "blocks": blocks,
    }
    return tau, iteration, converged, stats, operations


def _pass_kernel(space: CSRSpace, block: Optional[int]):
    """``(tau, step)``: τ at the s-degrees and the pass kernel bound to it.

    A space of at most ``_AND_BLOCK`` cliques runs :func:`_and_jacobi`, any
    larger one :func:`_and_count` with frontiers of more than ``block``
    cliques cut into blocks (``None``: never cut, so every pass is one
    Jacobi step).  ``step(first)`` updates ``tau`` in place.
    """
    tau = space.ctx_offsets[1:] - space.ctx_offsets[:-1]
    buffers = (space.ctx_offsets, space.ctx_members, space.stride, tau)
    if len(space) <= _AND_BLOCK:
        return tau, _and_jacobi(*buffers)
    support = _np.zeros(len(space), dtype=_np.int64)
    return tau, _and_count(*buffers, support, block)


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
    return _support(space.ctx_offsets, columns, _np.asarray(tau, dtype=_np.int64))[0]


@kernel
def _support(ctx_off, columns, tau):
    """``(support, ρ)``: the counts, and the ρ of every context row.

    One gather per partner column gives ρ, and a prefix sum over the rows
    that hold their owner's τ gives the counts.
    """
    rho = tau[columns[0]]
    for column in columns[1:]:
        _np.minimum(rho, tau[column], out=rho)
    held = rho >= _np.repeat(tau, ctx_off[1:] - ctx_off[:-1])
    run = _np.zeros(len(held) + 1, dtype=_np.int64)
    _np.cumsum(held, out=run[1:])
    return run[ctx_off[1:]] - run[ctx_off[:-1]], rho


@kernel
def _and_count(ctx_off, members, stride: int, tau, support, block: Optional[int]):
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
    the check, so no check runs.

    The block rule: a frontier of at most ``block`` cliques, or any
    frontier when ``block`` is ``None``, is one block.  A larger one is
    sorted by τ, ascending, and cut into consecutive blocks of ``block``
    cliques, which run one after the other, each one the sub-step below
    over its own cliques.  A block reads the τ that earlier blocks of the
    same pass published (Gauss–Seidel between blocks, Jacobi within one),
    so low-τ cliques drop first and a later block ranks its rows against
    their new values, as the paper's in-place updates do.  Frontier
    membership is fixed when the pass starts: counts only fall, so a clique
    in a later block still fails its check when its block runs, and a
    clique that starts to fail during the pass waits for the next one.

    The sub-step gathers its cliques' rows and computes each new τ as the
    h-index of its segment, one sort of packed ``(segment, -ρ)`` keys as in
    :func:`_and_sweep`.  The new τ lies strictly below the old one, since
    an h-index ≥ τ would have passed the check.  The first block of the
    first pass ranks from the ρ the recount computed, since no τ has
    changed yet.  After publishing the new τ, the sub-step brings the
    counts up to date from its rows alone, re-read against the published
    τ:

    * a changed clique recounts its support from its own rows;
    * an unchanged partner ``p`` loses an s-clique iff the s-clique's
      minimum τ over its members fell across τ(p): ``μ_old ≥ τ(p) >
      μ_new``.  τ only decreases, so no count grows.  An s-clique with
      several changed members is counted once, from the row of its
      smallest-index changed member (the rule :func:`_retire` uses), found
      through a byte flag per clique that marks the block's changed cliques
      and is reset after it.

    Every other s-clique keeps all its τ values, so no other count moves:
    the counts equal :func:`support_counts` after every block.  A pass run
    as one block is one Jacobi step that skips the cliques that cannot
    drop, the τ trajectory of :func:`_and_sweep` and of
    :func:`_and_jacobi`, which is why :func:`_pass_kernel` binds this
    kernel only to spaces of more than ``_AND_BLOCK`` cliques, and why
    SND, whose τ trajectory is the Jacobi one, binds it with no ``block``.
    A blocked pass lowers τ at least as far, elementwise, since τ is
    monotone.  An empty frontier is the converging pass.  The counts have
    one writer, which is why the pool's chunks keep :func:`_and_sweep`'s
    flags.
    """
    n = len(tau)
    total = int(ctx_off[n])
    columns = members[:total * stride].reshape(total, stride).T
    degrees = ctx_off[1:] - ctx_off[:-1]
    # packed sort-key base: every ρ is bounded by the maximum context count
    pack = int(degrees.max(initial=0)) + 2
    # engine-local scratch: False for the block's changed cliques, never
    # shared or persisted
    still = _np.ones(n, dtype=bool)  # repro: noqa[ARR002]

    def drop(frontier, known):
        """Lower τ on ``frontier`` and update the counts: ``(gathered, change)``.

        ``known`` is the recount's ρ of every row when no τ has changed
        since it was taken, else ``None``.
        """
        m = len(frontier)
        # support < τ implies τ > 0, so every segment is non-empty
        deg = degrees[frontier]
        starts = _np.cumsum(deg) - deg
        size = int(starts[-1] + deg[-1])
        pos = _np.arange(size, dtype=_np.int64) - _np.repeat(starts, deg)
        rows = pos + _np.repeat(ctx_off[frontier], deg)
        parts = [column[rows] for column in columns]
        if known is None:
            rho = tau[parts[0]]
            for part in parts[1:]:
                _np.minimum(rho, tau[part], out=rho)
            gathered = size
        else:
            rho = known[rows]
            gathered = 0
        del rows
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
        return gathered, int((old - new).max())

    def step(first: bool):
        checked = 0
        known = None
        if first:
            support[:], known = _support(ctx_off, columns, tau)
            checked = total
        frontier = (support < tau).nonzero()[0]
        m = len(frontier)
        processed = n if first else m
        if m == 0:
            return 0, processed, checked, 0
        blocks = [frontier]
        if block is not None and m > block:
            # ascending τ, ties by index: one sort of packed ``τ * n + index``
            if n * pack <= 2**62:
                key = tau[frontier] * n
                key += frontier
                key.sort()
                frontier = key % n
            else:  # pragma: no cover - needs ~2^31 cliques
                frontier = frontier[tau[frontier].argsort(kind="stable")]
            cuts = _np.arange(block, m, block, dtype=_np.int64)
            blocks = _np.split(frontier, cuts)
        change = 0
        for part in blocks:
            gathered, moved = drop(part, known)
            known = None
            checked += gathered
            change = max(change, moved)
        return m, processed, checked, change

    return step


@kernel
def _and_jacobi(ctx_off, members, stride: int, tau):
    """The one-block AND kernel: every pass is one plain Jacobi step.

    Binds the space buffers and the τ array (updated in place) and returns
    ``step(first)`` with :func:`_and_count`'s contract.  A pass gathers the
    ρ of every context row against the pass-start τ, takes every clique's
    h-index with one sort of packed ``(segment, -ρ)`` keys, as
    :func:`_and_count`'s sub-step does, and publishes the cliques whose τ
    fell.  Bound, as the engine binds it, with τ at the s-degrees, the
    h-indices never exceed τ: they start at most the degrees and fall
    with τ, so a pass lowers τ or leaves it.

    :func:`_pass_kernel` binds it to a space of at most ``_AND_BLOCK``
    cliques.  There every frontier of :func:`_and_count` is
    one block, and a one-block counted pass is exactly this step: its
    frontier ``support < τ`` is the set of cliques whose h-index lies below
    τ, and it lowers each of them to that h-index against the pass-start
    τ.  So the trajectory is the same, and the counters are charged as
    :func:`_and_count` charges them: the first pass processes every clique
    and evaluates every row, a later pass processes the cliques that drop
    and evaluates their rows.  Without support counts a pass costs about
    twenty array calls where the counted pass needs about forty.
    """
    n = len(tau)
    total = int(ctx_off[n])
    columns = members[:total * stride].reshape(total, stride).T
    degrees = ctx_off[1:] - ctx_off[:-1]
    # a clique without contexts owns no row and keeps τ = 0; the others
    # own consecutive row segments, one per ``live`` clique
    live = degrees.nonzero()[0]
    deg = degrees[live]
    starts = ctx_off[live]
    # every ρ is bounded by the maximum context count, so ρ < pack
    pack = int(degrees.max(initial=0)) + 2
    # a row's key is ``base - ρ`` = ``segment * pack + (pack - 1 - ρ)``:
    # sorting the keys ranks every segment's ρ descending in place, and
    # the row at rank k counts toward the h-index (ρ ≥ k + 1) iff its key
    # is at most ``limit`` = ``base - 1 - k``
    base = _np.repeat(
        _np.arange(pack - 1, len(live) * pack, pack, dtype=_np.int64), deg
    )
    limit = base - 1
    limit -= _np.arange(total, dtype=_np.int64)
    limit += _np.repeat(starts, deg)

    def step(first: bool):
        rho = tau[columns[0]]
        for column in columns[1:]:
            _np.minimum(rho, tau[column], out=rho)
        key = base - rho
        key.sort()
        new = _np.add.reduceat(key <= limit, starts, dtype=_np.int64)
        drop = tau[live]
        drop -= new
        fell = drop.nonzero()[0]
        updated = len(fell)
        processed = n if first else updated
        evaluated = total if first else int(deg[fell].sum())
        if updated == 0:
            return 0, processed, evaluated, 0
        tau[live[fell]] = new[fell]
        return updated, processed, evaluated, int(drop.max())

    return step


@kernel
def _and_sweep(ctx_off, members, stride: int, tau, active):
    """The pool's AND round kernel: one frontier-batched pass over a chunk.

    Binds the space buffers, the τ array and the byte-wide ``active`` flags
    (zero-copy views over shared memory in the pool workers) and returns
    ``sweep(lo, hi, full)``.  A call updates ``tau[lo:hi]`` in place and
    returns ``(updated, processed, rho_evaluations, max_change)``.  Over
    the frontier ``F`` — the chunk's cliques with τ > 0, restricted to the
    flagged ones unless ``full`` — one call:

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
       and *notifies* from the context rows already gathered for the
       changed cliques: a partner ``p`` of a changed
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
    iterations) is the same: Jacobi within a pass.  :func:`_and_count`
    follows it only while a frontier fits one block; past that its blocks
    read each other's updates and it drops faster.

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

    def sweep(lo: int, hi: int, full: bool):
        if full:
            active[lo:hi] = 0
            frontier = lo + _np.flatnonzero(tau[lo:hi] > 0)
            processed = hi - lo
        else:
            # scan a private snapshot: peers set flags in this range
            # while it is read, which flatnonzero must not observe
            flagged = lo + _np.flatnonzero(active[lo:hi].copy())
            active[flagged] = 0  # claim before reading any neighbour value
            frontier = flagged[tau[flagged] > 0]
            processed = len(flagged)
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

    Runs the AND's pass kernel (:func:`_pass_kernel`) with no block limit,
    so every pass is one synchronous Jacobi step: each clique whose
    h-index over the pass-start τ lies below its τ drops to it, and a
    clique that cannot drop keeps its τ, which its h-index equals.  κ,
    iteration counts, ``tau_history`` and per-iteration stats are identical
    to :func:`repro.core.snd.snd_decomposition`.  The counters follow the
    paper's cost model, not the kernel's work: every iteration charges
    every clique (``processed`` = n, ``h_index_calls`` += n) and every
    context (``rho_evaluations``).
    """
    space = _as_csr(source, r, s)
    n = len(space)
    total = int(space.ctx_offsets[n])
    tau, step = _pass_kernel(space, None)
    count_converged = _make_converged_counter(reference_kappa)
    history: Optional[List[List[int]]] = [tau.tolist()] if record_history else None
    stats: List[IterationStats] = []

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        updated, _, _, max_change = step(iteration == 1)
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
        kappa=tau,
        iterations=iteration,
        converged=converged,
        tau_history=history,
        iteration_stats=stats,
        operations={
            "rho_evaluations": total * iteration,
            "h_index_calls": n * iteration,
            "backend": "csr",
        },
    )


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
