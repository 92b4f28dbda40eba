"""Building the hierarchy of k-(r, s) nuclei from κ indices.

The κ indices alone only say how dense a region each r-clique belongs to;
the *hierarchy* — which nuclei exist at each k and how they nest — is what
the paper uses for applications like mapping research areas in citation
networks.  A k-(r, s) nucleus is an S-connected component of the r-cliques
with κ >= k (Definition 3): two r-cliques are S-connected when they are
linked by a chain of r-cliques in which consecutive members share an
s-clique whose r-cliques all have κ >= k.

Construction reads the incidence arrays of a
:class:`~repro.core.csr.CSRSpace` (a :class:`NucleusSpace` through its
memoised ``to_csr()`` flattening, which keeps its clique indexing) and is a
handful of numpy passes per distinct κ value, with no per-clique Python
work:

* every s-clique becomes one star from its smallest member to the others.
  The star is read straight off the incidence: of an s-clique's
  ``C(s, r)`` context rows, its *lead* row, the one whose owner is smaller
  than every partner, lists exactly those others.  The star is weighted
  by the minimum κ among its members — the highest threshold at which it
  connects them — and the stars are ordered by weight, one sort over the
  s-cliques;
* the thresholds are walked from κ_max down to 0.  A level only adds the
  stars of its own weight, mapped onto the current components (every
  clique points straight at its component's smallest clique), and merges
  them with min-label propagation plus pointer jumping, so every component
  is labelled by its smallest clique index;
* every component a level touches holds a clique whose κ equals the level
  (an s-clique's weight is one of its members' κ), so it is a new nucleus
  and the nuclei it absorbed become its children;
* ids are ranked by ``(k_low, smallest member)`` and the pre-order is one
  ``lexsort`` of the root-to-node id paths.

The pass emits the :class:`~repro.core.intervals.HierarchyIndex` arrays
directly; :class:`NucleusHierarchy` owns them.  :class:`Nucleus` objects
are built only when :attr:`NucleusHierarchy.nodes` is first read, and their
vertex sets only when :attr:`Nucleus.vertices` is, so the file-to-bundle
path never builds either.

Examples
--------
Two 4-cliques linked through a hub vertex 8: at k <= 2 the whole graph is
one nucleus (the hub has degree 2), at k = 3 each clique is its own.

>>> from repro.core.hierarchy import build_hierarchy
>>> from repro.core.peeling import peeling_decomposition
>>> from repro.core.space import NucleusSpace
>>> from repro.graph.generators import complete_graph, union_of_graphs
>>> from repro.graph.graph import Graph
>>> cliques = union_of_graphs([complete_graph(4), complete_graph(4)])
>>> graph = Graph([*cliques.edges(), (3, 8), (8, 4)])
>>> space = NucleusSpace(graph, 1, 2)
>>> hierarchy = build_hierarchy(space, peeling_decomposition(space))
>>> [(root.node_id, root.k_low, root.k_high) for root in hierarchy.roots()]
[(0, 0, 2)]
>>> hierarchy.node(0).children
[1, 2]
>>> [(node.k_low, node.k_high, sorted(node.vertices)) for node in hierarchy.leaves()]
[(3, 3, [0, 1, 2, 3]), (3, 3, [4, 5, 6, 7])]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as _np

from repro.core.csr import CSRSpace, _row_min
from repro.core.intervals import INDEX_ARRAYS, HierarchyIndex
from repro.core.protocol import SpaceLike, space_graph, vertices_of
from repro.core.result import DecompositionResult
from repro.graph.graph import Vertex

__all__ = ["Nucleus", "NucleusHierarchy", "build_hierarchy"]

FrozenIndices = Tuple[int, ...]


class Nucleus:
    """A single k-(r, s) nucleus.

    The same set of r-cliques is typically a nucleus over a *range* of
    thresholds (it appears at ``k_low`` and persists unchanged up to
    ``k_high`` before splitting or disappearing); both ends of the range are
    recorded.

    Attributes
    ----------
    node_id:
        Identifier within the hierarchy (stable for a given decomposition).
    k_low:
        Smallest threshold at which this exact member set is a nucleus.
    k_high:
        Largest threshold at which this exact member set is a nucleus — the
        strongest density guarantee the nucleus carries.  Exposed as ``k``.
    clique_indices:
        Indices (into the space) of the r-cliques it contains.
    vertices:
        Union of the vertices of those r-cliques — materialised lazily from
        the space on first access and cached.
    parent:
        ``node_id`` of the enclosing nucleus with a strictly larger member
        set, or ``None`` for roots.
    children:
        ``node_id``s of nuclei directly nested inside this one.
    """

    __slots__ = (
        "node_id",
        "k_low",
        "k_high",
        "clique_indices",
        "parent",
        "children",
        "_space",
        "_vertices",
    )

    def __init__(
        self,
        node_id: int,
        k_low: int,
        k_high: int,
        clique_indices: FrozenIndices = (),
        vertices: Optional[Set[Vertex]] = None,
        parent: Optional[int] = None,
        children: Optional[List[int]] = None,
        space: Optional[SpaceLike] = None,
    ) -> None:
        self.node_id = node_id
        self.k_low = k_low
        self.k_high = k_high
        self.clique_indices = tuple(clique_indices)
        self.parent = parent
        self.children = list(children) if children is not None else []
        self._space = space
        self._vertices = set(vertices) if vertices is not None else None

    @property
    def k(self) -> int:
        """The strongest threshold this nucleus satisfies (alias for k_high)."""
        return self.k_high

    @property
    def vertices(self) -> Set[Vertex]:
        """Union of the vertices of the member r-cliques (lazy, cached)."""
        if self._vertices is None:
            if self._space is None:
                raise ValueError(
                    "nucleus has no space reference; pass vertices= explicitly"
                )
            self._vertices = vertices_of(self._space, self.clique_indices)
        return self._vertices

    def size(self) -> int:
        return len(self.vertices)

    def active_at(self, k: int) -> bool:
        """True if this exact member set is a nucleus at threshold ``k``."""
        return self.k_low <= k <= self.k_high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Nucleus(node_id={self.node_id}, k_low={self.k_low}, "
            f"k_high={self.k_high}, num_r_cliques={len(self.clique_indices)}, "
            f"parent={self.parent})"
        )


class NucleusHierarchy:
    """Forest of nuclei across all k values, owned as interval-index arrays.

    The forest is held as a :class:`~repro.core.intervals.HierarchyIndex`;
    the selectors below read those arrays and return :class:`Nucleus`
    objects, which are built for the whole forest the first time
    :attr:`nodes` is read.
    """

    def __init__(self, space: SpaceLike, kappa: List[int], index: HierarchyIndex) -> None:
        self.space = space
        self.kappa = kappa
        self._index = index
        self._nodes: Optional[List[Nucleus]] = None

    @classmethod
    def from_index(
        cls, space: SpaceLike, result_or_kappa, index: HierarchyIndex
    ) -> "NucleusHierarchy":
        """Wrap a stored interval index (e.g. a bundle's) without rebuilding.

        ``index`` must have been built for this space and κ; a result's
        clique table is checked against the space's, the index only by
        size.
        """
        kappa = _kappa_list(space, result_or_kappa)
        if not len(kappa) == len(space) == index.num_cliques():
            raise ValueError("kappa, space and index cover different clique counts")
        return cls(space, kappa, index)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    @property
    def nodes(self) -> List[Nucleus]:
        """Every nucleus in id order (built from the arrays on first read)."""
        if self._nodes is not None:
            return self._nodes
        index = self._index
        pos = index.pre_of_id
        parent_pos = index.parent[pos]
        parents = _np.where(parent_pos >= 0, index.node_ids[parent_pos], -1).tolist()
        children: List[List[int]] = [[] for _ in parents]
        for node_id, parent in enumerate(parents):
            if parent >= 0:
                children[parent].append(node_id)
        k_low, k_high = index.k_low[pos].tolist(), index.k_high[pos].tolist()
        lo, hi = index.member_lo[pos].tolist(), index.member_hi[pos].tolist()
        order = index.clique_order
        self._nodes = [
            Nucleus(
                node_id=node_id,
                k_low=k_low[node_id],
                k_high=k_high[node_id],
                clique_indices=_np.sort(order[lo[node_id]:hi[node_id]]).tolist(),
                parent=None if parent < 0 else parent,
                children=children[node_id],
                space=self.space,
            )
            for node_id, parent in enumerate(parents)
        ]
        return self._nodes

    def _select(self, mask) -> List[Nucleus]:
        """The nuclei at the pre-order positions where ``mask`` holds, by id."""
        nodes = self.nodes
        return [nodes[i] for i in _np.sort(self._index.node_ids[mask]).tolist()]

    def node(self, node_id: int) -> Nucleus:
        self._index.position_of(node_id)  # KeyError for an unknown id
        return self.nodes[node_id]

    def roots(self) -> List[Nucleus]:
        """Nuclei with no parent (the coarsest dense regions)."""
        return self._select(self._index.parent < 0)

    def leaves(self) -> List[Nucleus]:
        """Nuclei with no children (the densest innermost regions)."""
        index = self._index
        return self._select(index.post == _np.arange(len(index), dtype=_np.int64))

    def nuclei_at(self, k: int) -> List[Nucleus]:
        """All nuclei active at threshold ``k`` (their k range contains ``k``)."""
        index = self._index
        return self._select((index.k_low <= k) & (k <= index.k_high))

    def max_k(self) -> int:
        """The largest threshold at which any nucleus exists (= max κ index)."""
        return self._index.max_k()

    def density_of(self, node_id: int) -> float:
        """Edge density of the subgraph induced by a nucleus's vertices."""
        node = self.node(node_id)
        graph = space_graph(self.space)
        if graph is None:
            raise ValueError(
                "the space carries no graph reference (e.g. a CSRSpace "
                "rebuilt from raw arrays); densities need the source graph"
            )
        return graph.subgraph(node.vertices).density()

    def depth_of(self, node_id: int) -> int:
        """Number of ancestors of a nucleus (roots have depth 0)."""
        return len(self.path_to_root(node_id)) - 1

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from the given nucleus up to (and including) its root."""
        index = self._index
        pos = index.position_of(node_id)
        path = []
        while pos >= 0:
            path.append(int(index.node_ids[pos]))
            pos = int(index.parent[pos])
        return path

    def interval_index(self) -> HierarchyIndex:
        """Euler pre/post-order interval index of this forest.

        Returns the :class:`repro.core.intervals.HierarchyIndex` the build
        produced: flat int64 arrays answering ancestor/descendant tests with
        two integer comparisons and member-run queries with binary searches.
        The arrays are what :mod:`repro.store.bundle` persists, so a bundle
        reopened via memmap serves the same queries with zero rebuild.
        """
        return self._index

    def to_rows(self) -> List[Dict[str, object]]:
        """Flatten the hierarchy into table rows (used by examples / CLI)."""
        rows = []
        for node in sorted(self.nodes, key=lambda n: (n.k_high, n.node_id)):
            rows.append(
                {
                    "id": node.node_id,
                    "k": node.k_high,
                    "k_low": node.k_low,
                    "num_vertices": len(node.vertices),
                    "num_r_cliques": len(node.clique_indices),
                    "density": round(self.density_of(node.node_id), 4),
                    "parent": node.parent,
                    "depth": self.depth_of(node.node_id),
                }
            )
        return rows


def build_hierarchy(
    space: SpaceLike,
    result_or_kappa,
) -> NucleusHierarchy:
    """Construct the nucleus hierarchy from a decomposition result.

    Parameters
    ----------
    space:
        The clique space the decomposition was computed on — either
        representation (:class:`NucleusSpace` or :class:`CSRSpace`).
    result_or_kappa:
        Either a :class:`DecompositionResult` computed on this space (its
        clique table must index the space's cliques in the same order,
        :meth:`DecompositionResult.check_aligned`; ``ValueError``
        otherwise) or a sequence of κ values aligned with the space's
        clique indexing.

    Notes
    -----
    The nuclei at threshold ``k`` are the S-connected components of the
    r-cliques with κ >= k; k = 0 gives the forest roots.  A component
    identical at consecutive thresholds is one nucleus with a k range, so
    the forest holds only genuine refinements.  All thresholds are resolved
    in one descending array pass (see the module docstring).
    """
    kappa = _kappa_list(space, result_or_kappa)
    if len(kappa) != len(space):
        raise ValueError("kappa length does not match the clique space")
    if isinstance(result_or_kappa, DecompositionResult):
        values = result_or_kappa._kappa_values()  # the kernel's own array
    else:
        values = _np.asarray(kappa, dtype=_np.int64)
    if values.size and values.min() < 0:
        raise ValueError("kappa values must be non-negative")
    csr = space if isinstance(space, CSRSpace) else space.to_csr()
    index = _forest_index(csr.ctx_offsets, csr.ctx_members, csr.stride, values)
    return NucleusHierarchy(space, kappa, index)


def _kappa_list(space: SpaceLike, result_or_kappa) -> List[int]:
    """The κ list of a result (checked to index the space's cliques) or a sequence."""
    if isinstance(result_or_kappa, DecompositionResult):
        result_or_kappa.check_aligned(space.cliques)
        return result_or_kappa.kappa
    return list(result_or_kappa)


def _forest_index(ctx_off, members, stride: int, kappa) -> HierarchyIndex:
    """The interval index of the nucleus forest, built level by level.

    ``ctx_off``/``members``/``stride`` are a CSR space's incidence and
    ``kappa`` the int64 κ of every r-clique.  Nodes are first created in
    sweep order (densest level first), then renumbered and laid out in
    pre-order.
    """
    n = len(kappa)
    if n == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return HierarchyIndex(**{name: empty for name in INDEX_ARRAYS})

    # one star per s-clique, read off its lead context row (the row whose
    # owner is smaller than every partner): ends[0] holds the owners,
    # ends[1:] the partners.  The star's weight is the s-clique's minimum κ;
    # the stars in weight order and the cliques in κ order make each level
    # one slice of both
    ctx_off, members = _np.asarray(ctx_off), _np.asarray(members)
    owners = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(ctx_off))
    lead = _np.flatnonzero(owners < _row_min(members.reshape(-1, stride)))
    ends = _np.empty((stride + 1, len(lead)), dtype=_np.int64)
    ends[0] = owners[lead]
    lead *= stride
    for column in range(stride):
        ends[column + 1] = members[lead + column]
    weight = kappa[ends].min(axis=0)
    by_weight = _stable_argsort(weight)
    weight = weight[by_weight]
    by_kappa = _stable_argsort(kappa)
    sorted_kappa = kappa[by_kappa]
    bounds = [*_np.flatnonzero(_np.diff(sorted_kappa, prepend=-1)).tolist(), n]

    # rep: the smallest clique of a clique's component (flattened after
    # every level, so one gather reads it); node_of: the node a
    # component's smallest clique currently carries.  Every node holds a
    # clique entering at its level, so there are <= n.
    rep = _np.arange(n, dtype=_np.int64)
    node_of = _np.full(n, -1, dtype=_np.int64)
    leaf = _np.empty(n, dtype=_np.int64)
    seen = _np.zeros(n, dtype=bool)
    slot = _np.empty(n, dtype=_np.int64)
    k_high = _np.empty(n, dtype=_np.int64)
    smallest = _np.empty(n, dtype=_np.int64)
    k_low = _np.zeros(n, dtype=_np.int64)  # forest roots keep 0
    parent = _np.full(n, -1, dtype=_np.int64)
    count = 0
    for level in range(len(bounds) - 2, -1, -1):
        entering = by_kappa[bounds[level]:bounds[level + 1]]
        k = int(kappa[entering[0]])
        lo, hi = _np.searchsorted(weight, k), _np.searchsorted(weight, k, side="right")
        ends_at = rep[ends.take(by_weight[lo:hi], axis=1).ravel()]
        # the level's components: its entering cliques plus the components
        # its stars touch, compacted to ascending positions 0..m-1.  Every
        # weight-k star comes from an s-clique with a member of κ = k, so
        # each touched component gains a clique: it is a new nucleus, and
        # the nuclei of the components it absorbed become its children.
        seen[entering] = seen[ends_at] = True
        touched = _np.flatnonzero(seen)
        seen[touched] = False
        m = len(touched)
        slot[touched] = _np.arange(m, dtype=_np.int64)
        at = slot[ends_at]
        label = _min_labels(m, _np.tile(at[:hi - lo], stride), at[hi - lo:])
        made = touched[label == _np.arange(m, dtype=_np.int64)]  # smallest clique of each
        new_ids = _np.arange(count, count + len(made), dtype=_np.int64)
        absorbed = touched[kappa[touched] > k]
        children = node_of[absorbed]
        node_of[made] = new_ids
        rep[touched] = touched[label]
        rep = rep[rep]  # the re-pointed roots were one step away: flatten again
        parent[children] = node_of[rep[absorbed]]
        k_low[children] = k + 1
        k_high[new_ids] = k
        smallest[new_ids] = made
        leaf[entering] = node_of[rep[entering]]
        count += len(made)

    # stable ids: ascending by the level a nucleus first appears at, then by
    # its smallest member (nuclei active at one level are disjoint)
    order = _np.lexsort((smallest[:count], k_low[:count]))
    new_id = _np.empty(count, dtype=_np.int64)
    new_id[order] = _np.arange(count, dtype=_np.int64)
    up = parent[order]
    up = _np.append(_np.where(up >= 0, new_id[up], -1), -1)  # up[-1]: above a root
    k_low, k_high, leaf = k_low[order], k_high[order], new_id[leaf]

    # chain[t] is every node's t-th ancestor (-1 past its root); pre-order
    # is the lexicographic order of the root-to-node id paths, and subtree
    # sizes count how often a node occurs as an ancestor-or-self
    chain = [_np.arange(count, dtype=_np.int64)]
    while True:
        above = up[chain[-1]]
        if (above < 0).all():
            break
        chain.append(above)
    chain = _np.stack(chain)
    depth = (chain >= 0).sum(axis=0) - 1
    steps = depth - _np.arange(len(chain), dtype=_np.int64)[:, None]
    paths = _np.where(steps >= 0, _np.take_along_axis(chain, _np.maximum(steps, 0), 0), -1)
    node_ids = _np.lexsort(paths[::-1])
    positions = _np.arange(count, dtype=_np.int64)
    pre_of_id = _np.empty(count, dtype=_np.int64)
    pre_of_id[node_ids] = positions
    size = _np.bincount(chain[chain >= 0], minlength=count)
    post = positions + size[node_ids] - 1
    up = up[node_ids]

    leaf_pos = pre_of_id[leaf]
    clique_order = _stable_argsort(leaf_pos)
    clique_pos = _np.empty(n, dtype=_np.int64)
    clique_pos[clique_order] = _np.arange(n, dtype=_np.int64)
    leaf_sorted = leaf_pos[clique_order]
    return HierarchyIndex(
        node_ids=node_ids,
        post=post,
        parent=_np.where(up >= 0, pre_of_id[up], -1),
        k_low=k_low[node_ids],
        k_high=k_high[node_ids],
        pre_of_id=pre_of_id,
        leaf_pos=leaf_pos,
        clique_order=clique_order,
        clique_pos=clique_pos,
        member_lo=_np.searchsorted(leaf_sorted, positions, side="left"),
        member_hi=_np.searchsorted(leaf_sorted, post, side="right"),
    )


def _stable_argsort(values):
    """Stable argsort; keys that fit in int16 take numpy's radix sort."""
    if values.size and 0 <= values.min() and values.max() < 2**15:
        values = values.astype(_np.int16)
    return _np.argsort(values, kind="stable")


def _min_labels(size: int, a, b):
    """Smallest position in each element's component of the graph ``(a, b)``.

    Min-label propagation: every round hooks the larger of two labels onto
    the smaller one, then jumps pointers until every label is its own root;
    edges inside one component drop out.
    """
    label = _np.arange(size, dtype=_np.int64)
    la, lb = a, b  # every label starts as its own position
    while la.size:
        _np.minimum.at(label, _np.maximum(la, lb), _np.minimum(la, lb))
        while True:
            above = label[label]
            if _np.array_equal(above, label):
                break
            label = above
        la, lb = label[a], label[b]
        keep = _np.flatnonzero(la != lb)  # one scan; four gathers beat four masks
        a, b, la, lb = a[keep], b[keep], la[keep], lb[keep]
    return label
