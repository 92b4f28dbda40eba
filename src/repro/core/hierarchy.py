"""Building the hierarchy of k-(r, s) nuclei from κ indices.

The κ indices alone only say how dense a region each r-clique belongs to;
the *hierarchy* — which nuclei exist at each k and how they nest — is what
the paper uses for applications like mapping research areas in citation
networks.  A k-(r, s) nucleus is an S-connected component of the r-cliques
with κ >= k (Definition 3): two r-cliques are S-connected when they are
linked by a chain of r-cliques in which consecutive members share an
s-clique whose r-cliques all have κ >= k.

Construction is backend-agnostic and array-native: it runs on any space
satisfying :class:`repro.core.protocol.SpaceLike` (the dict
:class:`~repro.core.space.NucleusSpace` and the flat-array
:class:`~repro.core.csr.CSRSpace` both do) and never touches clique tuples
on the hot path.  Instead of re-discovering the S-connected components from
scratch at every threshold (the old per-level BFS, O(κ_max · |contexts|)),
it sweeps the thresholds *descending* with a union-find over the s-clique
incidence:

* every s-clique connects its member r-cliques for all thresholds up to the
  minimum κ among them, so each s-clique is applied exactly once — at that
  minimum (numpy-vectorised grouping over the arrays of a CSR space);
* r-cliques enter the structure at their own κ (sorted by κ once, up front);
* a union-find root therefore *is* the nucleus at the current threshold, a
  node is emitted whenever a root's member set changes between thresholds,
  and the absorbed previous nodes become its children.

Vertex sets are materialised lazily (:attr:`Nucleus.vertices` resolves clique
indices through the space only when first read), so κ-only consumers never
build a single vertex set.  The produced forest — node ids, k ranges, member
sets, parent/child links — is identical to the historical per-level
construction, which the parity tests assert across backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

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
    """Forest of nuclei across all k values, with density annotations."""

    def __init__(
        self,
        space: SpaceLike,
        kappa: Sequence[int],
        nodes: List[Nucleus],
    ) -> None:
        self.space = space
        self.kappa = list(kappa)
        self.nodes = nodes
        self._by_id = {node.node_id: node for node in nodes}
        self._interval_index = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Nucleus:
        return self._by_id[node_id]

    def roots(self) -> List[Nucleus]:
        """Nuclei with no parent (the coarsest dense regions)."""
        return [n for n in self.nodes if n.parent is None]

    def leaves(self) -> List[Nucleus]:
        """Nuclei with no children (the densest innermost regions)."""
        return [n for n in self.nodes if not n.children]

    def nuclei_at(self, k: int) -> List[Nucleus]:
        """All nuclei active at threshold ``k`` (their k range contains ``k``)."""
        return [n for n in self.nodes if n.active_at(k)]

    def max_k(self) -> int:
        """The largest threshold at which any nucleus exists (= max κ index)."""
        return max((n.k_high for n in self.nodes), default=0)

    def density_of(self, node_id: int) -> float:
        """Edge density of the subgraph induced by a nucleus's vertices."""
        node = self._by_id[node_id]
        graph = space_graph(self.space)
        if graph is None:
            raise ValueError(
                "the space carries no graph reference (e.g. a CSRSpace "
                "rebuilt from raw arrays); densities need the source graph"
            )
        return graph.subgraph(node.vertices).density()

    def depth_of(self, node_id: int) -> int:
        """Number of ancestors of a nucleus (roots have depth 0)."""
        depth = 0
        node = self._by_id[node_id]
        while node.parent is not None:
            node = self._by_id[node.parent]
            depth += 1
        return depth

    def path_to_root(self, node_id: int) -> List[int]:
        """Node ids from the given nucleus up to (and including) its root."""
        path = [node_id]
        node = self._by_id[node_id]
        while node.parent is not None:
            path.append(node.parent)
            node = self._by_id[node.parent]
        return path

    def interval_index(self):
        """Euler pre/post-order interval index of this forest (lazy, cached).

        Returns a :class:`repro.core.intervals.HierarchyIndex`: flat int64
        arrays answering ancestor/descendant tests with two integer
        comparisons and member-run queries with binary searches — without
        walking :class:`Nucleus` objects or materialising vertex sets.  The
        arrays are what :mod:`repro.store.bundle` persists, so a bundle
        reopened via memmap serves the same queries with zero rebuild.
        """
        if self._interval_index is None:
            from repro.core.intervals import build_interval_index

            self._interval_index = build_interval_index(self)
        return self._interval_index

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
        Either a :class:`DecompositionResult` or a sequence of κ values
        aligned with the space's clique indexing.

    Notes
    -----
    For each threshold ``k`` (k = 0 always yields one nucleus per
    S-connected component of the whole structure and forms the forest
    roots), the r-cliques with κ >= k are grouped into S-connected
    components using only s-cliques whose member r-cliques all satisfy the
    threshold.  A component identical at consecutive thresholds is a single
    nucleus with an extended k range, so the forest contains only genuine
    refinements.  The construction is a single descending union-find sweep
    (see the module docstring); its output is identical to discovering the
    components level by level.
    """
    kappa = (
        list(result_or_kappa.kappa)
        if isinstance(result_or_kappa, DecompositionResult)
        else list(result_or_kappa)
    )
    n = len(space)
    if len(kappa) != n:
        raise ValueError("kappa length does not match the clique space")

    groups, group_kappa = _grouped_s_cliques(space, kappa)
    order = sorted(range(len(groups)), key=lambda g: -group_kappa[g])

    # clique activation buckets: clique i enters the sweep at threshold κ_i
    buckets: Dict[int, List[int]] = {}
    for i, k in enumerate(kappa):
        buckets.setdefault(k, []).append(i)
    max_k = max(kappa, default=0)

    # union-find state, all index-addressed (valid only at roots):
    parent = list(range(n))
    size = [1] * n
    members: List[Optional[List[int]]] = [None] * n
    node_of = [-1] * n           # node carried by the root, -1 = none yet
    pending: List[List[int]] = [[] for _ in range(n)]  # children-to-be

    # per-node records (renumbered at the end): parallel lists beat object
    # attribute writes inside the sweep
    node_k_low: List[int] = []
    node_k_high: List[int] = []
    node_indices: List[FrozenIndices] = []
    node_parent: List[Optional[int]] = []
    node_children: List[List[int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gptr = 0
    num_groups = len(order)
    for k in range(max_k, -1, -1):
        dirty: List[int] = []
        for i in buckets.get(k, ()):
            members[i] = [i]
            dirty.append(i)
        while gptr < num_groups and group_kappa[order[gptr]] == k:
            group = groups[order[gptr]]
            gptr += 1
            ra = find(group[0])
            for m in group[1:]:
                rb = find(m)
                if rb == ra:
                    continue
                if size[rb] > size[ra]:
                    ra, rb = rb, ra
                # merge rb into ra: member lists, carried nodes, pending sets
                parent[rb] = ra
                size[ra] += size[rb]
                members[ra].extend(members[rb])  # type: ignore[union-attr]
                members[rb] = None
                pa = pending[ra]
                if node_of[ra] != -1:
                    pa.append(node_of[ra])
                    node_of[ra] = -1
                if node_of[rb] != -1:
                    pa.append(node_of[rb])
                    node_of[rb] = -1
                pa.extend(pending[rb])
                pending[rb] = []
            dirty.append(ra)
        # every root whose member set changed at this threshold is a new
        # nucleus; the nodes it absorbed become its children with the k
        # range they survived ([.., k + 1])
        for d in dirty:
            root = find(d)
            if node_of[root] != -1:
                continue  # already emitted at this threshold
            node_id = len(node_k_low)
            children = pending[root]
            for child in children:
                node_parent[child] = node_id
                node_k_low[child] = k + 1
            node_k_low.append(k)
            node_k_high.append(k)
            node_indices.append(tuple(sorted(members[root])))  # type: ignore[arg-type]
            node_parent.append(None)
            node_children.append(children)
            node_of[root] = node_id
            pending[root] = []

    # survivors of the k = 0 level are the forest roots
    for root in {find(i) for i in range(n)}:
        node_k_low[node_of[root]] = 0

    return NucleusHierarchy(
        space, kappa, _renumbered_nodes(
            space, node_k_low, node_k_high, node_indices, node_parent,
            node_children,
        )
    )


def _renumbered_nodes(
    space: SpaceLike,
    k_low: List[int],
    k_high: List[int],
    indices: List[FrozenIndices],
    parents: List[Optional[int]],
    children: List[List[int]],
) -> List[Nucleus]:
    """Materialise :class:`Nucleus` objects with stable, level-ordered ids.

    The sweep emits nodes densest-first; historical (and documented) ids run
    the other way: ascending by the level a nucleus first appears at, then by
    its smallest member index — components at one level are disjoint, so the
    key is unique.  Renumbering here keeps ids, row order and children order
    byte-identical to the original per-level construction.
    """
    count = len(k_low)
    order = sorted(range(count), key=lambda t: (k_low[t], indices[t][0]))
    new_id = {old: new for new, old in enumerate(order)}
    nodes: List[Nucleus] = []
    for new, old in enumerate(order):
        nodes.append(
            Nucleus(
                node_id=new,
                k_low=k_low[old],
                k_high=k_high[old],
                clique_indices=indices[old],
                parent=new_id[parents[old]] if parents[old] is not None else None,
                children=sorted(new_id[c] for c in children[old]),
                space=space,
            )
        )
    return nodes


def _grouped_s_cliques(
    space: SpaceLike, kappa: Sequence[int]
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Every s-clique once, with the minimum κ among its members.

    The minimum κ is the highest threshold at which the s-clique connects
    its members, i.e. the unique sweep level it must be applied at.  On a
    CSR space the dedup (owner is the smallest member) and the
    per-group minima are computed vectorised over the flat arrays; the
    generic path walks :meth:`SpaceLike.s_clique_groups`.
    """
    if hasattr(space, "ctx_members"):
        n = len(space)
        stride = space.stride
        offsets = space.ctx_offsets
        total = int(offsets[n])
        if total == 0:
            return [], []
        member_rows = space.ctx_members.reshape(total, stride)
        owners = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(offsets))
        keep = owners < member_rows.min(axis=1)
        full = _np.column_stack((owners[keep], member_rows[keep]))
        kap = _np.asarray(kappa, dtype=_np.int64)
        minima = kap[full].min(axis=1)
        return [tuple(row) for row in full.tolist()], minima.tolist()
    groups = space.s_clique_groups()
    return groups, [min(kappa[m] for m in group) for group in groups]
