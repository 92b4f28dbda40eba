"""Reference hierarchy construction: the union-find sweep and the DFS labelling.

The library builds the nucleus forest and its Euler-interval index in one
array pass (:func:`repro.core.hierarchy.build_hierarchy`).  This module
keeps the earlier, independent construction as a test oracle:

* :func:`build_hierarchy` — a descending union-find sweep over the
  s-cliques, emitting one :class:`~repro.core.hierarchy.Nucleus` per member
  set change;
* :func:`build_interval_index` — one depth-first traversal of those
  objects, producing the :class:`~repro.core.intervals.HierarchyIndex`
  arrays.

Parity tests assert that both constructions emit identical index arrays and
identical forests.  Nothing here is imported by the library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.hierarchy import Nucleus
from repro.core.intervals import INDEX_ARRAYS, HierarchyIndex
from repro.core.protocol import SpaceLike
from repro.core.result import DecompositionResult

FrozenIndices = Tuple[int, ...]


class ReferenceHierarchy:
    """The reference forest: the space, κ and eagerly built nodes."""

    def __init__(self, space: SpaceLike, kappa: Sequence[int], nodes: List[Nucleus]) -> None:
        self.space = space
        self.kappa = list(kappa)
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def interval_index(self) -> HierarchyIndex:
        return build_interval_index(self)


def build_hierarchy(
    space: SpaceLike,
    result_or_kappa,
) -> "ReferenceHierarchy":
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

    return ReferenceHierarchy(
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


def build_interval_index(hierarchy) -> HierarchyIndex:
    """Label a :class:`ReferenceHierarchy` with intervals.

    One depth-first traversal assigns pre/post-order positions (children in
    ascending id order, matching the deterministic hierarchy layout), then
    every r-clique is attached to its deepest containing node — the unique
    chain node whose ``[k_low, k_high]`` range covers the clique's κ — and
    the member runs are located with two binary searches per node.

    Parameters
    ----------
    hierarchy : ReferenceHierarchy
        A reference-built hierarchy (any backend).

    Returns
    -------
    HierarchyIndex
        Flat-array index answering the same containment / ancestry
        questions as the object API; parity is property-tested in
        ``tests/test_intervals.py``.
    """
    nodes = hierarchy.nodes
    count = len(nodes)
    num_cliques = len(hierarchy.kappa)
    if count == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return HierarchyIndex(**{name: empty for name in INDEX_ARRAYS})

    by_id = {node.node_id: node for node in nodes}
    roots = sorted(node.node_id for node in nodes if node.parent is None)

    node_ids = _np.empty(count, dtype=_np.int64)
    post = _np.empty(count, dtype=_np.int64)
    parent = _np.empty(count, dtype=_np.int64)
    k_low = _np.empty(count, dtype=_np.int64)
    k_high = _np.empty(count, dtype=_np.int64)
    pre_of_id = _np.empty(count, dtype=_np.int64)

    # iterative DFS; a sentinel entry (id, True) closes the subtree and
    # records the inclusive post bound
    cursor = 0
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node_id, closing = stack.pop()
        if closing:
            post[pre_of_id[node_id]] = cursor - 1
            continue
        node = by_id[node_id]
        pos = cursor
        cursor += 1
        node_ids[pos] = node_id
        pre_of_id[node_id] = pos
        k_low[pos] = node.k_low
        k_high[pos] = node.k_high
        parent[pos] = -1 if node.parent is None else pre_of_id[node.parent]
        stack.append((node_id, True))
        for child in reversed(node.children):
            stack.append((child, False))

    # deepest node of every clique: the unique chain node whose k range
    # covers the clique's kappa (chain ranges tile [0, kappa])
    kappa = _np.asarray(hierarchy.kappa, dtype=_np.int64)
    leaf_pos = _np.full(num_cliques, -1, dtype=_np.int64)
    for node in nodes:
        members = _np.fromiter(node.clique_indices, dtype=_np.int64,
                               count=len(node.clique_indices))
        if members.size == 0:
            continue
        km = kappa[members]
        own = members[(km >= node.k_low) & (km <= node.k_high)]
        leaf_pos[own] = pre_of_id[node.node_id]
    if num_cliques and int(leaf_pos.min()) < 0:
        raise AssertionError(
            "interval labelling failed: some r-clique belongs to no nucleus"
        )

    clique_order = _np.argsort(leaf_pos, kind="stable").astype(_np.int64)
    clique_pos = _np.empty(num_cliques, dtype=_np.int64)
    clique_pos[clique_order] = _np.arange(num_cliques, dtype=_np.int64)
    leaf_sorted = leaf_pos[clique_order]
    positions = _np.arange(count, dtype=_np.int64)
    member_lo = _np.searchsorted(leaf_sorted, positions, side="left")
    member_hi = _np.searchsorted(leaf_sorted, post, side="right")

    return HierarchyIndex(
        node_ids=node_ids,
        post=post,
        parent=parent,
        k_low=k_low,
        k_high=k_high,
        pre_of_id=pre_of_id,
        leaf_pos=leaf_pos,
        clique_order=clique_order,
        clique_pos=clique_pos,
        member_lo=member_lo,
        member_hi=member_hi,
    )
