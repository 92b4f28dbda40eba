"""Euler-interval (pre/post-order) labelling of the nucleus hierarchy.

:class:`HierarchyIndex` is the flat-array form of the nucleus forest that
:func:`~repro.core.hierarchy.build_hierarchy` emits and
:class:`~repro.core.hierarchy.NucleusHierarchy` owns.  It borrows the
interval encoding XPath accelerators use for document trees:
every node of the forest is labelled with its **pre-order position** and the
largest pre-order position in its subtree (the inclusive **post** bound), so

* ``a`` is an ancestor-or-self of ``b``  ⇔  ``pre[a] <= pre[b] <= post[a]``
  — two integer comparisons, no pointer chasing;
* the descendants of a node occupy the *contiguous* pre-order range
  ``pre .. post`` — a slice, not a traversal.

The same trick indexes the r-cliques: each clique is attached to the
**deepest** nucleus containing it (its *leaf node* — the unique chain node
whose ``[k_low, k_high]`` range covers the clique's κ), and the clique
indices are sorted by that leaf's pre-order position.  Because descendant
pre-positions are contiguous, the member cliques of *any* node form one
contiguous run of that sorted order, recovered with two binary searches
(`numpy.searchsorted`) over a sorted int64 array.  Membership tests,
member counts and member enumeration therefore never touch a
``Nucleus`` object or build a vertex set, and every array the index holds
is a flat int64 buffer — directly persistable and reopenable via
``numpy.memmap`` (see :mod:`repro.store.bundle`).

Examples
--------
>>> from repro.core.hierarchy import build_hierarchy
>>> from repro.core.peeling import peeling_decomposition
>>> from repro.core.space import NucleusSpace
>>> from repro.graph.generators import ring_of_cliques
>>> space = NucleusSpace(ring_of_cliques(num_cliques=2, clique_size=4), 1, 2)
>>> hierarchy = build_hierarchy(space, peeling_decomposition(space))
>>> index = hierarchy.interval_index()
>>> root = index.node_ids_preorder()[0]
>>> all(index.is_ancestor(root, n) for n in index.node_ids_preorder())
True
>>> index.member_count(root) == len(space)
True
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as _np

__all__ = ["HierarchyIndex"]

#: Names of the flat int64 arrays a :class:`HierarchyIndex` consists of,
#: in the order :meth:`HierarchyIndex.arrays` emits them.  This is the
#: persistable surface of the index (see ``docs/FORMAT.md``).
INDEX_ARRAYS = (
    "node_ids",
    "post",
    "parent",
    "k_low",
    "k_high",
    "pre_of_id",
    "leaf_pos",
    "clique_order",
    "clique_pos",
    "member_lo",
    "member_hi",
)


class HierarchyIndex:
    """Flat-array interval index over a nucleus forest.

    Nodes are addressed two ways: by their stable hierarchy ``node_id``
    (what :class:`~repro.core.hierarchy.Nucleus` carries) and by their
    *pre-order position*.  All arrays are indexed by pre-order position;
    ``pre_of_id`` translates ids to positions and ``node_ids`` back.

    Attributes
    ----------
    node_ids : numpy.ndarray
        ``node_ids[pos]`` is the hierarchy node id at pre-order position
        ``pos``.
    post : numpy.ndarray
        Inclusive subtree bound: the descendants of the node at position
        ``pos`` (itself included) are exactly positions ``pos .. post[pos]``.
    parent : numpy.ndarray
        Pre-order position of each node's parent, ``-1`` for forest roots.
    k_low, k_high : numpy.ndarray
        The κ-threshold range over which each node is a nucleus.
    pre_of_id : numpy.ndarray
        Inverse of ``node_ids``: pre-order position of each node id.
    leaf_pos : numpy.ndarray
        For every r-clique index, the pre-order position of the *deepest*
        nucleus containing it.
    clique_order : numpy.ndarray
        The clique indices sorted by ``leaf_pos`` (ties by index): member
        cliques of any node are one contiguous run of this permutation.
    clique_pos : numpy.ndarray
        Inverse of ``clique_order``.
    member_lo, member_hi : numpy.ndarray
        Per node (by pre-order position), the half-open run
        ``clique_order[member_lo[pos]:member_hi[pos]]`` of its member
        cliques — precomputed with two ``searchsorted`` binary searches.
    """

    __slots__ = tuple(INDEX_ARRAYS)

    def __init__(self, **arrays) -> None:
        missing = [name for name in INDEX_ARRAYS if name not in arrays]
        if missing:
            raise ValueError(f"missing index arrays: {missing}")
        extra = [name for name in arrays if name not in INDEX_ARRAYS]
        if extra:
            raise ValueError(f"unknown index arrays: {extra}")
        for name in INDEX_ARRAYS:
            value = _np.asarray(arrays[name], dtype=_np.int64)
            if value.ndim != 1:
                raise ValueError(f"index array {name!r} must be 1-D")
            object.__setattr__(self, name, value)
        if len(self.leaf_pos) != len(self.clique_order):
            raise ValueError("leaf_pos and clique_order lengths disagree")
        for name in ("post", "parent", "k_low", "k_high", "member_lo", "member_hi"):
            if len(getattr(self, name)) != len(self.node_ids):
                raise ValueError(f"index array {name!r} length disagrees with node count")

    # ------------------------------------------------------------------
    # sizes and translation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of nuclei in the forest."""
        return len(self.node_ids)

    def num_cliques(self) -> int:
        """Number of r-cliques the index covers."""
        return len(self.leaf_pos)

    def position_of(self, node_id: int) -> int:
        """Pre-order position of a hierarchy node id."""
        if not 0 <= node_id < len(self.pre_of_id):
            raise KeyError(node_id)
        return int(self.pre_of_id[node_id])

    def node_ids_preorder(self) -> List[int]:
        """All node ids in pre-order (roots first, depth-first)."""
        return self.node_ids.tolist()

    # ------------------------------------------------------------------
    # interval queries (two integer comparisons each)
    # ------------------------------------------------------------------
    def is_ancestor(self, ancestor_id: int, node_id: int, *, strict: bool = False) -> bool:
        """True when ``ancestor_id`` is an ancestor of ``node_id``.

        Ancestor-or-self by default; ``strict=True`` excludes equality.
        Cost is two integer comparisons on the pre/post labels.
        """
        a = self.position_of(ancestor_id)
        b = self.position_of(node_id)
        if strict and a == b:
            return False
        return a <= b <= int(self.post[a])

    def contains_clique(self, node_id: int, clique_index: int) -> bool:
        """True when the nucleus ``node_id`` contains the r-clique.

        The clique's deepest node must lie in the queried node's subtree —
        again two integer comparisons, no member set is built.
        """
        pos = self.position_of(node_id)
        leaf = int(self.leaf_pos[clique_index])
        return pos <= leaf <= int(self.post[pos])

    def descendant_ids(self, node_id: int):
        """Node ids of the subtree under ``node_id`` (itself included).

        The subtree is a contiguous pre-order slice, so this is one array
        read, not a traversal.
        """
        pos = self.position_of(node_id)
        return self.node_ids[pos:int(self.post[pos]) + 1]

    # ------------------------------------------------------------------
    # member queries (binary-search backed)
    # ------------------------------------------------------------------
    def members(self, node_id: int):
        """Member r-clique indices of a nucleus, as an int64 array.

        Served as one contiguous slice of ``clique_order`` (bounds were
        found by binary search at build time); ``Nucleus.vertices`` and
        ``Nucleus.clique_indices`` are never touched.
        """
        pos = self.position_of(node_id)
        return self.clique_order[int(self.member_lo[pos]):int(self.member_hi[pos])]

    def member_count(self, node_id: int) -> int:
        """Number of member r-cliques of a nucleus (O(1))."""
        pos = self.position_of(node_id)
        return int(self.member_hi[pos] - self.member_lo[pos])

    # ------------------------------------------------------------------
    # threshold queries
    # ------------------------------------------------------------------
    def nucleus_containing(self, clique_index: int, k: int) -> Optional[int]:
        """Id of the nucleus containing the r-clique at threshold ``k``.

        ``None`` when the clique supports no nucleus at the threshold
        (``k`` exceeds its κ, or ``k < 0``).  The walk ascends the chain of
        flat parent positions from the clique's deepest node; every chain
        node is tested with two integer comparisons on its ``[k_low,
        k_high]`` range, and the ranges tile, so the first hit is the
        unique answer.
        """
        if not 0 <= clique_index < len(self.leaf_pos):
            raise KeyError(clique_index)
        pos = int(self.leaf_pos[clique_index])
        if k < 0 or k > int(self.k_high[pos]):
            return None
        while k < int(self.k_low[pos]):
            pos = int(self.parent[pos])
        return int(self.node_ids[pos])

    def nuclei_at(self, k: int):
        """Ids of every nucleus active at threshold ``k`` (vectorised)."""
        mask = (self.k_low <= k) & (k <= self.k_high)
        return self.node_ids[_np.flatnonzero(mask)]

    def max_k(self) -> int:
        """Largest threshold at which any nucleus exists."""
        return int(self.k_high.max(initial=0))

    # ------------------------------------------------------------------
    # persistence surface
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, "_np.ndarray"]:
        """The index as named flat int64 arrays (the persistable surface)."""
        return {name: getattr(self, name) for name in INDEX_ARRAYS}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, "_np.ndarray"]) -> "HierarchyIndex":
        """Rebuild an index from :meth:`arrays` output (e.g. memmaps)."""
        return cls(**arrays)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchyIndex):
            return NotImplemented
        return all(
            _np.array_equal(getattr(self, name), getattr(other, name))
            for name in INDEX_ARRAYS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchyIndex({len(self)} nuclei over "
            f"{self.num_cliques()} r-cliques, max_k={self.max_k()})"
        )
