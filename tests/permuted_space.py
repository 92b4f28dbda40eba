"""A space whose clique table is out of lexicographic order.

Every space the package builds lists its r-cliques in lexicographic order
of their vertex-id rows.  Bundles written by earlier versions from a
``NucleusSpace`` kept that space's enumeration order instead, with a label
table of their own.  :func:`permuted_space` rebuilds that shape from any
space, so readers (point lookups, ``restrict``, the query route) stay
tested on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.csr import CSRSpace
from repro.graph.csr_graph import CliqueArrayView, _runs


def permuted_space(space: CSRSpace, seed: int, *, own_labels: bool = False) -> CSRSpace:
    """``space`` with its cliques in a random order, incidence renumbered to match.

    With ``own_labels`` the clique table gets a label table of its own: the
    labels of the vertices that lie in some r-clique, in id order, so it
    differs from the graph's whenever a vertex lies in none.
    """
    n, stride = len(space), space.stride
    perm = np.random.default_rng(seed).permutation(n).astype(np.int64)
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[perm] = np.arange(n, dtype=np.int64)
    offsets = np.asarray(space.ctx_offsets)
    degrees = np.diff(offsets)[perm]
    slots = _runs(offsets[:-1][perm] * stride, degrees * stride)
    members = new_of_old[np.asarray(space.ctx_members)[slots]]
    ids = np.asarray(space.cliques.ids).reshape(n, space.r)[perm]
    labels = space.cliques.labels
    if own_labels:
        used = np.unique(ids)
        labels = [labels[v] for v in used.tolist()]
        ids = np.searchsorted(used, ids).astype(np.int64)
    ctx_offsets = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    return CSRSpace(
        space.r, space.s, CliqueArrayView(ids, labels), ctx_offsets, members
    )
