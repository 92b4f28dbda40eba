"""Peel-witness check: an order of removals that proves κ̂ ≥ κ.

An order of the r-cliques is a *peel witness* for κ̂ when

1. it is a permutation of the clique indices;
2. κ̂ never decreases along it;
3. each clique is the first-removed member of at most κ̂(i) s-cliques,
   i.e. it had at most κ̂(i) s-cliques left when it was removed.

Any exact peel's removal order is one, whichever way it breaks ties within
a level: the dict backend's one-at-a-time bucket queue and the CSR
backend's level-synchronous batches alike.  The check takes either space
representation and runs as a few array passes over the CSR incidence.
"""

from __future__ import annotations

import numpy as np

from repro.core.csr import CSRSpace


def assert_peel_witness(space, kappa, order) -> None:
    """Raise ``AssertionError`` unless ``order`` is a peel witness for ``kappa``."""
    csr = space if isinstance(space, CSRSpace) else space.to_csr()
    n = len(csr)
    kappa = np.asarray(kappa, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    assert len(kappa) == n, f"κ has {len(kappa)} entries for {n} cliques"
    assert np.array_equal(np.sort(order), np.arange(n)), "order is not a permutation"
    drops = np.flatnonzero(np.diff(kappa[order]) < 0)
    assert not len(drops), f"κ decreases after position {drops[:1].tolist()}"
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    degrees = np.diff(csr.ctx_offsets)
    owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rows = csr.ctx_members.reshape(len(owners), csr.stride)
    first = position[owners] < position[rows].min(axis=1)
    claimed = np.bincount(owners[first], minlength=n)
    over = np.flatnonzero(claimed > kappa)
    assert not len(over), (
        f"clique {int(over[0])} is removed first from {int(claimed[over[0]])} "
        f"s-cliques, more than its κ = {int(kappa[over[0]])}"
    )
