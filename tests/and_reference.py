"""Reference notification for the batched AND: wake every S-neighbour.

The pool's round kernel (:func:`repro.core.csr._and_sweep`) notifies
from the context rows it has already gathered and flags a partner of a
changed clique only where the partner's τ lies above the clique's new
value.  This module keeps the earlier, independent construction as a test
oracle:

* :func:`neighbour_relation` — the distinct S-neighbours of every clique as
  a CSR pair ``(offsets, members)``, built by one sort-based dedupe of
  packed ``owner * n + partner`` keys over the whole space;
* :func:`and_wake_all` — the same frontier-batched AND pass, except that
  every neighbour of a changed clique is flagged (or, without
  notification, every clique is swept in every pass).

Parity tests assert that both notifications give the same κ, iterations
and per-pass ``updated`` / ``max_change``, that the kernel never
processes more cliques than the reference, and that ``CSRSpace.neighbors``
equals :func:`neighbour_rows`.  Nothing here is imported by the library.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.csr import CSRSpace


def neighbour_relation(space: CSRSpace) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, members)``: each clique's distinct context partners."""
    n = len(space)
    ctx_offsets = np.asarray(space.ctx_offsets)
    keys = np.repeat(
        np.arange(n, dtype=np.int64) * n, np.diff(ctx_offsets) * space.stride
    )
    keys += np.asarray(space.ctx_members)
    keys = np.unique(keys)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // max(n, 1), minlength=n), out=offsets[1:])
    return offsets, keys % max(n, 1)


def neighbour_rows(space: CSRSpace) -> List[Tuple[int, ...]]:
    """The neighbour relation as one sorted tuple per clique."""
    offsets, members = neighbour_relation(space)
    return [
        tuple(members[offsets[i]:offsets[i + 1]].tolist()) for i in range(len(space))
    ]


def and_wake_all(space: CSRSpace, notification: bool = True):
    """Batched AND whose notification flags every neighbour of a change.

    Returns ``(kappa, passes)`` where ``passes`` holds one
    ``(updated, processed, max_change)`` triple per pass; the number of
    passes is the iteration count.
    """
    n = len(space)
    ctx_off = np.asarray(space.ctx_offsets)
    stride = space.stride
    nbr_off, nbr_mem = neighbour_relation(space)
    tau = np.diff(ctx_off)
    active = np.ones(n, dtype=bool)
    total = int(ctx_off[n])
    columns = np.asarray(space.ctx_members)[:total * stride].reshape(total, stride).T
    degrees = np.diff(ctx_off)
    passes = []
    while n:
        if notification:
            flagged = np.flatnonzero(active)
            active[flagged] = False
            processed = len(flagged)
        else:
            flagged = np.arange(n)
            processed = n
        frontier = flagged[tau[flagged] > 0]
        updated, max_change = 0, 0
        if len(frontier):
            deg = degrees[frontier]
            rep = np.repeat(np.arange(len(frontier)), deg)
            pos = np.arange(len(rep)) - np.repeat(np.cumsum(deg) - deg, deg)
            rows = ctx_off[frontier][rep] + pos
            rho = tau[columns[0][rows]]
            for column in columns[1:]:
                rho = np.minimum(rho, tau[column[rows]])
            # h-index per segment: rank ρ descending within each segment
            ranked = rho[np.lexsort((-rho, rep))]
            h = np.bincount(rep[ranked >= pos + 1], minlength=len(frontier))
            new = np.minimum(h, tau[frontier])
            drop = new < tau[frontier]
            changed = frontier[drop]
            updated = len(changed)
            if updated:
                max_change = int((tau[changed] - new[drop]).max())
                tau[changed] = new[drop]
                if notification:
                    for i in changed:
                        active[nbr_mem[nbr_off[i]:nbr_off[i + 1]]] = True
        passes.append((updated, processed, max_change))
        if updated == 0:
            break
    return tau.tolist(), passes

