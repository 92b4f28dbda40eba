"""Degree levels and convergence upper bounds (Section 3.1).

The degree levels ``L_0, L_1, ...`` of a graph are built by repeatedly taking
*all* r-cliques of minimum S-degree out of the remaining structure; removing
an r-clique also removes every s-clique containing it.  Theorem 3 shows the
r-cliques in level ``L_i`` converge within ``i`` iterations of the update
operator, so the number of levels is an upper bound on the iterations both
SND and AND need — and a far tighter one than the trivial |R(G)| bound.

The space's type picks the kernel: a :class:`~repro.core.space.NucleusSpace`
(or any other :class:`repro.core.protocol.SpaceLike`) runs the generic
reference over its context tuples, and a graph becomes a :class:`CSRSpace`
(:func:`repro.core.csr.resolve_space`).  On a ``CSRSpace`` each level is one
array step, the :func:`repro.core.csr._retire` step the exact peeling also
runs: it retires the level's r-cliques, and only the s-cliques that die with
them are touched, instead of re-scanning every surviving context per level
as the generic reference does.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as _np

from repro.core.csr import CSRSpace, _retire, resolve_space
from repro.core.protocol import SpaceLike
from repro.graph.graph import Graph

__all__ = ["degree_levels", "convergence_upper_bound", "level_of_each_clique"]


def degree_levels(
    source: Union[Graph, SpaceLike],
    r: Optional[int] = None,
    s: Optional[int] = None,
) -> List[List[int]]:
    """Return the degree levels as lists of r-clique indices.

    ``levels[i]`` holds the indices (into the space's clique indexing) of the
    r-cliques forming level ``L_i``.  Every r-clique appears in exactly one
    level.  A prebuilt space is used as-is; a graph (``r``/``s`` required)
    is flattened into a :class:`CSRSpace`.  The levels are identical on
    either space.
    """
    space = resolve_space(source, r, s)
    if isinstance(space, CSRSpace):
        return _degree_levels_csr(space)
    return _degree_levels_generic(space)


def _degree_levels_generic(space: SpaceLike) -> List[List[int]]:
    """Reference implementation over the protocol's context tuples."""
    n = len(space)
    removed = [False] * n
    # current S-degree restricted to the surviving structure
    current = space.s_degrees()
    remaining = n
    levels: List[List[int]] = []

    while remaining > 0:
        minimum = min(current[i] for i in range(n) if not removed[i])
        level = [i for i in range(n) if not removed[i] and current[i] == minimum]
        levels.append(level)
        for i in level:
            removed[i] = True
        remaining -= len(level)
        # Recompute degrees of survivors: an s-clique survives only if all of
        # its r-cliques survive, so count contexts whose members all survive.
        for i in range(n):
            if removed[i]:
                continue
            alive = 0
            for others in space.contexts(i):
                if all(not removed[o] for o in others):
                    alive += 1
            current[i] = alive
    return levels


def _degree_levels_csr(space: CSRSpace) -> List[List[int]]:
    """Whole levels peeled over the flat CSR arrays.

    Each level is one :func:`repro.core.csr._retire` step whose frontier is
    every live r-clique of minimum live S-degree, so the work per level is
    the removed cliques' own context rows plus one scan of the live degrees.
    Level membership and order match :func:`_degree_levels_generic` exactly.
    """
    n = len(space)
    members = space.ctx_members.reshape(-1, space.stride)
    deg = _np.diff(space.ctx_offsets)
    gone = _np.full(n, n, dtype=_np.int64)
    live = _np.arange(n, dtype=_np.int64)
    levels = []
    while len(live):
        live_deg = deg[live]
        lowest = live_deg == live_deg.min()
        levels.append(live[lowest])
        _retire(space.ctx_offsets, members, deg, gone, levels[-1], len(levels) - 1)
        live = live[~lowest]
    return [level.tolist() for level in levels]


def level_of_each_clique(
    source: Union[Graph, SpaceLike],
    r: Optional[int] = None,
    s: Optional[int] = None,
) -> List[int]:
    """Return, for every r-clique index, the index of its degree level."""
    space = resolve_space(source, r, s)
    levels = degree_levels(space)
    assignment = [0] * len(space)
    for level_index, members in enumerate(levels):
        for i in members:
            assignment[i] = level_index
    return assignment


def convergence_upper_bound(
    source: Union[Graph, SpaceLike],
    r: Optional[int] = None,
    s: Optional[int] = None,
) -> int:
    """Upper bound on the number of update iterations needed to converge.

    This is the index of the last non-empty degree level (Theorem 3 /
    Lemma 2): level ``L_i`` converges within ``i`` iterations, so the whole
    graph converges within ``len(levels) - 1`` iterations, and one extra
    no-change iteration may be needed to *detect* convergence.
    """
    levels = degree_levels(source, r, s)
    return max(len(levels) - 1, 0)

