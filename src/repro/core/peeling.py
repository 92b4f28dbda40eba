"""The peeling baseline (Algorithm 1): exact and global.

This is the algorithm the paper's local framework is compared against:
repeatedly remove the r-cliques of minimum current S-degree, fix their κ to
that degree (never below the running maximum), and decrement the degrees of
the r-cliques sharing a still-live s-clique with them.  (1, 2) is k-core
peeling, (2, 3) k-truss peeling; the same code handles any (r, s).

A :class:`NucleusSpace` runs Algorithm 1 verbatim, one r-clique at a time
from a bucket queue — the readable oracle.  Every other source runs the CSR
route, which is level-synchronous
(Julienne-style bucketing, Dhulipala, Blelloch & Shun, SPAA 2017): at level
``k`` one array step (:func:`repro.core.csr._retire`) removes *every* live
r-clique of S-degree ``≤ k``, until none is left; then ``k`` rises.  κ is
identical.  The removal orders break ties within a level differently, and
both are peel witnesses: κ never decreases along the order, and each
r-clique is the first-removed member of at most κ of its s-cliques.

>>> from repro.graph.generators import ring_of_cliques
>>> graph = ring_of_cliques(4, 5)        # four K5s joined in a ring
>>> result = peeling_decomposition(graph, 2, 3)
>>> result.kappa.count(3), result.kappa.count(0)   # K5 edges, ring edges
(40, 4)
>>> order = result.operations["_peel_order"]
>>> all(result.kappa[a] <= result.kappa[b] for a, b in zip(order, order[1:]))
True
>>> from repro.core.space import NucleusSpace
>>> peeling_decomposition(NucleusSpace(graph, 2, 3)).as_dict() == result.as_dict()
True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as _np

from repro.core.csr import CSRSpace, _retire, resolve_space
from repro.core.result import DecompositionResult
from repro.core.space import NucleusSpace
from repro.graph.graph import Graph, sorted_vertices

__all__ = ["peeling_decomposition", "peel_order"]


class _BucketQueue:
    """Monotone bucket priority queue over non-negative integer keys.

    Supports ``pop_min`` and ``decrease_key`` in amortised O(1), which gives
    the peeling loop its linear complexity.
    """

    def __init__(self, keys: List[int]) -> None:
        self._key = list(keys)
        max_key = max(keys, default=0)
        self._buckets: List[set] = [set() for _ in range(max_key + 2)]
        for item, key in enumerate(keys):
            self._buckets[key].add(item)
        self._cursor = 0
        self._live = len(keys)

    def __len__(self) -> int:
        return self._live

    def key_of(self, item: int) -> int:
        return self._key[item]

    def pop_min(self) -> int:
        if self._live == 0:
            raise IndexError("pop from empty bucket queue")
        # the cursor only needs to move back by one step after a decrease,
        # so keep it clamped instead of rescanning from zero
        while self._cursor < len(self._buckets) and not self._buckets[self._cursor]:
            self._cursor += 1
        item = self._buckets[self._cursor].pop()
        self._live -= 1
        return item

    def decrease_key(self, item: int, new_key: int) -> None:
        old = self._key[item]
        if new_key >= old:
            return
        self._buckets[old].discard(item)
        self._buckets[new_key].add(item)
        self._key[item] = new_key
        if new_key < self._cursor:
            self._cursor = new_key


def peel_order(space: Union[NucleusSpace, CSRSpace]) -> List[int]:
    """Return r-clique indices in the order the peeling algorithm removes them.

    This non-decreasing κ order is the best-case processing order for the
    AND algorithm (Theorem 4), so experiments reuse it.
    """
    return peeling_decomposition(space).operations["_peel_order"]


def peeling_decomposition(
    source: Union[Graph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
) -> DecompositionResult:
    """Exact (r, s) nucleus decomposition by peeling (Algorithm 1).

    Parameters
    ----------
    source:
        A :class:`NucleusSpace`, which runs Algorithm 1's bucket queue over
        the tuple/set structure, or anything else
        :func:`repro.core.csr.resolve_space` accepts (a :class:`CSRSpace`,
        a graph, an opened bundle), which runs the level-synchronous peel
        over flat CSR arrays.  κ is identical; the recorded peel orders may
        break ties within a level differently (see the module docstring).
    r, s:
        The decomposition instance when ``source`` is a graph.

    Returns
    -------
    DecompositionResult
        κ indices per r-clique.  ``operations["_peel_order"]`` is the
        removal order, and ``operations["degree_decrements"]`` the peeling
        work measure used in the runtime experiments: on the dict route,
        the decrements of neighbours still above the removed clique's
        degree; on the CSR route, every decrement a batch applies to a
        surviving partner of a dying s-clique.
    """
    space = resolve_space(source, r, s)
    if isinstance(space, CSRSpace):
        return _peeling_csr(space)
    degrees = space.s_degrees()
    n = len(space)
    kappa = [0] * n
    processed = [False] * n
    queue = _BucketQueue(degrees)
    current = list(degrees)
    decrements = 0
    max_so_far = 0
    order: List[int] = []

    for _ in range(n):
        item = queue.pop_min()
        processed[item] = True
        order.append(item)
        # κ values are non-decreasing along the peel; clamp like the
        # standard k-core algorithm so ties do not lower the running max.
        max_so_far = max(max_so_far, current[item])
        kappa[item] = max_so_far
        for others in space.contexts(item):
            if any(processed[o] for o in others):
                # the containing s-clique has already been destroyed
                continue
            for other in others:
                if current[other] > current[item]:
                    current[other] -= 1
                    queue.decrease_key(other, current[other])
                    decrements += 1

    result = DecompositionResult.from_space(
        space,
        algorithm="peeling",
        kappa=kappa,
        iterations=0,
        converged=True,
        operations={
            "degree_decrements": decrements,
            "cliques_processed": n,
            "_peel_order": order,
            "backend": "dict",
        },
    )
    return result


def _peeling_csr(space: CSRSpace) -> DecompositionResult:
    """Level-synchronous peeling over the flat CSR arrays.

    At level ``k`` the frontier is every live r-clique with at most ``k``
    live s-cliques; :func:`repro.core.csr._retire` removes it in one array
    step, and the cliques that step pushes to ``≤ k`` form the next
    frontier.  When none is left, ``k`` rises to the minimum live degree.
    """
    n = len(space)
    ctx_off = space.ctx_offsets
    members = space.ctx_members.reshape(-1, space.stride)
    deg = _np.diff(ctx_off)
    gone = _np.full(n, n, dtype=_np.int64)
    kappa = _np.zeros(n, dtype=_np.int64)
    live = _np.arange(n, dtype=_np.int64)
    front = live[:0]
    fronts = []
    k = decrements = 0
    while True:
        if not len(front):
            live = live[gone[live] == n]
            if not len(live):
                break
            live_deg = deg[live]
            k = int(live_deg.min())
            front = live[live_deg == k]
        kappa[front] = k
        fronts.append(front)
        touched, lost = _retire(ctx_off, members, deg, gone, front, len(fronts) - 1)
        decrements += lost
        front = touched[deg[touched] <= k]
    order = _np.concatenate(fronts).tolist() if fronts else []

    return DecompositionResult.from_space(
        space,
        algorithm="peeling",
        kappa=kappa,
        iterations=0,
        converged=True,
        operations={
            "degree_decrements": decrements,
            "cliques_processed": n,
            "_peel_order": order,
            "backend": "csr",
        },
    )


def core_numbers_bz(graph: Graph) -> Dict:
    """Batagelj–Zaversnik k-core numbers computed directly on the graph.

    Independent of :class:`NucleusSpace`; used as a cross-check oracle in the
    test-suite (and as the fastest way to get core numbers for very large
    graphs where building a space is unnecessary).
    Returns a dict mapping vertex → core number.
    """
    degrees = graph.degrees()
    if not degrees:
        return {}
    vertices = sorted_vertices(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    keys = [degrees[v] for v in vertices]
    queue = _BucketQueue(keys)
    current = list(keys)
    processed = [False] * len(vertices)
    core = [0] * len(vertices)
    max_so_far = 0
    for _ in range(len(vertices)):
        i = queue.pop_min()
        processed[i] = True
        max_so_far = max(max_so_far, current[i])
        core[i] = max_so_far
        v = vertices[i]
        for nbr in graph.neighbors(v):
            j = index[nbr]
            if not processed[j] and current[j] > current[i]:
                current[j] -= 1
                queue.decrease_key(j, current[j])
    return {vertices[i]: core[i] for i in range(len(vertices))}
