"""The peeling baseline (Algorithm 1): exact, global, inherently sequential.

This is the algorithm the paper's local framework is compared against.  It is
the classic bucket-based minimum-degree removal: repeatedly pick an
unprocessed r-clique with the minimum current S-degree, fix its κ index to
that degree, and decrement the degrees of the other r-cliques that share a
still-live s-clique with it.

For (1, 2) this is exactly Batagelj–Zaversnik k-core peeling in O(|E|); for
(2, 3) it is k-truss peeling in O(|Δ|); the same code path handles any
(r, s) via :class:`repro.core.space.NucleusSpace`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.csr import CSRSpace, resolve_space_for_backend
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
    result = peeling_decomposition(space)
    order = result.operations.get("_peel_order")
    if isinstance(order, list):
        return order
    # Fallback: sort by kappa (stable), which is a valid non-decreasing order.
    return sorted(range(len(result.kappa)), key=lambda i: result.kappa[i])


def peeling_decomposition(
    source: Union[Graph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    backend: str = "auto",
) -> DecompositionResult:
    """Exact (r, s) nucleus decomposition by peeling (Algorithm 1).

    Parameters
    ----------
    source:
        A prebuilt :class:`NucleusSpace` or :class:`CSRSpace`, or a
        :class:`Graph` (in which case ``r`` and ``s`` must be given).
    r, s:
        The decomposition instance when ``source`` is a graph.
    backend:
        ``"csr"`` (or ``"auto"``, the default, or any :class:`CSRSpace`
        input) runs the bucket-queue loop over flat CSR arrays; ``"dict"``
        walks the tuple/set structure.  Both drive the identical
        :class:`_BucketQueue` sequence, so κ *and* the recorded peel order
        match exactly across backends.

    Returns
    -------
    DecompositionResult
        κ indices per r-clique; ``operations`` records the number of degree
        decrements performed (the peeling work measure used in the runtime
        experiments).
    """
    space, resolved = resolve_space_for_backend(source, r, s, backend)
    if resolved == "csr":
        csr = space if isinstance(space, CSRSpace) else space.to_csr()
        return _peeling_csr(csr)
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
    """Bucket-queue peeling over flat CSR arrays (fast path).

    Mirrors the dict-backend loop line for line, but the "is the containing
    s-clique still alive, and which members need a decrement?" scan runs over
    ``ctx_members`` slices instead of lists of tuples.
    """
    n = len(space)
    stride = space.stride
    # read each buffer once into Python ints: the loop below indexes them
    # per element, and numpy scalars would leak into κ
    ctx_off = space.ctx_offsets.tolist()
    cm = space.ctx_members.tolist()
    degrees = space.s_degrees()
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
        if current[item] > max_so_far:
            max_so_far = current[item]
        kappa[item] = max_so_far
        threshold = current[item]
        for c in range(ctx_off[item], ctx_off[item + 1]):
            base = c * stride
            alive = True
            for j in range(base, base + stride):
                if processed[cm[j]]:
                    # the containing s-clique has already been destroyed
                    alive = False
                    break
            if not alive:
                continue
            for j in range(base, base + stride):
                other = cm[j]
                if current[other] > threshold:
                    current[other] -= 1
                    queue.decrease_key(other, current[other])
                    decrements += 1

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
    queue = _BucketQueue([0] * 0)  # placeholder, replaced below
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
