"""AND — Asynchronous Nucleus Decomposition (Algorithm 3).

Unlike SND, each r-clique's update immediately uses the freshest τ values of
its neighbours (Gauss–Seidel style), so convergence needs fewer iterations —
down to a single iteration when r-cliques are processed in non-decreasing
order of their final κ indices (Theorem 4).  The optional *notification
mechanism* skips r-cliques whose neighbourhood has not changed since their
last recomputation, eliminating the redundant work caused by τ plateaus
(Section 4.2.1).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Union

from repro.core.csr import CSRSpace, and_decomposition_csr, resolve_space
from repro.core.hindex import h_index, sustains_h
from repro.core.protocol import SpaceLike
from repro.core.result import DecompositionResult, IterationStats
from repro.core.space import NucleusSpace
from repro.graph.graph import Graph

__all__ = ["and_decomposition", "processing_order"]

OrderSpec = Union[str, Sequence[int], None]


def processing_order(
    space: SpaceLike,
    order: OrderSpec,
    *,
    seed: Optional[int] = None,
    kappa_hint: Optional[List[int]] = None,
) -> List[int]:
    """Resolve an ordering specification into a permutation of clique indices.

    Supported string specifications:

    * ``"natural"`` (also ``None``) — index order, which follows the construction
      order of the space (lexicographic-ish, like the paper's examples).
    * ``"degree"`` — non-decreasing S-degree, a cheap proxy for κ order.
    * ``"degree_desc"`` — non-increasing S-degree (a worst-case-ish order).
    * ``"random"`` — a seeded shuffle.
    * ``"kappa"`` — non-decreasing exact κ (requires ``kappa_hint``).  Note
      that ties are broken arbitrarily, so unlike the peel order this does
      *not* guarantee single-iteration convergence.
    * ``"peel"`` — the exact removal order of the peeling algorithm.  This is
      the best-case order of Theorem 4: processing r-cliques in the order
      peeling would remove them makes AND converge in a single update pass
      (plus one detection pass).  Used as a test oracle and in experiments.

    An explicit sequence of indices is validated and returned as a list.
    """
    n = len(space)
    if order is None or order == "natural":
        return list(range(n))
    if isinstance(order, str):
        if order == "degree":
            degrees = space.s_degrees()
            return sorted(range(n), key=lambda i: degrees[i])
        if order == "degree_desc":
            degrees = space.s_degrees()
            return sorted(range(n), key=lambda i: -degrees[i])
        if order == "random":
            rng = random.Random(seed)
            perm = list(range(n))
            rng.shuffle(perm)
            return perm
        if order == "kappa":
            if kappa_hint is None:
                raise ValueError("order='kappa' requires kappa_hint")
            return sorted(range(n), key=lambda i: kappa_hint[i])
        if order == "peel":
            from repro.core.peeling import peel_order

            return peel_order(space)
        raise ValueError(f"unknown ordering {order!r}")
    permutation = list(order)
    if sorted(permutation) != list(range(n)):
        raise ValueError("explicit order must be a permutation of range(len(space))")
    return permutation


def and_decomposition(
    source: Union[Graph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    order: OrderSpec = None,
    seed: Optional[int] = None,
    kappa_hint: Optional[List[int]] = None,
    notification: bool = True,
    max_iterations: Optional[int] = None,
    record_history: bool = False,
    reference_kappa: Optional[List[int]] = None,
    on_iteration: Optional[Callable[[int, List[int]], None]] = None,
) -> DecompositionResult:
    """Run the asynchronous local algorithm until convergence.

    AND has two schedules with the same unique fixed point κ.  A request
    that reads the schedule — a :class:`NucleusSpace` source, any explicit
    ``order``, ``notification=False``, ``record_history``,
    ``on_iteration``, ``reference_kappa`` or ``max_iterations`` — runs the
    paper's per-visit loop (this module) on the resolved space, through the
    :class:`SpaceLike` read API, so its τ trajectory and per-iteration
    stats are the same on either space.
    Every other request runs the frontier-batched kernel
    :func:`repro.core.csr.and_decomposition_csr`, whose passes lower each
    frontier in ascending-τ blocks against the τ the earlier blocks
    published (Jacobi within a block, Gauss–Seidel between blocks), so only
    its iteration counts differ.
    ``operations["engine"]`` records which one ran, and
    ``operations["backend"]`` which space it ran on (``"dict"`` for a
    :class:`NucleusSpace`, ``"csr"`` for everything else, see
    :func:`repro.core.csr.resolve_space`).

    Parameters
    ----------
    order, seed, kappa_hint:
        Processing order of the r-cliques within each iteration; see
        :func:`processing_order`.  ``None`` (default) leaves the order to
        the kernel: index order for the per-visit loop, none at all for
        the batched one.
    notification:
        Enable the notification mechanism: an r-clique is recomputed only if
        one of its neighbours changed since its last computation.  Disable to
        measure the redundant-computation overhead (experiment E4); the
        per-visit loop is the only schedule that runs without it.
    max_iterations, record_history, reference_kappa, on_iteration:
        Same semantics as in :func:`repro.core.snd.snd_decomposition`.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> plain = and_decomposition(complete_graph(5), 2, 3)
    >>> visited = and_decomposition(complete_graph(5), 2, 3, order="natural")
    >>> plain.operations["engine"], visited.operations["engine"]
    ('numpy', 'python')
    >>> plain.kappa == visited.kappa
    True
    """
    space = resolve_space(source, r, s)
    on_dict = not isinstance(space, CSRSpace)
    reads_schedule = (
        on_dict
        or order is not None
        or not notification
        or record_history
        or on_iteration is not None
        or reference_kappa is not None
        or max_iterations is not None
    )
    if not reads_schedule:
        return and_decomposition_csr(space)
    n = len(space)
    tau = space.s_degrees()
    perm = processing_order(space, order, seed=seed, kappa_hint=kappa_hint)
    active = [True] * n
    history: Optional[List[List[int]]] = [list(tau)] if record_history else None
    stats: List[IterationStats] = []
    rho_evaluations = 0
    h_calls = 0
    skipped_total = 0

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        updated = 0
        processed = 0
        skipped = 0
        max_change = 0
        for i in perm:
            if notification and not active[i]:
                skipped += 1
                continue
            processed += 1
            current = tau[i]
            rho_values = []
            for others in space.contexts(i):
                rho = min(tau[o] for o in others) if others else 0
                rho_values.append(rho)
                rho_evaluations += 1
            # Fast path: if the current value is still sustainable it is the
            # h-index (τ never increases), so skip the full computation.
            if current > 0 and sustains_h(rho_values, current):
                new_value = current
            else:
                new_value = h_index(rho_values)
                h_calls += 1
            if new_value != current:
                tau[i] = new_value
                updated += 1
                max_change = max(max_change, current - new_value)
                # wake up the neighbours: their h-index may drop now
                for nbr in space.neighbors(i):
                    active[nbr] = True
            active[i] = False
        skipped_total += skipped
        converged = updated == 0
        if history is not None:
            history.append(list(tau))
        if on_iteration is not None:
            on_iteration(iteration, tau)
        converged_count = (
            sum(1 for i in range(n) if tau[i] == reference_kappa[i])
            if reference_kappa is not None
            else -1
        )
        stats.append(
            IterationStats(
                iteration=iteration,
                updated=updated,
                processed=processed,
                skipped=skipped,
                max_change=max_change,
                converged_count=converged_count,
            )
        )

    return DecompositionResult.from_space(
        space,
        algorithm="and",
        kappa=tau,
        iterations=iteration,
        converged=converged,
        tau_history=history,
        iteration_stats=stats,
        operations={
            "rho_evaluations": rho_evaluations,
            "h_index_calls": h_calls,
            "skipped_cliques": skipped_total,
            "backend": "dict" if on_dict else "csr",
            "engine": "python",
        },
    )
