"""SND — Synchronous Nucleus Decomposition (Algorithm 2).

All r-cliques update their τ estimate from the *previous* iteration's values
(Jacobi style), so the result of an iteration does not depend on processing
order and the computation is embarrassingly parallel within an iteration.
τ_0 is the S-degrees; the fixed point is the κ indices (Theorems 1–3).

This module's loop over a :class:`NucleusSpace` is the readable oracle.
Every other space runs :func:`repro.core.csr.snd_decomposition_csr`: the
AND's pass kernel with no block limit, so each pass is exactly one Jacobi
step, with the same τ trajectory, stats and counters as the oracle.  SND
has no process-pool route; the pool runs the AND.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core.csr import CSRSpace, resolve_space, snd_decomposition_csr
from repro.core.hindex import h_index
from repro.core.result import DecompositionResult, IterationStats
from repro.core.space import NucleusSpace
from repro.graph.graph import Graph

__all__ = ["snd_decomposition", "snd_iterations"]


def snd_decomposition(
    source: Union[Graph, NucleusSpace, CSRSpace],
    r: Optional[int] = None,
    s: Optional[int] = None,
    *,
    max_iterations: Optional[int] = None,
    record_history: bool = False,
    reference_kappa: Optional[List[int]] = None,
    on_iteration: Optional[Callable[[int, List[int]], None]] = None,
) -> DecompositionResult:
    """Run the synchronous local algorithm until convergence.

    Parameters
    ----------
    source:
        A :class:`NucleusSpace` runs this module's kernel over the tuple/set
        structure.  Anything else :func:`repro.core.csr.resolve_space`
        accepts (a :class:`CSRSpace`, a graph with ``r, s``, an opened
        bundle) runs :func:`repro.core.csr.snd_decomposition_csr` over flat
        arrays (the AND's pass kernel, one Jacobi step per pass).  κ,
        iterations, history and stats are identical either way.
    max_iterations:
        Optional cap; if hit before the fixed point the result has
        ``converged=False`` and carries the current τ estimates as ``kappa``.
        This is the knob behind the accuracy/runtime trade-off experiments.
    record_history:
        Record the full τ vector after every iteration (τ_0 included) in
        ``result.tau_history``.
    reference_kappa:
        Optional exact κ values; when given, per-iteration stats include the
        number of r-cliques that already match the exact answer.
    on_iteration:
        Optional callback ``f(iteration, tau)`` invoked after each iteration,
        used by the experiment harness to compute online metrics without
        storing full histories.

    Returns
    -------
    DecompositionResult
    """
    space = resolve_space(source, r, s)
    if isinstance(space, CSRSpace):
        return snd_decomposition_csr(
            space,
            max_iterations=max_iterations,
            record_history=record_history,
            reference_kappa=reference_kappa,
            on_iteration=on_iteration,
        )
    tau = space.s_degrees()
    n = len(space)
    history: Optional[List[List[int]]] = [list(tau)] if record_history else None
    stats: List[IterationStats] = []
    rho_evaluations = 0
    h_calls = 0

    iteration = 0
    converged = n == 0
    while not converged:
        if max_iterations is not None and iteration >= max_iterations:
            break
        iteration += 1
        previous = tau
        tau = [0] * n
        updated = 0
        max_change = 0
        for i in range(n):
            rho_values = []
            for others in space.contexts(i):
                rho = min(previous[o] for o in others) if others else 0
                rho_values.append(rho)
                rho_evaluations += 1
            new_value = h_index(rho_values)
            h_calls += 1
            tau[i] = new_value
            if new_value != previous[i]:
                updated += 1
                max_change = max(max_change, previous[i] - new_value)
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
                processed=n,
                skipped=0,
                max_change=max_change,
                converged_count=converged_count,
            )
        )

    return DecompositionResult.from_space(
        space,
        algorithm="snd",
        kappa=tau,
        iterations=iteration,
        converged=converged,
        tau_history=history,
        iteration_stats=stats,
        operations={
            "rho_evaluations": rho_evaluations,
            "h_index_calls": h_calls,
            "backend": "dict",
        },
    )


def snd_iterations(
    space: NucleusSpace, max_iterations: int
) -> List[List[int]]:
    """Convenience helper returning [τ_0, τ_1, ..., τ_max_iterations].

    Stops early (and returns a shorter list) if the fixed point is reached.
    """
    result = snd_decomposition(
        space, max_iterations=max_iterations, record_history=True
    )
    assert result.tau_history is not None
    return result.tau_history
