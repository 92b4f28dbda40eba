"""Simulated scalability experiments (Figure 1b).

:func:`simulate_local_scalability` / :func:`simulate_peeling_scalability`
are the cost models behind experiment E5: how the local algorithms and the
(only partially parallelisable) peeling baseline scale with the number of
threads.  Real multi-core runs live in :mod:`repro.parallel.procpool`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.space import NucleusSpace
from repro.parallel.scheduler import ScheduleReport, SimulatedScheduler

__all__ = [
    "simulate_local_scalability",
    "simulate_peeling_scalability",
]


def simulate_local_scalability(
    space: NucleusSpace,
    thread_counts: Sequence[int],
    *,
    policy: str = "dynamic",
    chunk_size: int = 1,
    iterations: Optional[int] = None,
) -> Dict[int, ScheduleReport]:
    """Simulated speedups of the local (SND/AND-style) computation.

    The cost of updating r-clique ``R`` is its S-degree (one ρ evaluation per
    containing s-clique).  An iteration schedules all updates; ``iterations``
    iterations (default: the structural upper bound of 1, i.e. a single
    representative iteration) are summed.  Because every iteration schedules
    the same task multiset, one representative iteration captures the scaling
    shape; the report's speedup is what experiment E5 plots.
    """
    costs = [max(d, 1) for d in space.s_degrees()]
    if iterations is not None and iterations > 1:
        costs = costs * iterations
    reports: Dict[int, ScheduleReport] = {}
    for p in thread_counts:
        scheduler = SimulatedScheduler(p, policy=policy, chunk_size=chunk_size)
        reports[p] = scheduler.schedule(costs)
    return reports


def simulate_peeling_scalability(
    space: NucleusSpace,
    thread_counts: Sequence[int],
    *,
    kappa: Optional[List[int]] = None,
    sync_cost: int = 8,
) -> Dict[int, ScheduleReport]:
    """Simulated speedups of a *partially parallel* peeling baseline.

    Parallel peeling proceeds in synchronous waves: all r-cliques of minimum
    current degree are removed together, degrees are updated, and a global
    barrier separates one wave from the next.  Work inside a wave is divided
    among threads, but the waves themselves are a sequential critical path
    and every barrier costs ``sync_cost`` units, so the speedup saturates —
    that contrast with the barrier-free local algorithms is the point of the
    experiment (Figure 1b).

    The waves are exactly the *degree levels* of Section 3.1 (each level is
    one removal wave); a wave's work is the sum of the S-degrees of its
    members (the neighbour updates its removals trigger).

    ``kappa`` is accepted for interface compatibility but unused — the waves
    are structural, not κ-dependent.
    """
    del kappa  # waves come from the degree levels, not the kappa values
    from repro.core.levels import degree_levels

    levels = degree_levels(space)
    degrees = space.s_degrees()
    wave_work = [sum(max(degrees[i], 1) for i in level) for level in levels]
    total_work = sum(wave_work)
    reports: Dict[int, ScheduleReport] = {}
    for p in thread_counts:
        makespan = 0
        for work in wave_work:
            makespan += -(-work // p) + sync_cost  # ceil division + barrier
        reports[p] = ScheduleReport(
            num_threads=p,
            policy="peeling-waves",
            total_work=total_work,
            makespan=makespan,
            per_thread_work=[makespan] * p,
        )
    return reports
