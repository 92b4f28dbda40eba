"""E4 — Figure 5: τ plateaus and the notification mechanism.

Figure 5 of the paper tracks the τ indices of individual edges during the
k-truss convergence on the facebook graph and shows long plateaus where the
value does not change — which is exactly the redundant work the notification
mechanism eliminates.  This module reproduces both halves:

* :func:`run_tau_traces` — the τ trajectory of the edges with the largest
  initial triangle counts (the "top lines" of Figure 5), plus plateau
  statistics across all edges.
* :func:`run_notification_savings` — processed / skipped counts per
  iteration with the notification mechanism on and off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.asynd import and_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = [
    "run_tau_traces",
    "run_notification_savings",
    "format_tau_traces",
    "format_notification_savings",
]


def run_tau_traces(
    dataset: str = "fb",
    r: int = 2,
    s: int = 3,
    *,
    num_tracked: int = 8,
    max_iterations: Optional[int] = None,
) -> Dict[str, object]:
    """τ trajectories of the highest-degree r-cliques plus plateau statistics.

    Returns a dict with:

    * ``traces`` — rows ``{clique, iteration, tau}`` for the tracked cliques,
    * ``plateau_stats`` — rows per r-clique decile with the mean number of
      iterations spent on plateaus (value unchanged but not yet final).
    """
    graph = load_dataset(dataset)
    space = NucleusSpace(graph, r, s)
    result = snd_decomposition(
        space.to_csr(), record_history=True, max_iterations=max_iterations
    )
    history = result.tau_history or []
    n = len(space)
    degrees = space.s_degrees()
    tracked = sorted(range(n), key=lambda i: -degrees[i])[:num_tracked]

    traces: List[Dict[str, object]] = []
    for i in tracked:
        for iteration, tau in enumerate(history):
            traces.append(
                {
                    "clique": str(space.cliques[i]),
                    "iteration": iteration,
                    "tau": tau[i],
                }
            )

    plateau_rows = _plateau_statistics(history, n)
    return {"traces": traces, "plateau_stats": plateau_rows, "iterations": result.iterations}


def _plateau_statistics(history: List[List[int]], n: int) -> List[Dict[str, object]]:
    """Mean plateau length (iterations spent at a non-final constant value)."""
    if not history or n == 0:
        return []
    total_plateau = 0
    total_final_wait = 0
    converged_at = [0] * n
    for i in range(n):
        # first iteration after which the value never changes again
        last_change = 0
        for t in range(1, len(history)):
            if history[t][i] != history[t - 1][i]:
                last_change = t
        converged_at[i] = last_change
        # plateau iterations: steps where value stayed the same but later changed
        for t in range(1, last_change + 1):
            if history[t][i] == history[t - 1][i]:
                total_plateau += 1
        total_final_wait += (len(history) - 1) - last_change
    return [
        {
            "r_cliques": n,
            "iterations": len(history) - 1,
            "mean_intermediate_plateau": round(total_plateau / n, 3),
            "mean_final_plateau": round(total_final_wait / n, 3),
            "mean_convergence_iteration": round(sum(converged_at) / n, 3),
        }
    ]


def run_notification_savings(
    dataset: str = "fb",
    r: int = 2,
    s: int = 3,
) -> List[Dict[str, object]]:
    """Per-iteration processed/skipped counts with and without notification.

    The explicit ``order`` runs the per-visit loop (the paper's Algorithm 3
    schedule); the batched kernel would count a whole frontier pass.
    """
    graph = load_dataset(dataset)
    space = NucleusSpace(graph, r, s)
    rows: List[Dict[str, object]] = []
    for notification in (False, True):
        result = and_decomposition(
            space, notification=notification, order="natural"
        )
        label = "on" if notification else "off"
        total_processed = sum(stat.processed for stat in result.iteration_stats)
        total_skipped = sum(stat.skipped for stat in result.iteration_stats)
        for stat in result.iteration_stats:
            rows.append(
                {
                    "dataset": dataset,
                    "notification": label,
                    "iteration": stat.iteration,
                    "processed": stat.processed,
                    "skipped": stat.skipped,
                    "updated": stat.updated,
                }
            )
        rows.append(
            {
                "dataset": dataset,
                "notification": label,
                "iteration": "total",
                "processed": total_processed,
                "skipped": total_skipped,
                "updated": sum(s_.updated for s_ in result.iteration_stats),
            }
        )
    return rows


def format_tau_traces(payload: Dict[str, object]) -> str:
    """Render the plateau statistics (the quantitative half of Figure 5)."""
    return format_table(
        payload["plateau_stats"],
        title="Figure 5 — plateau statistics during k-truss convergence",
    )


def format_notification_savings(rows: Sequence[Dict[str, object]]) -> str:
    """Render the notification on/off comparison."""
    return format_table(
        rows,
        columns=["dataset", "notification", "iteration", "processed", "skipped", "updated"],
        title="Figure 5 (cont.) — work saved by the notification mechanism",
    )
