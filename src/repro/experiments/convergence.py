"""E2 — Figures 1a / 6: convergence rate of the local algorithms.

The paper plots the Kendall-Tau similarity between the decomposition obtained
after ``i`` iterations and the exact decomposition, as a function of ``i``,
showing that near-exact results are reached within ~10 iterations even though
full convergence can take longer.  This module reproduces that series for any
dataset and any (r, s) instance, for both SND and AND.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.asynd import and_decomposition
from repro.core.metrics import accuracy_report
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = ["run_convergence", "run_convergence_suite", "format_convergence"]


def run_convergence(
    dataset: str,
    r: int,
    s: int,
    *,
    algorithm: str = "snd",
    max_iterations: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Per-iteration accuracy of the local algorithm on one dataset.

    Returns one row per iteration with the Kendall-Tau score, the fraction of
    r-cliques whose estimate is already exact, and the mean absolute error —
    the series behind Figure 1a (x = iteration, y = Kendall-Tau).
    Iteration 0 is the initial state (τ_0 = S-degrees).
    """
    graph = load_dataset(dataset)
    space = NucleusSpace(graph, r, s)
    exact = peeling_decomposition(space.to_csr()).kappa

    rows: List[Dict[str, object]] = []

    def record(iteration: int, tau: Sequence[int]) -> None:
        report = accuracy_report(list(tau), exact)
        rows.append(
            {
                "dataset": dataset,
                "r": r,
                "s": s,
                "algorithm": algorithm,
                "iteration": iteration,
                "kendall_tau": report["kendall_tau"],
                "exact_fraction": report["exact_fraction"],
                "mean_abs_error": report["mean_absolute_error"],
            }
        )

    record(0, space.s_degrees())
    if algorithm == "snd":
        snd_decomposition(
            space.to_csr(), max_iterations=max_iterations, on_iteration=record
        )
    elif algorithm == "and":
        and_decomposition(
            space, max_iterations=max_iterations, on_iteration=record
        )
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return rows


def run_convergence_suite(
    datasets: Sequence[str],
    instances: Sequence[tuple] = ((1, 2), (2, 3)),
    *,
    algorithm: str = "snd",
    max_iterations: Optional[int] = 16,
) -> List[Dict[str, object]]:
    """Convergence series for several datasets and (r, s) instances."""
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        for r, s in instances:
            rows.extend(
                run_convergence(
                    dataset, r, s, algorithm=algorithm, max_iterations=max_iterations
                )
            )
    return rows


def format_convergence(rows: Sequence[Dict[str, object]]) -> str:
    """Render the convergence series as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "algorithm",
            "iteration",
            "kendall_tau",
            "exact_fraction",
            "mean_abs_error",
        ],
        title="Figure 1a / 6 — convergence of the local algorithms",
    )
