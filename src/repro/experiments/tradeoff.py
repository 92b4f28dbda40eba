"""E7 — Figure 9: accuracy / runtime trade-off of early termination.

Because the intermediate τ vectors of the local algorithms are global
approximations of the exact decomposition (unlike the peeling process, whose
intermediate state says nothing about the densest regions), stopping after a
fraction of the iterations trades accuracy for time.  The paper plots
accuracy against the fraction of full runtime; we reproduce the series by
capping ``max_iterations`` and measuring both accuracy and the fraction of
the full-convergence work that was spent.
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

__all__ = ["run_tradeoff", "format_tradeoff"]


def run_tradeoff(
    dataset: str,
    r: int = 2,
    s: int = 3,
    *,
    algorithm: str = "snd",
    iteration_caps: Optional[Sequence[int]] = None,
) -> List[Dict[str, object]]:
    """Accuracy and relative work for several early-termination points.

    ``iteration_caps`` defaults to 1, 2, 3, 5, 8, 12 and the full run.  Work
    is measured in ρ evaluations and reported as a fraction of the
    full-convergence work of the same algorithm, which is the x-axis of the
    paper's trade-off figure (our proxy for relative runtime).
    """
    graph = load_dataset(dataset)
    space = NucleusSpace(graph, r, s)
    exact = peeling_decomposition(space.to_csr()).kappa

    runner = snd_decomposition if algorithm == "snd" else and_decomposition
    # the dict kernels run on the NucleusSpace: the work axis is
    # rho_evaluations, which the CSR kernels charge differently (they skip
    # and early-exit)
    full = runner(space)
    full_work = max(full.operations.get("rho_evaluations", 1), 1)
    caps = list(iteration_caps) if iteration_caps is not None else [1, 2, 3, 5, 8, 12]
    caps = [c for c in caps if c < full.iterations] + [full.iterations]

    rows: List[Dict[str, object]] = []
    for cap in caps:
        partial = runner(space, max_iterations=cap)
        report = accuracy_report(partial.kappa, exact)
        work = partial.operations.get("rho_evaluations", 0)
        rows.append(
            {
                "dataset": dataset,
                "r": r,
                "s": s,
                "algorithm": algorithm,
                "iterations": cap,
                "work_fraction": round(work / full_work, 4),
                "kendall_tau": round(report["kendall_tau"], 4),
                "exact_fraction": round(report["exact_fraction"], 4),
                "mean_abs_error": round(report["mean_absolute_error"], 4),
                "converged": partial.converged,
            }
        )
    return rows


def format_tradeoff(rows: Sequence[Dict[str, object]]) -> str:
    """Render the accuracy/runtime trade-off series as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "algorithm",
            "iterations",
            "work_fraction",
            "kendall_tau",
            "exact_fraction",
            "mean_abs_error",
            "converged",
        ],
        title="Figure 9 — accuracy vs work (early termination of the local algorithms)",
    )
