"""E9 — the online quality metric for informed early stopping.

The paper proposes a practical metric that approximates solution quality
*without knowing the exact decomposition*, so a user can decide when the
accuracy/runtime trade-off is good enough.  The natural observable is the
stability of the τ vector: the fraction of r-cliques whose τ did not change
in the latest iteration (equivalently 1 - update rate).  This experiment
measures how well that observable tracks the true (hidden) accuracy by
reporting, per iteration, both the stability metric and the true Kendall-Tau
/ exact-match fraction, plus their rank correlation over the whole run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.csr import CSRSpace
from repro.core.metrics import accuracy_report, kendall_tau
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = ["run_quality_metric", "format_quality_metric"]


def run_quality_metric(dataset: str, r: int = 2, s: int = 3) -> Dict[str, object]:
    """Per-iteration stability vs true accuracy, plus their correlation.

    Returns ``{"rows": [...], "correlation": float}`` where ``correlation``
    is the Kendall-Tau between the stability series and the true
    exact-fraction series — high correlation means stability is a trustworthy
    stand-in for accuracy, which is the claim behind the paper's metric.
    All comparisons are index-aligned over one :class:`CSRSpace`.
    """
    graph = load_dataset(dataset)
    space = CSRSpace.from_graph(graph, r, s)
    exact = peeling_decomposition(space).kappa
    result = snd_decomposition(space, record_history=True, reference_kappa=exact)
    history = result.tau_history or []
    n = max(len(space), 1)

    rows: List[Dict[str, object]] = []
    stability_series: List[float] = []
    accuracy_series: List[float] = []
    for stat in result.iteration_stats:
        tau = history[stat.iteration] if stat.iteration < len(history) else result.kappa
        report = accuracy_report(tau, exact)
        stability = 1.0 - stat.updated / n
        stability_series.append(stability)
        accuracy_series.append(report["exact_fraction"])
        rows.append(
            {
                "dataset": dataset,
                "iteration": stat.iteration,
                "stability": round(stability, 4),
                "true_exact_fraction": round(report["exact_fraction"], 4),
                "true_kendall_tau": round(report["kendall_tau"], 4),
            }
        )

    correlation = _rank_correlation(stability_series, accuracy_series)
    return {"rows": rows, "correlation": correlation}


def _rank_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall-Tau between two float series (scaled to ints to reuse the metric)."""
    if len(a) < 2:
        return 1.0
    scaled_a = [int(round(x * 10_000)) for x in a]
    scaled_b = [int(round(x * 10_000)) for x in b]
    return kendall_tau(scaled_a, scaled_b)


def format_quality_metric(payload: Dict[str, object]) -> str:
    """Render the stability-vs-accuracy table plus the correlation footer."""
    table = format_table(
        payload["rows"],
        columns=[
            "dataset",
            "iteration",
            "stability",
            "true_exact_fraction",
            "true_kendall_tau",
        ],
        title="Quality metric — τ stability as a proxy for accuracy",
    )
    return table + f"\nstability/accuracy Kendall-Tau: {payload['correlation']:.4f}"
