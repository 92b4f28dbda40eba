"""E3 — Table 4: iterations to converge vs the degree-level upper bound.

For every dataset and decomposition instance the paper reports how many
iterations SND and AND need to reach the exact decomposition, and shows that
the degree-level bound of Section 3.1 is much tighter than the trivial
|R(G)| bound.  AND is run with several processing orders to expose the
best-case (κ order, Theorem 4: one iteration) / worst-case spread.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.asynd import and_decomposition
from repro.core.levels import convergence_upper_bound
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = ["run_iteration_counts", "format_iteration_counts"]


def run_iteration_counts(
    datasets: Sequence[str],
    instances: Sequence[Tuple[int, int]] = ((1, 2), (2, 3)),
    *,
    include_bound: bool = True,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """One row per (dataset, r, s) with iteration counts and bounds.

    Columns: number of r-cliques (the trivial bound), the degree-level upper
    bound, SND iterations, AND iterations under the natural order, a random
    order, and the best-case κ order.
    """
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        for r, s in instances:
            space = NucleusSpace(graph, r, s)
            snd_result = snd_decomposition(space.to_csr())
            and_natural = and_decomposition(space, order="natural")
            and_random = and_decomposition(space, order="random", seed=seed)
            and_best = and_decomposition(space.to_csr(), order="peel")
            row: Dict[str, object] = {
                "dataset": dataset,
                "r": r,
                "s": s,
                "r_cliques": len(space),
                "snd_iters": snd_result.iterations,
                "and_iters": and_natural.iterations,
                "and_random_iters": and_random.iterations,
                "and_best_iters": and_best.iterations,
            }
            if include_bound:
                row["level_bound"] = convergence_upper_bound(space)
            rows.append(row)
    return rows


def format_iteration_counts(rows: Sequence[Dict[str, object]]) -> str:
    """Render the Table 4 reproduction as text."""
    columns = [
        "dataset",
        "r",
        "s",
        "r_cliques",
        "level_bound",
        "snd_iters",
        "and_iters",
        "and_random_iters",
        "and_best_iters",
    ]
    present = [c for c in columns if rows and c in rows[0]]
    return format_table(
        rows,
        columns=present,
        title="Table 4 — iterations to convergence vs the degree-level bound",
    )
