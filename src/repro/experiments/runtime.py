"""E6 — Figure 7 / runtime table: peeling vs SND vs AND at full convergence.

The paper's runtime comparison shows that at a small number of threads the
local algorithms are comparable to (or slower than) peeling, but their
scalability and early-termination ability make them preferable.  We report,
per dataset and instance:

* wall-clock seconds of each algorithm on the scaled-down stand-ins,
* the algorithm-specific work counters (degree decrements for peeling,
  ρ evaluations for SND/AND) which are hardware-independent and therefore
  the more meaningful cross-check of the "who does more work" shape, and
* the AND/SND work ratio (AND should do strictly less work thanks to fresher
  values and the notification mechanism).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.core.asynd import and_decomposition
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table

__all__ = ["run_runtime_comparison", "format_runtime_comparison"]


def run_runtime_comparison(
    datasets: Sequence[str],
    instances: Sequence[Tuple[int, int]] = ((1, 2), (2, 3)),
) -> List[Dict[str, object]]:
    """One row per (dataset, r, s) with runtimes and work counters.

    Every row runs on a :class:`NucleusSpace`, so every algorithm runs its
    dict kernel: this experiment compares the *algorithmic work* counters
    across algorithms, and the CSR kernels charge ``rho_evaluations`` /
    ``h_index_calls`` differently (early exits, τ=0 skips) and peel in
    level-synchronous batches, which would break comparability with the
    paper's figures.
    """
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        for r, s in instances:
            space = NucleusSpace(graph, r, s)

            start = time.perf_counter()
            peel = peeling_decomposition(space)
            peel_seconds = time.perf_counter() - start

            start = time.perf_counter()
            snd = snd_decomposition(space)
            snd_seconds = time.perf_counter() - start

            start = time.perf_counter()
            asynchronous = and_decomposition(space)
            and_seconds = time.perf_counter() - start

            snd_work = snd.operations.get("rho_evaluations", 0)
            and_work = asynchronous.operations.get("rho_evaluations", 0)
            rows.append(
                {
                    "dataset": dataset,
                    "r": r,
                    "s": s,
                    "r_cliques": len(space),
                    "peel_seconds": round(peel_seconds, 4),
                    "snd_seconds": round(snd_seconds, 4),
                    "and_seconds": round(and_seconds, 4),
                    "peel_work": peel.operations.get("degree_decrements", 0),
                    "snd_work": snd_work,
                    "and_work": and_work,
                    "and_over_snd_work": round(and_work / max(snd_work, 1), 3),
                    "snd_iters": snd.iterations,
                    "and_iters": asynchronous.iterations,
                }
            )
    return rows


def format_runtime_comparison(rows: Sequence[Dict[str, object]]) -> str:
    """Render the runtime comparison as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "r_cliques",
            "peel_seconds",
            "snd_seconds",
            "and_seconds",
            "peel_work",
            "snd_work",
            "and_work",
            "and_over_snd_work",
            "snd_iters",
            "and_iters",
        ],
        title="Figure 7 — full-convergence runtime and work: peeling vs SND vs AND",
    )
