"""E5 — Figures 1b / 8: scalability with the number of threads.

The paper reports the speedup of the local algorithms at 4/6/12/24 threads
relative to a partially parallel peeling baseline, showing near-linear
scaling for the local algorithms because each r-clique update is independent
within an iteration, versus quickly saturating peeling whose rounds form a
sequential critical path.

CPython cannot demonstrate real multi-core speedups for pure-Python kernels,
so the speedups here come from the deterministic scheduling cost model in
:mod:`repro.parallel.scheduler` (substitution documented in DESIGN.md §3):
per-r-clique work = S-degree, static vs dynamic chunk scheduling for the
local algorithms, per-κ-round parallelism for peeling.  The *shape* —
local algorithms keep scaling, peeling flattens, dynamic beats static when
work is skewed — is the reproduced result.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.csr import CSRSpace
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.tables import format_table
from repro.parallel.procpool import PersistentPool
from repro.parallel.runner import (
    simulate_local_scalability,
    simulate_peeling_scalability,
)

__all__ = [
    "run_scalability",
    "format_scalability",
    "run_measured_scalability",
    "format_measured_scalability",
    "DEFAULT_THREAD_COUNTS",
    "DEFAULT_WORKER_COUNTS",
]

DEFAULT_THREAD_COUNTS: Tuple[int, ...] = (1, 4, 6, 12, 24)
DEFAULT_WORKER_COUNTS: Tuple[int, ...] = (1, 2, 4)


def run_scalability(
    datasets: Sequence[str],
    r: int = 2,
    s: int = 3,
    *,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    chunk_size: int = 1,
) -> List[Dict[str, object]]:
    """Simulated speedups for the local algorithm (static & dynamic) and peeling.

    Returns one row per (dataset, thread count) with the three speedups and
    the local/peeling speedup ratio (the headline comparison of Figure 1b).
    """
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        space = NucleusSpace(graph, r, s)
        # to_csr() keeps the dict space's clique indexing, so κ lines up
        # with the cliques the cost model walks
        kappa = peeling_decomposition(space.to_csr()).kappa
        local_dynamic = simulate_local_scalability(
            space, thread_counts, policy="dynamic", chunk_size=chunk_size
        )
        local_static = simulate_local_scalability(
            space, thread_counts, policy="static", chunk_size=chunk_size
        )
        peeling = simulate_peeling_scalability(space, thread_counts, kappa=kappa)
        for p in thread_counts:
            rows.append(
                {
                    "dataset": dataset,
                    "r": r,
                    "s": s,
                    "threads": p,
                    "local_dynamic_speedup": round(local_dynamic[p].speedup, 3),
                    "local_static_speedup": round(local_static[p].speedup, 3),
                    "peeling_speedup": round(peeling[p].speedup, 3),
                    "local_vs_peeling": round(
                        local_dynamic[p].speedup / max(peeling[p].speedup, 1e-9), 3
                    ),
                }
            )
    return rows


def run_measured_scalability(
    datasets: Sequence[str],
    r: int = 2,
    s: int = 3,
    *,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    repeats: int = 1,
    max_iterations: Optional[int] = None,
) -> List[Dict[str, object]]:
    """*Real* multi-core wall-clock speedups on the process-pool backend.

    Unlike :func:`run_scalability` (the deterministic cost model), this runs
    the shared-memory process pool of :mod:`repro.parallel.procpool` and
    times it: the CSR space is built once per dataset (directly, via
    :meth:`CSRSpace.from_graph`) and each worker count reuses one
    :class:`~repro.parallel.procpool.PersistentPool` — the workers are
    forked and the shared segments created **once per worker count**, not
    once per run, so the timed repeats measure the sweeps rather than the
    fork.  Each worker count runs the AND ``repeats`` times, keeping the
    best time.  Speedups are relative to the first worker count in
    ``worker_counts`` (conventionally 1).  The κ output is asserted
    identical across worker counts — a wrong answer computed quickly is not
    a speedup.
    """
    rows: List[Dict[str, object]] = []
    # the pool runs on CSR buffers anyway, so load the dataset as the
    # CSRGraph that CSRSpace.from_graph would convert a dict graph to
    # (the same space, without the conversion)
    for dataset in datasets:
        graph = load_dataset(dataset, representation="csr")
        space = CSRSpace.from_graph(graph, r, s)
        baseline: Optional[float] = None
        reference_kappa: Optional[List[int]] = None
        for workers in worker_counts:
            with PersistentPool(workers) as pool:
                # untimed warm-up call: binds the space (fork + segments)
                result = pool.run_and(space, max_iterations=max_iterations)
                best = float("inf")
                for _ in range(max(repeats, 1)):
                    t0 = time.perf_counter()
                    result = pool.run_and(space, max_iterations=max_iterations)
                    best = min(best, time.perf_counter() - t0)
            if reference_kappa is None:
                reference_kappa = result.kappa
            elif result.kappa != reference_kappa:
                raise AssertionError(
                    f"kappa mismatch at workers={workers} on {dataset!r}"
                )
            if baseline is None:
                baseline = best
            rows.append(
                {
                    "dataset": dataset,
                    "r": r,
                    "s": s,
                    "workers": workers,
                    "seconds": round(best, 4),
                    "speedup": round(baseline / best, 3) if best > 0 else 0.0,
                }
            )
    return rows


def format_measured_scalability(rows: Sequence[Dict[str, object]]) -> str:
    """Render the measured process-pool speedup series as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "workers",
            "seconds",
            "speedup",
        ],
        title="Figure 8 (measured) — process-pool AND wall-clock speedup vs workers",
    )


def format_scalability(rows: Sequence[Dict[str, object]]) -> str:
    """Render the scalability series as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "r",
            "s",
            "threads",
            "local_dynamic_speedup",
            "local_static_speedup",
            "peeling_speedup",
            "local_vs_peeling",
        ],
        title="Figure 1b / 8 — simulated speedup vs number of threads",
    )
