"""Command-line interface: ``python -m repro <command>`` or the ``repro`` script.

Commands map one-to-one onto the experiment modules so every table and figure
of the paper can be regenerated from the shell:

* ``repro datasets``      — Table 3 (dataset statistics)
* ``repro convergence``   — Figure 1a / 6 (Kendall-Tau vs iterations)
* ``repro iterations``    — Table 4 (iterations vs the degree-level bound)
* ``repro plateaus``      — Figure 5 (τ plateaus, notification savings)
* ``repro scalability``   — Figure 1b / 8 (speedup vs threads)
* ``repro runtime``       — Figure 7 (peeling vs SND vs AND)
* ``repro tradeoff``      — Figure 9 (accuracy vs work)
* ``repro query``         — query-driven estimation accuracy
* ``repro quality``       — the online quality metric
* ``repro decompose``     — run one decomposition on a dataset and print a summary
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.csr import resolve_space
from repro.core.decomposition import nucleus_decomposition
from repro.core.densest import best_nucleus
from repro.core.hierarchy import NucleusHierarchy, build_hierarchy
from repro.datasets.registry import dataset_names, load_dataset
from repro.experiments import tables
from repro.experiments.convergence import format_convergence, run_convergence_suite
from repro.experiments.datasets_table import format_datasets_table, run_datasets_table
from repro.experiments.iterations import format_iteration_counts, run_iteration_counts
from repro.experiments.plateaus import (
    format_notification_savings,
    format_tau_traces,
    run_notification_savings,
    run_tau_traces,
)
from repro.experiments.quality_metric import format_quality_metric, run_quality_metric
from repro.experiments.query_driven import format_query_driven, run_query_driven_suite
from repro.experiments.runtime import format_runtime_comparison, run_runtime_comparison
from repro.experiments.scalability import (
    format_measured_scalability,
    format_scalability,
    run_measured_scalability,
    run_scalability,
)
from repro.experiments.tradeoff import format_tradeoff, run_tradeoff
from repro.graph.io import read_edge_list_arrays

__all__ = ["main", "build_parser"]

SMALL_DATASETS = ("fb", "tw", "sse")
MEDIUM_DATASETS = ("fb", "tw", "sse", "wgo", "wnd")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Local Algorithms for "
        "Hierarchical Dense Subgraph Discovery'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="Table 3: dataset statistics")

    conv = sub.add_parser("convergence", help="Figure 1a/6: convergence rates")
    conv.add_argument("--datasets", nargs="+", default=list(SMALL_DATASETS))
    conv.add_argument("--algorithm", choices=["snd", "and"], default="snd")
    conv.add_argument("--max-iterations", type=int, default=16)

    iters = sub.add_parser("iterations", help="Table 4: iteration counts and bounds")
    iters.add_argument("--datasets", nargs="+", default=list(SMALL_DATASETS))

    plat = sub.add_parser("plateaus", help="Figure 5: plateaus and notification savings")
    plat.add_argument("--dataset", default="fb")

    scal = sub.add_parser("scalability", help="Figure 1b/8: speedup vs threads")
    scal.add_argument("--datasets", nargs="+", default=list(MEDIUM_DATASETS))
    scal.add_argument("--threads", nargs="+", type=int, default=[1, 4, 6, 12, 24])
    scal.add_argument(
        "--measured",
        action="store_true",
        help="time the real shared-memory process pool instead of the "
        "deterministic scheduling cost model",
    )
    scal.add_argument(
        "--workers",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        help="worker-process counts for --measured (speedup is relative to "
        "the first count)",
    )

    runt = sub.add_parser("runtime", help="Figure 7: peeling vs SND vs AND")
    runt.add_argument("--datasets", nargs="+", default=list(SMALL_DATASETS))

    trade = sub.add_parser("tradeoff", help="Figure 9: accuracy vs work")
    trade.add_argument("--dataset", default="fb")
    trade.add_argument("--algorithm", choices=["snd", "and"], default="snd")

    query = sub.add_parser("query", help="Query-driven estimation accuracy")
    query.add_argument("--dataset", default="fb")
    query.add_argument(
        "--edge-list",
        metavar="PATH",
        default=None,
        help="run on an edge-list file instead of a named dataset "
        "(.gz/.bz2 transparently decompressed; ingested straight into the "
        "array-native CSRGraph)",
    )

    qual = sub.add_parser("quality", help="Online quality metric")
    qual.add_argument("--dataset", default="fb")

    dec = sub.add_parser("decompose", help="Run one decomposition and print a summary")
    dec.add_argument("--dataset", default="fb", choices=dataset_names())
    dec.add_argument(
        "--edge-list",
        metavar="PATH",
        default=None,
        help="decompose an edge-list file instead of a named dataset "
        "(.gz/.bz2 transparently decompressed; ingested straight into the "
        "array-native CSRGraph)",
    )
    dec.add_argument("--r", type=int, default=1)
    dec.add_argument("--s", type=int, default=2)
    dec.add_argument(
        "--algorithm", choices=["peeling", "snd", "and"], default="and"
    )
    dec.add_argument(
        "--parallel",
        choices=["process"],
        default=None,
        help="run AND on a pool: 'process' shares the CSR buffers across "
        "worker processes (real multi-core; the space is built serially "
        "first)",
    )
    dec.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --parallel (default 4); requires --parallel",
    )
    dec.add_argument(
        "--resilient",
        action="store_true",
        help="run --parallel process under the supervised pool: per-job "
        "deadlines, bounded retries with pool rebuild, serial fallback "
        "(same kappa), orphaned shared-memory reaping; prints the "
        "resilience event counters (see docs/RESILIENCE.md)",
    )
    dec.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline for --resilient (default: none)",
    )
    dec.add_argument(
        "--hierarchy",
        action="store_true",
        help="also build and print the nucleus hierarchy from the in-memory "
        "result (no second decomposition)",
    )
    dec.add_argument(
        "--densest",
        action="store_true",
        help="also report the densest nucleus of the hierarchy (implies "
        "building the hierarchy from the in-memory result)",
    )
    dec.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="persist the run as an on-disk bundle (graph, CSR space, "
        "kappa result and hierarchy interval index; see docs/FORMAT.md) "
        "for instant reopening with --load",
    )
    dec.add_argument(
        "--load",
        metavar="DIR",
        default=None,
        help="reopen a bundle saved with --save and serve the summary from "
        "its memmapped buffers — parse, enumeration and decomposition are "
        "all skipped; --r/--s/--algorithm come from the bundle",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "decompose" and args.workers is not None and args.parallel is None:
        # a silently discarded worker count looks like a slow parallel run;
        # fail loudly instead
        parser.error("--workers requires --parallel process")
    if args.command == "decompose" and args.parallel and args.algorithm != "and":
        parser.error("--parallel process runs --algorithm and only")
    if args.command == "decompose" and args.parallel != "process":
        if args.resilient:
            parser.error("--resilient requires --parallel process")
        if args.job_timeout is not None:
            parser.error("--job-timeout requires --resilient")
    if (
        args.command == "decompose"
        and args.job_timeout is not None
        and not args.resilient
    ):
        parser.error("--job-timeout requires --resilient")
    if args.command == "decompose" and args.load is not None:
        if args.save is not None:
            parser.error("--load and --save are mutually exclusive")
        if args.edge_list is not None:
            parser.error("--load replaces the input; drop --edge-list")
        if args.parallel is not None:
            parser.error("--load skips the decomposition; drop --parallel")

    if args.command == "datasets":
        print(format_datasets_table(run_datasets_table()))
    elif args.command == "convergence":
        rows = run_convergence_suite(
            args.datasets,
            algorithm=args.algorithm,
            max_iterations=args.max_iterations,
        )
        print(format_convergence(rows))
    elif args.command == "iterations":
        print(format_iteration_counts(run_iteration_counts(args.datasets)))
    elif args.command == "plateaus":
        print(format_tau_traces(run_tau_traces(args.dataset)))
        print()
        print(format_notification_savings(run_notification_savings(args.dataset)))
    elif args.command == "scalability":
        if args.measured:
            print(
                format_measured_scalability(
                    run_measured_scalability(
                        args.datasets,
                        worker_counts=args.workers,
                    )
                )
            )
        else:
            print(format_scalability(run_scalability(args.datasets, thread_counts=args.threads)))
    elif args.command == "runtime":
        print(format_runtime_comparison(run_runtime_comparison(args.datasets)))
    elif args.command == "tradeoff":
        print(format_tradeoff(run_tradeoff(args.dataset, algorithm=args.algorithm)))
    elif args.command == "query":
        print(
            format_query_driven(
                run_query_driven_suite(
                    args.dataset,
                    graph=(
                        read_edge_list_arrays(args.edge_list)
                        if args.edge_list
                        else None
                    ),
                )
            )
        )
    elif args.command == "quality":
        print(format_quality_metric(run_quality_metric(args.dataset)))
    elif args.command == "decompose":
        _run_decompose(args)
    else:  # pragma: no cover - argparse enforces valid commands
        parser.error(f"unknown command {args.command!r}")
    return 0


def _run_decompose(args: argparse.Namespace) -> None:
    if args.load:
        _run_decompose_loaded(args)
        return
    if args.edge_list:
        # ingested straight into a CSRGraph: no dict adjacency is built
        graph = read_edge_list_arrays(args.edge_list)
    else:
        # a registry dataset is a dict Graph; `CSRSpace.from_graph` converts
        # it to a CSRGraph first, so it gives the same space (and output) as
        # the same graph read from an edge list
        graph = load_dataset(args.dataset)
    # the applications (--hierarchy / --densest) run on the same space and
    # the same in-memory result as the decomposition — no dict round-trip
    # and no second decomposition — so the whole pipeline is fed from one
    # CSRSpace.from_graph construction.
    run_applications = args.hierarchy or args.densest
    # --save persists the space and the hierarchy interval index alongside
    # the result, so both must exist even when no application was requested
    need_space = run_applications or args.save is not None
    space = None
    source = graph
    if need_space:
        space = source = resolve_space(graph, args.r, args.s)
    resilience = None
    if args.resilient:
        resilience = (
            {"job_timeout": args.job_timeout}
            if args.job_timeout is not None
            else True
        )
    result = nucleus_decomposition(
        source,
        args.r,
        args.s,
        algorithm=args.algorithm,
        parallel=args.parallel,
        workers=args.workers,
        resilience=resilience,
    )
    print(result.summary())
    events = result.operations.get("resilience")
    if events is not None:
        print(
            "resilience: attempts={attempts} retries={retries} "
            "rebuilds={rebuilds} fallbacks={fallbacks} "
            "reaped_segments={reaped_segments} fallback={fallback}".format(
                **events
            )
        )
    histogram_rows = [
        {"kappa": k, "r_cliques": count}
        for k, count in result.kappa_histogram().items()
    ]
    print(tables.format_table(histogram_rows, title="kappa histogram"))
    hierarchy = None
    if need_space:
        hierarchy = build_hierarchy(space, result)
    if args.hierarchy:
        print(tables.format_table(hierarchy.to_rows(), title="nucleus hierarchy"))
    if args.densest:
        nucleus, density = best_nucleus(graph, args.r, args.s, hierarchy=hierarchy)
        if nucleus is None:
            print("densest nucleus: none (no nucleus meets the size threshold)")
        else:
            print(
                f"densest nucleus: k={nucleus.k} with "
                f"{len(nucleus.vertices)} vertices, "
                f"{len(nucleus.clique_indices)} r-cliques, "
                f"edge density {density:.4f}"
            )
    if args.save:
        from repro.store import save_bundle

        path = save_bundle(
            args.save, graph=graph, space=space, result=result, hierarchy=hierarchy
        )
        print(f"saved bundle: {path}")


def _run_decompose_loaded(args: argparse.Namespace) -> None:
    """Serve ``decompose --load`` entirely from a stored bundle.

    No parsing, enumeration or decomposition happens: the summary and the
    κ histogram come off the memmapped result, and the applications
    (--hierarchy / --densest) reuse the memmapped space, the stored
    result and the stored hierarchy index (built afresh only when the
    bundle holds none).  The instance (r, s) and algorithm are whatever
    was saved; --r/--s/--algorithm on the command line are ignored.
    """
    from repro.store import open_bundle

    bundle = open_bundle(args.load)
    result = bundle.result
    print(f"[loaded {bundle.summary()}]")
    print(result.summary())
    histogram_rows = [
        {"kappa": k, "r_cliques": count}
        for k, count in result.kappa_histogram().items()
    ]
    print(tables.format_table(histogram_rows, title="kappa histogram"))
    if args.hierarchy or args.densest:
        hierarchy = (
            NucleusHierarchy.from_index(bundle.space, result, bundle.index)
            if bundle.has("index")
            else build_hierarchy(bundle.space, result)
        )
        if args.hierarchy:
            print(tables.format_table(hierarchy.to_rows(), title="nucleus hierarchy"))
        if args.densest:
            nucleus, density = best_nucleus(
                bundle.graph, result.r, result.s, hierarchy=hierarchy
            )
            if nucleus is None:
                print("densest nucleus: none (no nucleus meets the size threshold)")
            else:
                print(
                    f"densest nucleus: k={nucleus.k} with "
                    f"{len(nucleus.vertices)} vertices, "
                    f"{len(nucleus.clique_indices)} r-cliques, "
                    f"edge density {density:.4f}"
                )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
