"""Workloads, operations, κ gate and traced layer tour of the pipeline benchmark.

Every workload runs the same serial round of operations on its own seeded
input, with its own query weight:

* ``pipeline``: edge-list file → (2, 3) κ → histogram → hierarchy → interval
  index → bundle on disk (the ``decompose --hierarchy --save`` flow).  Its
  prefix up to the converged κ is ``decompose_23_s``; the whole op is
  ``pipeline_s``.
* ``decompose34``: edge-list file → (3, 4) κ (``decompose_34_s``).
* ``query`` × ``queries``: one closed-loop client; each query takes one
  seeded edge, looks its stored κ up in a bundle (``lookup_ms``) and
  re-estimates it from the 1-hop ball (``query_ms``).

Every κ the program returns is compared, keyed by clique, with a peeling
oracle built during set-up.  A raised error or a wrong κ is a failed
operation.  The traced run (``trace=True``) alternates untraced rounds with a
tour that calls each layer's public functions one at a time and records a
span around every call.  The process pool runs in that tour only: on a
2-core shared host its end-to-end times spread too widely between runs to
be bounded (see NOTES.md).
"""

import gc
import importlib.util
import multiprocessing
import os
import platform
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.csr import CSRSpace
from repro.core.decomposition import nucleus_decomposition
from repro.core.hierarchy import build_hierarchy
from repro.core.peeling import peeling_decomposition
from repro.core.query import estimate_local_indices
from repro.graph.io import read_edge_list_arrays
from repro.parallel.procpool import PersistentPool
from repro.store import open_bundle, save_bundle

from graphs import Communities, PowerlawCluster, edge_list, write_edge_list

INSTANCES = ((2, 3), (3, 4))
SETUP_REPS = 3
# a run keeps going past --seconds until every metric has its samples, but
# stops measuring after this many seconds: with set-up before it and one
# operation in flight, a run still ends within 180 s
HARD_CAP_S = 120.0
# queries a run serves at least: 100 samples lie beyond the p90 latency
MIN_QUERIES = 1000
# query_exact_frac is taken over this prefix of the seeded query stream, so
# it does not depend on how many queries a run gets through
EXACT_PREFIX = 500


@dataclass(frozen=True)
class Workload:
    name: str
    graph: object  # a generator spec from graphs.py
    queries: int  # queries per round


# queries per round give each run well over MIN_QUERIES queries in 45 s;
# dense-communities rounds are longer, so it serves fewer per round
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "truss-pipeline",
            PowerlawCluster(10000, 8, 0.9),
            queries=250,
        ),
        Workload(
            "dense-communities",
            Communities(5000, 10, 40, 0.5, 2),
            queries=150,
        ),
    )
}


END_TO_END = {
    "setup_s": "s",
    "decompose_23_s": "s",
    "decompose_34_s": "s",
    "pipeline_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "lookup_ms_p50": "ms",
    "query_exact_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "io.read_s": "s",
    "csr_graph.orient_s": "s",
    "csr_graph.enumerate_s": "s",
    "csr_graph.s_cliques": "count",
    "csr.space_s": "s",
    "csr.space_bytes": "B",
    "csr.and_s": "s",
    "csr.iterations": "count",
    "csr.rho_evaluations": "count",
    "csr.h_index_calls": "count",
    "csr.skipped_cliques": "count",
    "csr.h_index_per_rho": "ratio",
    "peeling.s": "s",
    "result.summary_s": "s",
    "hierarchy.build_s": "s",
    "hierarchy.nuclei": "count",
    "intervals.build_s": "s",
    "store.save_s": "s",
    "store.bytes_written": "B",
    "store.open_ms": "ms",
    "store.lookup_ms": "ms",
    "store.lookup_ms_p99": "ms",
    "query.estimate_ms": "ms",
    "query.estimate_ms_p99": "ms",
    "query.ball_vertices": "count",
    "procpool.workers": "count",
    "procpool.build_s": "s",
    "procpool.and_s": "s",
    "procpool.close_s": "s",
    "procpool.forks": "count",
    "procpool.rebalances": "count",
    "procpool.serial_base_s": "s",
    "procpool.pool_base_s": "s",
    "procpool.speedup": "x",
    "trace.stage_sum_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metrics computed from others at the end of a traced run
DERIVED = ("store.lookup_ms_p99", "query.estimate_ms_p99", "trace.overhead_s")


def pool_workers() -> int:
    """Workers for the pool: every core this process may run on."""
    return len(os.sched_getaffinity(0))


def machine_context(workload: Workload) -> dict:
    """What a number from this run depends on besides the code."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "workload": workload.name,
        "graph": workload.graph.describe(),
        "nproc": os.cpu_count(),
        "usable_cores": pool_workers(),  # also the traced pool's workers
        "caches_per_core": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


# ----------------------------------------------------------------------
# κ oracle
# ----------------------------------------------------------------------
def _label_rows(cliques) -> np.ndarray:
    """``(m, r)`` vertex-label rows of a result's or space's cliques."""
    ids = getattr(cliques, "ids", None)
    if ids is not None:  # a lazy CliqueArrayView: no per-clique tuples
        rows = np.asarray(cliques.labels, dtype=np.int64)[np.asarray(ids)]
    else:
        rows = np.asarray(list(cliques), dtype=np.int64)
    return np.sort(rows, axis=1)


class Oracle:
    """Exact κ of one (r, s) instance from peeling, keyed by clique labels."""

    def __init__(self, result, base: int) -> None:
        self.base = base
        keys = self._pack(_label_rows(result.cliques))
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.kappa = np.asarray(result.kappa, dtype=np.int64)[order]
        if np.any(self.keys[1:] == self.keys[:-1]):
            raise ValueError("oracle clique table has duplicate rows")

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        keys = np.zeros(len(rows), dtype=np.int64)
        for column in range(rows.shape[1]):
            keys = keys * self.base + rows[:, column]
        return keys

    def matches(self, result) -> bool:
        """Whether ``result`` gives every clique exactly the oracle's κ."""
        keys = self._pack(_label_rows(result.cliques))
        order = np.argsort(keys, kind="stable")
        kappa = np.asarray(result.kappa, dtype=np.int64)
        return np.array_equal(keys[order], self.keys) and np.array_equal(
            kappa[order], self.kappa
        )

    def kappa_of(self, clique) -> int:
        key = self._pack(np.sort(np.asarray([clique], dtype=np.int64), axis=1))[0]
        at = int(np.searchsorted(self.keys, key))
        if at == len(self.keys) or self.keys[at] != key:
            raise KeyError(clique)
        return int(self.kappa[at])


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    path: Path
    oracles: Dict[Tuple[int, int], Oracle]
    edges: List[Tuple[int, int]]
    query_rng: random.Random  # the seeded stream of queried edges

    def next_queries(self, count: int) -> List[Tuple[int, int]]:
        """The next ``count`` edges of the query stream, drawn uniformly."""
        rng, edges = self.query_rng, self.edges
        return [edges[rng.randrange(len(edges))] for _ in range(count)]


def set_up(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate and write the input, build the peeling oracle."""
    root.mkdir(parents=True, exist_ok=True)
    edges = edge_list(workload.graph.generate(seed))
    path = root / "graph.txt"
    write_edge_list(edges, path)
    graph = read_edge_list_arrays(path)
    oracles = {
        (r, s): Oracle(
            peeling_decomposition(CSRSpace.from_graph(graph, r, s)), workload.graph.n
        )
        for r, s in INSTANCES
    }
    return Inputs(path, oracles, edges, random.Random(seed))


# ----------------------------------------------------------------------
# measurement state
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent span and round."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.round = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "round": self.round,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    @staticmethod
    def seconds(record: dict) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e9


@dataclass
class Tally:
    """Operations attempted and failed, and every failure's reason."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)

    def run(self, name: str, fn: Callable, check: Callable):
        """Run operation ``name``; ``None`` when it raised or ``check`` rejected it."""
        self.attempted += 1
        try:
            value = fn()
        except Exception as exc:  # any error is a failed operation, reported
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}"[-2000:])
            return None
        if not check(value):
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{name}: wrong kappa")
            return None
        return value


# ----------------------------------------------------------------------
# operations (untraced)
# ----------------------------------------------------------------------
def op_pipeline(inputs: Inputs, bundle_dir: Path):
    """File → bundle; returns (result, decompose seconds, pipeline seconds)."""
    t0 = time.perf_counter()
    graph = read_edge_list_arrays(inputs.path)
    space = CSRSpace.from_graph(graph, 2, 3)
    result = nucleus_decomposition(space, 2, 3)
    t1 = time.perf_counter()
    result.kappa_histogram()
    result.max_kappa()
    hierarchy = build_hierarchy(space, result)
    hierarchy.interval_index()
    save_bundle(bundle_dir, graph=graph, space=space, result=result, hierarchy=hierarchy)
    t2 = time.perf_counter()
    return result, t1 - t0, t2 - t0


def op_decompose_34(inputs: Inputs):
    """File → (3, 4) κ; returns (result, seconds)."""
    t0 = time.perf_counter()
    graph = read_edge_list_arrays(inputs.path)
    result = nucleus_decomposition(CSRSpace.from_graph(graph, 3, 4), 3, 4)
    return result, time.perf_counter() - t0


def _estimate(bundle, edge) -> Tuple[int, int]:
    """Local 1-hop κ estimate of ``edge`` and the size of its ball."""
    estimate = estimate_local_indices(bundle, [edge], 2, 3, hops=1)
    (value,) = estimate.values()
    return value, estimate.ball_size


def query_batch(
    inputs: Inputs, bundle, count: int, tally: Tally, sink: dict
) -> None:
    """Serve the next ``count`` queries; append times (ms) and exactness to ``sink``."""
    oracle = inputs.oracles[(2, 3)]
    for edge in inputs.next_queries(count):
        exact = oracle.kappa_of(edge)
        t0 = time.perf_counter()
        stored = tally.run("lookup", lambda: bundle.kappa_of(edge), lambda k: k == exact)
        t1 = time.perf_counter()
        # a ball is an induced subgraph, so its κ can never exceed the
        # whole graph's: a larger estimate is a wrong answer
        local = tally.run("estimate", lambda: _estimate(bundle, edge), lambda v: v[0] <= exact)
        t2 = time.perf_counter()
        if stored is not None:
            sink["lookup_ms"].append((t1 - t0) * 1e3)
        if local is not None:
            sink["query_ms"].append((t2 - t1) * 1e3)
            sink["exact"].append(local[0] == exact)
            sink["ball"].append(local[1])


def untraced_round(
    workload: Workload,
    inputs: Inputs,
    work: Path,
    tally: Tally,
    samples: dict,
    stop: Callable[[], bool],
) -> None:
    """One round of the workload's operations; ``stop`` is polled between them."""
    bundle_dir = work / "bundle"
    gc.collect()
    done = tally.run(
        "pipeline",
        lambda: op_pipeline(inputs, bundle_dir),
        lambda v: inputs.oracles[(2, 3)].matches(v[0]),
    )
    if done is not None:
        samples["decompose_23_s"].append(done[1])
        samples["pipeline_s"].append(done[2])
    if stop():
        return
    done = tally.run(
        "decompose34",
        lambda: op_decompose_34(inputs),
        lambda v: inputs.oracles[(3, 4)].matches(v[0]),
    )
    if done is not None:
        samples["decompose_34_s"].append(done[1])
    if stop():
        return
    if (bundle_dir / "manifest.json").exists():
        query_batch(inputs, open_bundle(bundle_dir), workload.queries, tally, samples)


# ----------------------------------------------------------------------
# traced layer tour
# ----------------------------------------------------------------------
def _pool_stage(tracer: Tracer, graph, r: int, s: int, sink: dict):
    """PersistentPool + pool-built space, pool AND, close — each one span."""
    with tracer.span("procpool.build") as build:
        pool = PersistentPool(pool_workers())
        try:
            space = CSRSpace.from_graph(graph, r, s, pool=pool)
        except BaseException:
            pool.close()
            raise
    try:
        with tracer.span("procpool.and") as sweep:
            result = pool.run_and(space)
    finally:
        with tracer.span("procpool.close") as close:
            pool.close()
    sink["procpool.build_s"] += Tracer.seconds(build)
    sink["procpool.and_s"] += Tracer.seconds(sweep)
    sink["procpool.close_s"] += Tracer.seconds(close)
    sink["procpool.forks"] += pool.forks
    sink["procpool.rebalances"] += result.operations.get("rebalances", 0)
    return result


def traced_tour(
    workload: Workload, inputs: Inputs, work: Path, tracer: Tracer, tally: Tally
) -> Tuple[dict, dict]:
    """Every layer once, one call per span; returns (per-round sums, query samples).

    Stage times and counts are summed over the round's two instances; the
    histogram, hierarchy, index, store and query stages run on the (2, 3)
    pipeline only, as in the untraced round.
    """
    m: dict = defaultdict(float)
    pool_ok = True
    space23 = result23 = graph23 = None
    for r, s in INSTANCES:
        oracle = inputs.oracles[(r, s)]
        with tracer.span("io.read") as sp:
            graph = read_edge_list_arrays(inputs.path)
        m["io.read_s"] += Tracer.seconds(sp)
        with tracer.span("csr_graph.orient") as sp:
            graph.forward_csr()
        m["csr_graph.orient_s"] += Tracer.seconds(sp)
        with tracer.span("csr.space") as sp:
            space = CSRSpace.from_graph(graph, r, s)
        m["csr.space_s"] += Tracer.seconds(sp)
        m["csr.space_bytes"] += space.nbytes()
        # after the space, so the space is built from a graph in the same
        # state as in the untraced round: only the orientation is cached
        with tracer.span("csr_graph.enumerate") as sp:
            m["csr_graph.s_cliques"] += sum(len(b) for b in graph.clique_batches(s))
        m["csr_graph.enumerate_s"] += Tracer.seconds(sp)
        with tracer.span("csr.and") as sp:
            result = tally.run(
                f"csr.and{r}{s}", lambda: nucleus_decomposition(space, r, s),
                oracle.matches,
            )
        m["csr.and_s"] += Tracer.seconds(sp)
        if result is not None:
            ops = result.operations
            m["csr.iterations"] += result.iterations
            m["csr.rho_evaluations"] += ops.get("rho_evaluations", 0)
            m["csr.h_index_calls"] += ops.get("h_index_calls", 0)
            m["csr.skipped_cliques"] += ops.get("skipped_cliques", 0)
        with tracer.span("peeling") as sp:
            tally.run(
                f"peeling{r}{s}", lambda: peeling_decomposition(space), oracle.matches
            )
        m["peeling.s"] += Tracer.seconds(sp)
        pooled = tally.run(
            f"procpool{r}{s}", lambda: _pool_stage(tracer, graph, r, s, m),
            oracle.matches,
        )
        pool_ok = pool_ok and pooled is not None
        if (r, s) == (2, 3):
            space23, result23, graph23 = space, result, graph
    rho = m["csr.rho_evaluations"]
    m["csr.h_index_per_rho"] = m["csr.h_index_calls"] / rho if rho else 0.0
    if pool_ok:
        m["procpool.workers"] = pool_workers()
        m["procpool.serial_base_s"] = m["csr.space_s"] + m["csr.and_s"]
        m["procpool.pool_base_s"] = m["procpool.build_s"] + m["procpool.and_s"]
        m["procpool.speedup"] = m["procpool.serial_base_s"] / m["procpool.pool_base_s"]
    else:
        for name in [k for k in m if k.startswith("procpool.")]:
            del m[name]

    queries: dict = defaultdict(list)
    if result23 is None:
        return dict(m), queries
    with tracer.span("result.summary") as sp:
        result23.kappa_histogram()
        result23.max_kappa()
    m["result.summary_s"] = Tracer.seconds(sp)
    with tracer.span("hierarchy.build") as sp:
        hierarchy = build_hierarchy(space23, result23)
    m["hierarchy.build_s"] = Tracer.seconds(sp)
    m["hierarchy.nuclei"] = len(hierarchy)
    with tracer.span("intervals.build") as sp:
        hierarchy.interval_index()
    m["intervals.build_s"] = Tracer.seconds(sp)
    bundle_dir = work / "traced-bundle"
    with tracer.span("store.save") as sp:
        save_bundle(
            bundle_dir, graph=graph23, space=space23, result=result23,
            hierarchy=hierarchy,
        )
    m["store.save_s"] = Tracer.seconds(sp)
    m["store.bytes_written"] = sum(f.stat().st_size for f in bundle_dir.iterdir())
    with tracer.span("store.open") as sp:
        bundle = open_bundle(bundle_dir)
    m["store.open_ms"] = Tracer.seconds(sp) * 1e3
    with tracer.span("query.batch"):
        query_batch(inputs, bundle, workload.queries, tally, queries)

    m["trace.stage_sum_s"] = (
        m["io.read_s"] + m["csr_graph.orient_s"] + m["csr.space_s"] + m["csr.and_s"]
        + m["result.summary_s"] + m["hierarchy.build_s"] + m["intervals.build_s"]
        + m["store.save_s"]
    )
    return dict(m), queries


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------
def _p99(values: List[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _reap_children() -> None:
    """Wait for every process the run started, pool workers and the tracker."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    # the pool's shared memory starts multiprocessing's resource tracker,
    # which would otherwise only exit after this process does
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    samples: dict  # sample counts and set-up times behind the metrics
    errors: List[str]
    spans: List[dict]


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    import_s: float = 0.0,
) -> RunResult:
    """Set up, measure for ``seconds``, check κ; metrics as (value, unit)."""
    setup_times = []
    inputs = None
    for rep in range(SETUP_REPS):
        inputs = None  # drop the previous repetition before timing the next
        gc.collect()
        t0 = time.perf_counter()
        inputs = set_up(workload, seed, work / f"setup{rep}")
        setup_times.append(time.perf_counter() - t0)
    # the benchmark's own long-lived objects stay out of the program's
    # garbage collections
    gc.collect()
    gc.freeze()

    tally = Tally()
    tracer = Tracer()
    samples: dict = defaultdict(list)
    layer: dict = defaultdict(list)
    start = time.perf_counter()

    def complete() -> bool:
        if trace:
            return all(layer[k] for k in PER_LAYER if k not in DERIVED)
        return (
            all(samples[k] for k in ("decompose_23_s", "decompose_34_s", "pipeline_s"))
            and len(samples["query_ms"]) >= MIN_QUERIES
            and len(samples["lookup_ms"]) >= MIN_QUERIES
        )

    def stop() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed >= HARD_CAP_S or (elapsed >= seconds and complete())

    try:
        while not stop():
            before = len(samples["pipeline_s"]), len(samples["decompose_34_s"])
            untraced_round(workload, inputs, work, tally, samples, stop)
            if not trace:
                continue
            if (
                len(samples["pipeline_s"]) > before[0]
                and len(samples["decompose_34_s"]) > before[1]
            ):
                layer["trace.untraced_s"].append(
                    samples["pipeline_s"][-1] + samples["decompose_34_s"][-1]
                )
            if stop():
                break
            gc.collect()
            tracer.round += 1
            with tracer.span("tour"):
                sums, queries = traced_tour(workload, inputs, work, tracer, tally)
            for name, value in sums.items():
                layer[name].append(value)
            layer["store.lookup_ms"].extend(queries["lookup_ms"])
            layer["query.estimate_ms"].extend(queries["query_ms"])
            layer["query.ball_vertices"].extend(queries["ball"])
    finally:
        inputs = None
        gc.unfreeze()
        _reap_children()
    if not complete():
        raise RuntimeError(f"no complete set of samples within {HARD_CAP_S} s")

    if trace:
        values = {
            name: statistics.median(layer[name]) for name in PER_LAYER if name not in DERIVED
        }
        values["store.lookup_ms_p99"] = _p99(layer["store.lookup_ms"])
        values["query.estimate_ms_p99"] = _p99(layer["query.estimate_ms"])
        values["trace.overhead_s"] = values["trace.stage_sum_s"] - values["trace.untraced_s"]
        units = PER_LAYER
        counts = {k: len(v) for k, v in layer.items()}
    else:
        med = statistics.median
        exact = samples["exact"][:EXACT_PREFIX]
        values = {
            "setup_s": import_s + med(setup_times),
            "decompose_23_s": med(samples["decompose_23_s"]),
            "decompose_34_s": med(samples["decompose_34_s"]),
            "pipeline_s": med(samples["pipeline_s"]),
            "query_ms_p50": med(samples["query_ms"]),
            "query_ms_p90": statistics.quantiles(samples["query_ms"], n=10)[8],
            "lookup_ms_p50": med(samples["lookup_ms"]),
            "query_exact_frac": sum(exact) / len(exact),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        counts = {k: len(v) for k, v in samples.items()}
    metrics = {name: (float(values[name]), unit) for name, unit in units.items()}
    counts["setup_reps_s"] = setup_times
    counts["import_s"] = import_s
    return RunResult(
        correct=tally.wrong == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        samples=counts,
        errors=tally.errors,
        spans=tracer.spans,
    )

