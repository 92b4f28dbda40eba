"""Process-pool decomposition + direct CSR construction benchmarks.

The claims of the shared-memory process backend, measured on the same
2000-vertex clustered power-law (2, 3) bench graph as
``bench_backend_speedup.py``:

* **``CSRSpace.from_graph`` beats dict-then-convert construction** — the
  direct enumerator-to-array path must be faster than building the
  dict-of-tuples ``NucleusSpace`` and flattening it;
* **the persistent pool's per-call overhead is below a cold start** — a
  reused ``PersistentPool`` call (buffer reset + pipe round-trip) must beat
  a fresh ``PersistentPool`` per call, which forks workers and re-creates
  the shared segments every time;
* **the notification-driven AND sweep visits fewer cliques** than full
  sweeps would over the same rounds (``iterations × len(space)``) — a
  deterministic-ish work counter, asserted in every mode (clique visits
  are not wall-clock).

κ parity is asserted unconditionally: the process-pool AND output, keyed
by clique, must equal the serial dict backend's.  The pool's speedup over
worker counts is measured by ``bench_fig8_scalability.py``.

Recording convention: multi-process wall-clock timings go into the artifact
under ``*_seconds`` field names, **not** the ``*_s`` suffix, so the CI trend
gate (``repro.perf.trend`` compares ``*_s`` kernel timings) does not flag
scheduling noise from time-sliced shared runners as a kernel regression.
"""

import time

import pytest

from repro.core.csr import CSRSpace, and_decomposition_csr
from repro.core.peeling import peeling_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import powerlaw_cluster_graph
from repro.parallel.procpool import PersistentPool, process_and_decomposition

FULL_N, SMOKE_N = 2000, 400
M, P, SEED = 10, 0.9, 5

CONSTRUCTION_TARGET = 1.0  # from_graph must at least beat dict-then-convert


def _best_of(repeats, fn, *args, **kwargs):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _contexts_by_clique(space):
    """Clique -> sorted contexts, each the sorted tuple of its partner cliques."""
    cliques = list(space.cliques)
    return {
        cliques[i]: sorted(
            tuple(sorted(cliques[p] for p in ctx)) for ctx in space.contexts(i)
        )
        for i in range(len(space))
    }


@pytest.fixture(scope="module")
def bench_graph(request):
    smoke = request.getfixturevalue("smoke_mode")
    n = SMOKE_N if smoke else FULL_N
    return powerlaw_cluster_graph(n, M, P, seed=SEED)


@pytest.fixture(scope="module")
def bench_csr(bench_graph):
    return CSRSpace.from_graph(bench_graph, 2, 3)


def test_and_procpool_parity(bench_graph, bench_csr, smoke_mode, bench_record):
    serial = peeling_decomposition(NucleusSpace(bench_graph, 2, 3))
    t_pool, r_pool = _best_of(
        1 if smoke_mode else 2, process_and_decomposition, bench_csr, workers=4
    )
    assert r_pool.as_dict() == serial.as_dict()
    assert r_pool.converged
    bench_record(
        name="and_procpool",
        pool_seconds=round(t_pool, 4),
        rounds=r_pool.iterations,
        smoke=smoke_mode,
    )
    print(
        f"\nAND process pool (per-chunk ownership): {t_pool * 1000:.1f} ms, "
        f"{r_pool.iterations} rounds"
    )


def test_persistent_pool_beats_cold_start(bench_csr, smoke_mode, bench_record):
    """Per-call cost: persistent pool (reset + pipe) vs cold fork + segments."""
    calls = 2 if smoke_mode else 5
    workers = 2

    def cold_call(space):
        with PersistentPool(workers) as fresh:
            return fresh.run_and(space)

    t_cold, _ = _best_of(calls, cold_call, bench_csr)
    with PersistentPool(workers) as pool:
        warm = pool.run_and(bench_csr)  # untimed: pays the fork + segments once
        t_warm, r_warm = _best_of(calls, pool.run_and, bench_csr)
        forks = pool.forks
    assert r_warm.kappa == warm.kappa
    assert forks == workers  # all timed calls reused the first fork batch
    overhead_ratio = t_warm / t_cold if t_cold > 0 else 0.0
    bench_record(
        name="persistent_pool_per_call",
        cold_seconds=round(t_cold, 4),
        persistent_seconds=round(t_warm, 4),
        overhead_ratio=round(overhead_ratio, 3),
        smoke=smoke_mode,
    )
    print(
        f"\nAND per call at {workers} workers: cold {t_cold * 1000:.1f} ms, "
        f"persistent {t_warm * 1000:.1f} ms "
        f"({overhead_ratio:.2f}x of cold)"
    )
    if not smoke_mode:
        assert t_warm < t_cold, (
            f"persistent-pool call ({t_warm * 1000:.1f} ms) not below the "
            f"cold start ({t_cold * 1000:.1f} ms)"
        )


def test_and_active_sweep_visits_fewer_cliques(bench_csr, smoke_mode, bench_record):
    """The notification bitmap must cut total clique visits on the (2,3) bench.

    Full sweeps would visit every clique in every round, so the baseline is
    ``iterations × len(space)`` over the rounds the pool actually ran.
    """
    active = process_and_decomposition(bench_csr, workers=4)
    assert active.converged
    assert active.kappa == and_decomposition_csr(bench_csr).kappa
    visits_full = active.iterations * len(bench_csr)
    visits_active = active.operations["processed"]
    bench_record(
        name="and_active_sweep_visits",
        full_sweep_visits=visits_full,
        active_sweep_visits=visits_active,
        visit_ratio=round(visits_active / max(visits_full, 1), 3),
        active_rounds=active.iterations,
        smoke=smoke_mode,
    )
    print(
        f"\nAND clique visits on {len(bench_csr)} edges over "
        f"{active.iterations} rounds: full sweeps {visits_full}, active "
        f"sweep {visits_active} -> {visits_active / max(visits_full, 1):.2f}x"
    )
    # work counters, not wall-clock: assert in every mode
    assert visits_active < visits_full


def test_from_graph_construction_speedup(bench_graph, smoke_mode, bench_record):
    reps = 1 if smoke_mode else 3

    def dict_then_convert():
        return NucleusSpace(bench_graph, 2, 3).to_csr()

    t_dict, via_dict = _best_of(reps, dict_then_convert)
    t_direct, direct = _best_of(reps, CSRSpace.from_graph, bench_graph, 2, 3)
    # identical structure keyed by clique (from_graph indexes the cliques in
    # sorted vertex-id order, the dict space in its enumeration order)
    assert sorted(direct.cliques) == sorted(via_dict.cliques)
    assert direct.as_dict(direct.s_degrees()) == via_dict.as_dict(via_dict.s_degrees())
    assert _contexts_by_clique(direct) == _contexts_by_clique(via_dict)
    dict_space = NucleusSpace(bench_graph, 2, 3)
    direct_cliques = list(direct.cliques)
    for i, clique in enumerate(dict_space.cliques):
        j = direct.index_of(clique)
        assert {direct_cliques[p] for p in direct.neighbors(j)} == {
            dict_space.cliques[p] for p in dict_space.neighbors(i)
        }
    speedup = t_dict / t_direct
    bench_record(
        name="from_graph_construction_speedup",
        dict_convert_s=round(t_dict, 4),
        from_graph_s=round(t_direct, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nCSR construction (2,3) on {len(direct)} edges: dict-then-convert "
        f"{t_dict * 1000:.1f} ms, from_graph {t_direct * 1000:.1f} ms "
        f"-> {speedup:.2f}x"
    )
    if smoke_mode:
        assert speedup > 0.5  # sanity only; CI runners are noisy
    else:
        assert speedup >= CONSTRUCTION_TARGET, (
            f"from_graph construction {speedup:.2f}x not faster than the "
            f"dict-then-convert path"
        )
