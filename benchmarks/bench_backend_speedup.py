"""Backend speedup: CSR array kernels vs the dict-of-tuples backend.

The tentpole claim of the CSR backend is that running the τ iteration over
flat int64 arrays with one vectorised round kernel per algorithm beats the
interpreter-heavy dict structure.  This module measures it directly on a
2000-vertex clustered power-law generator graph at (2, 3) — the k-truss
instance — and asserts the headline target:

* AND (the paper's flagship algorithm): **CSR >= 2x faster** than dict;
* SND: CSR at least as fast (vectorised Jacobi step);
* peeling: the level-synchronous CSR peel at least roughly matches dict.

It also records, with no floor, the batched AND against the exact CSR
peel on the same warm (2, 3) and (3, 4) spaces, with the AND's
``rho_evaluations`` (context rows gathered).

In smoke mode the graph shrinks and only κ parity plus a sanity bound is
asserted (single-shot timings on shared CI runners are too noisy for a hard
ratio); the measured ratios are still recorded into the JSON artifact via
``bench_record`` so the trajectory is visible per commit.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.core.asynd import and_decomposition
from repro.core.csr import and_decomposition_csr
from repro.core.peeling import peeling_decomposition
from repro.core.snd import snd_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import powerlaw_cluster_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from peel_witness import assert_peel_witness  # noqa: E402

# Dense enough that rho-scan work dominates per-clique overhead: ~20k edges,
# ~25k triangles at full size.
FULL_N, SMOKE_N = 2000, 400
M, P, SEED = 10, 0.9, 5

# (3, 4) instance sizes: triangle/4-clique spaces grow much faster, so the
# graph is smaller (~12k triangles at full size).
TF_FULL_N, TF_SMOKE_N = 800, 250

AND_TARGET = 2.0  # asserted in full mode; recorded-only in smoke mode

# The frontier-batched numpy tier replaces per-visit interpretation with a
# handful of whole-frontier array passes per round, so it is held to a much
# higher bar than the per-visit CSR kernel: ≥6× over dict in full mode, and
# still ≥5× on the smoke graph (its passes are milliseconds, so even smoke
# mode can afford best-of-5 repeats to beat scheduling noise).
AND_NUMPY_TARGET, AND_NUMPY_SMOKE_TARGET = 6.0, 5.0


@pytest.fixture(scope="module")
def spaces(request):
    smoke = request.getfixturevalue("smoke_mode")
    n = SMOKE_N if smoke else FULL_N
    graph = powerlaw_cluster_graph(n, M, P, seed=SEED)
    space = NucleusSpace(graph, 2, 3)
    csr = space.to_csr()
    return space, csr


def _best_of(repeats, fn, *args, **kwargs):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _repeats(smoke_mode):
    return 1 if smoke_mode else 3


def test_and_csr_speedup(spaces, smoke_mode, bench_record):
    space, csr = spaces
    reps = _repeats(smoke_mode)
    t_dict, r_dict = _best_of(reps, and_decomposition, space, backend="dict")
    t_csr, r_csr = _best_of(reps, and_decomposition, csr)
    assert r_csr.kappa == r_dict.kappa
    speedup = t_dict / t_csr
    bench_record(
        name="and_backend_speedup",
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nAND (2,3) on {len(space)} edges: dict {t_dict * 1000:.1f} ms, "
        f"csr {t_csr * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if smoke_mode:
        assert speedup > 0.5  # sanity only; CI runners are too noisy for 2x
    else:
        assert speedup >= AND_TARGET, (
            f"CSR AND speedup {speedup:.2f}x below the {AND_TARGET}x target"
        )


def test_and_numpy_speedup(spaces, smoke_mode, bench_record):
    """Frontier-batched AND kernel (a plain CSR request) vs the dict backend."""
    space, csr = spaces
    reps = max(_repeats(smoke_mode), 5 if smoke_mode else 0)
    t_dict, r_dict = _best_of(reps, and_decomposition, space, backend="dict")
    t_np, r_np = _best_of(reps, and_decomposition, csr)
    assert r_np.kappa == r_dict.kappa
    speedup = t_dict / t_np
    bench_record(
        name="and_numpy",
        dict_s=round(t_dict, 4),
        numpy_s=round(t_np, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nbatched AND (2,3) on {len(space)} edges: dict {t_dict * 1000:.1f} ms, "
        f"numpy {t_np * 1000:.1f} ms -> {speedup:.2f}x"
    )
    target = AND_NUMPY_SMOKE_TARGET if smoke_mode else AND_NUMPY_TARGET
    assert speedup >= target, (
        f"batched AND speedup {speedup:.2f}x below the {target}x target"
    )


def test_snd_csr_speedup(spaces, smoke_mode, bench_record):
    space, csr = spaces
    reps = _repeats(smoke_mode)
    t_dict, r_dict = _best_of(reps, snd_decomposition, space, backend="dict")
    t_csr, r_csr = _best_of(reps, snd_decomposition, csr)
    assert r_csr.kappa == r_dict.kappa
    speedup = t_dict / t_csr
    bench_record(
        name="snd_backend_speedup",
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nSND (2,3): dict {t_dict * 1000:.1f} ms, csr {t_csr * 1000:.1f} ms "
        f"-> {speedup:.2f}x"
    )
    if not smoke_mode:
        assert speedup >= 1.0


@pytest.fixture(scope="module")
def three_four_spaces(request):
    smoke = request.getfixturevalue("smoke_mode")
    n = TF_SMOKE_N if smoke else TF_FULL_N
    graph = powerlaw_cluster_graph(n, M, P, seed=SEED)
    space = NucleusSpace(graph, 3, 4)
    csr = space.to_csr()
    return space, csr


def test_three_four_and_csr_speedup(three_four_spaces, smoke_mode, bench_record):
    """(3, 4) instance: the paper's sweet spot, stride-3 contexts.

    The CSR win is smaller here than at (2, 3) — fewer, larger contexts per
    r-clique mean the dict backend's per-context overhead matters less — so
    this case is recorded for the trend artifact and held to a no-regression
    bound rather than a hard speedup target.
    """
    space, csr = three_four_spaces
    reps = _repeats(smoke_mode)
    t_dict, r_dict = _best_of(reps, and_decomposition, space, backend="dict")
    t_csr, r_csr = _best_of(reps, and_decomposition, csr)
    assert r_csr.kappa == r_dict.kappa
    speedup = t_dict / t_csr
    bench_record(
        name="three_four_and_backend_speedup",
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nAND (3,4) on {len(space)} triangles: dict {t_dict * 1000:.1f} ms, "
        f"csr {t_csr * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if smoke_mode:
        assert speedup > 0.3  # sanity only
    else:
        assert speedup >= 0.8  # CSR must not regress materially at (3, 4)


def test_three_four_and_numpy_speedup(three_four_spaces, smoke_mode, bench_record):
    """(3, 4) batched tier: recorded for the trend artifact, soft-bounded.

    Stride-3 contexts mean fewer, larger segments per pass; the batched win
    is still large but the instance converges in very few rounds, so this
    row is held to a no-regression bound rather than the (2, 3) target.
    """
    space, csr = three_four_spaces
    reps = max(_repeats(smoke_mode), 5 if smoke_mode else 0)
    t_dict, r_dict = _best_of(reps, and_decomposition, space, backend="dict")
    t_np, r_np = _best_of(reps, and_decomposition, csr)
    assert r_np.kappa == r_dict.kappa
    speedup = t_dict / t_np
    bench_record(
        name="three_four_and_numpy",
        dict_s=round(t_dict, 4),
        numpy_s=round(t_np, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nbatched AND (3,4) on {len(space)} triangles: dict {t_dict * 1000:.1f} ms, "
        f"numpy {t_np * 1000:.1f} ms -> {speedup:.2f}x"
    )
    if smoke_mode:
        assert speedup > 1.0
    else:
        assert speedup >= 2.0


def test_three_four_snd_csr_parity(three_four_spaces, smoke_mode, bench_record):
    space, csr = three_four_spaces
    reps = _repeats(smoke_mode)
    t_dict, r_dict = _best_of(reps, snd_decomposition, space, backend="dict")
    t_csr, r_csr = _best_of(reps, snd_decomposition, csr)
    assert r_csr.kappa == r_dict.kappa
    speedup = t_dict / t_csr
    bench_record(
        name="three_four_snd_backend_speedup",
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\nSND (3,4): dict {t_dict * 1000:.1f} ms, csr {t_csr * 1000:.1f} ms "
        f"-> {speedup:.2f}x"
    )
    if not smoke_mode:
        assert speedup >= 0.8


def test_peeling_csr_fast_path(spaces, smoke_mode, bench_record):
    space, csr = spaces
    reps = _repeats(smoke_mode)
    t_dict, r_dict = _best_of(reps, peeling_decomposition, space, backend="dict")
    t_csr, r_csr = _best_of(reps, peeling_decomposition, csr)
    assert r_csr.kappa == r_dict.kappa
    # the routes break ties within a level differently; both orders must
    # still witness κ
    for result in (r_dict, r_csr):
        assert_peel_witness(space, result.kappa, result.operations["_peel_order"])
    speedup = t_dict / t_csr
    bench_record(
        name="peeling_backend_speedup",
        dict_s=round(t_dict, 4),
        csr_s=round(t_csr, 4),
        speedup=round(speedup, 2),
        smoke=smoke_mode,
    )
    print(
        f"\npeeling (2,3): dict {t_dict * 1000:.1f} ms, csr {t_csr * 1000:.1f} ms "
        f"-> {speedup:.2f}x"
    )
    if not smoke_mode:
        assert speedup >= 0.8  # fast path must not regress materially


@pytest.mark.parametrize("fixture", ["spaces", "three_four_spaces"])
def test_and_against_peel(fixture, request, smoke_mode, bench_record):
    """Batched AND vs the exact CSR peel on one warm space: recorded, no floor."""
    _, csr = request.getfixturevalue(fixture)
    t_and, r_and = _best_of(5, and_decomposition_csr, csr)
    t_peel, r_peel = _best_of(5, peeling_decomposition, csr)
    assert r_and.kappa == r_peel.kappa
    bench_record(
        name=f"and_vs_peel_{csr.r}{csr.s}",
        and_s=round(t_and, 4),
        peel_s=round(t_peel, 4),
        rho_evaluations=r_and.operations["rho_evaluations"],
        iterations=r_and.iterations,
        smoke=smoke_mode,
    )
    print(
        f"\nAND ({csr.r},{csr.s}) on {len(csr)} cliques: {t_and * 1000:.1f} ms, "
        f"peel {t_peel * 1000:.1f} ms, {r_and.operations['rho_evaluations']} "
        f"context rows gathered"
    )
