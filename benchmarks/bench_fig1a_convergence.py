"""E2 — Figure 1a / Figure 6: convergence rate of the local algorithms.

Regenerates the Kendall-Tau-vs-iteration series for the k-core, k-truss and
(3,4) decompositions with SND, and prints the series (the paper's headline
observation: near-exact decompositions within ~10 iterations).  Each test
also records the serial SND seconds of its instances (``snd_s``, no floor).
"""

from repro.experiments.convergence import format_convergence, run_convergence

DATASETS = ("fb", "tw", "sse")


def test_fig1a_truss_convergence(benchmark, record_snd_seconds):
    def run():
        rows = []
        for dataset in DATASETS:
            rows.extend(run_convergence(dataset, 2, 3, algorithm="snd"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_convergence(rows))
    finals = [r for r in rows if r["iteration"] == max(x["iteration"] for x in rows if x["dataset"] == r["dataset"])]
    assert all(r["kendall_tau"] > 0.99 for r in finals)
    for dataset in DATASETS:
        record_snd_seconds("fig1a_snd", dataset, 2, 3)


def test_fig1a_core_convergence(benchmark, record_snd_seconds):
    rows = benchmark.pedantic(
        run_convergence, args=("fb", 1, 2), kwargs={"algorithm": "snd"}, rounds=1, iterations=1
    )
    assert rows[-1]["exact_fraction"] == 1.0
    record_snd_seconds("fig1a_snd", "fb", 1, 2)


def test_fig6_three_four_convergence(benchmark, record_snd_seconds):
    rows = benchmark.pedantic(
        run_convergence, args=("tw", 3, 4), kwargs={"algorithm": "snd"}, rounds=1, iterations=1
    )
    print()
    print(format_convergence(rows))
    assert rows[-1]["exact_fraction"] == 1.0
    record_snd_seconds("fig6_snd", "tw", 3, 4)
