"""E3 — Table 4: iterations to converge vs the degree-level upper bound.

Regenerates the iteration-count table: SND, AND (natural / random / peel
orders) and the Section 3.1 bound for the benchmark datasets, and records
the serial SND seconds of every instance (``snd_s``, no floor).
"""

from repro.experiments.iterations import format_iteration_counts, run_iteration_counts

DATASETS = ("fb", "tw", "sse")


def test_table4_iteration_counts(benchmark, record_snd_seconds):
    rows = benchmark.pedantic(
        run_iteration_counts,
        args=(DATASETS,),
        kwargs={"instances": ((1, 2), (2, 3))},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_iteration_counts(rows))
    for row in rows:
        assert row["snd_iters"] <= row["level_bound"] + 1
        assert row["and_iters"] <= row["snd_iters"]
        assert row["and_best_iters"] <= 2
        record_snd_seconds("table4_snd", row["dataset"], row["r"], row["s"])
