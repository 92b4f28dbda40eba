"""Tests for the experiment harness (E1–E9).

These are integration-level checks: every experiment must run end to end on
small datasets and its output must have the qualitative shape the paper
reports (convergence improves with iterations, the bound dominates the
iteration counts, dynamic scheduling beats static, etc.).
"""

import pytest

from repro.core.asynd import and_decomposition
from repro.core.space import NucleusSpace
from repro.datasets.registry import load_dataset
from repro.experiments.convergence import format_convergence, run_convergence
from repro.experiments.datasets_table import format_datasets_table, run_datasets_table
from repro.experiments.iterations import format_iteration_counts, run_iteration_counts
from repro.experiments.plateaus import (
    format_notification_savings,
    format_tau_traces,
    run_notification_savings,
    run_tau_traces,
)
from repro.experiments.quality_metric import format_quality_metric, run_quality_metric
from repro.experiments.query_driven import format_query_driven, run_query_driven
from repro.experiments.runtime import format_runtime_comparison, run_runtime_comparison
from repro.experiments.scalability import format_scalability, run_scalability
from repro.experiments.tables import format_table, rows_to_csv
from repro.experiments.tradeoff import format_tradeoff, run_tradeoff

SMALL = ["toy", "sw"]


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_rows_to_csv(self):
        csv = rows_to_csv([{"a": 1, "b": 2.5}])
        assert csv.splitlines()[0] == "a,b"
        assert csv.splitlines()[1] == "1,2.5000"


class TestE1DatasetsTable:
    def test_rows_and_formatting(self):
        rows = run_datasets_table(names=["toy", "sw"], include_four_cliques=True)
        assert len(rows) == 2
        assert all(row["|E|"] > 0 for row in rows)
        text = format_datasets_table(rows)
        assert "Table 3" in text


class TestE2Convergence:
    def test_kendall_tau_reaches_one(self):
        rows = run_convergence("toy", 1, 2, algorithm="snd")
        assert rows[-1]["kendall_tau"] == pytest.approx(1.0)
        assert rows[-1]["exact_fraction"] == pytest.approx(1.0)

    def test_accuracy_is_monotone_non_decreasing_at_the_end(self):
        rows = run_convergence("sw", 2, 3, algorithm="snd")
        errors = [row["mean_abs_error"] for row in rows]
        assert errors[-1] <= errors[0]
        assert errors[-1] == pytest.approx(0.0)

    def test_and_variant_runs(self):
        rows = run_convergence("toy", 1, 2, algorithm="and")
        assert rows[-1]["exact_fraction"] == pytest.approx(1.0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_convergence("toy", 1, 2, algorithm="bogus")

    def test_formatting(self):
        text = format_convergence(run_convergence("toy", 1, 2))
        assert "iteration" in text


class TestE3Iterations:
    def test_bound_dominates_iterations(self):
        rows = run_iteration_counts(SMALL, instances=((1, 2),))
        for row in rows:
            assert row["snd_iters"] <= row["level_bound"] + 1
            assert row["and_iters"] <= row["snd_iters"]
            assert row["and_best_iters"] <= 2
            assert row["level_bound"] < row["r_cliques"]
        text = format_iteration_counts(rows)
        assert "Table 4" in text

    def test_and_iters_follow_the_per_visit_schedule(self):
        """Table 4's natural-order AND column counts per-visit iterations,
        the dict oracle's, not the batched kernel's passes."""
        graph = load_dataset("fb")
        rows = run_iteration_counts(["fb"], include_bound=False)
        expected = {(1, 2): 10, (2, 3): 7}
        for row in rows:
            rs = (row["r"], row["s"])
            oracle = and_decomposition(NucleusSpace(graph, *rs))
            assert row["and_iters"] == oracle.iterations == expected[rs]


class TestE4Plateaus:
    def test_tau_traces_structure(self):
        payload = run_tau_traces("toy", 2, 3, num_tracked=3)
        assert payload["iterations"] >= 1
        assert payload["plateau_stats"][0]["r_cliques"] > 0
        assert format_tau_traces(payload).startswith("Figure 5")

    def test_notification_savings(self):
        rows = run_notification_savings("toy", 1, 2)
        on_total = next(
            r for r in rows if r["notification"] == "on" and r["iteration"] == "total"
        )
        off_total = next(
            r for r in rows if r["notification"] == "off" and r["iteration"] == "total"
        )
        assert on_total["processed"] <= off_total["processed"]
        assert on_total["skipped"] > 0
        assert "notification" in format_notification_savings(rows)

    def test_notification_savings_rows_are_the_dict_schedule(self):
        rows = run_notification_savings("toy", 1, 2)
        space = NucleusSpace(load_dataset("toy"), 1, 2)
        for notification, label in ((False, "off"), (True, "on")):
            oracle = and_decomposition(space, notification=notification)
            expected = [
                (s.iteration, s.processed, s.skipped, s.updated)
                for s in oracle.iteration_stats
            ]
            got = [
                (r["iteration"], r["processed"], r["skipped"], r["updated"])
                for r in rows
                if r["notification"] == label and r["iteration"] != "total"
            ]
            assert got == expected


class TestE5Scalability:
    def test_shapes(self):
        rows = run_scalability(["toy"], 1, 2, thread_counts=(1, 4, 24))
        by_threads = {row["threads"]: row for row in rows}
        assert by_threads[1]["local_dynamic_speedup"] == pytest.approx(1.0)
        assert (
            by_threads[24]["local_dynamic_speedup"]
            >= by_threads[4]["local_dynamic_speedup"]
        )
        # local algorithms out-scale the partially parallel peeling baseline
        assert by_threads[24]["local_vs_peeling"] >= 1.0
        assert "speedup" in format_scalability(rows)


class TestE6Runtime:
    def test_rows_have_work_counters(self):
        rows = run_runtime_comparison(["toy"], instances=((1, 2),))
        row = rows[0]
        assert row["peel_work"] >= 0
        assert row["snd_work"] > 0
        assert row["and_work"] > 0
        assert row["and_over_snd_work"] <= 1.0
        assert "Figure 7" in format_runtime_comparison(rows)


class TestE7Tradeoff:
    def test_accuracy_improves_with_work(self):
        rows = run_tradeoff("sw", 1, 2, algorithm="snd")
        taus = [row["kendall_tau"] for row in rows]
        works = [row["work_fraction"] for row in rows]
        assert works == sorted(works)
        assert taus[-1] == pytest.approx(1.0)
        assert rows[-1]["converged"]
        assert "Figure 9" in format_tradeoff(rows)


class TestE8QueryDriven:
    def test_accuracy_grows_with_hops(self):
        rows = run_query_driven("toy", 1, 2, num_queries=10, hop_radii=(0, 2, 6))
        by_hops = {row["hops"]: row for row in rows}
        assert by_hops[6]["exact_fraction"] >= by_hops[0]["exact_fraction"]
        assert by_hops[6]["mean_abs_error"] <= by_hops[0]["mean_abs_error"]
        assert by_hops[0]["mean_ball_fraction"] <= by_hops[6]["mean_ball_fraction"]
        assert "hops" in format_query_driven(rows)


class TestE9QualityMetric:
    def test_stability_tracks_accuracy(self):
        payload = run_quality_metric("sw", 1, 2)
        assert payload["rows"]
        assert payload["correlation"] >= 0.0
        final = payload["rows"][-1]
        assert final["stability"] == pytest.approx(1.0)
        assert final["true_exact_fraction"] == pytest.approx(1.0)
        assert "stability" in format_quality_metric(payload)
