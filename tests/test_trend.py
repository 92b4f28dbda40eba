"""Benchmark trend gate: artifact comparison semantics and CLI exit codes."""

import json
import os

import pytest

from repro.perf.trend import (
    archive_payload,
    compare_payloads,
    compare_to_history,
    load_history,
    load_payload,
    main,
)


def payload(tests=(), measurements=(), created=0):
    return {
        "schema": "bench-smoke/1",
        "created_unix": created,
        "tests": list(tests),
        "measurements": list(measurements),
    }


def trec(test, duration, outcome="passed"):
    return {"test": test, "outcome": outcome, "duration_s": duration}


class TestComparePayloads:
    def test_no_regression(self):
        prev = payload(tests=[trec("a", 1.0), trec("b", 2.0)])
        cur = payload(tests=[trec("a", 1.1), trec("b", 1.5)])
        assert compare_payloads(prev, cur) == []

    def test_test_regression_flagged(self):
        prev = payload(tests=[trec("bench_x", 1.0)])
        cur = payload(tests=[trec("bench_x", 1.4)])
        lines = compare_payloads(prev, cur, threshold=0.25)
        assert len(lines) == 1
        assert "bench_x" in lines[0]

    def test_threshold_boundary(self):
        prev = payload(tests=[trec("t", 1.0)])
        exactly = payload(tests=[trec("t", 1.25)])
        above = payload(tests=[trec("t", 1.26)])
        assert compare_payloads(prev, exactly, threshold=0.25) == []
        assert len(compare_payloads(prev, above, threshold=0.25)) == 1

    def test_noise_floor_ignored(self):
        # 10x slowdown but both sides are below the noise floor
        prev = payload(tests=[trec("tiny", 0.001)])
        cur = payload(tests=[trec("tiny", 0.010)])
        assert compare_payloads(prev, cur, min_seconds=0.05) == []

    def test_new_and_removed_tests_ignored(self):
        prev = payload(tests=[trec("gone", 5.0)])
        cur = payload(tests=[trec("new", 5.0)])
        assert compare_payloads(prev, cur) == []

    def test_failed_tests_not_compared(self):
        prev = payload(tests=[trec("flaky", 1.0)])
        cur = payload(tests=[trec("flaky", 9.0, outcome="failed")])
        assert compare_payloads(prev, cur) == []

    def test_kernel_measurement_regression(self):
        prev = payload(measurements=[{"name": "snd_backend_speedup", "csr_s": 0.10}])
        cur = payload(measurements=[{"name": "snd_backend_speedup", "csr_s": 0.20}])
        lines = compare_payloads(prev, cur)
        assert len(lines) == 1
        assert "snd_backend_speedup.csr_s" in lines[0]

    def test_microsecond_medians_gated_below_the_seconds_floor(self):
        # a per-query median is tiny in seconds but not single-shot noise
        prev = payload(measurements=[{"name": "fig10_query", "query_us_p50": 800.0}])
        slower = payload(measurements=[{"name": "fig10_query", "query_us_p50": 1100.0}])
        within = payload(measurements=[{"name": "fig10_query", "query_us_p50": 1000.0}])
        lines = compare_payloads(prev, slower, threshold=0.25, min_seconds=0.05)
        assert len(lines) == 1
        assert "fig10_query.query_us_p50" in lines[0] and "us" in lines[0]
        assert compare_payloads(prev, within, threshold=0.25, min_seconds=0.05) == []

    def test_microsecond_medians_gated_against_history(self):
        history = [
            payload(measurements=[{"name": "q", "query_us_p50": value}])
            for value in (790.0, 800.0, 5000.0)
        ]
        slower = payload(measurements=[{"name": "q", "query_us_p50": 1010.0}])
        assert len(compare_to_history(history, slower, threshold=0.25)) == 1

    def test_non_seconds_fields_ignored(self):
        # the speedup ratio halves, but ratios are not gated — only *_s are
        prev = payload(measurements=[{"name": "m", "speedup": 10.0}])
        cur = payload(measurements=[{"name": "m", "speedup": 5.0}])
        assert compare_payloads(prev, cur) == []

    def test_multiprocess_bench_durations_not_gated(self):
        # pool benches measure fork + scheduler time-slicing, not kernels;
        # their wall-clock durations are excluded from the gate by default
        prev = payload(tests=[trec("benchmarks/bench_procpool.py::test_snd", 0.5)])
        cur = payload(tests=[trec("benchmarks/bench_procpool.py::test_snd", 0.9)])
        assert compare_payloads(prev, cur) == []
        assert len(compare_payloads(prev, cur, ignore_tests=())) == 1


class TestLoadAndMain:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = self.write(tmp_path, "bad.json", {"schema": "other/1"})
        with pytest.raises(ValueError):
            load_payload(path)

    def test_main_exit_codes(self, tmp_path, capsys):
        prev = self.write(tmp_path, "prev.json", payload(tests=[trec("t", 1.0)]))
        ok = self.write(tmp_path, "ok.json", payload(tests=[trec("t", 1.0)]))
        bad = self.write(tmp_path, "bad.json", payload(tests=[trec("t", 2.0)]))
        assert main([prev, ok]) == 0
        assert "trend OK" in capsys.readouterr().out
        assert main([prev, bad]) == 1
        assert "regression" in capsys.readouterr().out

    def test_main_threshold_flag(self, tmp_path):
        prev = self.write(tmp_path, "prev.json", payload(tests=[trec("t", 1.0)]))
        cur = self.write(tmp_path, "cur.json", payload(tests=[trec("t", 1.8)]))
        assert main([prev, cur]) == 1
        assert main([prev, cur, "--threshold", "1.0"]) == 0

    def test_main_wrong_artifact_count(self, tmp_path):
        prev = self.write(tmp_path, "prev.json", payload())
        with pytest.raises(SystemExit):
            main([prev])  # pairwise mode needs two artifacts
        with pytest.raises(SystemExit):
            main([prev, prev, "--history-dir", str(tmp_path / "h")])


class TestHistory:
    """Rolling-window gate: archive keyed by commit, median baseline."""

    def make_history(self, tmp_path, durations):
        hist = str(tmp_path / "hist")
        for i, duration in enumerate(durations):
            archive_payload(
                payload(
                    tests=[trec("t", duration)],
                    measurements=[{"name": "k", "csr_s": duration}],
                    created=100 + i,
                ),
                hist,
                f"commit{i}",
            )
        return hist

    def test_archive_and_load_round_trip(self, tmp_path):
        hist = self.make_history(tmp_path, [1.0, 1.2, 0.8])
        payloads = load_history(hist)
        assert len(payloads) == 3
        # oldest first (file names sort by created_unix)
        assert [p["created_unix"] for p in payloads] == [100, 101, 102]

    def test_archive_prunes_to_keep(self, tmp_path):
        hist = str(tmp_path / "hist")
        for i in range(12):
            archive_payload(payload(created=100 + i), hist, f"c{i}", keep=5)
        names = sorted(os.listdir(hist))
        assert len(names) == 5
        assert names[-1].endswith("c11.json")  # newest retained

    def test_rearchiving_same_commit_overwrites(self, tmp_path):
        hist = str(tmp_path / "hist")
        archive_payload(payload(created=100), hist, "abc")
        archive_payload(payload(created=100), hist, "abc")
        assert len(os.listdir(hist)) == 1
        # a re-run regenerates the artifact with a *newer* timestamp: the
        # old entry must be replaced, not kept as a duplicate of the commit
        archive_payload(payload(created=200), hist, "abc")
        assert os.listdir(hist) == ["000000000200-abc.json"]

    def test_window_limits_baseline(self, tmp_path):
        hist = self.make_history(tmp_path, [1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
        # full window median is ~3s-ish; the newest-3 window is 5s
        newest = load_history(hist, window=3)
        assert len(newest) == 3
        current = payload(tests=[trec("t", 5.5)])
        assert compare_to_history(newest, current) == []
        oldest_window = load_history(hist, window=None)
        assert len(compare_to_history(oldest_window, current)) == 1

    def test_median_absorbs_single_outlier(self, tmp_path):
        # one noisy 3s sample must not drag the baseline up
        hist = load_history(self.make_history(tmp_path, [1.0, 3.0, 1.0, 1.1, 0.9]))
        slow = payload(tests=[trec("t", 1.5)], measurements=[{"name": "k", "csr_s": 1.5}])
        lines = compare_to_history(hist, slow)
        assert len(lines) == 2  # vs median 1.0, not vs the 3.0 outlier

    def test_empty_history_passes(self, tmp_path):
        assert compare_to_history([], payload(tests=[trec("t", 9.0)])) == []
        assert load_history(str(tmp_path / "missing")) == []

    def test_unreadable_entries_skipped(self, tmp_path):
        hist = self.make_history(tmp_path, [1.0])
        (tmp_path / "hist" / "000000000999-bad.json").write_text("{not json")
        (tmp_path / "hist" / "000000000998-alien.json").write_text(
            json.dumps({"schema": "other/1"})
        )
        assert len(load_history(hist)) == 1

    def test_main_history_mode(self, tmp_path, capsys):
        hist = self.make_history(tmp_path, [1.0, 1.0, 1.0])
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(payload(tests=[trec("t", 1.1)], created=500)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload(tests=[trec("t", 2.0)], created=501)))
        assert main(["--history-dir", hist, str(ok)]) == 0
        assert "trend OK" in capsys.readouterr().out
        assert main(["--history-dir", hist, str(bad)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_main_history_archive_on_pass_only(self, tmp_path, capsys):
        hist = self.make_history(tmp_path, [1.0, 1.0, 1.0])
        before = len(os.listdir(hist))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(payload(tests=[trec("t", 1.0)], created=500)))
        assert main(["--history-dir", hist, str(ok), "--archive", "--commit", "new"]) == 0
        assert len(os.listdir(hist)) == before + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload(tests=[trec("t", 9.0)], created=501)))
        assert main(["--history-dir", hist, str(bad), "--archive", "--commit", "x"]) == 1
        assert len(os.listdir(hist)) == before + 1  # regression: not archived

    def test_main_empty_history_passes_trivially(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(payload(tests=[trec("t", 1.0)])))
        assert main(["--history-dir", str(tmp_path / "none"), str(cur)]) == 0
        assert "trivially" in capsys.readouterr().out
