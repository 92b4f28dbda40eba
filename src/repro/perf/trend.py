"""Benchmark trend gate over ``BENCH_smoke.json`` artifacts.

CI uploads one smoke artifact per commit (see ``benchmarks/conftest.py``).
This module turns those artifacts into a regression gate: given the previous
commit's payload and the current one, it flags

* **test regressions** — a benchmark test whose wall-clock duration grew by
  more than the threshold (default 25%), and
* **kernel regressions** — a recorded measurement (``bench_record`` entries
  such as the backend speedup timings) whose ``*_s`` seconds field or
  ``*_us`` / ``*_us_p<NN>`` microseconds field grew by more than the
  threshold.

Durations below ``min_seconds`` are ignored on both sides: single-shot smoke
timings of sub-50 ms tests are scheduling noise, not signal.  The floor does
not apply to ``*_us`` fields (``bench_fig10_query``'s ``query_us_p50``):
they are medians over many calls, not single-shot timings.  Tests whose id
matches an ``ignore_tests`` substring (default: the process-pool and
measured-scalability benches) are excluded from the duration gate for the
same reason — multi-process wall-clock on a time-sliced shared runner
measures the scheduler, not the kernels; their per-kernel ``*_s``
measurements remain gated.  Missing counterparts (new tests, renamed
measurements) are never regressions — the gate only compares what exists in
both payloads.

Two comparison modes share the same regression rules:

* **pairwise** — previous commit's artifact vs the current one;
* **rolling history** — a directory of archived artifacts (one per commit,
  file names ``<created_unix>-<commit>.json``) is reduced to a per-metric
  *median* baseline over the newest ``--window`` entries, and the current
  artifact is gated against that.  A median over several commits absorbs the
  single-runner noise that made the one-commit-back gate flappy, and a
  renamed/new metric still has no counterpart, hence no regression.

CLI usage (exit code 1 on regression, 0 otherwise)::

    # pairwise
    python -m repro.perf.trend previous.json current.json --threshold 0.25
    # rolling window; --archive appends the current artifact (keyed by
    # commit) to the history after a passing gate
    python -m repro.perf.trend --history-dir bench-history BENCH_smoke.json \\
        --archive --commit "$GITHUB_SHA"
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Optional, Tuple

__all__ = [
    "load_payload",
    "compare_payloads",
    "archive_payload",
    "load_history",
    "compare_to_history",
    "main",
]

DEFAULT_THRESHOLD = 0.25
DEFAULT_MIN_SECONDS = 0.05

#: How many of the newest archived artifacts form the rolling baseline.
DEFAULT_WINDOW = 10

#: How many archived artifacts :func:`archive_payload` retains on disk.
DEFAULT_KEEP = 30

#: Test-id substrings excluded from the wall-clock duration gate: these
#: benches spend their time in fork + multi-worker scheduling, which shared
#: CI runners time-slice unpredictably.
DEFAULT_IGNORE_TESTS = ("procpool", "measured_process")


def load_payload(path: str) -> dict:
    """Load one smoke artifact; raises ValueError on schema mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    schema = payload.get("schema", "")
    if not str(schema).startswith("bench-smoke/"):
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return payload


def _test_durations(payload: dict) -> Dict[str, float]:
    return {
        rec["test"]: float(rec["duration_s"])
        for rec in payload.get("tests", [])
        if rec.get("outcome") == "passed" and "duration_s" in rec
    }


def _unit(field: str) -> Optional[str]:
    """``"s"`` for a seconds field (``csr_s``), ``"us"`` for a microseconds
    one (``query_us``, or a percentile of it such as ``query_us_p50``),
    ``None`` for anything else."""
    if field.endswith("_s"):
        return "s"
    if re.search(r"_us(_p\d+)?$", field):
        return "us"
    return None


def _kernel_timings(payload: dict) -> Dict[Tuple[str, str], float]:
    """Flatten measurement records into ``(name, field) -> value``.

    Only timing fields participate (:func:`_unit`); ratios and counters
    are machine-independent enough to not need a gate.
    """
    out: Dict[Tuple[str, str], float] = {}
    for rec in payload.get("measurements", []):
        name = rec.get("name")
        if not name:
            continue
        for field, value in rec.items():
            if _unit(field) and isinstance(value, (int, float)):
                out[(name, field)] = float(value)
    return out


def compare_payloads(
    previous: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    ignore_tests: Tuple[str, ...] = DEFAULT_IGNORE_TESTS,
) -> List[str]:
    """Return one human-readable line per regression (empty list = pass)."""
    regressions: List[str] = []
    prev_tests = _test_durations(previous)
    for test, cur in _test_durations(current).items():
        if any(pattern in test for pattern in ignore_tests):
            continue
        prev = prev_tests.get(test)
        if prev is None or prev < min_seconds or cur < min_seconds:
            continue
        if cur > prev * (1.0 + threshold):
            regressions.append(
                f"test {test}: {prev:.3f}s -> {cur:.3f}s "
                f"(+{(cur / prev - 1.0) * 100.0:.0f}%, threshold "
                f"{threshold * 100.0:.0f}%)"
            )
    prev_kernels = _kernel_timings(previous)
    for key, cur in _kernel_timings(current).items():
        prev = prev_kernels.get(key)
        name, field = key
        unit = _unit(field)
        if prev is None or prev <= 0:
            continue
        if unit == "s" and (prev < min_seconds or cur < min_seconds):
            continue
        if cur > prev * (1.0 + threshold):
            regressions.append(
                f"kernel {name}.{field}: {prev:.3f}{unit} -> {cur:.3f}{unit} "
                f"(+{(cur / prev - 1.0) * 100.0:.0f}%, threshold "
                f"{threshold * 100.0:.0f}%)"
            )
    return regressions


def archive_payload(
    payload: dict,
    history_dir: str,
    commit: str,
    *,
    keep: int = DEFAULT_KEEP,
) -> str:
    """Write ``payload`` into the rolling history directory, keyed by commit.

    The file name ``<created_unix>-<commit>.json`` makes a plain
    lexicographic sort the time order (the timestamp is zero-padded).
    Re-archiving the same commit overwrites its file.  The oldest entries
    beyond ``keep`` are pruned so the directory (a CI cache) stays bounded.
    Returns the written path.
    """
    os.makedirs(history_dir, exist_ok=True)
    created = int(payload.get("created_unix", 0) or 0)
    path = os.path.join(history_dir, f"{created:012d}-{commit}.json")
    # one entry per commit: a re-archived commit (re-run CI job regenerates
    # the artifact with a fresh timestamp) replaces its old file instead of
    # double-weighting the commit in the rolling median
    for stale in glob.glob(os.path.join(history_dir, f"*-{commit}.json")):
        if stale != path:
            with contextlib.suppress(OSError):
                os.remove(stale)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    entries = sorted(glob.glob(os.path.join(history_dir, "*.json")))
    for old in entries[:max(0, len(entries) - keep)]:
        with contextlib.suppress(OSError):
            os.remove(old)
    return path


def load_history(
    history_dir: str, *, window: Optional[int] = DEFAULT_WINDOW
) -> List[dict]:
    """Load the newest ``window`` archived payloads, oldest first.

    A missing directory is an empty history (the first run has nothing to
    compare against); unreadable or schema-mismatched files are skipped
    rather than failing the gate.
    """
    if not os.path.isdir(history_dir):
        return []
    paths = sorted(glob.glob(os.path.join(history_dir, "*.json")))
    if window is not None:
        paths = paths[-window:]
    payloads = []
    for path in paths:
        try:
            payloads.append(load_payload(path))
        except (ValueError, OSError, json.JSONDecodeError):
            continue
    return payloads


def _median_baseline(history: List[dict]) -> dict:
    """Reduce archived payloads to one synthetic per-metric-median payload."""
    test_samples: Dict[str, List[float]] = {}
    kernel_samples: Dict[Tuple[str, str], List[float]] = {}
    for payload in history:
        for test, duration in _test_durations(payload).items():
            test_samples.setdefault(test, []).append(duration)
        for key, value in _kernel_timings(payload).items():
            kernel_samples.setdefault(key, []).append(value)
    measurements: Dict[str, dict] = {}
    for (name, field), samples in kernel_samples.items():
        measurements.setdefault(name, {"name": name})[field] = statistics.median(
            samples
        )
    return {
        "schema": "bench-smoke/1",
        "tests": [
            {"test": t, "outcome": "passed", "duration_s": statistics.median(ds)}
            for t, ds in test_samples.items()
        ],
        "measurements": list(measurements.values()),
    }


def compare_to_history(
    history: List[dict],
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    ignore_tests: Tuple[str, ...] = DEFAULT_IGNORE_TESTS,
) -> List[str]:
    """Gate ``current`` against the per-metric median of ``history``.

    An empty history passes trivially (nothing to regress against).
    """
    if not history:
        return []
    return compare_payloads(
        _median_baseline(history),
        current,
        threshold=threshold,
        min_seconds=min_seconds,
        ignore_tests=ignore_tests,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.trend",
        description="Fail when the current benchmark artifact regressed "
        "against the previous one (pairwise mode) or against the rolling "
        "median of an artifact history (--history-dir mode).",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        help="pairwise mode: PREVIOUS CURRENT; with --history-dir: the "
        "CURRENT artifact only",
    )
    parser.add_argument(
        "--history-dir",
        default=None,
        help="directory of archived artifacts (one per commit); gates the "
        "current artifact against their rolling per-metric median",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help="how many of the newest archived artifacts form the baseline "
        f"(default {DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--archive",
        action="store_true",
        help="after a passing gate, archive the current artifact into "
        "--history-dir keyed by --commit",
    )
    parser.add_argument(
        "--commit",
        default="unknown",
        help="commit id used as the archive key (e.g. $GITHUB_SHA)",
    )
    parser.add_argument(
        "--keep",
        type=int,
        default=DEFAULT_KEEP,
        help=f"archived artifacts retained on disk (default {DEFAULT_KEEP})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed relative slowdown before failing (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="ignore timings below this on either side (noise floor)",
    )
    parser.add_argument(
        "--ignore-tests",
        nargs="*",
        default=list(DEFAULT_IGNORE_TESTS),
        help="test-id substrings excluded from the duration gate "
        "(multi-process benches whose wall-clock is scheduler noise)",
    )
    args = parser.parse_args(argv)

    if args.history_dir is not None:
        if len(args.artifacts) != 1:
            parser.error("--history-dir mode takes exactly one artifact (CURRENT)")
        current = load_payload(args.artifacts[0])
        history = load_history(args.history_dir, window=args.window)
        regressions = compare_to_history(
            history,
            current,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
            ignore_tests=tuple(args.ignore_tests),
        )
        if regressions:
            print(f"{len(regressions)} benchmark regression(s) vs rolling median:")
            for line in regressions:
                print(f"  {line}")
            return 1
        if history:
            print(
                f"benchmark trend OK vs median of {len(history)} archived "
                "artifact(s)"
            )
        else:
            print("no benchmark history yet; gate passes trivially")
        if args.archive:
            path = archive_payload(
                current, args.history_dir, args.commit, keep=args.keep
            )
            print(f"archived {path}")
        return 0

    if len(args.artifacts) != 2:
        parser.error("pairwise mode takes two artifacts: PREVIOUS CURRENT")
    previous = load_payload(args.artifacts[0])
    current = load_payload(args.artifacts[1])
    regressions = compare_payloads(
        previous,
        current,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        ignore_tests=tuple(args.ignore_tests),
    )
    if regressions:
        print(f"{len(regressions)} benchmark regression(s):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("benchmark trend OK (no regression above threshold)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
