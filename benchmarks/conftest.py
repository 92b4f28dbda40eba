"""Benchmark-suite configuration.

Ensures ``src/`` is importable without installation and provides shared
fixtures (prebuilt clique spaces for the benchmark datasets) so individual
benchmarks measure the algorithm under test rather than repeated setup.

Run with::

    pytest benchmarks/ --benchmark-only -o python_files="bench_*.py"

Each ``bench_*`` module regenerates one table or figure of the paper (the
mapping is in DESIGN.md §4 and EXPERIMENTS.md); the printed rows are the
reproduction, the pytest-benchmark timings quantify the cost of producing
them.

Smoke mode
----------
CI (and anyone wanting a <2 minute sanity run) uses *smoke mode*, enabled by
``--smoke`` or the ``BENCH_SMOKE=1`` environment variable::

    BENCH_SMOKE_JSON=BENCH_smoke.json \
        python -m pytest benchmarks -q --smoke -o python_files="bench_*.py"

Smoke mode disables pytest-benchmark's calibration/rounds (every benchmarked
callable runs exactly once), shrinks the workloads that expose a
``smoke_mode`` knob, and writes a machine-readable JSON artifact — one record
per test (outcome + wall-clock duration) plus any extra records benchmarks
attach via the ``bench_record`` fixture — to ``BENCH_SMOKE_JSON`` (default
``BENCH_smoke.json``) so the perf trajectory is recorded per commit.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.csr import CSRSpace, snd_decomposition_csr  # noqa: E402
from repro.core.space import NucleusSpace          # noqa: E402
from repro.datasets.registry import load_dataset   # noqa: E402

# Datasets small enough for every decomposition instance in a benchmark run.
BENCH_DATASETS = ("fb", "tw", "sse")
# Dataset used when a benchmark only needs a single representative graph.
PRIMARY_DATASET = "fb"

SMOKE_ENV = "BENCH_SMOKE"
SMOKE_JSON_ENV = "BENCH_SMOKE_JSON"
DEFAULT_SMOKE_JSON = "BENCH_smoke.json"

# module-level because pytest_runtest_logreport receives no config object
_RECORDS = []
_EXTRA = []


def _smoke_enabled(config) -> bool:
    if os.environ.get(SMOKE_ENV, "").strip() not in ("", "0"):
        return True
    try:
        return bool(config.getoption("--smoke"))
    except ValueError:  # option not registered (not an initial-args conftest)
        return False


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="fast benchmark mode: single-shot timings, shrunken workloads, "
        "JSON artifact (also enabled by BENCH_SMOKE=1)",
    )


def pytest_configure(config):
    if _smoke_enabled(config) and hasattr(config.option, "benchmark_disable"):
        # run each benchmarked callable exactly once, no calibration
        config.option.benchmark_disable = True


def pytest_runtest_logreport(report):
    if report.when == "call":
        _RECORDS.append(
            {
                "test": report.nodeid,
                "outcome": report.outcome,
                "duration_s": round(report.duration, 4),
            }
        )


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    path = os.environ.get(SMOKE_JSON_ENV, "").strip()
    if not path and _smoke_enabled(config):
        path = DEFAULT_SMOKE_JSON
    if not path or not _RECORDS:
        return
    payload = {
        "schema": "bench-smoke/1",
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": _smoke_enabled(config),
        "exit_status": int(exitstatus),
        "tests": _RECORDS,
        "measurements": _EXTRA,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="session")
def smoke_mode(request) -> bool:
    """True when the suite runs in the fast CI smoke configuration."""
    return _smoke_enabled(request.config)


@pytest.fixture
def bench_record(request):
    """Attach a measurement record to the smoke JSON artifact.

    Usage::

        def test_speedup(bench_record):
            ...
            bench_record(name="and_csr_speedup", speedup=ratio)
    """

    def _record(**fields):
        fields.setdefault("test", request.node.nodeid)
        _EXTRA.append(fields)

    return _record


@pytest.fixture
def record_snd_seconds(bench_record):
    """Time serial SND on a dataset's (r, s) space and record it, no floor.

    Usage: ``record_snd_seconds("fig1a_snd", "fb", 2, 3)`` records
    ``snd_s`` (one call, space built beforehand) and the iteration count.
    """

    def _record(name, dataset, r, s):
        space = CSRSpace.from_graph(load_dataset(dataset, representation="csr"), r, s)
        t0 = time.perf_counter()
        result = snd_decomposition_csr(space)
        bench_record(
            name=name,
            dataset=dataset,
            r=r,
            s=s,
            snd_s=round(time.perf_counter() - t0, 4),
            iterations=result.iterations,
        )

    return _record


@pytest.fixture(scope="session")
def primary_graph():
    return load_dataset(PRIMARY_DATASET)


@pytest.fixture(scope="session")
def core_space(primary_graph):
    return NucleusSpace(primary_graph, 1, 2)


@pytest.fixture(scope="session")
def truss_space(primary_graph):
    return NucleusSpace(primary_graph, 2, 3)


@pytest.fixture(scope="session")
def three_four_space():
    # (3, 4) is the most expensive instance; use the smaller 'tw' stand-in
    return NucleusSpace(load_dataset("tw"), 3, 4)
