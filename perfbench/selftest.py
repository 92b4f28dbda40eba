"""Self-test of the benchmark on tiny inputs (a few seconds).

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It runs every workload once untraced and once traced on tiny graphs and
checks that the printed result names exactly the metrics of
``BENCHMARK.json``, each with its unit; that a deliberately corrupted κ is
counted as a failed operation; and that without the program's source the
benchmark exits non-zero and prints no result.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from graphs import Communities, PowerlawCluster  # noqa: E402

TINY = {
    "truss-pipeline": PowerlawCluster(300, 4, 0.7),
    "dense-communities": Communities(200, 5, 12, 0.6, 1),
}


def result_of(argv) -> dict:
    """Run the benchmark in-process; the parsed last line of its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_units(result: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"printed {got}, declared {want}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    import bench

    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    for name, graph in TINY.items():
        bench.WORKLOADS[name] = dataclasses.replace(
            bench.WORKLOADS[name], graph=graph, queries=20
        )
    bench.MIN_QUERIES = 30
    bench.EXACT_PREFIX = 10

    for name in TINY:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_of(
                ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
            )
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            check_units(result, declared)
            print(f"ok: {name} trace={trace}, {result['attempted']} operations")

    honest = bench.nucleus_decomposition
    calls = []

    def corrupted(*args, **kwargs):
        """The first decomposition returns one wrong κ, the rest are honest."""
        result = honest(*args, **kwargs)
        if not calls:
            result.kappa[0] += 1
        calls.append(1)
        return result

    bench.nucleus_decomposition = corrupted
    try:
        result = result_of(
            ["--workload", "truss-pipeline", "--seed", "3", "--seconds", "0", "--trace", "0"]
        )
    finally:
        bench.nucleus_decomposition = honest
    assert not result["correct"] and result["failed"] >= 1, result
    print(f"ok: corrupted kappa counted, {result['failed']} failed")

    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "truss-pipeline",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done
    print(f"ok: without the program the benchmark exits {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
