"""Pipeline benchmark: edge-list file → κ → hierarchy → bundle → queries.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload truss-pipeline --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and nowhere else; with
no ``src/repro`` there the benchmark exits with status 2 and prints no result.
Scratch files and the run record (machine context, failures, spans) go to
``.bench_out/`` in the checkout.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  See ``perfbench/NOTES.md`` for what each number means.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import the program from ``src/`` of the checkout; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'repro'}")
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import bench  # noqa: F401  (imports numpy and every measured module)

    elapsed = time.perf_counter() - t0
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported {repro.__file__}, not the checkout's")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    work = out / f"{workload.name}-{args.seed}-{os.getpid()}"
    context = bench.machine_context(workload)
    try:
        result = bench.run(
            workload, args.seed, args.seconds, bool(args.trace), work, import_s
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "context": context,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": result.samples,
        "errors": result.errors,
        "spans": result.spans,
    }
    record_path = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")
    print(f"samples: {json.dumps(result.samples)}", file=sys.stderr)
    for error in result.errors:
        lines = error.strip().splitlines()
        print(f"failed operation: {lines[0]} ... {lines[-1]}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
