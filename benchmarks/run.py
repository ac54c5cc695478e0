"""Benchmark of the covertswarm CLI: four workloads, end-to-end metrics,
and a traced run for per-layer metrics.

    python3 benchmarks/run.py --workload dataset --seed 1 --seconds 15 --trace 0

Prints a report with every metric by name and unit, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dataset", "train", "eval-covert", "eval-covert-dense")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_blas_threads() -> str | None:
    """Cap OpenBLAS at nproc threads before numpy loads; returns the value given."""
    given = os.environ.get("OPENBLAS_NUM_THREADS")
    if given is None or not given.isdigit() or not 1 <= int(given) <= nproc():
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    return given


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("reference", "tiny"), default="reference",
                        help="tiny: the few-second version the self-test runs")
    args = parser.parse_args(argv)

    if not (SRC / "covertswarm" / "cli.py").is_file():
        print(f"error: covertswarm sources not found under {SRC}", file=sys.stderr)
        return 2
    given = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness  # imports numpy, so only after the BLAS limit is set

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result = harness.benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.size, work, given)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1, default=str))
    for line in harness.report(result):
        print(line)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
