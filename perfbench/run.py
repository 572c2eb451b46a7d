"""Layered end-to-end benchmark of the l1kpca command line.

    python3 perfbench/run.py --workload gauss-1200 --seed 1 --seconds 45 --trace 0

runs one workload in this process against the program in ../src and
prints one JSON result as the last line of stdout. Instead of timing for
--seconds, --trace 1 runs the workload once untraced, once with per-layer
spans and once with memory tracing. --workload all runs every workload,
each in a fresh process, and prints a table. See perfbench/README.md for
the metrics.

BLAS threads are pinned before numpy is imported, to one thread unless
--threads says otherwise, and the pin is recorded in the result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS thread pin (default: 1; see README.md)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's checked outputs in reference.json")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; print each end-to-end metric by name and unit."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench import WORKLOADS
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        argv += ["--threads", str(args.threads)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:10s} {metric:44s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:10s} correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "l1kpca" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'l1kpca'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench import run  # imports numpy, after the thread pin
    return run(args, args.threads)


if __name__ == "__main__":
    sys.exit(main())
