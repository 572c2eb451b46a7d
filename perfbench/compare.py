"""Compare two sets of benchmark records, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to .perfbench_out/
(``<workload>-seed<n>-trace0-threads<k>.json``). For every workload found
in both, prints each metric's median and quartiles on both sides and the
change of the median. Refuses (exit 2) when the records differ in machine,
CPU count, BLAS library, BLAS version, BLAS thread count or run length,
since such timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SAME = ("machine", "node", "nproc", "blas", "blas_version", "blas_threads")


def load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    machines = {tuple(r["meta"][k] for k in SAME) + (r["seconds"],)
                for side in (base, new) for records in side.values() for r in records}
    if len(machines) > 1:
        print("compare: records differ in machine, threads or run length:", file=sys.stderr)
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(SAME + ("seconds",), m)),
                  file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        metrics = base[workload][0]["result"]["metrics"]
        for name, first in metrics.items():
            b = summary([r["result"]["metrics"][name]["value"] for r in base[workload]])
            n = summary([r["result"]["metrics"][name]["value"] for r in new[workload]])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            print(f"  {name:14s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change:+.2%} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
