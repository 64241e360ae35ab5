#!/usr/bin/env python3
"""Compare two suite result files, metric by metric.

    python3 benchmarks/suite/compare.py A.json B.json

A file is the ``results.json`` of a full ``run.py`` invocation or the
``<workload>_trace0.json`` record of a single run.  For each (workload,
end-to-end metric) present in both, it prints the median of A, the
median of B, how much worse B is (a share of A's median, negative when
B is better) and the metric's bound from ``BENCHMARK.json``.  Rows of
workloads that ``BENCHMARK.json`` does not list are shown but never
fail.  Acc% and Litho# of the Alg. 2 workloads have a bound of 0: a CPU
saving that costs accuracy or litho clips is a regression.  Compare runs of the same
seeds.  The exit code is 1 when any pair is out of bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Alg. 2 result quality, compared exactly
QUALITY = (
    {"name": "acc_pct", "better": "higher", "bound": 0.0},
    {"name": "litho_clips", "better": "lower", "bound": 0.0},
)


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of the untraced runs in a file."""
    data = json.loads(Path(path).read_text())
    values: dict[tuple[str, str], list[float]] = {}
    for record in data if isinstance(data, list) else [data]:
        if record["trace"]:
            continue
        found = {name: metric["value"]
                 for name, metric in record["metrics"].items()}
        found.update(
            (entry["name"], record["details"][entry["name"]])
            for entry in QUALITY if entry["name"] in record["details"]
        )
        for name, value in found.items():
            values.setdefault((record["workload"], name), []).append(value)
    return values


def compare(a: dict, b: dict, metrics: list[dict],
            bounded: set[str]) -> list[dict]:
    """One row per (workload, metric) found in both ``a`` and ``b``;
    only the ``bounded`` workloads can fail."""
    by_name = {entry["name"]: entry for entry in metrics}
    rows = []
    for workload, name in sorted(
        key for key in a if key in b and key[1] in by_name
    ):
        entry = by_name[name]
        base = statistics.median(a[workload, name])
        new = statistics.median(b[workload, name])
        # every compared metric is non-zero by construction
        change = (new - base) / base
        worse = change if entry["better"] == "lower" else -change
        rows.append({
            "workload": workload, "metric": name, "a": base, "b": new,
            "worse": worse, "bound": entry["bound"],
            "ok": workload not in bounded or worse <= entry["bound"],
            "bounded": workload in bounded,
        })
    return rows


def _status(row: dict) -> str:
    if not row["bounded"]:
        return "unbounded"
    return "ok" if row["ok"] else "OUT OF BOUND"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]),
                   spec["end_to_end"] + list(QUALITY),
                   {entry["name"] for entry in spec["workloads"]})
    print(f"{'workload':14s} {'metric':13s} {'A':>13s} {'B':>13s} "
          f"{'worse':>8s} {'bound':>6s}")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:13s} {row['a']:13.4f} "
              f"{row['b']:13.4f} {100 * row['worse']:7.1f}% "
              f"{100 * row['bound']:5.0f}% "
              f"{_status(row)}")
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
