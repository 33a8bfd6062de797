"""Do two sets of runs agree?

``python -m benchmarks.e2e.compare A B`` — ``A`` and ``B`` are report
files or directories of them (``run.py --out``).  For every workload
and end-to-end metric it prints each set's median and quartiles and
whether the medians agree within the metric's bound; a metric whose
run-to-run spread exceeds its bound is *unresolved*, not unchanged.
Sets of different modes or sizes (``--smoke`` against full) are refused.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import spec
from benchmarks.e2e.stats import spread

__all__ = ["load", "collect", "print_spread", "compare", "main"]

Key = Tuple[str, str]


def load(path: str) -> List[Dict[str, Any]]:
    """The reports in one file or directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".json")
        )
    else:
        files = [path]
    reports = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


def collect(reports: List[Dict[str, Any]]) -> Dict[Key, List[float]]:
    """(workload, end-to-end metric) -> one value per run."""
    values: Dict[Key, List[float]] = defaultdict(list)
    for report in reports:
        for metric, value in report["end_to_end"].items():
            values[(report["workload"], metric)].append(value)
    return values


def shape(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """What must match before two sets may be compared."""
    return {
        report["workload"]: (report["mode"], report["sizes"])
        for report in reports
    }


def _row(values: List[float]) -> Optional[Dict[str, float]]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0, "n": 1}
    return spread(values)


def print_spread(reports: List[Dict[str, Any]]) -> None:
    """Each end-to-end metric's median, quartiles and IQR/median over
    repeated runs, against its bound."""
    print(f"{'workload':<16} {'metric':<19} {'n':>2} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for (workload, metric), values in sorted(collect(reports).items()):
        row = _row(values)
        bound = spec.E2E_BY_NAME[metric][3]
        flag = "" if row["spread"] <= bound else "  NOISY"
        print(f"{workload:<16} {metric:<19} {row['n']:>2} "
              f"{row['median']:>12.6g} {row['q1']:>12.6g} "
              f"{row['q3']:>12.6g} {row['spread']:>8.3f} {bound:>6.2f}{flag}")


def compare(
    first: List[Dict[str, Any]], second: List[Dict[str, Any]]
) -> int:
    """Print the comparison; returns how many pairings differ."""
    a, b = collect(first), collect(second)
    differ = 0
    print(f"{'workload':<16} {'metric':<19} {'median A':>12} "
          f"{'median B':>12} {'B vs A':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, metric = key
        if key not in a or key not in b:
            print(f"{workload:<16} {metric:<19} only in "
                  f"{'A' if key in a else 'B'}")
            differ += 1
            continue
        row_a, row_b = _row(a[key]), _row(b[key])
        bound = spec.E2E_BY_NAME[metric][3]
        base = row_a["median"]
        change = (row_b["median"] - base) / abs(base) if base else 0.0
        if row_a["median"] == row_b["median"]:
            verdict = "agree"
        elif max(row_a["spread"], row_b["spread"]) > bound:
            verdict = "unresolved (spread > bound)"
        elif abs(change) <= bound:
            verdict = "agree"
        else:
            verdict = "DIFFER"
            differ += 1
        print(f"{workload:<16} {metric:<19} {row_a['median']:>12.6g} "
              f"{row_b['median']:>12.6g} {change:>+8.3f} {bound:>6.2f}  "
              f"{verdict}")
    return differ


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = load(args[0]), load(args[1])
    shape_a, shape_b = shape(first), shape(second)
    for workload in set(shape_a) & set(shape_b):
        if shape_a[workload] != shape_b[workload]:
            print(f"refusing to compare: {workload} ran as "
                  f"{shape_a[workload][0]} in A and {shape_b[workload][0]} "
                  "in B, or with different sizes", file=sys.stderr)
            return 2
    return 1 if compare(first, second) else 0


if __name__ == "__main__":
    sys.exit(main())
