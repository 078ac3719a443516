"""Verdicts over two results files of :mod:`icpebench.runner`.

    python3 benchmarks/e2e/compare.py A.json B.json

Per workload and end-to-end metric: both runs' values and pass spreads,
and whether B is worse than A by more than the bound BENCHMARK.json fixes.
Where either run's own spread exceeds the bound the cell is ``unresolved``
— neither "unchanged" nor "regressed" can be told from it.  Exits 1 on a
regression or on a higher share of failed operations, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def verdict(a: dict[str, float], b: dict[str, float], better: str, bound: float) -> tuple[str, float]:
    """``(label, share by which B is worse than A)`` for one cell."""
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regression", worse_by
    return ("better" if worse_by < -bound else "same"), worse_by


def compare_results(a: dict[str, Any], b: dict[str, Any], metrics: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per workload x metric present in both files, plus failures."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        row_a, row_b = a["workloads"][name], b["workloads"][name]
        for metric in metrics:
            cell_a = row_a.get("end_to_end", {}).get(metric["name"])
            cell_b = row_b.get("end_to_end", {}).get(metric["name"])
            if cell_a is None or cell_b is None:
                rows.append({"workload": name, "metric": metric["name"], "verdict": "missing"})
                continue
            label, worse_by = verdict(cell_a, cell_b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": name, "metric": metric["name"], "unit": metric["unit"],
                    "a": cell_a["value"], "b": cell_b["value"],
                    "a_spread": cell_a["spread"], "b_spread": cell_b["spread"],
                    "bound": metric["bound"], "worse_by": worse_by, "verdict": label,
                }
            )
        failed_a = row_a["ops_failed"] / row_a["ops_attempted"]
        failed_b = row_b["ops_failed"] / row_b["ops_attempted"]
        rows.append(
            {
                "workload": name, "metric": "ops_failed/ops_attempted",
                "a": failed_a, "b": failed_b,
                "verdict": "regression" if failed_b > failed_a else "same",
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
    rows = compare_results(a, b, contract["end_to_end"])
    for row in rows:
        if "worse_by" in row:
            print(
                f"{row['workload']:<20} {row['metric']:<26} "
                f"A {row['a']:>12.3f} (spread {100 * row['a_spread']:4.1f} %)  "
                f"B {row['b']:>12.3f} (spread {100 * row['b_spread']:4.1f} %)  "
                f"{row['unit']:<4} B worse by {100 * row['worse_by']:+6.1f} % "
                f"(bound {100 * row['bound']:.0f} %): {row['verdict']}"
            )
        elif "a" in row:
            print(f"{row['workload']:<20} {row['metric']:<26} A {row['a']:.4f}  B {row['b']:.4f}: {row['verdict']}")
        else:
            print(f"{row['workload']:<20} {row['metric']:<26} {row['verdict']}")
    counts = {label: sum(row["verdict"] == label for row in rows) for label in ("regression", "unresolved", "missing")}
    print(", ".join(f"{count} {label}" for label, count in counts.items()))
    return 1 if counts["regression"] or counts["missing"] else 0
