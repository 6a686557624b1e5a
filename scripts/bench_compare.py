#!/usr/bin/env python3
"""Compare two sets of gapbench results and write a ``BENCH_<n>.json`` record.

    python3 scripts/bench_compare.py --parent PARENT/.gapbench/results \\
        --change CHANGE/.gapbench/results --out BENCH_<n>.json

Each directory holds the ``<workload>-seed<N>-trace0.json`` files that
``gapbench/run.py --trace 0`` writes, one per run. Runs of the two sides
pair up by workload and seed. For every workload and every end-to-end
metric of ``BENCHMARK.json`` (plus ``failed_frac``) the record gives each
side's q1, median and q3, the number of pairs the change wins (ties count
for neither side), and whether the median gain exceeds the parent's
interquartile range. It also keeps the per-pair values and each side's
machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> result of every end-to-end run in ``directory``."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs[result["workload"], result["seed"]] = result
    if not runs:
        raise SystemExit(f"bench_compare: no *-trace0.json results in {directory}")
    return runs


def value(result: dict, metric: str) -> float:
    if metric == "failed_frac":
        return result["failed"] / max(result["attempted"], 1)
    return result["metrics"][metric]["value"]


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def machine(runs: list[dict]) -> dict:
    """The machine fields every run agrees on, plus the host-speed probes."""
    records = [r["machine"] for r in runs]
    common = {k: v for k, v in records[0].items()
              if not k.startswith("host_probe") and all(m.get(k) == v for m in records)}
    probes = [m[k] for m in records for k in ("host_probe_ms_before", "host_probe_ms_after")]
    return {**common, "host_probe_ms": quartiles(probes), "runs": len(records)}


def compare(parent: dict, change: dict, spec: dict) -> dict:
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("bench_compare: no workload and seed is run on both sides")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["failed_frac"] = "lower"
    workloads = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        metrics = {}
        for metric, direction in better.items():
            pairs = [(value(parent[workload, s], metric), value(change[workload, s], metric))
                     for s in seeds]
            sign = 1.0 if direction == "lower" else -1.0
            before = quartiles([p for p, _ in pairs])
            after = quartiles([c for _, c in pairs])
            metrics[metric] = {
                "better": direction,
                "parent": before,
                "change": after,
                "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
                "pairs": len(pairs),
                "median_gain_exceeds_parent_iqr":
                    sign * (before["median"] - after["median"]) > before["q3"] - before["q1"],
                "per_seed": {str(s): {"parent": p, "change": c} for s, (p, c) in zip(seeds, pairs)},
            }
        workloads[workload] = metrics
    return {
        "workloads": workloads,
        "machine": {
            "parent": machine([parent[k] for k in keys]),
            "change": machine([change[k] for k in keys]),
        },
        "seconds": sorted({r["seconds"] for r in (*parent.values(), *change.values())}),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent's results directory")
    parser.add_argument("--change", type=Path, required=True, help="change's results directory")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = compare(load_runs(args.parent), load_runs(args.change), spec)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, metrics in record["workloads"].items():
        for metric, row in metrics.items():
            print(f"{workload:<12} {metric:<12} parent {row['parent']['median']:.6g} "
                  f"change {row['change']['median']:.6g} "
                  f"wins {row['change_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
