"""Compare two benchmark result files, parent against change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the ``--trace 0`` records that ``run.py --record`` appended.
For every workload and end-to-end metric this prints both sides' medians
and quartiles, the share of seed-matched pairs the change wins (ties count
for neither side) and a verdict:

- improved: the change wins at least 9/10 of the pairs, its median is better
  and differs from the parent's by more than the parent's quartile spread,
  and no more runs failed than at the parent;
- unresolved: the parent's own spread is wider than the metric's bound and
  not every change run reads better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound in BENCHMARK.json;
- unchanged: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Workload -> its untraced records, in file order."""
    rows: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    rows.setdefault(record["workload"], []).append(record)
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Records matched by seed, in order where a seed repeats."""
    pool: dict[int, list[dict]] = {}
    for rec in change:
        pool.setdefault(rec["seed"], []).append(rec)
    matched = []
    for rec in parent:
        if pool.get(rec["seed"]):
            matched.append((rec, pool[rec["seed"]].pop(0)))
    return matched


def value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def verdict(parent: list[float], change: list[float], wins: int, n_pairs: int,
            lower_is_better: bool, bound: float, more_failures: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = sign * (cm - pm) / pm
    if (n_pairs and wins >= WIN_SHARE * n_pairs and worse_by < 0
            and abs(cm - pm) > q3 - q1 and not more_failures):
        return "improved"
    if (q3 - q1) / pm > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> list[str]:
    lines = []
    for workload in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[workload], change[workload]
        failed, tried = (
            [sum(r["result"][key] for r in recs) for recs in (p_recs, c_recs)]
            for key in ("failed", "attempted"))
        lines.append(
            f"{workload}: parent {len(p_recs)} runs, failed {failed[0]}/{tried[0]}; "
            f"change {len(c_recs)} runs, failed {failed[1]}/{tried[1]}")
        matched = pairs(p_recs, c_recs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            p_vals = [value(r, name) for r in p_recs]
            c_vals = [value(r, name) for r in c_recs]
            diffs = [value(c, name) - value(p, name) for p, c in matched]
            wins = sum(d < 0 if lower else d > 0 for d in diffs)
            verdict_ = verdict(p_vals, c_vals, wins, len(matched), lower,
                               metric["bound"], failed[1] > failed[0])
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            share = f"{wins}/{len(matched)}" if matched else "n/a"
            lines.append(
                f"  {name:<12} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
                f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {metric['unit']}  "
                f"({(cq[1] - pq[1]) / pq[1]:+.1%}, wins {share}, "
                f"bound {metric['bound']:.0%})  {verdict_}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    lines = compare(load(args.parent), load(args.change), spec)
    if not lines:
        print("error: the two files share no workload", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
