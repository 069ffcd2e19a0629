"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>.runs.jsonl`` files ``run.py`` appends
to (use ``--out`` to keep the two commits apart).  Runs pair up by seed.
Host-timed end-to-end metrics get one of four verdicts:

- unresolved: fewer than 10 pairs, or either side's spread (quartile
  distance over median) exceeds the metric's bound, unless every change
  run beats every parent run;
- improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  bound in ``BENCHMARK.json``;
- unchanged: otherwise.

Modeled values (simulated GOP/s, virtual latencies, op counts) repeat
exactly for a seed, so each pair is compared exactly.  The exit code is 1
when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import harness

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def host_verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """Verdict for paired samples of a noisy metric (pair i = same seed)."""
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    spread = max(_iqr(parent) / abs(base), _iqr(change) / abs(statistics.median(change)))
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not beats_all:
        return "unresolved"
    if wins >= WIN_SHARE * len(parent) and gain > _iqr(parent):
        return "improved"
    if -gain > bound * abs(base):
        return "worse"
    return "unchanged"


def exact_verdict(parent: Sequence[float], change: Sequence[float], better: str) -> str:
    """Verdict for paired values that a seed determines exactly."""
    if not parent:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    moves = {(sign * (c - p) > 0) for p, c in zip(parent, change) if c != p}
    if not moves:
        return "unchanged"
    if moves == {True}:
        return "improved"
    return "worse" if moves == {False} else "unresolved"


def _pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    by_seed: Dict[int, List[dict]] = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in parent:
        partners = by_seed.get(record["seed"])
        if partners:
            pairs.append((record, partners.pop(0)))
    return pairs


def _runs(directory: Path, workload: str) -> List[dict]:
    path = directory / f"{workload}.runs.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def compare(parent_dir: Path, change_dir: Path, declaration: dict) -> List[dict]:
    """One row per (metric, workload): medians, pair count and verdict."""
    rows = []
    directions = {m["name"]: m["better"] for m in declaration["per_layer"]}
    for workload in (w["name"] for w in declaration["workloads"]):
        pairs = _pairs(_runs(parent_dir, workload), _runs(change_dir, workload))
        more_failures = sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            verdict = host_verdict(parent, change, metric["bound"], metric["better"])
            if verdict == "improved" and more_failures:
                verdict = "unresolved"  # a gain does not count with more failures
            rows.append(_row(workload, name, parent, change, verdict))
        for name in sorted(pairs[0][0]["modeled"]) if pairs else ():
            parent = [p["modeled"][name] for p, _ in pairs]
            change = [c["modeled"].get(name, float("nan")) for _, c in pairs]
            rows.append(_row(workload, name, parent, change, exact_verdict(parent, change, directions[name])))
    return rows


def _row(workload, metric, parent, change, verdict) -> dict:
    return {
        "workload": workload,
        "metric": metric,
        "pairs": len(parent),
        "parent_median": statistics.median(parent) if parent else None,
        "change_median": statistics.median(change) if change else None,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="runs of the parent commit")
    parser.add_argument("change", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, harness.load_declaration())
    for row in rows:
        parent = "-" if row["parent_median"] is None else f"{row['parent_median']:.6g}"
        change = "-" if row["change_median"] is None else f"{row['change_median']:.6g}"
        print(
            f"{row['workload']:<14} {row['metric']:<40} n={row['pairs']:<3} "
            f"{parent:>12} -> {change:<12} {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
