"""``python -m bench compare A/ B/``: two result sets, metric by metric.

A result set is any directory holding per-workload result files
(``<workload>.json``, as ``bench/run.py --out`` writes them), at any
depth.  For every (end-to-end metric, workload) the table shows each
set's median and quartiles and a verdict against the metric's bound
in ``BENCHMARK.json``: ``within bound``, ``worse``, or ``unresolved``
when either set's spread is wider than the bound.  Per-layer metrics
of traced results are listed with their medians; they carry no bound.
Smoke results are skipped.  Exit code 1 when any verdict is not
``within bound``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import load_spec
from bench.stats import quartiles, verdict


def load(root: Path) -> dict[tuple[str, int], list[dict]]:
    """Comparable results under ``root``, keyed by (workload, trace)."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(root.rglob("*.json")):
        try:
            detail = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(detail, dict) or "workload" not in detail:
            continue
        if "metrics" not in detail or not detail.get("comparable"):
            continue
        runs.setdefault((detail["workload"], detail["trace"]), []).append(
            detail)
    return runs


def _values(details: list[dict], metric: str) -> list[float]:
    return [d["metrics"][metric]["value"] for d in details
            if metric in d["metrics"]]


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    base, head = load(args.base), load(args.head)
    verdicts = []
    print(f"{'metric':12s} {'workload':13s} {'base median [q1, q3]':>38s} "
          f"{'head median [q1, q3]':>38s}  verdict")
    for metric in spec["end_to_end"]:
        for workload in spec["workloads"]:
            key = (workload["name"], 0)
            a = _values(base.get(key, []), metric["name"])
            b = _values(head.get(key, []), metric["name"])
            if not a or not b:
                print(f"{metric['name']:12s} {workload['name']:13s} "
                      "missing results")
                verdicts.append("missing")
                continue
            result = verdict(a, b, better=metric["better"],
                             bound=metric["bound"])
            verdicts.append(result)
            print(f"{metric['name']:12s} {workload['name']:13s} "
                  f"{_cell(a):>38s} {_cell(b):>38s}  {result}")
    traced = [w["name"] for w in spec["workloads"]
              if base.get((w["name"], 1)) and head.get((w["name"], 1))]
    for workload in traced:
        print(f"\nper-layer medians, {workload} (no bound)")
        for metric in spec["per_layer"]:
            a = _values(base[(workload, 1)], metric["name"])
            b = _values(head[(workload, 1)], metric["name"])
            if a and b and (any(a) or any(b)):
                print(f"  {metric['name']:38s} {quartiles(a)[1]:14.6g} "
                      f"{quartiles(b)[1]:14.6g} {metric['unit']}")
    bad = [v for v in verdicts if v != "within bound"]
    print(f"\n{len(verdicts) - len(bad)} within bound, "
          f"{bad.count('worse')} worse, {bad.count('unresolved')} "
          f"unresolved, {bad.count('missing')} missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
