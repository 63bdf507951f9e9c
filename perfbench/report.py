#!/usr/bin/env python3
"""Summarise run records written by ``run.py`` under ``.perfbench/runs``.

    python3 perfbench/report.py [--since UNIX_SECONDS] [--json]

Per workload and end-to-end metric: the median of the untraced runs,
their quartile spread (Q3 - Q1, from ``statistics.quantiles(n=4)``) as a
share of the median, and the tracing overhead (traced median minus
untraced median).  Per workload it also prints the median per-layer
table of the traced runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(since: float) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench", "runs", "*.json"))):
        if os.path.getmtime(path) < since:
            continue
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        if not rec.get("smoke"):
            out.append(rec)
    return out


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def summarise(records: list[dict]) -> dict:
    by: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        by.setdefault((r["workload"], r["trace"]), []).append(r)
    out: dict = {}
    for wl in sorted({w for w, _ in by}):
        plain, traced = by.get((wl, 0), []), by.get((wl, 1), [])
        rows = {}
        names = plain[0]["end_to_end"] if plain else (traced[0]["end_to_end"] if traced else {})
        for name in names:
            row = {}
            if plain:
                vals = [r["end_to_end"][name] for r in plain]
                row.update(n=len(vals), median=statistics.median(vals), spread=spread(vals))
            if traced:
                tvals = [r["end_to_end"][name] for r in traced]
                row["traced_median"] = statistics.median(tvals)
                if plain:
                    row["tracing_overhead"] = row["traced_median"] - row["median"]
            rows[name] = row
        layers = {}
        if traced:
            for name in traced[0]["per_layer"]:
                layers[name] = statistics.median(r["per_layer"][name] for r in traced)
        out[wl] = {"end_to_end": rows, "per_layer": layers,
                   "failed": sum(r["failed"] for r in plain + traced)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--since", type=float, default=0.0, help="ignore records older than this")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    summary = summarise(load(args.since))
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for wl, s in summary.items():
        print(f"== {wl} (failed ops: {s['failed']})")
        print(f"  {'metric':<24} {'n':>3} {'median':>12} {'spread':>8} {'traced-untraced':>16}")
        for name, row in s["end_to_end"].items():
            print(f"  {name:<24} {row.get('n', 0):>3} {row.get('median', float('nan')):>12.5g} "
                  f"{row.get('spread', float('nan')):>8.3f} "
                  f"{row.get('tracing_overhead', float('nan')):>16.4g}")
        for name, value in s["per_layer"].items():
            print(f"    {name:<36} {value:>14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
