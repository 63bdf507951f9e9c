#!/usr/bin/env python3
"""Interleaved A/B of the benchmark: a base revision against this checkout.

    python3 BENCH/ab.py <base-rev> [--trace] [--pairs 10] [--seed 1001]
        [--workloads replay_mor,replay_cow] [--seconds 30] [--workdir DIR]

The base revision is exported with ``git archive`` into ``--workdir``
(default: ``ab/`` under the system temp dir); the change side is a copy
of this checkout as it stands (tracked and untracked files, not the
ignored ones), made next to it at start.  Both trees sit at paths of
the same length, so ``perfbench/run.py`` puts Ray's session files in the
same place for both (its socket-path limit sends a long checkout path
to Ray's default temp dir).  For each workload, pair ``i`` runs
``perfbench/run.py --seed <seed + i>`` once in each tree, alternating
which side runs first, so a drifting host weighs on both sides alike.
Every run's metrics are appended to a JSONL file in the work dir;
``--report FILE`` re-prints the summary of such a file.

The summary gives, per workload and metric: the base and change
medians with their quartiles, the median, min and max of the per-pair
ratio change/base, and in how many pairs the change was better.  The
end-to-end metrics take their direction from ``BENCHMARK.json``; with
``--trace`` the runs are traced and the per-layer metrics are reported,
counting "lower" as better.  A run that fails its correctness check is
reported and left out of the statistics.  Every run that exits non-zero,
even one that printed a result, keeps its exit code and stderr tail in
the JSONL record, and the summary lists each such run's exit code and
last stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, workdir: str) -> str:
    """A clean tree of *rev* under *workdir* (reused when present)."""
    sha = subprocess.check_output(
        ["git", "rev-parse", "--short=12", rev], cwd=ROOT, text=True
    ).strip()
    tree = os.path.join(workdir, f"base-{sha}")
    if not os.path.isdir(tree):
        os.makedirs(tree + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.check_call(["tar", "-x", "-C", tree + ".tmp"], stdin=archive.stdout)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
        os.rename(tree + ".tmp", tree)
    return tree


def snapshot(workdir: str) -> str:
    """A copy of this checkout's working tree under *workdir*, named like
    an export so both sides' paths have the same length."""
    tree = os.path.join(workdir, "work-" + time.strftime("%y%m%d%H%M%S"))
    files = subprocess.check_output(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT, text=True
    ).split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(tree, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(tree, rel))
    return tree


def run_one(tree: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run's record: ``correct``, ``metrics`` and, for a
    non-zero exit (whether or not it printed a result), ``returncode``
    and the tail of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    failed = {}
    if proc.returncode != 0:
        failed = {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    if not lines:
        return {"correct": False, "error": (proc.stderr or proc.stdout)[-2000:], "metrics": {},
                **failed}
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            **failed}


def last_line(text: str) -> str:
    lines = [ln for ln in (text or "").splitlines() if ln.strip()]
    return lines[-1].strip() if lines else ""


def directions() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def quartiles(vals: list[float]) -> tuple[float, float]:
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


def report(records: list[dict], better: dict[str, str]) -> None:
    for wl in sorted({r["workload"] for r in records}):
        pairs: dict[int, dict[str, dict]] = {}
        for r in records:
            if r["workload"] == wl:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        bad = [(s, side) for s, p in pairs.items() for side, r in p.items() if not r["correct"]]
        full = [p for p in pairs.values()
                if len(p) == 2 and p["base"]["correct"] and p["change"]["correct"]]
        print(f"\n{wl}: {len(full)} pairs" + (f"; failed runs {bad}" if bad else ""))
        for s, p in sorted(pairs.items()):
            for side, r in sorted(p.items()):
                if r.get("returncode"):
                    print(f"  exit {r['returncode']}: seed {s} {side}: "
                          f"{last_line(r.get('stderr', ''))}")
        if not full:
            continue
        names = [n for n in full[0]["base"]["metrics"] if n in full[0]["change"]["metrics"]]
        rows = [("metric", "base median [q1, q3]", "change median [q1, q3]",
                 "ratio median [min, max]", "better")]
        for name in names:
            a = [p["base"]["metrics"][name] for p in full]
            b = [p["change"]["metrics"][name] for p in full]
            ratios = [y / x for x, y in zip(a, b) if x]
            higher = better.get(name, "lower") == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            rows.append((
                name,
                "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(a), *quartiles(a)),
                "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(b), *quartiles(b)),
                "{:.3f} [{:.3f}, {:.3f}]".format(statistics.median(ratios), min(ratios),
                                                  max(ratios)) if ratios else "-",
                f"{wins}/{len(full)}",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        for r in rows:
            print("  " + r[0].ljust(widths[0]) + "".join(
                "  " + c.rjust(w) for c, w in zip(r[1:], widths[1:])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_rev", nargs="?")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    ap.add_argument("--workloads", default="replay_mor,replay_cow")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "ab"))
    ap.add_argument("--report", metavar="FILE", help="summarise a JSONL file of earlier runs")
    args = ap.parse_args(argv)
    better = {} if args.trace else directions()
    if args.report:
        with open(args.report, encoding="utf-8") as f:
            records = [json.loads(ln) for ln in f if ln.strip()]
        report(records, {} if records and records[0].get("trace") else directions())
        return 0
    if not args.base_rev:
        ap.error("base_rev is required unless --report is given")
    os.makedirs(args.workdir, exist_ok=True)
    trees = {"base": export(args.base_rev, args.workdir), "change": snapshot(args.workdir)}
    log = os.path.join(args.workdir, f"ab-{time.strftime('%Y%m%d-%H%M%S')}.jsonl")
    print(f"base {trees['base']}\nchange {trees['change']} (copy of {ROOT})\nruns -> {log}",
          flush=True)
    records = []
    for i in range(args.pairs):
        seed = args.seed + i
        for wl in args.workloads.split(","):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                out = run_one(trees[side], wl, seed, args.seconds, args.trace)
                rec = {"workload": wl, "seed": seed, "side": side, "trace": args.trace, **out}
                records.append(rec)
                with open(log, "a", encoding="utf-8") as f:
                    f.write(json.dumps(rec) + "\n")
                key = "ingest_events_per_s" if not args.trace else "runner.cycle_s"
                exit_code = f" exit={out['returncode']}" if "returncode" in out else ""
                print(f"pair {i + 1}/{args.pairs} {wl} seed {seed} {side}: "
                      f"correct={out['correct']}{exit_code} {key}={out['metrics'].get(key)}",
                      flush=True)
    report(records, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
