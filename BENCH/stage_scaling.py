#!/usr/bin/env python
"""Per-stage 8→32 scaling disaggregation (round-3 verdict item #3).

The headline replay plateaus from 8 to 32 CPUs on this shared VM while
its bandwidth probes show AGGREGATE memory bandwidth at 32 streams
routinely BELOW 8 streams.  This harness pins the shortfall to the
bandwidth-bound stages by measuring the replay's pipeline CUMULATIVELY
— each variant adds one stage — at 8 and 32 pinned CPUs in fresh
processes over the SAME cached synthetic feed:

  read       parquet decode + IO                     (bandwidth)
  transform  + TransformStage (names/key/casts)       (CPU)
  route      + precombine hash + pid argsort + gather (CPU + memcpy)
  write      + pid-aligned zstd delta write [+fsync]  (CPU + disk BW)

Per-stage 8→32 efficiency = (tput32 / tput8) / 4.  The host's
deliverable capacity swings 2-3x on a timescale of MINUTES, so all four
stage variants run back-to-back INSIDE one pinned process (one window)
and the 8/32 pair runs adjacently within each rep; the pair is scored
per-rep (same window) and by best-per-level.  Result:
BENCH/stage_scaling.json + the table in BENCH/BASELINE.md.  An
engine-side serialization would show up as a non-scaling CPU stage; a
host bandwidth ceiling shows up as the read / write stages pinning
while the CPU stages scale.

Usage:
  python BENCH/stage_scaling.py             # orchestrate + write json
  python BENCH/stage_scaling.py --cpus 8    # one process, all stages
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

STAGES = ("read", "transform", "route", "write")
LEVELS = tuple(
    int(x) for x in os.environ.get("GRAFT_STAGE_LEVELS", "8,32").split(",")
)
REPS = int(os.environ.get("GRAFT_STAGE_REPS", "2"))
N_EVENTS = int(os.environ.get("GRAFT_BENCH_EVENTS", "10000000"))


def measure_all(cpus: int) -> dict:
    """All four cumulative stage variants, back-to-back in THIS pinned
    process (one host window); returns {stage: events_per_sec}."""
    out = {}
    measure("read", cpus)  # untimed warmup: page-cache the feed so the
    # first timed variant isn't the only one paying cold IO
    for stage in STAGES:
        r = measure(stage, cpus)
        out[stage] = r["events_per_sec"]
    return out


def measure(stage: str, cpus: int) -> dict:
    os.environ["GRAFT_CPU_AFFINITY"] = str(cpus)
    os.environ.setdefault("GRAFT_BENCH_EVENTS", str(N_EVENTS))
    from bench import ensure_ctlog, init_ray

    init_ray(cpus)
    import numpy as np
    import pyarrow as pa
    import ray.data

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        TransformStage,
    )
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import list_segments
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        apply_change_batch_direct,
        precombine_and_hash,
    )

    ctlog = ensure_ctlog()
    paths = [p for _lo, _hi, p in list_segments(ctlog)]
    scratch = tempfile.mkdtemp(prefix=f"stage_{stage}_")
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ctlog, "key_columns": ["url"]},
            "sink": {"target_root": scratch, "num_partitions": 32},
        }
    )
    transform = TransformStage(ctx, {})
    P = 32

    def consume(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    def route_only(batch: pa.Table) -> pa.Table:
        batch, h = precombine_and_hash(batch, transform.key_col, "polars")
        pid = (h % np.uint64(P)).astype(np.int64)
        order = np.argsort(pid, kind="stable")
        b = batch.take(pa.array(order))  # the payload gather
        return pa.table({"n": pa.array([b.num_rows], pa.int64())})

    t0 = time.perf_counter()
    try:
        ds = ray.data.read_parquet(
            paths, override_num_blocks=max(len(paths), 4 * cpus)
        )
        if stage == "read":
            ds = ds.map_batches(consume, batch_format="pyarrow")
        elif stage == "transform":
            ds = ds.map_batches(transform, batch_format="pyarrow").map_batches(
                consume, batch_format="pyarrow"
            )
        elif stage == "route":
            ds = ds.map_batches(transform, batch_format="pyarrow").map_batches(
                route_only, batch_format="pyarrow"
            )
        elif stage == "write":
            from arcane_stream_sqlserver_change_tracking_ray.types import (
                MERGE_KEY_COL,
            )

            ds = ds.map_batches(transform, batch_format="pyarrow")
            full = ds.schema().base_schema  # feed already carries version/op
            if MERGE_KEY_COL not in full.names:
                full = full.append(pa.field(MERGE_KEY_COL, pa.string()))
            apply_change_batch_direct(
                ds,
                target_root=scratch,
                cycle_id="stagebench",
                schema=full,
                num_partitions=P,
                max_rows_per_file=1_000_000,
                compression="zstd",
                sorted_by=(),
                key_col=transform.key_col,
                fsync=os.environ.get("GRAFT_BENCH_FSYNC", "1") == "1",
                bloom_columns=(),
                hash_algo="polars",
            )
            ds = None
        if ds is not None:
            total = sum(r["n"] for r in ds.take_all())
            assert total > 0
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "stage": stage,
        "cpus": cpus,
        "wall_s": round(wall, 3),
        "events_per_sec": round(N_EVENTS / wall, 1),
    }


def orchestrate() -> None:
    runs: dict[str, dict[str, list[float]]] = {
        s: {str(c): [] for c in LEVELS} for s in STAGES
    }
    here = os.path.abspath(__file__)
    for rep in range(REPS):
        # the 8/32 pair runs ADJACENTLY within a rep (same host window)
        for cpus in LEVELS:
            out = subprocess.run(
                [sys.executable, here, "--cpus", str(cpus)],
                capture_output=True,
                text=True,
                timeout=1800,
            )
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            try:
                r = json.loads(line)
            except ValueError:
                print(f"FAILED @{cpus}: {out.stderr[-500:]}", file=sys.stderr)
                continue
            for stage, tput in r.items():
                runs[stage][str(cpus)].append(tput)
            print(f"rep{rep} @{cpus}: " + " ".join(f"{s}={r[s]:.0f}" for s in r), flush=True)

    best = {s: {c: max(v) if v else None for c, v in lv.items()} for s, lv in runs.items()}
    lo, hi = str(LEVELS[0]), str(LEVELS[-1])
    factor = LEVELS[-1] / LEVELS[0]
    cum_eff = {
        s: round(best[s][hi] / best[s][lo] / factor, 3)
        if best[s][lo] and best[s][hi]
        else None
        for s in STAGES
    }
    # per-rep pair efficiency (both levels from the SAME window)
    n_pairs = min(len(runs[STAGES[0]][lo]), len(runs[STAGES[0]][hi]))
    per_rep = {
        s: [
            round(runs[s][hi][i] / runs[s][lo][i] / factor, 3)
            for i in range(n_pairs)
            if i < len(runs[s][lo]) and i < len(runs[s][hi])
        ]
        for s in STAGES
    }
    # per-INCREMENT wall share within each level's best window
    incr = {}
    for c in (lo, hi):
        walls = {s: N_EVENTS / best[s][c] for s in STAGES if best[s][c]}
        prev = 0.0
        d = {}
        for s in STAGES:
            if s in walls:
                d[s] = round(walls[s] - prev, 2)
                prev = walls[s]
        incr[c] = d
    doc = {
        "metric": "stage_scaling_8_to_32",
        "events": N_EVENTS,
        "levels": list(LEVELS),
        "best_events_per_sec": best,
        "all_reps": runs,
        "cumulative_efficiency": cum_eff,
        "per_rep_pair_efficiency": per_rep,
        "incremental_wall_s": incr,
        "protocol": (
            f"{REPS} reps; per rep, the four cumulative stage variants "
            "run back-to-back in ONE fresh pinned process per level and "
            "the levels run adjacently (same host window); same cached "
            "feed; best-per-level + per-rep pair efficiencies reported"
        ),
    }
    out_path = os.path.join(os.path.dirname(here), "stage_scaling.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    print(json.dumps({k: doc[k] for k in ("cumulative_efficiency", "incremental_wall_s")}))


if __name__ == "__main__":
    if "--stage" in sys.argv:
        stage = sys.argv[sys.argv.index("--stage") + 1]
        cpus = int(sys.argv[sys.argv.index("--cpus") + 1])
        print(json.dumps(measure(stage, cpus)))
    elif "--cpus" in sys.argv:
        cpus = int(sys.argv[sys.argv.index("--cpus") + 1])
        print(json.dumps(measure_all(cpus)))
    else:
        orchestrate()
