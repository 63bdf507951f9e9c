"""partition_by (E2 partitionExpressions) cost/benefit at the file level.

Replays the SAME generated CT feed (unique keys, warc_ts advancing 1 s
per version => ~23 days at 2M events) through the REAL engine twice —
with ``sink.partition_by=["day(warc_ts)"]`` and without — then times a
one-day ``read_target(where=...)`` on each lake.  With clustering, base
files are single-day and carry write-time bounds, so the read scans
~1/23rd of the files with NO ANALYZE pass; without, every file spans the
whole range and nothing can prune.

Run: python BENCH/time_partition.py  (writes BENCH/time_partition.json)
"""

import datetime as dt
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_EVENTS = 2_000_000
DAY_LO = dt.datetime(2023, 11, 15)  # inside the generated range
DAY_HI = DAY_LO + dt.timedelta(days=1)


def build(root: str, partition_by: list[str]):
    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.gen import CtLogSpec, write_ctlog
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import StreamRunner
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    shutil.rmtree(root, ignore_errors=True)
    ct, tgt = f"{root}/ctlog", f"{root}/target"
    spec = CtLogSpec(
        n_keys=N_EVENTS, n_events=N_EVENTS, events_per_file=250_000, zipf_a=1.0
    )
    write_ctlog(ct, spec, use_ray=True)
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {
                "target_root": tgt,
                "num_partitions": 8,
                "merge_mode": "cow",
                "partition_by": partition_by,
            },
            "throughput": {"rows_per_group": N_EVENTS},
        }
    )
    t0 = time.perf_counter()
    StreamRunner(ctx).run()
    return tgt, time.perf_counter() - t0


def timed_read(tgt: str):
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        ManifestLog,
        prune_files_by_stats,
    )

    m = ManifestLog(tgt).require_watermark()
    where = [["warc_ts", ">=", DAY_LO], ["warc_ts", "<", DAY_HI]]
    files = sorted(f for fl in m.partitions.values() for f in fl)
    scanned = len(prune_files_by_stats(files, m.file_stats, where))
    t0 = time.perf_counter()
    n = read_target(tgt, columns=["url", "warc_ts"], where=where).count()
    return len(files), scanned, n, time.perf_counter() - t0


def main():
    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    ray.data.DataContext.get_current().enable_progress_bars = False

    tgt_c, build_c = build("/tmp/time_partition_on", ["day(warc_ts)"])
    files_c, scanned_c, rows_c, read_c = timed_read(tgt_c)
    tgt_p, build_p = build("/tmp/time_partition_off", [])
    files_p, scanned_p, rows_p, read_p = timed_read(tgt_p)
    assert rows_c == rows_p, (rows_c, rows_p)

    out = {
        "metric": "time_partition_file_skipping",
        "events": N_EVENTS,
        "predicate": "one calendar day of ~23",
        "clustered": {
            "files_total": files_c,
            "files_scanned": scanned_c,
            "build_seconds": round(build_c, 3),
            "read_seconds": round(read_c, 3),
        },
        "unclustered": {
            "files_total": files_p,
            "files_scanned": scanned_p,
            "build_seconds": round(build_p, 3),
            "read_seconds": round(read_p, 3),
        },
        "rows_returned": rows_c,
        "read_speedup_x": round(read_p / read_c, 2) if read_c else None,
        "note": "sink.partition_by=[day(warc_ts)] — write-time clustering + "
        "write-time manifest bounds; no ANALYZE pass ran on either lake",
    }
    print(json.dumps(out, indent=1))
    with open(os.path.join(os.path.dirname(__file__), "time_partition.json"), "w") as f:
        json.dump(out, f, indent=1)
    shutil.rmtree("/tmp/time_partition_on", ignore_errors=True)
    shutil.rmtree("/tmp/time_partition_off", ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
