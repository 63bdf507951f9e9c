"""E2 partitionExpressions — the VALUE partition dimension (reference
``docs/crd.md:114-119``: ``month(order_date)`` alongside
``bucket(arcane_merge_key, 10)``; our bucket dimension is the pid
routing itself).  ``sink.partition_by`` clusters BASE files by
transform value at CoW/backfill/compaction writes and records
write-time column bounds in ``manifest.file_stats`` — so
``read_target(where=…)`` prunes whole files with NO ANALYZE pass."""

import datetime as dt
import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import segment_path
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    read_target,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
    cluster_order,
    coalesce_runs,
    column_bounds,
    parse_partition_exprs,
    source_columns,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    bound_key,
    prepare_watermark,
    prune_files_by_stats,
)

US = 1_000_000
MONTH0 = dt.datetime(2024, 1, 1)


# --------------------------------------------------------------- unit layer
def test_parse_and_transforms():
    exprs = parse_partition_exprs(
        ("month(warc_ts)", "lang", "truncate(url, 3)", "bucket(url, 8)", "year(warc_ts)")
    )
    assert [e.transform for e in exprs] == [
        "month", "identity", "truncate", "bucket", "year",
    ]
    assert source_columns(exprs) == ("warc_ts", "lang", "url")
    for bad in ("month()", "frob(x)", "truncate(x)", "bucket(x)", "month(x, 3)", ""):
        with pytest.raises(ValueError):
            parse_partition_exprs((bad,))


def test_month_codes_and_cluster_order():
    ts = pa.array(
        [MONTH0, MONTH0 + dt.timedelta(days=40), MONTH0 + dt.timedelta(days=3)],
        pa.timestamp("us"),
    )
    t = pa.table({"warc_ts": ts, "v": [1, 2, 3]})
    (e,) = parse_partition_exprs(("month(warc_ts)",))
    codes = e.codes(t)
    # months since epoch: Jan 2024 = 54*12 = 648
    assert list(codes) == [648, 649, 648]
    order, starts = cluster_order(t, (e,))
    assert len(starts) - 1 == 2  # two month clusters
    # absent column -> no clustering, not an error (schema evolution)
    assert cluster_order(t.drop_columns(["warc_ts"]), (e,)) is None


def test_null_partition_values_cluster_together():
    ts = pa.array([MONTH0, None, MONTH0, None], pa.timestamp("us"))
    t = pa.table({"warc_ts": ts, "lang": pa.array(["en", None, "en", None])})
    for expr in ("month(warc_ts)", "lang", "truncate(lang, 2)"):
        (e,) = parse_partition_exprs((expr,))
        order, starts = cluster_order(t, (e,))
        # nulls form ONE cluster, not one per row
        assert len(starts) - 1 == 2, expr
    # bounds still reflect only the real (non-null) values
    b = column_bounds(t, ("warc_ts", "lang"))
    assert b["warc_ts"][0] == b["warc_ts"][1] == bound_key(MONTH0)
    assert b["lang"] == ["en", "en"]


def test_nullable_exotic_types_do_not_crash_clustering():
    """r4 review: bool/decimal/binary/dictionary columns with nulls must
    cluster (nulls grouped), not crash np.lexsort with None compares."""
    import decimal

    t = pa.table(
        {
            "flag": pa.array([True, None, False, True, None]),
            "dec": pa.array(
                [decimal.Decimal("1.5"), None, decimal.Decimal("1.5"), None,
                 decimal.Decimal("2.5")]
            ),
            "bin": pa.array([b"a", None, b"a", b"b", None], pa.binary()),
        }
    )
    # bool nulls share the False sentinel (2 groups); decimal/binary get
    # factorized codes where null is its own group (3)
    for expr, n_groups in (("flag", 2), ("dec", 3), ("bin", 3)):
        (e,) = parse_partition_exprs((expr,))
        order, starts = cluster_order(t, (e,))
        assert len(starts) - 1 == n_groups, expr


def test_non_identity_transforms_on_nullable_exotic_types():
    """r4 ADVICE (medium): truncate/bucket over a null-bearing column
    OUTSIDE the fill-null chain (decimal/binary) must not crash the
    write path — factorize fallback applies to every transform."""
    import decimal

    t = pa.table(
        {
            "dec": pa.array(
                [decimal.Decimal("10.5"), None, decimal.Decimal("10.5"),
                 decimal.Decimal("22.0"), None]
            ),
            "bin": pa.array([b"abc", None, b"abd", b"xyz", None], pa.binary()),
        }
    )
    for expr, n_groups in (
        ("truncate(dec, 10)", 3),  # factorize: 10.5, null, 22.0
        ("bucket(dec, 4)", 3),
        ("truncate(bin, 2)", 4),   # factorize is finer than the transform
        ("bucket(bin, 8)", 4),
    ):
        (e,) = parse_partition_exprs((expr,))
        order, starts = cluster_order(t, (e,))
        assert len(starts) - 1 == n_groups, expr


def test_float_identity_nan_does_not_shatter_clusters():
    """r4 ADVICE (low): NaN != NaN must not make every NaN row its own
    single-row file run — NaNs collapse into the 0.0 cluster."""
    t = pa.table({"score": pa.array([1.5, float("nan"), 2.5, float("nan"),
                                     float("nan"), 1.5])})
    (e,) = parse_partition_exprs(("score",))
    order, starts = cluster_order(t, (e,))
    # clusters: {0.0 (3 NaNs)}, {1.5, 1.5}, {2.5} — not 3 singleton NaN runs
    assert len(starts) - 1 == 3
    sizes = sorted(int(b - a) for a, b in zip(starts[:-1], starts[1:]))
    assert sizes == [1, 2, 3]
    # null + NaN together still fine (null fills 0.0 too -> same cluster)
    t2 = pa.table({"score": pa.array([None, float("nan"), 7.0])})
    order2, starts2 = cluster_order(t2, (e,))
    assert len(starts2) - 1 == 2


def test_coalesce_runs_packs_small_clusters():
    starts = np.array([0, 1, 2, 3, 100, 101, 200], dtype=np.int64)
    # min_rows=50: tiny adjacent runs pack together; big runs keep cuts
    assert list(coalesce_runs(starts, 50)) == [0, 100, 200]
    # min_rows=0: unchanged (value-pure files)
    assert list(coalesce_runs(starts, 0)) == list(starts)
    # every boundary suppressed except ends when min_rows > total
    assert list(coalesce_runs(starts, 10**6)) == [0, 200]


def test_bound_key_units_agree():
    # date and datetime normalize to the SAME epoch-microsecond scale
    assert bound_key(dt.date(2024, 1, 2)) == bound_key(dt.datetime(2024, 1, 2))
    assert bound_key(np.datetime64("2024-01-02T00:00:00")) == bound_key(
        dt.datetime(2024, 1, 2)
    )
    assert bound_key("abc") == "abc" and bound_key(7) == 7
    b = column_bounds(
        pa.table({"d": pa.array([dt.date(2024, 1, 2), dt.date(2024, 3, 1)])}), ("d",)
    )
    assert b["d"] == [bound_key(dt.date(2024, 1, 2)), bound_key(dt.date(2024, 3, 1))]


def test_prune_accepts_datetime_literals():
    f = {"a": {"ts": [bound_key(dt.datetime(2024, 1, 1)), bound_key(dt.datetime(2024, 1, 31))]},
         "b": {"ts": [bound_key(dt.datetime(2024, 3, 1)), bound_key(dt.datetime(2024, 3, 31))]}}
    kept = prune_files_by_stats(sorted(f), f, [["ts", ">=", dt.datetime(2024, 2, 15)]])
    assert kept == ["b"]


# ------------------------------------------------------------- engine layer
def _write_months_ctlog(ct_dir: str, n_keys: int = 60, per_month: int = 100):
    """A handcrafted CT log whose events span three calendar months of
    ``warc_ts`` (gen.py's clock moves 1 s/version — too slow to cross
    months at unit scale)."""
    import os

    os.makedirs(ct_dir, exist_ok=True)
    n = 3 * per_month
    versions = np.arange(1, n + 1, dtype=np.int64)
    month = (versions - 1) // per_month  # 0,1,2
    ts = (
        np.int64(bound_key(MONTH0))
        + month * np.int64(32 * 86_400 * US)  # > a month apart
        + (versions % per_month) * US
    )
    # month-disjoint keys: each key's LWW survivor keeps its month's
    # timestamp, so the final table genuinely spans three months
    keys = [f"k{m}_{v % n_keys:04d}" for v, m in zip(versions, month)]
    tbl = pa.table(
        {
            "sys_change_version": pa.array(versions),
            "sys_change_operation": pa.array(
                np.where(versions % 7 == 0, "U", "I")
            ),
            "url": pa.array([f"https://ex.com/{k}" for k in keys]),
            "warc_ts": pa.array(ts).cast(pa.timestamp("us")),
            "text": pa.array([f"text {v}" for v in versions]),
            "lang": pa.array(["en", "de", "fr"][int(m)] for m in month),
        }
    )
    pq.write_table(tbl, segment_path(ct_dir, 0, n))
    return tbl


def _ctx(ct, tgt, **sink_overrides):
    sink = {
        "target_root": tgt,
        "num_partitions": 4,
        "partition_by": ["month(warc_ts)"],
    }
    sink.update(sink_overrides)
    return StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": sink,
            "throughput": {"rows_per_group": 10_000},
        }
    )


def _file_months(log: ManifestLog, rels) -> list[set]:
    out = []
    for rel in rels:
        t = log.fs.parquet_file(rel).read(columns=["warc_ts"])
        (e,) = parse_partition_exprs(("month(warc_ts)",))
        out.append(set(e.codes(t)))
    return out


def test_cow_writes_cluster_by_month_and_prune(tmp_lake, ray_session):
    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    StreamRunner(_ctx(ct, tgt, merge_mode="cow")).run()
    log = ManifestLog(tgt)
    m = log.require_watermark()

    # every base file is single-month (write-time clustering)
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and all(len(s) == 1 for s in _file_months(log, rels))
    # write-time bounds present for every base file — NO analyze ran
    assert set(rels) <= set(m.file_stats)
    assert all("warc_ts" in m.file_stats[r] for r in rels)

    # a one-month predicate prunes to a third of the files
    lo = MONTH0 + dt.timedelta(days=64)
    where = [["warc_ts", ">=", lo]]
    kept = prune_files_by_stats(rels, m.file_stats, where)
    assert 0 < len(kept) < len(rels)

    got = read_target(tgt, columns=["url", "warc_ts", "lang"], where=where).to_pandas()
    full = read_target_table(tgt).to_pandas()
    exp = full[full["warc_ts"] >= lo]
    assert len(got) == len(exp) > 0
    assert set(got["url"]) == set(exp["url"])


def test_direct_mor_records_whole_file_bounds(tmp_lake, ray_session):
    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    StreamRunner(_ctx(ct, tgt, merge_mode="mor")).run()
    m = ManifestLog(tgt).require_watermark()
    delta_files = {e.partition("#rg=")[0] for fl in m.deltas.values() for e in fl}
    assert delta_files and delta_files <= set(m.file_stats)
    # LWW read through the pruned MoR path stays exact
    lo = MONTH0 + dt.timedelta(days=64)
    got = read_target(tgt, columns=["url", "warc_ts"], where=[["warc_ts", ">=", lo]])
    assert got.count() > 0


def test_compaction_reclusters_and_refreshes_bounds(tmp_lake, ray_session):
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import optimize

    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    ctx = _ctx(ct, tgt, merge_mode="mor")
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    pre = log.require_watermark()
    optimize(log, ctx)
    m = log.require_watermark()
    assert not m.deltas  # all folded
    rels = [f for fl in m.partitions.values() for f in fl]
    # compacted base files are value-clustered (one month per file)
    assert rels and all(len(s) == 1 for s in _file_months(log, rels))
    # bounds exist for every NEW file; superseded entries were dropped
    assert set(rels) <= set(m.file_stats)
    dead = {e.partition("#rg=")[0] for fl in pre.deltas.values() for e in fl}
    assert not (dead & set(m.file_stats))
    # full LWW content unchanged by the re-clustering fold
    assert read_target_table(tgt).num_rows == read_target_table(tgt).num_rows


def test_repartition_recluster_and_bounds_reset(tmp_lake, ray_session):
    """Partition-spec evolution rewrites every file under the new pid
    domain — the rewrite must re-cluster by partition_by and the
    manifest's file_stats must describe ONLY the new files."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        repartition_table,
    )

    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    ctx = _ctx(ct, tgt, merge_mode="cow")
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    old_stats = set(log.require_watermark().file_stats)
    out = repartition_table(log, ctx, 3)
    assert out["repartitioned"] and out["to"] == 3
    m = log.require_watermark()
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and all(len(s) == 1 for s in _file_months(log, rels))
    assert set(m.file_stats) == set(rels)
    assert not (old_stats & set(m.file_stats))
    # pruning still works under the new spec
    lo = MONTH0 + dt.timedelta(days=64)
    kept = prune_files_by_stats(rels, m.file_stats, [["warc_ts", ">=", lo]])
    assert 0 < len(kept) < len(rels)


def test_repartition_keeps_sorted_by_bounds_without_partition_by(
    tmp_lake, ray_session
):
    """r4 ADVICE (low): on a sortedBy-only lake (no partition_by) a
    repartition must re-record the sortedBy write-time bounds — it
    resets file_stats wholesale, so dropping them silently disabled
    pruning until the next ANALYZE."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        repartition_table,
    )

    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4,
                     "merge_mode": "cow",
                     "sorted_by": ["warc_ts"],
                     # split the sorted rewrite into several files so
                     # per-file warc_ts ranges are disjoint and prunable
                     # (~15 LWW rows per old-pid x new-pid slice)
                     "max_rows_per_file": 6},
            "throughput": {"rows_per_group": 10_000},
        }
    )
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    assert log.require_watermark().file_stats  # write-time bounds exist
    out = repartition_table(log, ctx, 3)
    assert out["repartitioned"]
    m = log.require_watermark()
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and all("warc_ts" in m.file_stats.get(r, {}) for r in rels)
    # rewritten files are still warc_ts-sorted (sortedBy survives)
    for rel in rels:
        ts = log.fs.parquet_file(rel).read(columns=["warc_ts"])["warc_ts"]
        v = ts.to_numpy(zero_copy_only=False).astype("datetime64[us]")
        assert (v[1:] >= v[:-1]).all()
    # and pruning works straight after the repartition, no ANALYZE
    lo = MONTH0 + dt.timedelta(days=64)
    kept = prune_files_by_stats(rels, m.file_stats, [["warc_ts", ">=", lo]])
    assert 0 < len(kept) < len(rels)


def test_sorted_by_alone_records_write_time_bounds(tmp_lake, ray_session):
    """sortedBy columns get write-time bounds even with NO partition_by:
    a sorted write yields (near-)disjoint per-file ranges, so range
    predicates prune with no ANALYZE pass."""
    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4,
                     "merge_mode": "cow",
                     "sorted_by": ["warc_ts"]},
            "throughput": {"rows_per_group": 10_000},
        }
    )
    StreamRunner(ctx).run()
    m = ManifestLog(tgt).require_watermark()
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and all("warc_ts" in m.file_stats.get(r, {}) for r in rels)


def test_analyze_now_covers_timestamp_columns(tmp_lake, ray_session):
    """bound_key fix: parquet footer stats for timestamp columns are
    epoch-normalized instead of silently skipped."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import analyze

    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    # no partition_by: bounds must come from ANALYZE footers alone
    ctx_plain = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4, "merge_mode": "cow"},
            "maintenance": {"analyze_included_columns": ["warc_ts"]},
        }
    )
    StreamRunner(ctx_plain).run()
    log = ManifestLog(tgt)
    assert not log.require_watermark().file_stats
    analyze(log, ctx_plain)
    m = log.require_watermark()
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and all("warc_ts" in m.file_stats.get(r, {}) for r in rels)
    lo, hi = m.file_stats[rels[0]]["warc_ts"]
    assert isinstance(lo, int) and lo >= bound_key(MONTH0)
    assert hi >= lo


def test_analyze_merges_and_preserves_partition_by_bounds(tmp_lake, ray_session):
    """r4 review: ANALYZE over a DIFFERENT column set must MERGE into
    file_stats, never wipe the write-time partition_by bounds that
    day-predicate pruning depends on."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import analyze

    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    ctx = _ctx(ct, tgt, merge_mode="cow")
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    pre = log.require_watermark().file_stats
    assert pre and all("warc_ts" in v for v in pre.values())
    # analyze a different column entirely
    ctx2 = _ctx(ct, tgt, merge_mode="cow")
    ctx2.maintenance.analyze_included_columns = ("sys_change_version",)
    analyze(log, ctx2)
    m = log.require_watermark()
    for rel, b in pre.items():
        assert m.file_stats[rel]["warc_ts"] == b["warc_ts"]  # survived
        assert "sys_change_version" in m.file_stats[rel]  # merged in


def test_backfill_overwrite_clusters_and_records_bounds(tmp_lake, ray_session):
    """The backfill Overwrite flip must carry the shards' write-time
    partition_by bounds into the flipped manifest (and the shard base
    files must be value-clustered)."""
    from arcane_stream_sqlserver_change_tracking_ray.gen import (
        small_spec,
        write_ctlog,
        write_snapshot,
    )

    ct, tgt, snap = tmp_lake
    write_ctlog(ct, small_spec())
    write_snapshot(ct, snap, at_version=1000, num_files=3)
    prepare_watermark(tgt, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "snapshot_dir": snap, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4,
                     "partition_by": ["day(warc_ts)"]},
            "stream_mode": {"backfill": True, "backfill_id": "pb1"},
        }
    )
    StreamRunner(ctx).run_backfill()
    log = ManifestLog(tgt)
    m = log.require_watermark()
    rels = [f for fl in m.partitions.values() for f in fl]
    assert rels and set(rels) <= set(m.file_stats)
    assert all("warc_ts" in m.file_stats[r] for r in rels)
    (e,) = parse_partition_exprs(("day(warc_ts)",))
    for rel in rels:  # each shard base file is single-day
        t = log.fs.parquet_file(rel).read(columns=["warc_ts"])
        assert len(set(e.codes(t))) == 1


def test_manifest_roundtrip_and_crash_safety_of_bounds(tmp_lake, ray_session):
    """file_stats ride the SAME atomic manifest commit as the files they
    describe — a reread after process restart sees identical bounds."""
    ct, tgt, _ = tmp_lake
    _write_months_ctlog(ct)
    prepare_watermark(tgt, num_partitions=4)
    StreamRunner(_ctx(ct, tgt, merge_mode="cow")).run()
    m = ManifestLog(tgt).require_watermark()
    m2 = ManifestLog(tgt).require_watermark()  # fresh log handle
    assert m2.file_stats == m.file_stats and m.file_stats
    assert json.loads(m.to_json())["file_stats"] == m.file_stats
