"""CDC / lake queries: LWW merge, staged replay, change feeds, maintenance,
schema evolution, time travel, SCD2, sketches over the events feed.

Split out of __ray_entry__.py (r3 verdict #5); re-exported by the
facade — the driver contract is unchanged.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arcane_stream_sqlserver_change_tracking_ray.functions import transforms as T
from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
    BPE_ISH_PATTERN,
    PUNCT_PATTERN,
    STOPWORDS,
    UPPER_PATTERN,
    WORD_PATTERN,
    FingerprintStage,
    LangIdStage,
    QualityScoreStage,
    TfidfTopKStage,
    TokenCountStage,
    _stopword_regex,
    contamination_counts,
    token_count_partials,
    escape_html_text,
    rolling_window_hashes,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)

from .common import _read  # noqa: F401


# ===========================================================================
# CDC core (SURVEY.md §2.1/2.4/2.6): events.parquet as the CT-feed analog —
# key = user_id, version = event_id, op = 'D' when event_type = 'error'
# ===========================================================================
class _EventsAsChanges:
    """events rows -> change events for the merge engine."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        op = pc.if_else(
            pc.equal(batch["event_type"], "error"),
            pa.scalar("D"),
            pa.scalar("U"),
        )
        batch = batch.append_column(VERSION_COL, batch["event_id"])
        batch = batch.append_column(OP_COL, op)
        return T.synthesize_merge_key(batch, ("user_id",))


def _events_change_schema(sf_dir: str) -> pa.Schema:
    import pyarrow.parquet as pq

    base = pq.read_schema(f"{sf_dir}/events.parquet")
    fields = list(base) + [
        pa.field(VERSION_COL, pa.int64()),
        pa.field(OP_COL, pa.string()),
        pa.field(MERGE_KEY_COL, pa.string()),
    ]
    return pa.schema(fields)


def cdc_lww_upsert(sf_dir: str) -> pa.Table:
    """Full merge path (M1): hash-partitioned copy-on-write LWW upsert of
    the events feed into a fresh target table through the cow writer
    (unit tasks, then one fold task per run of partitions), then read it
    back."""
    import ray

    from arcane_stream_sqlserver_change_tracking_ray.config import (
        SourceSettings,
        ThroughputSettings,
    )
    from arcane_stream_sqlserver_change_tracking_ray.pqio import plan_units
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import ActorMergePool
    from arcane_stream_sqlserver_change_tracking_ray.functions.transforms import cast_to_schema
    import pyarrow.parquet as pq
    import os

    # one unit task per read unit, planned as a poll plans its segments
    cpus = int(ray.cluster_resources().get("CPU", 1))
    units = plan_units(
        [f"{sf_dir}/events.parquet"],
        min_rows=SourceSettings().fetch_size,
        target_units=ThroughputSettings().blocks_per_cpu * cpus,
    )
    schema = _events_change_schema(sf_dir)
    tmp = tempfile.mkdtemp(prefix="cdc_lww_")
    try:
        # ephemeral table: fast routing hash
        pool = ActorMergePool(target_root=tmp, num_partitions=8, hash_algo="polars")
        stats = pool.apply_change_batch(
            units, transform=_EventsAsChanges(), cycle_id="q",
            partition_files={}, schema=schema,
        )
        import json

        tables = []
        for s in stats:
            for rel in json.loads(s["files_json"]):
                tables.append(cast_to_schema(pq.read_table(os.path.join(tmp, rel)), schema))
        out = pa.concat_tables(tables) if tables else schema.empty_table()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_lww_rank1(sf_dir: str):
    """M2 within-batch dedup as a standalone operator: rank-1 per key by
    version (groupby + vectorized LWW kernel)."""
    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import lww_table

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import hash_keys

    ds = _read(sf_dir, "events").map_batches(_EventsAsChanges(), batch_format="pyarrow")
    # coarse-bucket count scaled to the feed (~256 rows/bucket, capped at
    # 4096): per-group UDF slicing costs ~1 ms each, so 4096 buckets over
    # a 10k-row feed is pure overhead while 4096 over 1M+ rows is the
    # sweet spot the round-2 profile found
    n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    n_buckets = np.uint64(min(4096, max(16, n_events // 256)))

    def precombine(batch: pa.Table) -> pa.Table:
        # prune to the output columns BEFORE the shuffle: less payload, and
        # dropping the map-typed `props` silences Ray's per-block schema-hash
        # warnings on the reduce path (map schemas are unhashable).
        batch = batch.select([MERGE_KEY_COL, "user_id", VERSION_COL, "event_type", "value"])
        # local rank-1 first: the feed is a heavy-duplicate upsert stream, so
        # the per-batch combine collapses most rows before they move
        batch = lww_table(batch)
        # coarse shuffle bucket: grouping on the raw merge key would invoke
        # the group UDF once per distinct key; a few thousand buckets move
        # the (pre-combined) rows and the LWW kernel vectorizes per bucket
        b = hash_keys(batch[MERGE_KEY_COL], "polars") % n_buckets
        return batch.append_column("_kb", pa.array(b.astype(np.int64)))

    ds = ds.map_batches(precombine, batch_format="pyarrow")

    def rank1(group: pa.Table) -> pa.Table:
        # one call per coarse bucket; lww_table ranks ALL the bucket's keys
        # in a single (key, version) projection sort
        return lww_table(group)

    out = ds.groupby("_kb").map_groups(rank1, batch_format="pyarrow")
    return out.select_columns(["user_id", VERSION_COL, "event_type", "value"])


def changefeed_window(sf_dir: str):
    """S1 tailer semantics: version-range predicate pushed into the read.

    Bounds are scale-relative (30%..60% of the feed head) so the window
    is non-empty at every sf."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/events.parquet")
    col_idx = pf.schema_arrow.get_field_index("event_id")
    md = pf.metadata
    head = max(
        md.row_group(i).column(col_idx).statistics.max for i in range(md.num_row_groups)
    )
    lo, hi = head * 3 // 10, head * 6 // 10
    predicate = (pc.field("event_id") > lo) & (pc.field("event_id") <= hi)
    ds = _read(sf_dir, "events", filter=predicate, columns=["event_id", "user_id", "event_type", "value"])

    def stamp(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(VERSION_COL, batch["event_id"])
        return batch.drop_columns(["event_id"])

    return ds.map_batches(stamp, batch_format="pyarrow")


def watermark_after_replay(sf_dir: str):
    """K2: the watermark equals the feed's current max version."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["event_id"])
    res = ds.aggregate(Max("event_id", alias_name="watermark"))
    return pa.table({k: [v] for k, v in res.items()})


def backfill_snapshot(sf_dir: str):
    """S2: full-table snapshot re-read (Ray file/block sharding)."""
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import read_snapshot

    return read_snapshot(f"{sf_dir}/orders.parquet")





def cdc_net_changes(sf_dir: str, buckets: int = 32):
    """MSSQL ``CHANGETABLE(CHANGES t, @since)`` analog: the NET change
    per key since a baseline version (here max(event_id)//2, read from
    the parquet footer statistics — no extra scan).  This is the exact
    contract the reference's change-tracking source consumes upstream
    of the merge (reference ``docs/merge.md`` CT semantics).

    Shape: each batch PRE-COMBINES to <=2 rows per key (max-version row
    on the baseline side and on the post side) before any movement, the
    shuffle is key-bucketed over those partials only, and the per-bucket
    fold resolves net ops vectorized over all keys at once."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.cdc_ops import (
        last_per_key_side,
        net_changes_fold,
    )
    import pyarrow.parquet as pq

    md = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata
    names = [md.schema.column(j).name for j in range(md.num_columns)]
    ci = names.index("event_id")
    stats = [md.row_group(i).column(ci).statistics for i in range(md.num_row_groups)]
    since = max(s.max for s in stats) // 2 if all(s and s.has_min_max for s in stats) else None
    ds = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"]
    )
    if since is None:  # fallback: one pruned-column pass
        since = ds.max("event_id") // 2

    def partial(batch: pa.Table) -> pa.Table:
        op = pc.if_else(
            pc.equal(batch["event_type"], "error"), pa.scalar("D"), pa.scalar("U")
        )
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "side": pc.cast(pc.greater(batch["event_id"], since), pa.int64()),
                "version": batch["event_id"],
                "op": op,
                "ts": batch["ts"],
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )
        t = last_per_key_side(t)
        return t.append_column(
            "kb", pc.bit_wise_and(t["user_id"], pa.scalar(buckets - 1, pa.int64()))
        )

    def fold(group: pa.Table) -> pa.Table:
        return net_changes_fold(group.drop_columns(["kb"]))

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold, batch_format="pyarrow")
    )


def scd2_history(sf_dir: str, buckets: int = 32):
    """Type-2 slowly-changing-dimension build from the change feed: per
    key, each non-delete event opens an interval [version, next_version)
    with the newest one current; deletes close intervals without opening
    one.  The classic warehouse consumer of a CDC feed downstream of the
    LWW merge.  Shape: the pruned feed co-shuffles once by key bucket,
    then one vectorized sort + shift per bucket resolves every key's
    interval chain (no per-key Python calls)."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.cdc_ops import scd2_intervals

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "value"])

    def add(batch: pa.Table) -> pa.Table:
        op = pc.if_else(
            pc.equal(batch["event_type"], "error"), pa.scalar("D"), pa.scalar("U")
        )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "version": batch["event_id"],
                "op": op,
                "event_type": batch["event_type"],
                "value": batch["value"],
                "kb": pc.bit_wise_and(
                    batch["user_id"], pa.scalar(buckets - 1, pa.int64())
                ),
            }
        )

    def fold(group: pa.Table) -> pa.Table:
        return scd2_intervals(group.drop_columns(["kb"]))

    return (
        ds.map_batches(add, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold, batch_format="pyarrow")
    )




def cdc_stream_replay(sf_dir: str):
    """Flagship end-to-end UNDER THE HASH GATE: the driver's events table
    replayed as the change feed through the FULL engine with the G1
    STAGING path enabled (grouper -> staged parquet -> merge -> dispose;
    reference ``docs/crd.md:39-73``) — the one hash-gated query that
    exercises staging end-to-end.  Converges to plain LWW SQL over
    `events`, so the driver hash-compares the whole staged engine.  (The
    synthetic-CT-log-generator variant of this replay lives in pytest:
    tests/test_runner_e2e.py.)"""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table

    _, tgt, _ = _events_lake(
        sf_dir, extra={"staging": {"enabled": True, "maxRowsPerFile": 2000}}
    )
    out = read_target_table(tgt)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_engine_events_replay(sf_dir: str):
    """Full-engine end-to-end WITH a hash-checked SQL oracle: the change
    feed is the driver's own `events` table (version = event_id, op = 'D'
    for event_type 'error' else 'U'), chunked into CT-log segments and
    replayed through the REAL engine — tailer plan/poll, transforms,
    direct MoR merge, manifest commits, merge-on-read final read.  The
    converged table equals plain LWW SQL over `events`, so the driver
    can hash-compare the whole engine, not just row counts."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table

    _, tgt, _ = _events_lake(sf_dir)
    out = read_target_table(tgt)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def _replay_events_to_target(
    sf_dir: str,
    root: str,
    extra: dict | None = None,
    shuffle_within: bool = False,
    single_segment_cycles: bool = False,
    max_cycles: int | None = None,
):
    """Replay the events table as a CT feed through the real engine into
    ``root/target``; returns ``(target_root, ctx)`` (caller owns cleanup).
    ``extra`` merges additional spec sections (camelCase keys ok);
    ``shuffle_within`` permutes rows inside each segment;
    ``single_segment_cycles`` sets rows_per_group to the segment size so
    every poll cycle consumes exactly one segment (deterministic cuts);
    ``max_cycles`` stops after N poll cycles (the stream resumes from
    the committed watermark when the runner is re-invoked)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import StreamRunner
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import prepare_watermark

    feed = _events_feed(sf_dir)
    ct, tgt = f"{root}/ctlog", f"{root}/target"
    _write_events_segments(feed, ct, shuffle_within=shuffle_within)
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = _events_ctx(sf_dir, root, extra, single_segment_cycles)
    StreamRunner(ctx).run(max_cycles=max_cycles)
    return tgt, ctx


def _events_ctx(sf_dir, root, extra=None, single_segment_cycles=False):
    """The StreamContext for a (possibly cached/copied) events lake at
    *root* — pure function of the recipe, safe to rebuild per call."""
    import math

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext

    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    chunk = max(math.ceil(n / 8), 1)
    spec = {
        "source": {"ctlog_dir": f"{root}/ctlog", "key_columns": ["user_id"]},
        "sink": {"target_root": f"{root}/target", "num_partitions": 8},
        "throughput": {
            "rows_per_group": chunk if single_segment_cycles else max(n // 3, 1)
        },
    }
    for section, vals in (extra or {}).items():
        spec.setdefault(section, {}).update(vals)
    return StreamContext.from_dict(spec)


_LAKE_CACHE_DIR = os.path.join(tempfile.gettempdir(), "arcane_lake_cache")
_PKG_FINGERPRINT: str | None = None


def _pkg_fingerprint() -> str:
    """sha1 over the package sources + this file: ANY code edit
    invalidates every cached lake, so a cache hit is bit-identical to a
    fresh replay (the replay itself is deterministic — fixed rng seeds,
    fixed segmentation, LWW by version)."""
    global _PKG_FINGERPRINT
    if _PKG_FINGERPRINT is None:
        import hashlib

        import arcane_stream_sqlserver_change_tracking_ray as pkg

        h = hashlib.sha1()
        pkg_dir = os.path.dirname(pkg.__file__)
        for base, _dirs, names in sorted(os.walk(pkg_dir)):
            for nm in sorted(names):
                if nm.endswith(".py"):
                    with open(os.path.join(base, nm), "rb") as f:
                        h.update(nm.encode())
                        h.update(f.read())
        # hash every entry/ query module (any edit to any query module
        # must invalidate the cached lakes, exactly like the old
        # single-file __file__ hash did)
        entry_dir = os.path.dirname(__file__)
        for nm in sorted(os.listdir(entry_dir)):
            if nm.endswith(".py"):
                with open(os.path.join(entry_dir, nm), "rb") as f:
                    h.update(nm.encode())
                    h.update(f.read())
        _PKG_FINGERPRINT = h.hexdigest()[:16]
    return _PKG_FINGERPRINT


def _events_lake(
    sf_dir: str,
    *,
    extra: dict | None = None,
    shuffle_within: bool = False,
    single_segment_cycles: bool = False,
    max_cycles: int | None = None,
    mutate: bool = False,
) -> tuple[str, str, Any]:
    """Build-once on-disk cache of a replayed events lake.

    Several queries replay the SAME recipe (feed + spec + cycle count)
    into a fresh tmpdir only to read different projections of it; the
    replay is deterministic, so one build serves them all — the fixture
    trim the r2 verdict asked for, without touching a single oracle.
    Returns ``(root, target_root, ctx)``.

    ``mutate=False``: the shared cache dir itself (NEVER modify or
    delete it).  ``mutate=True``: a private copy the caller owns (and
    must ``shutil.rmtree``) — for queries that tag / delete / roll back
    / drain further cycles.  Keyed by the package-source fingerprint, so
    any engine edit rebuilds from scratch; concurrent builders race via
    build-to-tmp + atomic dir rename (losers discard)."""
    import hashlib
    import json as _json
    import uuid as _uuid

    key_doc = _json.dumps(
        {
            "pkg": _pkg_fingerprint(),
            "sf": os.path.abspath(sf_dir),
            "extra": extra,
            "sw": shuffle_within,
            "ssc": single_segment_cycles,
            "mc": max_cycles,
        },
        sort_keys=True,
    )
    final = os.path.join(
        _LAKE_CACHE_DIR, hashlib.sha1(key_doc.encode()).hexdigest()[:20]
    )
    if not os.path.exists(os.path.join(final, "_CACHED")):
        os.makedirs(_LAKE_CACHE_DIR, exist_ok=True)
        tmp = f"{final}.build-{_uuid.uuid4().hex[:8]}"
        _replay_events_to_target(
            sf_dir,
            tmp,
            extra=extra,
            shuffle_within=shuffle_within,
            single_segment_cycles=single_segment_cycles,
            max_cycles=max_cycles,
        )
        with open(os.path.join(tmp, "_CACHED"), "w", encoding="utf-8") as f:
            f.write(key_doc)
        try:
            os.rename(tmp, final)  # atomic publish; loser of a race discards
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    root = final
    if mutate:
        root = tempfile.mkdtemp(prefix="lake_mut_")
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(final, root)
    ctx = _events_ctx(sf_dir, root, extra, single_segment_cycles)
    return root, f"{root}/target", ctx


def cdc_repartition(sf_dir: str):
    """FULL-ENGINE partition-spec evolution under the hash gate: replay
    the first cycle of the events feed into an 8-partition table, run
    the ``repartition_table`` maintenance action to P=5 (a non-divisor
    rehash — every row re-buckets; no shuffle, write-side partitioned
    output per old pid + one atomic manifest flip), then drain the
    remaining segments under the new spec.  The merged table must equal
    plain LWW SQL over all events — proving re-bucketing preserved the
    visible state, folded pending deltas, and the stream continued
    seamlessly across the spec change (the Iceberg
    bucket(arcane_merge_key, P) spec-evolution analog,
    docs/crd.md:114-119)."""
    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        repartition_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        ManifestLog,
        prepare_watermark,
    )

    root, tgt, ctx = _events_lake(sf_dir, max_cycles=1, mutate=True)
    try:
        repartition_table(ManifestLog(tgt), ctx, 5)
        StreamRunner(ctx).run()
        assert ManifestLog(tgt).latest().num_partitions == 5
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_predicate_delete(sf_dir: str):
    """FULL-ENGINE merge-on-read predicate DELETE under the hash gate:
    replay the first 4 single-segment cycles, commit ``DELETE WHERE
    event_type = 'view' AND value < 30.0`` (ONE manifest write — no data
    file touched; the GDPR-delete path), then drain the remaining
    segments.  Keys are ``event_id`` (append-only rows), so the delete
    must be point-in-time: matching rows already ingested at the delete
    watermark are gone, matching rows arriving AFTER it survive.  (The
    same-key re-upsert-survives side is pytest-covered in
    tests/test_predicate_delete.py.)  The oracle replays the exact rule
    over `events` (rn ≤ the 4-cycle cut AND predicate → dropped)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        delete_where,
        read_target_table,
    )

    root, tgt, ctx = _events_lake(
        sf_dir,
        extra={"source": {"key_columns": ["event_id"]}},
        single_segment_cycles=True,
        max_cycles=4,
        mutate=True,
    )
    try:
        delete_where(tgt, [["event_type", "==", "view"], ["value", "<", 30.0]])
        StreamRunner(ctx).run()
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_equality_delete(sf_dir: str):
    """FULL-ENGINE merge-on-read equality DELETE (the GDPR-by-key path)
    under the hash gate: replay the first 4 single-segment cycles,
    commit ``delete_keys`` with every event_id divisible by 7 (per-
    partition hash-routed delete files, ONE manifest commit — no data
    file touched), then drain the remaining segments.  Point-in-time:
    matching keys ingested by the delete watermark are gone, matching
    keys arriving AFTER it survive.  The oracle replays the exact rule
    (rn ≤ the 4-cycle cut AND event_id % 7 = 0 → dropped)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        delete_keys,
        read_target_table,
    )

    root, tgt, ctx = _events_lake(
        sf_dir,
        extra={"source": {"key_columns": ["event_id"]}},
        single_segment_cycles=True,
        max_cycles=4,
        mutate=True,
    )
    try:
        ids = _events_feed(sf_dir)["event_id"].to_numpy()
        delete_keys(tgt, [str(i) for i in ids[ids % 7 == 0]])
        StreamRunner(ctx).run()
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_rollback(sf_dir: str):
    """FULL-ENGINE snapshot rollback under the hash gate: replay 4 of 8
    single-segment cycles, keep the version, drain the remaining 4 (the
    'bad' range), ``rollback_to`` the 4-cycle snapshot (ONE manifest
    commit restoring files + watermark), then drain again.  Because LWW
    re-application is idempotent, the final state must be EXACTLY the
    plain LWW winners — the oracle is the straight rank-1 query, so any
    rollback corruption (lost rows, stale watermark, double-applied
    tombstones) breaks the hash."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
        rollback_to,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    root, tgt, ctx = _events_lake(
        sf_dir, single_segment_cycles=True, max_cycles=4, mutate=True
    )
    try:
        v_good = ManifestLog(tgt).latest().version
        StreamRunner(ctx).run()  # the range to be rolled back
        rollback_to(tgt, v_good)
        StreamRunner(ctx).run()  # idempotent re-drain
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_filtered_read(sf_dir: str):
    """FULL-ENGINE filtered read under the hash gate: replay the events
    feed (merge-on-read deltas left pending — the filter must apply
    AFTER the LWW resolve, or an older matching version of a key whose
    winner does not match would resurrect), then
    ``read_target(where=[[event_type == 'click'], [value >= 10]])``.
    The oracle filters the LWW winners with the same predicate."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target

    _, tgt, _ = _events_lake(sf_dir, single_segment_cycles=True)
    out = read_target(
        tgt,
        columns=["user_id", VERSION_COL, "ts", "event_type", "value", "props"],
        where=[["event_type", "==", "click"], ["value", ">=", 10.0]],
    )
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    )


def cdc_tagged_read(sf_dir: str):
    """FULL-ENGINE named snapshot tags under the hash gate: replay 3 of
    8 single-segment cycles, ``set_tag('baseline')``, drain the rest,
    GC the log down to the newest snapshot (``expire_versions(keep=1)``
    — the tag must PIN its manifest and data files), then read the
    table BY TAG NAME.  The oracle reproduces the cycle-3 cut: a hash
    match proves both tag resolution and GC pinning."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    root, tgt, ctx = _events_lake(
        sf_dir, single_segment_cycles=True, max_cycles=3, mutate=True
    )
    try:
        ManifestLog(tgt).set_tag("baseline")
        StreamRunner(ctx).run()
        expired = ManifestLog(tgt).expire_versions(keep=1)
        assert expired, "GC should have dropped the untagged history"
        out = read_target_table(tgt, version="baseline")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_history(sf_dir: str):
    """Hash-checked COMMIT HISTORY (the Iceberg `snapshots` metadata
    table): replay 8 single-segment cycles, commit a predicate delete,
    then `table_history` — one row per retained manifest with (version,
    watermark, kind, changes_in).  Every column is deterministic under
    the fixed segmentation, so the oracle rebuilds the exact table in
    SQL: cycle k's watermark is the event_id at rank min(k*chunk, n)
    and its changes_in is the segment's row count."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        delete_where,
        table_history,
    )

    root, tgt, _ = _events_lake(sf_dir, single_segment_cycles=True, mutate=True)
    try:
        delete_where(tgt, [["event_type", "==", "view"], ["value", "<", 30.0]])
        out = table_history(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


_LOOKUP_KEYS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1_000_000_007]


def cdc_point_lookup(sf_dir: str):
    """Point lookups against the engine-built target table — the
    partition-pruned + bloom-sidecar read path (K-path) under the
    value-hash gate: replay the events feed through the real engine,
    then ``lookup_keys`` for a fixed key set (Fibonacci user ids plus
    one absent key).  Deleted keys (last op 'D') and absent keys return
    no row; the oracle is plain LWW SQL restricted to the same ids.
    Only the keys' owning partitions are read, and inside a partition
    per-file bloom sidecars skip files that cannot contain the keys."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import lookup_keys

    _, tgt, _ = _events_lake(
        sf_dir, extra={"sink": {"bloomFilterColumns": ["arcane_merge_key"]}}
    )
    out = lookup_keys(tgt, [str(k) for k in _LOOKUP_KEYS])
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def _events_feed(sf_dir: str) -> pa.Table:
    """The driver's events table as a CT feed: version = event_id,
    op = 'D' for event_type 'error' else 'U', sorted by version."""
    import pyarrow.parquet as pq

    # strip the pandas schema metadata: it survives into the CT-log
    # segments and an unhashable schema (metadata dict) defeats Ray
    # Data's schema dedup in every replay read ("Failed to hash" spam)
    events = (
        pq.read_table(f"{sf_dir}/events.parquet")
        .replace_schema_metadata(None)
        .sort_by([("event_id", "ascending")])
    )
    op = pc.if_else(
        pc.equal(events["event_type"], "error"), pa.scalar("D"), pa.scalar("U")
    )
    return events.append_column(VERSION_COL, events["event_id"]).append_column(
        OP_COL, op
    )


def _write_events_segments(
    feed: pa.Table, ct: str, n_segments: int = 8, shuffle_within: bool = False
) -> int:
    """Write the feed as contiguous CT-log segments; returns the segment
    row size (``ceil(n / n_segments)``).  ``shuffle_within`` permutes
    each segment's ROWS (deterministically) while keeping its version
    RANGE intact — the order SQL Server change tracking actually
    guarantees (a version-range query, not a sorted stream)."""
    import math

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.gen import segment_path

    os.makedirs(ct, exist_ok=True)
    n = feed.num_rows
    chunk = max(math.ceil(n / n_segments), 1)
    rng = np.random.default_rng(42)
    prev_hi = 0
    for off in range(0, n, chunk):
        sl = feed.slice(off, chunk)
        hi = int(pc.max(sl[VERSION_COL]).as_py())
        if shuffle_within:
            sl = sl.take(pa.array(rng.permutation(sl.num_rows)))
        pq.write_table(sl, segment_path(ct, prev_hi, hi))
        prev_hi = hi
    return chunk


def cdc_composite_key(sf_dir: str):
    """Composite merge-key replay (T3 in-engine, under the hash gate):
    the same feed keyed by (user_id, event_type) — merge-key synthesis
    concatenates the parts, routing hashes the synthesized key, and the
    converged state is LWW per composite key.  The oracle partitions by
    both columns; a hash match proves key synthesis, routing and the
    read path all agree on the composite identity."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table

    _, tgt, _ = _events_lake(
        sf_dir, extra={"source": {"key_columns": ["user_id", "event_type"]}}
    )
    out = read_target_table(tgt)
    return out.select(["user_id", VERSION_COL, "ts", "event_type", "value"])


def cdc_pruned_read(sf_dir: str):
    """Manifest-level FILE SKIPPING under the hash gate (r4): replay the
    feed, OPTIMIZE with ``sortedBy=[value]`` into several small files
    per partition, ANALYZE (folds per-file column bounds from parquet
    footers into the manifest), then ``read_target(where=[[value >=
    100.0]])``.  The query RAISES unless the bounds actually pruned files
    (so a silent pruning regression cannot stay green), and the rows
    must equal the LWW winners filtered by the same predicate —
    the Iceberg manifest-entry bounds analog (docs/crd.md:114-119)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        run_maintenance,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        ManifestLog,
        prune_files_by_stats,
    )

    root, tgt, ctx = _events_lake(
        sf_dir,
        extra={
            "sink": {"sortedBy": ["value"]},
            "maintenance": {
                "maxDeltasPerPartition": 0,
                # small value-sorted files per partition: hash routing
                # scatters values, so pruning bites at the FILE level
                "compactTargetRows": 8,
                "analyzeIncludedColumns": ["value"],
            },
        },
        mutate=True,
    )
    try:
        log = ManifestLog(tgt)
        run_maintenance(log, ctx)
        m = log.require_watermark()
        if not m.file_stats:
            raise AssertionError("ANALYZE recorded no per-file bounds")
        where = [["value", ">=", 100.0]]
        all_files = sorted(f for fl in m.partitions.values() for f in fl)
        kept = prune_files_by_stats(all_files, m.file_stats, where)
        if len(kept) >= len(all_files):
            raise AssertionError(
                f"bounds pruned nothing ({len(kept)}/{len(all_files)} kept)"
            )
        out = read_target(
            tgt,
            columns=["user_id", VERSION_COL, "ts", "event_type", "value", "props"],
            where=where,
        )
        return pa.concat_tables(
            out.iter_batches(batch_format="pyarrow", batch_size=None)
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def cdc_time_partition(sf_dir: str):
    """E2 partitionExpressions under the hash gate (r4): replay the feed
    into a CoW lake with ``partition_by=["day(ts)"]`` — the reference's
    value partition dimension (``month(order_date)`` etc,
    docs/crd.md:114-119) next to the pid routing's
    ``bucket(merge_key, P)``.  Base files cluster by calendar day at
    WRITE time and carry ts bounds in ``manifest.file_stats`` with NO
    ANALYZE pass.  The query RAISES unless (a) write-time bounds exist
    and (b) the day predicate actually skipped files, then returns the
    LWW winners with ``ts < 2024-01-30`` through the pruned read."""
    import datetime as _dt

    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        ManifestLog,
        prune_files_by_stats,
    )

    _, tgt, _ = _events_lake(
        sf_dir,
        extra={
            "sink": {
                "partitionBy": ["day(ts)"],
                "mergeMode": "cow",
            }
        },
    )
    m = ManifestLog(tgt).require_watermark()
    if not m.file_stats:
        raise AssertionError("partition_by recorded no write-time bounds")
    where = [["ts", "<", _dt.datetime(2024, 1, 30)]]
    all_files = sorted(f for fl in m.partitions.values() for f in fl)
    kept = prune_files_by_stats(all_files, m.file_stats, where)
    if not kept or len(kept) >= len(all_files):
        raise AssertionError(
            f"day(ts) clustering pruned nothing ({len(kept)}/{len(all_files)} kept)"
        )
    out = read_target(
        tgt,
        columns=["user_id", VERSION_COL, "ts", "event_type", "value", "props"],
        where=where,
    )
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    )


def cdc_maintenance_fold(sf_dir: str):
    """K4 (OPTIMIZE + expire) under the hash gate: replay the feed, then
    force a FULL maintenance pass — every partition's delta chain folds
    into fresh base files (max_deltas_per_partition=0) and old manifest
    versions expire — and read the table back.  The result must equal
    the same LWW oracle, and the fold must actually have happened (no
    pending deltas, one file set per partition) or the query raises."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import run_maintenance
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    root, tgt, ctx = _events_lake(
        sf_dir,
        extra={"maintenance": {"maxDeltasPerPartition": 0, "retentionVersions": 2}},
        mutate=True,
    )
    try:
        log = ManifestLog(tgt)
        pre_versions = len(log.versions())
        report = run_maintenance(log, ctx)
        m = log.require_watermark()
        if m.deltas:
            raise AssertionError(f"OPTIMIZE left pending deltas: {m.deltas}")
        if report["expired_versions"] == 0 and pre_versions > 2:
            raise AssertionError("expire_snapshots removed nothing")
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_unordered_feed(sf_dir: str):
    """ORDER-INDEPENDENCE of the whole engine under the hash gate: the
    same events feed replayed with every segment's rows deterministically
    SHUFFLED (SQL Server CT returns a version-range result set, not a
    sorted stream) must converge to the identical LWW state — exercising
    that pre-combine, routing, delta append order and the merge-on-read
    resolve all order strictly by version, never by arrival."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table

    _, tgt, _ = _events_lake(sf_dir, shuffle_within=True)
    out = read_target_table(tgt)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_backfill_then_stream(sf_dir: str):
    """Hash-checked BOOTSTRAP→STREAM (M4 Overwrite completion): snapshot
    the source state as of the 3rd segment boundary, Overwrite-backfill
    it (two key-disjoint shards; rows stamped with the snapshot version
    from the shard filenames), then stream the remaining feed.  The end
    state must equal plain LWW over ALL events — except that rows
    untouched after the snapshot keep the backfill stamp as their
    version (StreamRunner.scala:209-223 semantics), which the oracle
    reproduces with a CASE on the cut version."""
    import math

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    feed = _events_feed(sf_dir)
    n = feed.num_rows
    chunk = max(math.ceil(n / 8), 1)
    cut_pos = min(3 * chunk, n)
    cut_ver = int(feed[VERSION_COL][cut_pos - 1].as_py())

    # snapshot = LWW state over the first cut_pos events, live rows only
    pre = feed.slice(0, cut_pos)
    order = pc.sort_indices(
        pre,
        sort_keys=[("user_id", "ascending"), (VERSION_COL, "descending")],
    )
    s = pre.take(order)
    u = s["user_id"].to_numpy(zero_copy_only=False)
    first = np.r_[True, u[1:] != u[:-1]] if len(u) else np.zeros(0, bool)
    win = s.filter(pa.array(first))
    live = win.filter(pc.not_equal(win[OP_COL], "D")).select(
        ["user_id", "ts", "event_type", "value", "props"]
    )

    root = tempfile.mkdtemp(prefix="cdc_backfill_stream_")
    try:
        ct, tgt, snap = f"{root}/ctlog", f"{root}/target", f"{root}/snapshot"
        _write_events_segments(feed, ct)
        os.makedirs(snap, exist_ok=True)
        half = max(-(-live.num_rows // 2), 1)
        for i in range(2):  # key-disjoint shards (sliced from a sorted table)
            pq.write_table(
                live.slice(i * half, half),
                f"{snap}/shard{i:04d}-snapshot-v{cut_ver:012d}.parquet",
            )
        prepare_watermark(tgt, version=0, num_partitions=8)
        base = {
            "source": {
                "ctlog_dir": ct,
                "snapshot_dir": snap,
                "key_columns": ["user_id"],
            },
            "sink": {"target_root": tgt, "num_partitions": 8},
            "throughput": {"rows_per_group": chunk},
        }
        StreamRunner(
            StreamContext.from_dict(
                {
                    **base,
                    "stream_mode": {"backfill": True, "backfill_id": "drv"},
                }
            )
        ).run_backfill()
        StreamRunner(StreamContext.from_dict(base)).run()
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_schema_evolution(sf_dir: str):
    """Hash-checked SCHEMA EVOLUTION through the full engine: the feed's
    first 4 segments carry the base schema, the last 4 add a
    ``source_region`` column mid-stream.  The engine's additive
    migration widens the table at the first wide cycle (old rows null);
    the oracle reproduces the widened LWW state with a CASE on the cut
    position.  A hash match proves add-column migration preserves every
    pre-migration row and stamps nulls exactly where the column did not
    yet exist."""
    import math

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.gen import segment_path
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    feed = _events_feed(sf_dir)
    n = feed.num_rows
    # only the LAST 64 events carry the new column — the feed is dense
    # (every user appears in every eighth), so an earlier cut would leave
    # no pre-migration LWW winners and the null path would be invisible
    tail = min(64, n)
    cut_pos = n - tail
    chunk = max(math.ceil(max(cut_pos, 1) / 8), 1)
    wide = feed.append_column("source_region", pc.utf8_upper(feed["event_type"]))
    root = tempfile.mkdtemp(prefix="cdc_schema_evo_")
    try:
        ct, tgt = f"{root}/ctlog", f"{root}/target"
        os.makedirs(ct, exist_ok=True)
        prev_hi = 0
        for off in range(0, cut_pos, chunk):
            sl = feed.slice(off, min(chunk, cut_pos - off))
            hi = int(pc.max(sl[VERSION_COL]).as_py())
            pq.write_table(sl, segment_path(ct, prev_hi, hi))
            prev_hi = hi
        if tail:
            sl = wide.slice(cut_pos, tail)
            hi = int(pc.max(sl[VERSION_COL]).as_py())
            pq.write_table(sl, segment_path(ct, prev_hi, hi))
        prepare_watermark(tgt, version=0, num_partitions=8)
        ctx = StreamContext.from_dict(
            {
                "source": {"ctlog_dir": ct, "key_columns": ["user_id"]},
                "sink": {"target_root": tgt, "num_partitions": 8},
                "throughput": {"rows_per_group": chunk},
            }
        )
        StreamRunner(ctx).run()
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out.select(
        [
            "user_id",
            VERSION_COL,
            "ts",
            "event_type",
            "value",
            "props",
            "source_region",
        ]
    )


def cdc_schema_drift(sf_dir: str):
    """Hash-checked REPEATED additive migration (drift storm): the feed
    is cut into 8 segments and every segment after the first carries ONE
    MORE column (``extra01``..``extra07``), so the engine performs seven
    successive unify-and-widen migrations inside a single replay — the
    per-cycle-drift generalization of ``cdc_schema_evolution`` (reference
    SchemaMigrationTests.scala adds one column once).  The oracle
    reproduces the widened LWW state with a CASE per column on the
    winner's feed position; a hash match proves each migration preserved
    every prior row and stamped nulls exactly where that column did not
    yet exist."""
    import math

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.gen import segment_path
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    feed = _events_feed(sf_dir)
    n = feed.num_rows
    chunk = max(math.ceil(n / 8), 1)
    root = tempfile.mkdtemp(prefix="cdc_schema_drift_")
    try:
        ct, tgt = f"{root}/ctlog", f"{root}/target"
        os.makedirs(ct, exist_ok=True)
        prev_hi = 0
        for i, off in enumerate(range(0, n, chunk)):
            sl = feed.slice(off, chunk)
            for k in range(1, min(i, 7) + 1):
                sl = sl.append_column(
                    f"extra{k:02d}",
                    pc.binary_join_element_wise(
                        sl["event_type"], pa.scalar(str(k)), "#"
                    ),
                )
            hi = int(pc.max(sl[VERSION_COL]).as_py())
            pq.write_table(sl, segment_path(ct, prev_hi, hi))
            prev_hi = hi
        prepare_watermark(tgt, version=0, num_partitions=8)
        ctx = StreamContext.from_dict(
            {
                "source": {"ctlog_dir": ct, "key_columns": ["user_id"]},
                "sink": {"target_root": tgt, "num_partitions": 8},
                "throughput": {"rows_per_group": chunk},
            }
        )
        StreamRunner(ctx).run()
        out = read_target_table(tgt)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for k in range(1, 8):  # tiny feeds may never reach the later eighths
        name = f"extra{k:02d}"
        if name not in out.column_names:
            out = out.append_column(name, pa.nulls(out.num_rows, pa.string()))
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
        + [f"extra{k:02d}" for k in range(1, 8)]
    )


def cdc_time_travel(sf_dir: str):
    """Hash-checked SNAPSHOT ISOLATION: replay the events feed through
    the full engine in 8 single-segment cycles, then read the table AS
    OF the manifest committed after cycle 3.  The poll cap admits whole
    segments until rows >= rows_per_group, so with segment size ==
    rows_per_group every cycle consumes exactly one segment and the
    cycle-3 watermark is deterministically the 3*ceil(n/8)-th event —
    the SQL oracle reproduces the cut by row_number and applies plain
    LWW below it.  A hash match proves time-travel reads return exactly
    the committed prefix (exactly-once, no leakage from later cycles)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    _, tgt, _ = _events_lake(sf_dir, single_segment_cycles=True)
    versions = ManifestLog(tgt).versions()
    out = read_target_table(tgt, version=versions[3])  # after cycle 3
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_change_feed(sf_dir: str):
    """Hash-checked CHANGE-DATA-FEED read (the sink-side analog of the
    ``CHANGETABLE(CHANGES …)`` net feed the reference consumes): replay
    the events feed in 8 single-segment cycles, then ask the engine for
    the NET row-level changes committed between the cycle-3 and cycle-6
    snapshots.  The reader consumes ONLY the delta files appended in the
    range (cost ∝ changes, not table size) and probes the FROM snapshot
    just for the touched keys (bloom-assisted point lookups).  The SQL
    oracle reproduces the two cuts by row_number, takes LWW winners
    inside the range, and classifies insert/update/delete against the
    cycle-3 alive set — keys born and deleted inside the range net out."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        read_change_feed_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    _, tgt, _ = _events_lake(sf_dir, single_segment_cycles=True)
    versions = ManifestLog(tgt).versions()
    out = read_change_feed_table(
        tgt, from_version=versions[3], to_version=versions[6]
    )
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props", "change_type"]
    )


_PRICE_BANDS = [
    (0.0, 50_000.0, "small"),
    (50_000.0, 150_000.0, "mid"),
    (150_000.0, 300_000.0, "large"),
    (300_000.0, 1e12, "jumbo"),
]


def cms_heavy_hitters(sf_dir: str):
    """Count-min sketch under the VALUE-HASH gate: a 4×1024 mergeable
    counter grid over every token occurrence (per-batch partial grids,
    driver fold — the sketch shape that scales to 100 TB because only
    32 KB per task ever moves), point-estimated for a deterministic
    probe set (the 16 lexicographically smallest distinct tokens with
    ≥ 6 chars) alongside their exact counts.  The oracle replays the
    ENTIRE sketch in SQL: polynomial byte hash in HUGEINT (the
    fingerprint-oracle technique; tokens are ASCII so codepoint ==
    byte), 10-bit-field positions, per-cell sums, min across rows —
    so the hash match certifies estimates, not just plumbing."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.sketch import (
        cms_estimate,
        count_min_sketch,
    )

    ds = _read(sf_dir, "documents", columns=["text"])
    sketch = count_min_sketch(ds)

    # Probe-set discovery without a corpus-wide shuffle: the global 16
    # lexicographically-smallest long tokens are a subset of the union of
    # each batch's 16 smallest, so per-batch candidates (≤16 rows/task)
    # bound the answer and the driver folds a candidate set instead of
    # the whole vocabulary (the groupby+sort it replaces moved every
    # distinct token through two all-to-all exchanges).
    def local_candidates(batch: pa.Table) -> pa.Table:
        t = token_count_partials(batch["text"])
        t = t.filter(pc.greater_equal(pc.utf8_length(t["token"]), 6))
        order = pc.sort_indices(t["token"])[:16]
        return t.take(order).select(["token"])

    cand = (
        _read(sf_dir, "documents", columns=["text"])
        .map_batches(local_candidates, batch_format="pyarrow")
        .take_all()
    )
    tokens = sorted({r["token"] for r in cand})[:16]

    # Exact counts for just the probe set: per-batch partial sums over a
    # broadcast 16-token filter (≤16 rows/task), folded on the driver.
    probe_set = pa.array(tokens, pa.string())

    def probe_counts(batch: pa.Table) -> pa.Table:
        t = token_count_partials(batch["text"])
        return t.filter(pc.is_in(t["token"], value_set=probe_set))

    counts: dict[str, int] = {t: 0 for t in tokens}
    for r in (
        _read(sf_dir, "documents", columns=["text"])
        .map_batches(probe_counts, batch_format="pyarrow")
        .take_all()
    ):
        counts[r["token"]] += int(r["cnt"])
    est = cms_estimate(sketch, tokens)
    return pa.table(
        {
            "token": pa.array(tokens, pa.string()),
            "cnt": pa.array([counts[t] for t in tokens], pa.int64()),
            "est": pa.array(est, pa.int64()),
        }
    )


def hll_distinct_users(sf_dir: str):
    """HyperLogLog under the VALUE-HASH gate: the 1024 int64 registers
    over ``events.user_id`` (per-batch partials folded by max — 8 KB
    per task at any corpus size).  Registers are a deterministic
    integer function of the value SET, so the oracle replays them
    exactly in SQL — HUGEINT polynomial hash of the decimal string,
    bucket = low 10 bits, rank = 1 + trailing zeros of the rest — and
    the hash gate certifies the sketch itself; the derived cardinality
    estimate (±~3.25%) is pytest-asserted against the exact distinct
    count in ``tests/test_sketch.py``."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.sketch import (
        hll_registers,
    )

    ds = _read(sf_dir, "events", columns=["user_id"])
    regs = hll_registers(ds, "user_id")
    nz = np.nonzero(regs)[0]
    return pa.table(
        {
            "bucket": pa.array(nz, pa.int64()),
            "reg": pa.array(regs[nz], pa.int64()),
        }
    )


def range_join_bands(sf_dir: str):
    """Range (interval) join under the hash gate: every order picks up
    the price band containing its total — the non-equi join Ray Data
    has no primitive for, as one broadcast ``np.searchsorted`` per batch
    (no shuffle, no row explosion; intervals validated non-overlapping).
    The oracle is the literal BETWEEN-style join over the same bands."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.join import (
        broadcast_range_join,
    )

    bands = pa.table(
        {
            "lo": pa.array([b[0] for b in _PRICE_BANDS], pa.float64()),
            "hi": pa.array([b[1] for b in _PRICE_BANDS], pa.float64()),
            "band": pa.array([b[2] for b in _PRICE_BANDS], pa.string()),
        }
    )
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return broadcast_range_join(ds, bands, on="o_totalprice")


def cdc_replica_sync(sf_dir: str):
    """Hash-checked DOWNSTREAM REPLICATION: the events feed replays into
    a PRIMARY lake table in single-segment cycles; a REPLICA (different
    partition count — replication is logical) is synced by the CDF→CT-log
    bridge TWICE, once mid-stream and once at the end, each hop shipping
    only the net changes since the previous bridge.  The replica runs
    the unmodified engine over the bridged segments; its final table
    must equal plain LWW SQL over all events — proving the feed is a
    complete, composable change source one hop downstream (the
    reference's own topology: CHANGETABLE → engine → lake, repeated)."""
    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.replicate import (
        bridge_changes,
    )
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    # src @ 4 cycles comes from the shared replay cache (same recipe as
    # the rollback prefix); the replica lives in a private tmp root
    root, src, src_ctx = _events_lake(
        sf_dir, single_segment_cycles=True, max_cycles=4, mutate=True
    )
    rep_root = tempfile.mkdtemp(prefix="cdc_replica_")
    try:
        n_events = _events_feed(sf_dir).num_rows
        rep_ct, rep = f"{rep_root}/rep_ct", f"{rep_root}/rep"
        prepare_watermark(rep, version=0, num_partitions=4)
        rep_ctx = StreamContext.from_dict(
            {
                "source": {"ctlog_dir": rep_ct, "key_columns": ["user_id"]},
                "sink": {"target_root": rep, "num_partitions": 4},
                "throughput": {"rows_per_group": n_events},
            }
        )
        bridge_changes(src, rep_ct)
        StreamRunner(rep_ctx).run()
        StreamRunner(src_ctx).run()  # the rest
        bridge_changes(src, rep_ct)
        StreamRunner(rep_ctx).run()
        out = read_target_table(rep)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(rep_root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_snapshot_export(sf_dir: str):
    """Hash-checked RESUMABLE SNAPSHOT EXPORT: replay the events feed
    through the full engine, then ``export_snapshot`` — a consistent
    AS-OF publish to plain pid-partitioned parquet that consumers read
    WITHOUT the manifest/MoR machinery (Iceberg snapshot-export analog;
    per-partition atomic tmp→rename writes, finished partitions skipped
    on re-run).  The query reads the EXPORTED files back, so a hash
    match certifies the export path end-to-end against plain LWW SQL."""
    import glob

    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        export_snapshot,
    )

    _, tgt, _ = _events_lake(sf_dir)
    exp_root = tempfile.mkdtemp(prefix="cdc_export_")
    try:
        out_dir = f"{exp_root}/export"
        export_snapshot(tgt, out_dir)
        parts = [
            pq.read_table(p)
            for p in sorted(glob.glob(f"{out_dir}/pid=*/part-0.parquet"))
        ]
        out = pa.concat_tables([t for t in parts if t.num_rows])
    finally:
        shutil.rmtree(exp_root, ignore_errors=True)
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props"]
    )


def cdc_change_feed_all(sf_dir: str):
    """Hash-checked ALL-CHANGES feed (``cdc.fn_cdc_get_all_changes``
    analog): every persisted change row committed between the cycle-3
    and cycle-6 snapshots, with its logged operation — per-change
    history, not per-key winners.  The adaptive pre-combine is disabled
    (``precombineDupThreshold`` > 1, the same knob the exact cycle
    counters use) so the persisted history is raw per-event; the oracle
    is simply the feed rows between the two row_number cuts."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        read_change_feed_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    _, tgt, _ = _events_lake(
        sf_dir,
        extra={"sink": {"precombineDupThreshold": 2.0}},
        single_segment_cycles=True,
    )
    versions = ManifestLog(tgt).versions()
    out = read_change_feed_table(
        tgt, from_version=versions[3], to_version=versions[6], net=False
    )
    return out.select(
        ["user_id", VERSION_COL, "ts", "event_type", "value", "props", "change_type"]
    )


def cdc_incremental_matview(sf_dir: str):
    """Hash-checked INCREMENTAL VIEW MAINTENANCE — the canonical CDC
    consumer: a per-event_type (n, sum(value_cents)) materialized view
    built at the cycle-3 snapshot is advanced to cycle 6 using ONLY the
    change feed with pre-images (insert applies, delete retracts the
    pre-image, update retracts the pre-image and applies the post-image
    — rows MOVE between groups when event_type changes).  The oracle
    recomputes the aggregate directly at the cycle-6 cut; a hash match
    proves feed-driven maintenance converges to full recompute without
    rescanning the table.  Money stays in integer cents on both sides
    (bit-exact sums)."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.incremental import (
        advance_matview,
        grouped_agg_contribs,
    )
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        read_change_feed_table,
        read_target,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    _, tgt, _ = _events_lake(sf_dir, single_segment_cycles=True)
    versions = ManifestLog(tgt).versions()
    v_a, v_b = versions[3], versions[6]
    # matview @ cycle 3: per-batch partial aggregates (distributed),
    # folded from tiny (group, dn, dv) tables on the driver
    base = read_target(tgt, version=v_a, columns=["event_type", "value"])
    parts = base.map_batches(
        lambda b: grouped_agg_contribs(b, "event_type", "value"),
        batch_format="pyarrow",
    ).take_all()
    mv = pa.Table.from_pylist(parts, schema=pa.schema(
        [("group", pa.string()), ("dn", pa.int64()), ("dv", pa.int64())]
    ))
    # advance with the pre-imaged net change feed (size ∝ changes)
    feed = read_change_feed_table(
        tgt, v_a, v_b, pre_image_columns=("event_type", "value")
    )
    folded = advance_matview(mv, feed, "event_type", "value")
    return folded.rename_columns(["event_type", "n", "value_u"])


def cdc_ingest_dedup(sf_dir: str):
    """Hash-checked INGEST-TIME STREAMING DEDUP: the documents table
    replays as a CT feed (one segment per cycle, 6 cycles) through the
    full engine, and an :class:`IngestDedupIndex` sidecar folds each
    committed cycle exactly-once — flagging every incoming doc as
    ``exact_dup`` (whole-text poly hash seen in a STRICTLY EARLIER
    cycle) and/or ``near_candidate`` (MinHash-LSH band key seen in an
    earlier cycle) against the persisted posting index, then appending
    the cycle's own postings.  At 100 TB this is how you dedup Common
    Crawl: at ingest, each cycle's work bounded by the cycle, never a
    corpus-wide post-pass.  The oracle recomputes both detectors in
    DuckDB HUGEINT arithmetic (the perm constants are shared literals,
    the arithmetic is recomputed) with cycle = segment cut by
    row_number — a hash match proves the engine's change feed, the
    per-cycle index commits, and both signature chains are all exactly
    right."""
    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
    from arcane_stream_sqlserver_change_tracking_ray.functions.ingest_dedup import (
        IngestDedupIndex,
    )
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        prepare_watermark,
    )

    docs = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .replace_schema_metadata(None)
        .sort_by([("doc_id", "ascending")])
    )
    n = docs.num_rows
    feed = docs.append_column(
        VERSION_COL, pa.array(np.arange(1, n + 1), pa.int64())
    ).append_column(OP_COL, pa.array(["U"] * n, pa.string()))
    root = tempfile.mkdtemp(prefix="cdc_ingest_dedup_")
    try:
        ct, tgt, idx_root = f"{root}/ctlog", f"{root}/target", f"{root}/dedup_index"
        chunk = _write_events_segments(feed, ct, n_segments=6)
        prepare_watermark(tgt, version=0, num_partitions=8)
        ctx = StreamContext.from_dict(
            {
                "source": {"ctlog_dir": ct, "key_columns": ["doc_id"]},
                "sink": {"target_root": tgt, "num_partitions": 8},
                "throughput": {"rows_per_group": chunk},
            }
        )
        StreamRunner(ctx).run()
        # auto_compact_files=3: when a partition reaches 3 posting
        # files, advance folds them into one sorted file (the index's
        # OPTIMIZE) — later cycles then probe compacted state, so this
        # driver row also hash-proves compaction changes no verdict
        index = IngestDedupIndex(idx_root, num_partitions=4,
                                 auto_compact_files=3)
        index.advance(tgt)
        out = index.flags()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    # flags stamp the upstream MANIFEST version as the cycle; densify to
    # the 1-based segment rank the oracle computes from row cuts
    # (maintenance commits inside the replay shift raw versions but
    # produce no flag rows, so rank order is exactly segment order)
    cyc = out["cycle"].to_numpy(zero_copy_only=False)
    uniq = np.unique(cyc)
    dense = np.searchsorted(uniq, cyc) + 1
    out = out.set_column(
        out.schema.get_field_index("cycle"), "cycle", pa.array(dense, pa.int64())
    )
    return out.sort_by([("doc_id", "ascending")])


def cdc_cycle_metrics(sf_dir: str):
    """Per-cycle observability (F4) under the value-hash gate: replay
    the events feed in 8 single-segment cycles with the adaptive
    pre-combine DISABLED (``precombineDupThreshold`` > 1 makes the raw
    per-op counters exact), then read each committed manifest's metrics.
    changes_in / upserts / deletes / watermark per cycle must equal the
    SQL oracle's segment cuts by row_number — proving the engine's
    telemetry (not just its data) is correct."""
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

    _, tgt, _ = _events_lake(
        sf_dir,
        extra={"sink": {"precombineDupThreshold": 2.0}},
        single_segment_cycles=True,
    )
    log = ManifestLog(tgt)
    rows = []
    for v in log.versions():
        m = log.read(v)
        if "changes_in" not in m.metrics:
            continue  # prepared/maintenance manifests carry no cycle counters
        rows.append(
            {
                "cycle": len(rows) + 1,
                "watermark": int(m.watermark),
                "changes_in": int(m.metrics["changes_in"]),
                "upserts": int(m.metrics["upserts"]),
                "deletes": int(m.metrics["deletes"]),
            }
        )
    return pa.table(
        {
            "cycle": pa.array([r["cycle"] for r in rows], pa.int64()),
            "watermark": pa.array([r["watermark"] for r in rows], pa.int64()),
            "changes_in": pa.array([r["changes_in"] for r in rows], pa.int64()),
            "upserts": pa.array([r["upserts"] for r in rows], pa.int64()),
            "deletes": pa.array([r["deletes"] for r in rows], pa.int64()),
        }
    )
