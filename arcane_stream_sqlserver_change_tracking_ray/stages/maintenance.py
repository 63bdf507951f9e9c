"""Target table maintenance (K4, SURVEY.md §2.6).

Reference (``TargetMaintenanceProcessor``, ``main.scala:107``;
``docs/crd.md:136-172``): every ``batchThreshold`` merged batches run
OPTIMIZE (compact small files), expire_snapshots, remove_orphan_files
and ANALYZE (column stats).  Ray-native translation:

- **optimize**: partitions whose live files are many/small are
  rewritten into target-size files — a per-partition local rewrite,
  *no shuffle* (SURVEY.md §7.4); parallelized over partition ids with
  ``merge.run_per_cpu`` (at most one plain Ray task per CPU),
- **expire/orphans**: ``ManifestLog.expire_versions`` drops old
  manifests and deletes data files referenced only by them;
  the startup ``sweep_uncommitted`` is the orphan-file removal,
- **analyze**: per-column min/max/null stats over the included columns
  (``targetAnalyzeSettings.includedColumns``, T5) folded into the
  manifest — enabling file skipping for readers.

Cadence counters live in the manifest so thresholds survive restarts
(the reference keeps them in-process; SURVEY.md §3.1).
"""

from __future__ import annotations

import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.functions.transforms import (
    cast_to_schema,
    column_summary,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    Partition,
    partition_ids,
    resolve_partition_table,
    run_per_cpu,
    write_partition_files,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
    parse_partition_exprs,
    source_columns as _cluster_sources,
)
from arcane_stream_sqlserver_change_tracking_ray.types import MERGE_KEY_COL
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import Manifest, ManifestLog


def partitions_needing_compaction(
    target_root: str,
    manifest: Manifest,
    max_files: int,
    size_threshold: int,
    max_deltas: int = 8,
) -> list[int]:
    out = []
    for pid in sorted(manifest.partition_pids()):
        files = manifest.partitions.get(pid, [])
        deltas = manifest.deltas.get(pid, [])
        # merge-on-read fold trigger: long delta chains tax every read.
        # Count distinct delta CYCLES, not entries — the direct delta
        # writer adds ~one entry per push task per cycle (entries scale
        # with cluster size), but read staleness is measured in cycles
        delta_cycles = {e.split("/")[1] for e in deltas if "/" in e}
        if len(delta_cycles or deltas) > max_deltas or (deltas and not files):
            out.append(pid)
            continue
        if len(files) + len(deltas) <= 1:
            continue
        sizes = []
        fs = lakefs(target_root)
        for rel in files:
            try:
                sizes.append(fs.getsize(rel))
            except (FileNotFoundError, OSError):
                sizes.append(0)
        if len(files) > max_files or (sizes and max(sizes) < size_threshold):
            out.append(pid)
    return out


class CompactPartition:
    """Fold one partition into as few target-size base files as possible:
    resolve base + pending merge-on-read deltas (LWW, tombstones dropped)
    and rewrite.  This is THE fold point of the delta log — the analog of
    Iceberg OPTIMIZE compacting MERGE output (docs/crd.md:136-150).
    Called once per partition id, fanned out with ``run_per_cpu``."""

    def __init__(
        self,
        target_root: str,
        cycle_id: str,
        partition_files: dict[int, list[str]],
        partition_deltas: dict[int, list[str]],
        schema: pa.Schema,
        max_rows_per_file: int,
        compression: str,
        fsync: bool = True,
        bloom_columns: tuple[str, ...] = (),
        delete_predicates=None,
        key_deletes=None,
        sorted_by: tuple[str, ...] = (),
        cluster_by: tuple = (),
        cluster_min_rows: int = 0,
        merge_key_alias: str | None = None,
    ):
        self.target_root = target_root
        self.cycle_id = cycle_id
        #: the manifest's: the fold neither decodes nor stores a copy
        self.merge_key_alias = merge_key_alias
        self.partition_files = partition_files
        self.partition_deltas = partition_deltas
        self.schema = schema
        self.max_rows_per_file = max_rows_per_file
        self.compression = compression
        self.fsync = fsync
        self.bloom_columns = bloom_columns
        #: set ONLY by materialize_deletes — the regular OPTIMIZE fold
        #: leaves predicate-/equality-deleted rows physically in place
        #: (they stay filtered at read because base rows keep their
        #: version column)
        self.delete_predicates = delete_predicates
        self.key_deletes = key_deletes or {}
        #: table sort-order property: the fold re-sorts so compacted base
        #: files keep the row-group min/max locality the `where` pushdown
        #: and `sortedBy` contract rely on (reference docs/crd.md:110)
        self.sorted_by = tuple(sorted_by)
        #: partition_by expressions: the fold RE-CLUSTERS base files by
        #: transform value (Iceberg compaction's posture) and records
        #: write-time bounds for manifest.file_stats
        self.cluster_by = tuple(cluster_by)
        self.cluster_min_rows = cluster_min_rows

    def __call__(self, pid: int) -> dict:
        part = Partition(
            self.partition_files.get(pid, []),
            self.partition_deltas.get(pid, []),
            self.key_deletes.get(pid, []),
        )
        merged = resolve_partition_table(
            self.target_root,
            [part],
            self.schema,
            delete_predicates=self.delete_predicates,
            merge_key_alias=self.merge_key_alias,
        )
        if self.sorted_by and merged.num_rows:
            merged = merged.sort_by([(c, "ascending") for c in self.sorted_by])
        fb: dict = {}
        rels, _ = write_partition_files(
            merged,
            self.target_root,
            self.cycle_id,
            pid,
            max_rows_per_file=self.max_rows_per_file,
            compression=self.compression,
            fsync=self.fsync,
            bloom_columns=self.bloom_columns,
            cluster_by=self.cluster_by,
            cluster_min_rows=self.cluster_min_rows,
            bounds_cols=tuple(dict.fromkeys(
                _cluster_sources(self.cluster_by) + self.sorted_by)),
            bounds_out=fb,
            merge_key_alias=self.merge_key_alias,
        )
        return {"pid": pid, "files": rels, "file_stats": fb}


def optimize(log: ManifestLog, ctx: StreamContext) -> dict:
    """OPTIMIZE pass; commits a new manifest version (watermark unchanged)."""
    manifest = log.require_watermark()
    pids = partitions_needing_compaction(
        log.root,
        manifest,
        ctx.maintenance.max_files_per_partition,
        ctx.maintenance.file_size_threshold_bytes,
        ctx.maintenance.max_deltas_per_partition,
    )
    if not pids:
        return {"compacted_partitions": 0}
    cycle_id = f"compact-{manifest.version + 1:012d}-{uuid.uuid4().hex[:8]}"
    fn = CompactPartition(
        target_root=log.root,
        cycle_id=cycle_id,
        partition_files={p: manifest.partitions.get(p, []) for p in pids},
        partition_deltas={p: manifest.deltas.get(p, []) for p in pids},
        schema=manifest.schema,
        max_rows_per_file=ctx.maintenance.compact_target_rows or ctx.sink.max_rows_per_file,
        compression=ctx.sink.parquet_compression,
        fsync=ctx.sink.durable_writes,
        bloom_columns=tuple(ctx.sink.bloom_filter_columns),
        sorted_by=tuple(ctx.sink.sorted_by),
        cluster_by=parse_partition_exprs(tuple(ctx.sink.partition_by)),
        cluster_min_rows=ctx.sink.cluster_min_rows,
        merge_key_alias=manifest.merge_key_alias,
    )
    res = run_per_cpu(fn, pids)
    nxt = manifest.next()
    folded_deltas = 0
    for r in res:
        pid, files = r["pid"], r["files"]
        if files:
            nxt.partitions[pid] = files
        else:  # partition fully deleted by folded tombstones
            nxt.partitions.pop(pid, None)
        folded_deltas += len(nxt.deltas.pop(pid, []))
        nxt.file_stats.update(r["file_stats"])
        nxt.lineage.setdefault(pid, {})["compacted"] = cycle_id
        nxt.lineage[pid]["deltas"] = 0
    if nxt.file_stats:  # drop bounds of the files this fold superseded
        live = nxt.all_files()
        nxt.file_stats = {k: v for k, v in nxt.file_stats.items() if k in live}
    nxt.metrics = {
        "maintenance": {
            "compacted_partitions": len(res),
            "folded_deltas": folded_deltas,
            "cycle": cycle_id,
        }
    }
    log.commit(nxt, expect_version=manifest.version)
    return {"compacted_partitions": len(res), "folded_deltas": folded_deltas}


def materialize_deletes(log: ManifestLog, ctx: StreamContext) -> dict:
    """Physically remove predicate-deleted rows (K9's fold point, and
    the actual GDPR erasure): rewrite every live partition with the
    committed delete predicates applied — base+deltas resolve, predicate
    filter, fresh base files — then ONE manifest commit clears the
    predicate list and the folded deltas.  After this (plus
    ``expire_versions`` GC-ing the old snapshots) the deleted bytes are
    gone from disk, not merely filtered."""
    manifest = log.require_watermark()
    if not manifest.delete_predicates and not manifest.key_deletes:
        return {"materialized": 0}
    pids = sorted(manifest.partition_pids())
    cycle_id = f"matdel-{manifest.version + 1:012d}-{uuid.uuid4().hex[:8]}"
    nxt = manifest.next()
    nxt.delete_predicates = []
    nxt.key_deletes = {}
    if pids:
        fn = CompactPartition(
            target_root=log.root,
            cycle_id=cycle_id,
            partition_files={p: manifest.partitions.get(p, []) for p in pids},
            partition_deltas={p: manifest.deltas.get(p, []) for p in pids},
            schema=manifest.schema,
            max_rows_per_file=ctx.maintenance.compact_target_rows
            or ctx.sink.max_rows_per_file,
            compression=ctx.sink.parquet_compression,
            fsync=ctx.sink.durable_writes,
            bloom_columns=tuple(ctx.sink.bloom_filter_columns),
            delete_predicates=list(manifest.delete_predicates),
            key_deletes=dict(manifest.key_deletes),
            sorted_by=tuple(ctx.sink.sorted_by),
            cluster_by=parse_partition_exprs(tuple(ctx.sink.partition_by)),
            cluster_min_rows=ctx.sink.cluster_min_rows,
            merge_key_alias=manifest.merge_key_alias,
        )
        for r in run_per_cpu(fn, pids):
            pid, files = r["pid"], r["files"]
            if files:
                nxt.partitions[pid] = files
            else:  # every row of the partition was deleted
                nxt.partitions.pop(pid, None)
            nxt.deltas.pop(pid, None)
            nxt.file_stats.update(r["file_stats"])
            nxt.lineage.setdefault(pid, {})["materialized_deletes"] = cycle_id
        if nxt.file_stats:
            live = nxt.all_files()
            nxt.file_stats = {k: v for k, v in nxt.file_stats.items() if k in live}
    n_keydel = sum(len(v) for v in manifest.key_deletes.values())
    nxt.metrics = {
        "maintenance": {
            "materialized_predicates": len(manifest.delete_predicates),
            "materialized_key_delete_files": n_keydel,
            "cycle": cycle_id,
        }
    }
    log.commit(nxt, expect_version=manifest.version)
    return {"materialized": len(manifest.delete_predicates) + n_keydel}


class RepartitionPartition:
    """Re-bucket ONE old partition into the new spec: resolve its
    base + pending deltas (LWW, tombstones dropped), recompute every
    row's partition id under the SAME ``key_hash_algo`` with the NEW
    partition count, and write one file set per new pid touched.

    No cross-task exchange: re-bucketing is write-side partitioned
    output — each task fans its rows out to new-pid files and the
    driver's manifest commit gathers per-new-pid file lists across
    tasks.  Rows from different OLD pids landing in one NEW pid are
    key-disjoint by construction (a key lived in exactly one old pid),
    so the gathered lists are valid LWW-resolved base files as-is."""

    def __init__(
        self,
        target_root: str,
        cycle_id: str,
        partition_files: dict[int, list[str]],
        partition_deltas: dict[int, list[str]],
        schema: pa.Schema,
        new_partitions: int,
        key_hash_algo: str,
        max_rows_per_file: int,
        compression: str,
        fsync: bool = True,
        bloom_columns: tuple[str, ...] = (),
        cluster_by: tuple = (),
        cluster_min_rows: int = 0,
        sorted_by: tuple[str, ...] = (),
        merge_key_alias: str | None = None,
    ):
        self.merge_key_alias = merge_key_alias
        self.cluster_by = tuple(cluster_by)
        self.cluster_min_rows = cluster_min_rows
        #: table sort-order property survives the re-bucket (same
        #: contract as CompactPartition) and its columns' write-time
        #: bounds go into file_stats — repartition_table resets
        #: nxt.file_stats, so dropping sorted_by here would silently
        #: disable sortedBy pruning until the next ANALYZE
        self.sorted_by = tuple(sorted_by)
        self.target_root = target_root
        self.cycle_id = cycle_id
        self.partition_files = partition_files
        self.partition_deltas = partition_deltas
        self.schema = schema
        self.new_partitions = new_partitions
        self.key_hash_algo = key_hash_algo
        self.max_rows_per_file = max_rows_per_file
        self.compression = compression
        self.fsync = fsync
        self.bloom_columns = bloom_columns

    def __call__(self, pid: int) -> list[dict]:
        """One ``{pid, files, file_stats}`` per NEW pid the old *pid*'s
        rows land in."""
        import numpy as np

        merged = resolve_partition_table(
            self.target_root,
            [Partition(self.partition_files.get(pid, []), self.partition_deltas.get(pid, []))],
            self.schema,
            merge_key_alias=self.merge_key_alias,
        )
        if merged.num_rows == 0:
            return []
        if self.sorted_by:
            # sort FIRST, then stable-argsort by new pid: each new-pid
            # run keeps sortedBy order, matching CompactPartition
            merged = merged.sort_by([(c, "ascending") for c in self.sorted_by])
        npid = partition_ids(merged[MERGE_KEY_COL], self.new_partitions, self.key_hash_algo)
        order = np.argsort(npid, kind="stable")
        merged = merged.take(pa.array(order))
        npid = npid[order]
        starts = np.flatnonzero(np.r_[True, npid[1:] != npid[:-1]])
        ends = np.r_[starts[1:], len(npid)]
        out = []
        for s, e in zip(starts, ends):
            fb: dict = {}
            rels, _ = write_partition_files(
                merged.slice(int(s), int(e - s)),
                self.target_root,
                self.cycle_id,
                int(npid[s]),
                max_rows_per_file=self.max_rows_per_file,
                compression=self.compression,
                fsync=self.fsync,
                bloom_columns=self.bloom_columns,
                cluster_by=self.cluster_by,
                cluster_min_rows=self.cluster_min_rows,
                bounds_cols=tuple(dict.fromkeys(
                    _cluster_sources(self.cluster_by) + self.sorted_by)),
                bounds_out=fb,
                merge_key_alias=self.merge_key_alias,
            )
            out.append({"pid": int(npid[s]), "files": rels, "file_stats": fb})
        return out


def repartition_table(log: ManifestLog, ctx: StreamContext, new_partitions: int) -> dict:
    """Partition-spec evolution: re-bucket the live table from P to P'
    partitions as an atomic maintenance action (the Iceberg
    ``bucket(arcane_merge_key, P)`` spec-change analog, docs/crd.md:114-119
    — and the operational lever when a table outgrows its P: more
    partitions = more merge/read parallelism and smaller point-lookup
    fan-in).

    Each OLD partition resolves base+deltas and writes new-pid-bucketed
    files, in at most one task per CPU (no shuffle — write-side
    partitioning); ONE manifest commit flips ``num_partitions``, the full file map, and
    clears all deltas.  Readers and the next streaming cycle pick up the
    new spec from the manifest — routing is always manifest-driven, so
    the flip is transparent.  Concurrent streamers CAS-fail and retry
    against the new spec.  The change feed refuses to cross the
    boundary (pids are not comparable across specs); re-baseline from a
    post-repartition snapshot."""
    manifest = log.require_watermark()
    old = manifest.num_partitions
    if new_partitions < 1:
        raise ValueError(f"new_partitions must be >= 1, got {new_partitions}")
    if manifest.key_deletes:
        raise ValueError(
            "cannot repartition with pending equality-delete files (they "
            "are routed by the OLD partition spec); run "
            "materialize_deletes first"
        )
    if new_partitions == old:
        return {"repartitioned": False, "num_partitions": old}
    pids = sorted(manifest.partition_pids())
    cycle_id = f"repart-{manifest.version + 1:012d}-{uuid.uuid4().hex[:8]}"
    nxt = manifest.next()
    nxt.num_partitions = new_partitions
    nxt.partitions = {}
    nxt.deltas = {}
    nxt.lineage = {}
    nxt.file_stats = {}  # every file is replaced under the new spec
    if pids:
        fn = RepartitionPartition(
            target_root=log.root,
            cycle_id=cycle_id,
            partition_files={p: manifest.partitions.get(p, []) for p in pids},
            partition_deltas={p: manifest.deltas.get(p, []) for p in pids},
            schema=manifest.schema,
            new_partitions=new_partitions,
            key_hash_algo=manifest.key_hash_algo,
            max_rows_per_file=ctx.maintenance.compact_target_rows
            or ctx.sink.max_rows_per_file,
            compression=ctx.sink.parquet_compression,
            fsync=ctx.sink.durable_writes,
            bloom_columns=tuple(ctx.sink.bloom_filter_columns),
            cluster_by=parse_partition_exprs(tuple(ctx.sink.partition_by)),
            cluster_min_rows=ctx.sink.cluster_min_rows,
            sorted_by=tuple(ctx.sink.sorted_by),
            merge_key_alias=manifest.merge_key_alias,
        )
        for written in run_per_cpu(fn, pids):
            for r in written:
                nxt.partitions.setdefault(r["pid"], []).extend(r["files"])
                nxt.file_stats.update(r["file_stats"])
        for pid in nxt.partitions:
            nxt.lineage[pid] = {"repartitioned": cycle_id, "deltas": 0}
    nxt.metrics = {
        "maintenance": {
            "repartitioned_from": old,
            "repartitioned_to": new_partitions,
            "cycle": cycle_id,
        }
    }
    log.commit(nxt, expect_version=manifest.version)
    return {
        "repartitioned": True,
        "from": old,
        "to": new_partitions,
        "new_pids": len(nxt.partitions),
    }


def analyze(log: ManifestLog, ctx: StreamContext) -> dict:
    """ANALYZE pass: per-column stats over included columns, streamed —
    per-batch partial summaries merged driver-side (no materialization)."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target

    manifest = log.require_watermark()
    included = tuple(ctx.maintenance.analyze_included_columns)
    if not manifest.partitions:
        return {}
    cols = [
        f.name
        for f in manifest.schema
        if (not included or f.name in included)
        and not pa.types.is_binary(f.type)
        and not pa.types.is_large_binary(f.type)
    ]
    ds = read_target(log.root, columns=cols)

    # summaries fold INSIDE map_batches (distributed); the driver only
    # merges one tiny pickled summary per block — never the data itself
    def partial_summary(batch: pa.Table) -> pa.Table:
        import pickle

        return pa.table({"summary": pa.array([pickle.dumps(column_summary(batch))])})

    merged: dict[str, dict] = {}
    import pickle

    for row in ds.map_batches(partial_summary, batch_format="pyarrow").take_all():
        part = pickle.loads(row["summary"])
        for c, s in part.items():
            if c not in merged:
                merged[c] = dict(s)
            else:
                m = merged[c]
                for k, pick in (("min", min), ("max", max)):
                    vals = [v for v in (m[k], s[k]) if v is not None]
                    m[k] = pick(vals) if vals else None
                m["null_count"] += s["null_count"]
                m["count"] += s["count"]
    stats = {c: {k: _jsonable(v) for k, v in s.items()} for c, s in merged.items()}
    cur = log.require_watermark()
    # footer bounds cover the analyzed columns PLUS the partition_by
    # source columns, and MERGE per-file/per-column into the head
    # manifest's map (never replace): write-time partition_by bounds and
    # bounds committed by concurrent cycles mid-ANALYZE must survive
    from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
        source_columns,
    )

    bcols = list(
        dict.fromkeys(
            cols + list(source_columns(parse_partition_exprs(tuple(ctx.sink.partition_by))))
        )
    )
    file_stats = _collect_file_bounds(log, cur, bcols)
    nxt = cur.next()
    # "_"-prefixed stats keys are the reserved non-column namespace
    # (e.g. "_ivf_index" sidecar pointers) — ANALYZE owns only the
    # column-summary keys and must not clobber them
    nxt.stats = {k: v for k, v in cur.stats.items() if k.startswith("_")}
    nxt.stats.update(stats)
    for rel, b in file_stats.items():
        nxt.file_stats.setdefault(rel, {}).update(b)
    live = nxt.all_files()
    nxt.file_stats = {k: v for k, v in nxt.file_stats.items() if k in live}
    nxt.metrics = {
        "maintenance": {
            "analyzed_columns": len(stats),
            "file_stats_files": len(nxt.file_stats),
        }
    }
    log.commit(nxt, expect_version=cur.version)
    return stats


#: reserved stats key registering a table's IVF embedding-index sidecar
IVF_INDEX_STATS_KEY = "_ivf_index"


def build_ivf_sidecar(
    log: ManifestLog,
    *,
    emb_col: str,
    id_col: str = "vec_id",
    n_clusters: int = 16,
    iters: int = 5,
) -> dict:
    """Maintenance pass: build the IVF coarse-quantizer index over this
    table's *emb_col* as a PERSISTED sidecar (r4 verdict #1 — at 100 TB
    the index is built once by maintenance, never per query).

    The sidecar lives under ``<root>/_index/ivf-<emb_col>-v<V>/`` as a
    manifest-backed mini-table whose partitions ARE the IVF clusters
    (see :func:`...functions.similarity.build_ivf_index`); this pass
    then registers the pointer in the TABLE manifest under the reserved
    ``stats["_ivf_index"]`` key (same discover-from-the-manifest posture
    as the bloom sidecars, ``merge.py``), so readers resolve
    table → index → probed-cluster files with two tiny manifest reads.
    Snapshot semantics: the index is pinned to the version it was built
    from — a later data commit makes it stale, and the staleness is
    visible (``built_at_version`` vs current) so a maintenance cadence
    can rebuild exactly like ANALYZE re-collects bounds."""
    from arcane_stream_sqlserver_change_tracking_ray.functions.similarity import (
        build_ivf_index,
    )
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target

    cur = log.require_watermark()
    idx_rel = f"_index/ivf-{emb_col}-v{cur.version}"
    ds = read_target(log.root, columns=[id_col, emb_col])
    build_ivf_index(
        ds,
        f"{log.root}/{idx_rel}",
        n_clusters=n_clusters,
        iters=iters,
        id_col=id_col,
        emb_col=emb_col,
        source_fingerprint=f"table-v{cur.version}",
    )
    pointer = {
        "root": idx_rel,
        "emb_col": emb_col,
        "id_col": id_col,
        "n_clusters": n_clusters,
        "iters": iters,
        "built_at_version": cur.version,
    }
    nxt = cur.next()
    entry = dict(nxt.stats.get(IVF_INDEX_STATS_KEY) or {})
    entry[emb_col] = pointer
    nxt.stats[IVF_INDEX_STATS_KEY] = entry
    nxt.metrics = {"maintenance": {"ivf_index_built": idx_rel}}
    log.commit(nxt, expect_version=cur.version)
    return pointer


def _collect_file_bounds(
    log: ManifestLog, manifest, cols: list[str]
) -> dict[str, dict[str, list]]:
    """Per-FILE column bounds from parquet FOOTERS only (no data scan) —
    the manifest-level analog of Iceberg manifest-entry lower/upper
    bounds, consumed by ``read_target(where=...)`` file skipping.

    Footer reads are distributed as one ``map_batches`` pass over the
    live base-file list (a few KB of metadata per file, so a batch of
    paths is cheap even at 10^5 files); only JSON-native scalar bounds
    (int/float/str/bool) are recorded, everything else is skipped and
    such files simply never prune.  Existing stats for files no longer
    in the manifest are dropped — files are immutable, so surviving
    entries are still exact.

    On a table whose ``arcane_merge_key`` is an alias of a STRING column
    the files store no merge-key column but the alias holds the same
    values, so the alias's bounds are recorded under the merge key.  A
    non-string alias records none: its string cast does not sort like
    the column."""
    import json as _json

    import ray.data

    # captured by the closure below (pickled by value): worker-executed
    # code must NOT import the package by name — workers inherit the
    # raylet's cwd, where /root/repo may not be on sys.path
    from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import bound_key

    live = sorted(
        {f for files in manifest.partitions.values() for f in files}
        # delta files too (fragment entries share one physical file):
        # their bounds let read_target skip whole PARTITIONS on the
        # merge-on-read path when base+deltas all exclude the predicate
        | {
            e.partition("#rg=")[0]
            for files in manifest.deltas.values()
            for e in files
        }
    )
    if not live or not cols:
        return {}
    root, want = log.root, tuple(cols)
    alias = manifest.merge_key_alias
    alias_type = manifest.schema.field(alias).type if alias is not None else None
    # the file column whose bounds a wanted column takes when it stores none
    stand_in = (
        {MERGE_KEY_COL: alias}
        if alias_type is not None
        and (pa.types.is_string(alias_type) or pa.types.is_large_string(alias_type))
        else {}
    )

    def footer_bounds(batch: pa.Table) -> pa.Table:
        fs = lakefs(root)
        out = []
        for rel in batch["rel"].to_pylist():
            bounds: dict[str, list] = {}
            try:
                md = fs.parquet_file(rel).metadata
            except Exception:
                out.append("{}")
                continue
            idx = {md.schema.column(i).name: i for i in range(md.num_columns)}
            for c in want:
                j = idx.get(c, idx.get(stand_in.get(c)))
                if j is None:
                    continue
                lo = hi = None
                ok = True
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(j).statistics
                    if st is None or not st.has_min_max:
                        ok = False
                        break
                    # bound_key maps temporal stats to epoch-microsecond
                    # ints, so timestamp/date columns prune too
                    mn, mx = bound_key(st.min), bound_key(st.max)
                    if not isinstance(mn, (int, float, str, bool)) or not isinstance(
                        mx, (int, float, str, bool)
                    ):
                        ok = False
                        break
                    lo = mn if lo is None else min(lo, mn)
                    hi = mx if hi is None else max(hi, mx)
                if ok and lo is not None:
                    bounds[c] = [lo, hi]
            out.append(_json.dumps(bounds))
        return pa.table({"rel": batch["rel"], "bounds": pa.array(out)})

    rows = (
        ray.data.from_arrow(pa.table({"rel": pa.array(live)}))
        .map_batches(footer_bounds, batch_format="pyarrow")
        .take_all()
    )
    return {
        r["rel"]: b for r in rows if (b := _json.loads(r["bounds"]))
    }


def _jsonable(v):
    import datetime

    if isinstance(v, (datetime.datetime, datetime.date, datetime.time)):
        return v.isoformat()
    return v


def run_maintenance(log: ManifestLog, ctx: StreamContext) -> dict:
    """The full K4 pass: OPTIMIZE → expire_snapshots/orphans → ANALYZE;
    resets the cadence counter in the committed manifest."""
    out = {"optimize": optimize(log, ctx)}
    expired = log.expire_versions(ctx.maintenance.retention_versions)
    out["expired_versions"] = len(expired)
    if ctx.maintenance.analyze_included_columns:
        out["analyze"] = {"columns": len(analyze(log, ctx))}
    cur = log.require_watermark()
    nxt = cur.next()
    nxt.counters["batches_since_maintenance"] = 0
    nxt.metrics = {"maintenance_done": out}
    log.commit(nxt, expect_version=cur.version)
    return out
