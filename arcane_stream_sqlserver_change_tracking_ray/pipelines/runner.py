"""Stream orchestration: bootstrap, poll cycles, backfill (F1/F2).

The Ray-native analog of the reference's processor graph
(``GenericStreamRunnerService`` + ``DefaultStreamBootstrapper``,
``main.scala:69-117``; lifecycle detailed in SURVEY.md §3):

    bootstrap (watermark gate + staging sweep)
    └─ per poll cycle:
         tailer S1 → transforms T1-T4 → [staging G1] →
         schema migration E1 (decided once, driver-side) →
         partitioned LWW merge M1/M2 → manifest commit K1/K2 →
         dispose staging K3 → every N batches maintenance K4

Each cycle runs one plain Ray task per read unit, planned from the
change-log footers (``pqio``): the task reads, transforms, routes and
writes, and returns only its stats rows.  No Ray Data executor runs in
the cycle (reads of the target table still use Ray Data).  The driver
only plans, folds tiny stats rows, and commits manifests.
"""

from __future__ import annotations

import functools
import logging
import time
import uuid

import pyarrow as pa

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.functions import transforms as T
from arcane_stream_sqlserver_change_tracking_ray.pqio import (
    ReadUnit,
    cluster_cpus,
    plan_units,
    units_dataset,
)
from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
    ChangeFeedTailer,
    list_segments,
    max_available_version,
    snapshot_files,
)
from arcane_stream_sqlserver_change_tracking_ray.stages import staging as G
from arcane_stream_sqlserver_change_tracking_ray.stages import merge as _merge_mod
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    ActorMergePool,
    fold_stats_into_manifest,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
    parse_partition_exprs as _p_parse_exprs,
    source_columns as _p_source_columns,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.schema_evo import (
    schemas_of_parquet_files,
    unify_target_schema,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs as _lakefs
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    CommitConflictError,
    Manifest,
    ManifestLog,
    prepare_watermark,
    prune_files_by_stats,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    OP_INSERT,
    VERSION_COL,
)

logger = logging.getLogger("arcane_ray.runner")


class ShardOverlapError(RuntimeError):
    """Overwrite-backfill snapshot shards share merge keys (the shards
    must partition the key space; see StreamModeSettings
    .backfill_validate_disjoint)."""


class MergeKeyAliasError(ValueError):
    """The table records ``arcane_merge_key`` as an alias of one column
    (``Manifest.merge_key_alias``, fixed for the table's life) and this
    runner's merge key is something else."""


# ---------------------------------------------------------------------------
# per-batch transform stage (T1-T4 composed into ONE Arrow pass)
# ---------------------------------------------------------------------------
class TransformStage:
    """normalize names → synthesize merge key → field selection → casts.

    Single-key fast path: when the merge key IS one source column (the
    web-page case: key = ``url``), the duplicate ``arcane_merge_key``
    column is NOT materialized here — batches ship through the exchange
    without the extra string copy and the merge writers append an
    in-memory alias after it.  On a bandwidth-bound box this removes
    ~15% of the bytes in flight.  The fast path covers storage too: the
    runner records the alias in the manifest (``merge_key_alias``), data
    files do not store the copy, and readers derive it from the key
    column (about 5% of a web-page table's stored bytes).  ``key_col``
    tells the merge which column to route/dedup on; ``merge_key_alias``
    is that column on the fast path, else None.
    """

    def __init__(self, ctx: StreamContext, casts: dict | None = None):
        self.key_columns = tuple(T.normalize_name(c) for c in ctx.source.key_columns)
        self.rule = ctx.field_selection.rule
        self.fields = tuple(ctx.field_selection.fields)
        self.app_side_filter = not ctx.field_selection.is_server_side
        self.casts = casts or {}
        self.alias_key = len(self.key_columns) == 1
        self.key_col = self.key_columns[0] if self.alias_key else MERGE_KEY_COL
        self.merge_key_alias = self.key_col if self.key_col != MERGE_KEY_COL else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = T.normalize_column_names(batch)
        if not self.alias_key:
            batch = T.synthesize_merge_key(batch, self.key_columns)
        if self.app_side_filter and self.rule != "all":
            batch = T.select_fields(
                batch,
                self.rule,
                self.fields,
                essential=(VERSION_COL, OP_COL, MERGE_KEY_COL, *self.key_columns),
            )
        if self.casts:
            batch = T.cast_columns(batch, self.casts)
        return batch


class _AsInsertEvents:
    """Turn snapshot rows into synthetic ``I`` events stamped with the
    backfill version, then apply the cycle transform *then* (M4: backfill
    rows flow through the same merge path)."""

    def __init__(self, stamp: int, then: TransformStage):
        self.stamp = stamp
        self.then = then

    def __call__(self, batch: pa.Table) -> pa.Table:
        if VERSION_COL in batch.column_names:
            batch = batch.drop_columns([VERSION_COL])
        batch = batch.append_column(
            VERSION_COL, pa.array([self.stamp] * batch.num_rows, pa.int64())
        )
        if OP_COL in batch.column_names:
            batch = batch.drop_columns([OP_COL])
        batch = batch.append_column(
            OP_COL, pa.array([OP_INSERT] * batch.num_rows, pa.string())
        )
        return self.then(batch)


def transformed_schema(file_schema: pa.Schema, ctx: StreamContext) -> pa.Schema:
    """The schema a cycle's TARGET batches will have after TransformStage
    plus the write-time merge-key alias — computed driver-side from
    parquet metadata so schema migration is decided ONCE before any
    writer runs (SURVEY.md §7.5.3)."""
    key_cols = tuple(T.normalize_name(c) for c in ctx.source.key_columns)
    fields = [pa.field(T.normalize_name(f.name), f.type) for f in file_schema]
    names = [f.name for f in fields]
    if MERGE_KEY_COL not in names:
        fields.append(pa.field(MERGE_KEY_COL, pa.string()))
        names.append(MERGE_KEY_COL)
    if ctx.field_selection.rule != "all":
        keep = T.resolve_selected_columns(
            names,
            ctx.field_selection.rule,
            tuple(ctx.field_selection.fields),
            essential=(VERSION_COL, OP_COL, MERGE_KEY_COL, *key_cols),
        )
        fields = [f for f in fields if f.name in keep]
    return pa.schema(fields)


# ---------------------------------------------------------------------------
# lifetime (F2)
# ---------------------------------------------------------------------------
class PosixLifetime:
    """SIGTERM/SIGINT-graceful stop — the reference's
    ``PosixStreamLifetimeService`` (``main.scala:78``).  The handler only
    sets a flag; the loop finishes the in-flight cycle (commit included)
    and exits cleanly BETWEEN cycles, so a stopped stream leaves no
    uncommitted staging/cycle dirs for the startup sweep."""

    def __init__(self, signals=None):
        import signal as _signal

        self._stop = False
        for s in signals or (_signal.SIGTERM, _signal.SIGINT):
            _signal.signal(s, self._handle)

    def _handle(self, signum, frame):
        logger.info("signal %s received: draining current cycle then stopping", signum)
        self._stop = True

    def stopped(self) -> bool:
        return self._stop


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class StreamRunner:
    def __init__(self, ctx: StreamContext, casts: dict | None = None):
        from arcane_stream_sqlserver_change_tracking_ray.state.retry import RetryPolicy

        self.ctx = ctx
        self.casts = casts or {}
        self.log = ManifestLog(ctx.sink.target_root)
        self.tailer: ChangeFeedTailer | None = None
        self._pool: ActorMergePool | None = None  # the cow writer, started lazily
        self._transform = TransformStage(ctx, self.casts)
        self.retry = RetryPolicy.from_sink(ctx.sink)
        # fail fast on malformed partitionExpressions (bootstrap-time,
        # like the reference's CRD validation)
        self._cluster_by = _p_parse_exprs(tuple(ctx.sink.partition_by))
        from arcane_stream_sqlserver_change_tracking_ray.state.telemetry import (
            StatsdPublisher,
        )

        self._telemetry = StatsdPublisher.from_ctx(ctx.observability)

    def close(self) -> None:
        """Release the persistent merge-actor pool (if any)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._telemetry is not None:
            self._telemetry.close()
            self._telemetry = None

    def _cow_pool(self, num_partitions: int, hash_algo: str) -> ActorMergePool:
        """The runner's persistent owner-actor pool, started on first use."""
        if self._pool is None:
            sink = self.ctx.sink
            self._pool = ActorMergePool(
                target_root=sink.target_root,
                num_partitions=num_partitions,
                compression=sink.parquet_compression,
                max_rows_per_file=sink.max_rows_per_file,
                fsync=sink.durable_writes,
                bloom_columns=tuple(sink.bloom_filter_columns),
                hash_algo=hash_algo,
            )
        return self._pool

    def _target_units(self) -> int | None:
        """``blocks_per_cpu x CPUs``: how many read units a read is split
        into when whole files give fewer (see ``pqio.plan_units``)."""
        return (self.ctx.throughput.blocks_per_cpu * cluster_cpus()) or None

    def _plan(self, paths: list[str], predicate=None) -> list:
        """Read units for change-log or snapshot *paths*, planned as a
        poll plans them."""
        return plan_units(
            paths,
            filter=predicate,
            min_rows=self.ctx.source.fetch_size,
            target_units=self._target_units(),
        )

    def _merge_key_alias(self, manifest: Manifest, source: pa.Schema) -> str | None:
        """The merge-key alias a batch read with *source*'s columns is
        written under, to record in the commit: the runner's single key
        column, unless the source ships its own ``arcane_merge_key``.
        Fails fast when the table records another."""
        alias = self._transform.merge_key_alias
        if alias is not None and MERGE_KEY_COL in {T.normalize_name(n) for n in source.names}:
            alias = None
        _check_merge_key_alias(manifest, alias)
        return alias

    def _merge(
        self,
        units,
        cycle_id: str,
        manifest: Manifest,
        schema: pa.Schema,
        transform,
        merge_key_alias: str | None,
    ) -> list[dict]:
        """Write one change batch with the merge mode's writer: direct
        per-task deltas for ``mor``, the owner-actor pool for ``cow``.
        Both run one task per read unit, applying *transform* to what it
        reads, and store no ``arcane_merge_key`` under *merge_key_alias*."""
        sink = self.ctx.sink
        if sink.merge_mode not in ("mor", "cow"):
            raise ValueError(
                f"unknown sink.merge_mode: {sink.merge_mode!r} (expected 'mor' or 'cow')"
            )
        if sink.merge_mode == "mor":
            # looked up on the module at call time, so tracing hooks that
            # rebind module attributes see the call
            return _merge_mod.apply_change_batch_direct(
                units,
                transform=transform,
                target_root=sink.target_root,
                cycle_id=cycle_id,
                schema=schema,
                num_partitions=manifest.num_partitions,
                compression=sink.parquet_compression,
                sorted_by=tuple(sink.sorted_by),
                key_col=self._transform.key_col,
                fsync=sink.durable_writes,
                bloom_columns=tuple(sink.bloom_filter_columns),
                hash_algo=manifest.key_hash_algo,
                max_rows_per_file=sink.max_rows_per_file,
                precombine_threshold=sink.precombine_dup_threshold,
                bounds_cols=tuple(dict.fromkeys(
                    _p_source_columns(self._cluster_by) + tuple(sink.sorted_by)
                )),
                merge_key_alias=merge_key_alias,
            )
        # a CoW rewrite must fold any pending deltas too (it replaces the
        # partition's visible state wholesale)
        partition_files = {
            pid: manifest.partitions.get(pid, []) + manifest.deltas.get(pid, [])
            for pid in manifest.partition_pids()
        }
        pool = self._cow_pool(manifest.num_partitions, manifest.key_hash_algo)
        return pool.apply_change_batch(
            units,
            transform=transform,
            cycle_id=cycle_id,
            partition_files=partition_files,
            schema=schema,
            sorted_by=tuple(sink.sorted_by),
            key_col=self._transform.key_col,
            precombine_threshold=sink.precombine_dup_threshold,
            cluster_by=self._cluster_by,
            cluster_min_rows=sink.cluster_min_rows,
            merge_key_alias=merge_key_alias,
        )

    # -------------------------------------------------------------- bootstrap
    def bootstrap(self) -> Manifest:
        """Watermark gate + sweep of uncommitted cycles / staging dirs.

        Raises ``InvalidWatermarkError`` when no watermark was prepared —
        the reference's fail-fast negative test (StreamRunner.scala:167-185).
        """
        manifest = self.log.require_watermark()
        _check_merge_key_alias(manifest, self._transform.merge_key_alias)
        swept = self.log.sweep_uncommitted(
            grace_seconds=self.ctx.sink.sweep_grace_seconds
        )
        if self.ctx.staging.enabled and self.ctx.staging.staging_root:
            # custom staging roots live outside <target_root>/staging, which
            # sweep_uncommitted covers; sweep them by prefix like the
            # reference sweeps staging tables (docs/crd.md:45-48)
            swept += G.sweep_staging(
                self.ctx.staging.staging_root,
                self.ctx.staging.table_prefix,
                grace_seconds=self.ctx.sink.sweep_grace_seconds,
            )
        if swept:
            logger.info("startup sweep removed %d uncommitted dirs", len(swept))
        tp = self.ctx.throughput
        self.tailer = ChangeFeedTailer(
            self.ctx.source.ctlog_dir,
            manifest.watermark,
            rows_per_poll=tp.rows_per_group,
            fetch_size=self.ctx.source.fetch_size,
            # server-side projection (T1) is resolved per poll from the
            # chosen segments' metadata in run_cycle (names differ per segment)
            columns=None,
            poll_interval=self.ctx.source.change_capture_interval,
            jitter=self.ctx.source.change_capture_jitter,
            jitter_seed=self.ctx.source.change_capture_jitter_seed,
            advised_rate=tp.advised_rate,
            shaper=tp.shaper,
            memory_budget_bytes=tp.memory_budget_bytes,
            memory_budget_fraction=tp.memory_budget_fraction,
            fallback_string_size=tp.fallback_string_size,
            object_size_estimate=tp.object_size_estimate,
        )
        self._apply_buffering()
        # blocks_per_cpu x CPUs: a poll spanning few segment files would
        # otherwise quantize into len(files) units — e.g. 10 files on 8
        # CPUs is 2 waves (the 2nd nearly idle), a ~40% efficiency hole
        # (BENCH/BASELINE.md round-2 profile).  Each unit is also one
        # delta file in the direct-MoR path, so over-splitting pays
        # per-file fixed costs that grow with CPU count — see
        # ThroughputSettings.blocks_per_cpu for the measured trade
        self.tailer.target_units = self._target_units()
        return manifest

    def _apply_buffering(self) -> None:
        """G3 source buffering.  The ingest cycle holds at most one read
        unit per CPU in memory (one task per unit, nothing in the object
        store), whatever the strategy.  `bounded` also caps Ray Data's
        object-store budget to ~maxBufferSize rows, which bounds the
        Ray Data paths: staging (G1) and the target reads (reference
        source.buffering, docs/crd.md:205-223)."""
        mode = self.ctx.source.buffering
        if mode not in ("none", "unbounded", "bounded"):
            raise ValueError(f"unknown source.buffering: {mode!r}")
        if mode != "bounded":
            return
        try:
            from ray.data import DataContext, ExecutionResources

            row_bytes = 1024
            if self.tailer is not None:
                segs = list_segments(self.ctx.source.ctlog_dir)
                if segs:
                    rows, nbytes = self.tailer._segment_meta(segs[0][2])
                    if rows:
                        row_bytes = max(nbytes // rows, 64)
            budget = max(self.ctx.source.max_buffer_size * row_bytes, 32 << 20)
            DataContext.get_current().execution_options.resource_limits = (
                ExecutionResources(object_store_memory=budget)
            )
            logger.info("bounded source buffer: object-store budget %d bytes", budget)
        except Exception:
            logger.warning("could not apply bounded-buffer resource limit", exc_info=True)

    # ------------------------------------------------------------- one cycle
    def run_cycle(self) -> dict | None:
        """Process the next change batch; returns cycle metrics or None
        when caught up.  Every step before the manifest commit is
        invisible to readers; a crash anywhere leaves the table at the
        previous snapshot and the next run replays the same versions."""
        assert self.tailer is not None, "call bootstrap() first"
        t0 = time.perf_counter()
        manifest = self.log.latest()

        # --- S1: plan + read the next version range ------------------------
        planned = self.tailer.plan()
        if planned is None:
            return None
        paths, hi = planned

        # server-side projection pushdown (T1, isServerSide=true)
        columns = None
        file_schema = schemas_of_parquet_files(paths)
        if self.ctx.field_selection.is_server_side and self.ctx.field_selection.rule != "all":
            columns = T.resolve_selected_columns(
                [f.name for f in file_schema],
                self.ctx.field_selection.rule,
                tuple(self.ctx.field_selection.fields),
                essential=(VERSION_COL, OP_COL, *self.ctx.source.key_columns),
            )
            file_schema = pa.schema([f for f in file_schema if f.name in set(columns)])
        self.tailer.columns = columns
        polled = self.tailer.poll(planned=(paths, hi))
        assert polled is not None
        units, hi = polled

        # --- T1-T4 run inside the writer's task for each unit ---------------
        transform = self._transform

        # --- G1 optional staging ------------------------------------------
        staging_dir = None
        if self.ctx.staging.enabled:
            staging_root = self.ctx.staging.staging_root or (
                self.ctx.sink.target_root + "/staging"
            )
            # the staged batch is already transformed
            transform = None
            units, staging_dir = G.stage_change_batch(
                units_dataset(units).map_batches(self._transform, batch_format="pyarrow"),
                staging_root,
                self.ctx.staging.table_prefix,
                f"c{manifest.version + 1:06d}",
                self.ctx.staging.max_rows_per_file,
                fmt=self.ctx.staging.format,
            )

        # --- E1: schema migration decided once, driver-side ----------------
        batch_schema = transformed_schema(file_schema, self.ctx)
        unified, migrated = unify_target_schema(manifest.schema, batch_schema)
        if (
            migrated
            and self.ctx.sink.is_unified_schema
            and manifest.schema is not None
            and manifest.counters.get("cycles", 0) > 0
        ):
            # isUnifiedSchema: migration is confined to bootstrap (the
            # first cycle); later drift fails fast (docs/crd.md:59-61)
            from arcane_stream_sqlserver_change_tracking_ray.stages.schema_evo import (
                SchemaMismatchError,
            )

            raise SchemaMismatchError(
                "batch schema drifted mid-stream with isUnifiedSchema=true: "
                f"target {manifest.schema.names} vs batch {batch_schema.names}"
            )

        # --- M1/M2: partitioned LWW merge ----------------------------------
        cycle_id = f"{manifest.version + 1:012d}-{uuid.uuid4().hex[:8]}"
        alias = self._merge_key_alias(manifest, file_schema)
        t_merge = time.perf_counter()
        stats = self.retry.call(
            self._merge, units, cycle_id, manifest, unified, transform, alias,
            backfill=self.ctx.stream_mode.backfill,
        )
        merge_s = time.perf_counter() - t_merge

        # --- K1/K2: atomic manifest + watermark commit ---------------------
        nxt = manifest.next()
        nxt.schema = unified
        nxt.merge_key_alias = alias
        nxt.watermark = hi
        metrics = fold_stats_into_manifest(nxt, stats, cycle_id)
        metrics.update(
            {
                "cycle_id": cycle_id,
                "versions": [manifest.watermark + 1, hi],
                "schema_migrated": migrated,
                "watermark": hi,
                "merge_s": round(merge_s, 4),
                "cycle_s": round(time.perf_counter() - t0, 4),
            }
        )
        nxt.metrics = metrics
        nxt.counters["cycles"] = nxt.counters.get("cycles", 0) + 1
        nxt.counters["batches_since_maintenance"] = (
            nxt.counters.get("batches_since_maintenance", 0) + 1
        )
        self.retry.call(
            self.log.commit, nxt, expect_version=manifest.version,
            backfill=self.ctx.stream_mode.backfill,
        )
        self.tailer.advance(hi)
        if self._telemetry is not None:
            # push half of F4 (fire-and-forget; manifest holds the durable copy)
            self._telemetry.publish_cycle(metrics)

        # --- K3: dispose staging ------------------------------------------
        if staging_dir:
            G.dispose_staging(staging_dir)

        # --- K4: maintenance every batchThreshold batches ------------------
        if (
            self.ctx.maintenance.enabled
            and nxt.counters["batches_since_maintenance"]
            >= self.ctx.maintenance.batch_threshold
        ):
            from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
                run_maintenance,
            )

            run_maintenance(self.log, self.ctx)
        return metrics

    # ------------------------------------------------------------ main loops
    def run(
        self,
        max_cycles: int | None = None,
        max_seconds: float | None = None,
        stop_check=None,
    ) -> list[dict]:
        """Streaming loop until caught up / cycle budget / time budget /
        *stop_check* returns True.

        The budget knobs are the test hook, mirroring the reference's
        ``TimeLimitLifetimeService`` swap (``Common.scala:44,82``); in
        production ``__main__`` passes ``PosixLifetime().stopped`` so a
        SIGTERM drains the in-flight cycle and stops between cycles.
        """
        self.bootstrap()
        out: list[dict] = []
        t0 = time.monotonic()
        conflicts = 0
        try:
            while True:
                if stop_check is not None and stop_check():
                    break
                if max_cycles is not None and len(out) >= max_cycles:
                    break
                if max_seconds is not None and time.monotonic() - t0 >= max_seconds:
                    break
                try:
                    m = self.run_cycle()
                except CommitConflictError as e:
                    # Another writer won the CAS race (an HA standby
                    # racing the primary, or a split-brain restart).  The
                    # losing cycle never became visible (its dir is swept
                    # at the next bootstrap) and the feed replay is
                    # idempotent LWW, so the correct response is to adopt
                    # the winner's snapshot and re-plan from its
                    # watermark — not to die.  16 consecutive lost races
                    # without a single committed cycle means something
                    # is systematically wrong; re-raise then.
                    conflicts += 1
                    if conflicts >= 16:
                        raise
                    latest = self.log.require_watermark()
                    logger.warning(
                        "commit conflict (%s); resyncing to v%d @ watermark %d",
                        e, latest.version, latest.watermark,
                    )
                    self.tailer.watermark = max(
                        self.tailer.watermark, latest.watermark
                    )
                    continue
                conflicts = 0
                if m is None:
                    if self.ctx.source.change_capture_interval > 0 and (
                        max_seconds is not None or stop_check is not None
                    ):
                        time.sleep(min(self.tailer.next_interval(), 0.2))
                        continue
                    break
                out.append(m)
                ivl = self.tailer.next_interval()
                if ivl > 0:
                    time.sleep(ivl)
        finally:
            self.close()
        return out

    # --------------------------------------------------------------- backfill
    def run_backfill(self) -> Manifest:
        """S2/G2/M4 backfill: sharded snapshot re-read → Overwrite | Merge.

        Overwrite: write a full fresh snapshot partition layout, then flip
        the manifest atomically; streaming resumes from the version current
        at backfill start (StreamRunner.scala:209-223).  Merge: snapshot
        rows become synthetic ``I`` events through the normal merge path
        (docs/crd.md:77-81).  Shard completion is tracked in a state file
        so a restarted backfill skips finished shards (G2).
        """
        try:
            return self._run_backfill_inner()
        finally:
            self.close()

    def _run_backfill_inner(self) -> Manifest:
        from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
            snapshot_version,
        )
        import json

        ctx = self.ctx
        manifest = self.log.require_watermark()
        # `stamp` = the source version the snapshot REPRESENTS (version
        # current at backfill start, StreamRunner.scala:209-223): prefer the
        # version stamped in the snapshot filenames; when absent assume the
        # snapshot is "now" (= feed head).  Snapshot rows are stamped with
        # it; the committed watermark never rewinds below the current one.
        snap_v = snapshot_version(ctx.source.snapshot_dir)
        stamp = (
            snap_v
            if snap_v is not None
            else max_available_version(ctx.source.ctlog_dir)
        )
        backfill_id = ctx.stream_mode.backfill_id or uuid.uuid4().hex[:8]
        behavior = ctx.stream_mode.backfill_behavior.lower()

        files = snapshot_files(ctx.source.snapshot_dir)
        source = schemas_of_parquet_files(files)
        alias = self._merge_key_alias(manifest, source)
        if behavior == "merge":
            # snapshot rows as synthetic insert events via the normal path
            unified = self._overwrite_schema(source, manifest)
            cycle_id = f"backfill-{backfill_id}"
            stats = self.retry.call(
                self._merge, self._plan(files), cycle_id, manifest, unified,
                _AsInsertEvents(stamp, self._transform), alias, backfill=True,
            )
            nxt = manifest.next()
            nxt.schema = unified
            nxt.merge_key_alias = alias
            nxt.watermark = max(stamp, manifest.watermark)
            metrics = fold_stats_into_manifest(nxt, stats, cycle_id)
            metrics["backfill"] = {"id": backfill_id, "behavior": "merge"}
            nxt.metrics = metrics
            committed = self.log.commit(nxt, expect_version=manifest.version)
            # a snapshot OLDER than the watermark can resurrect rows deleted
            # after it (tombstones are not persisted); converge by
            # re-applying the already-seen event range (stamp, watermark]
            # — idempotent LWW re-delete/re-update (the reference converges
            # the same way by resuming the stream from backfillStartDate).
            if manifest.watermark > stamp:
                self._replay_range(stamp, manifest.watermark, f"{backfill_id}-cv")
            elif stamp > manifest.watermark:
                # snapshot NEWER than the watermark: the commit above jumped
                # the watermark over (watermark, stamp], so delete events in
                # that gap were never applied — a key deleted in the gap
                # keeps its stale pre-backfill target row forever.  Replay
                # the gap: replayed D events (version <= stamp) win LWW over
                # pre-backfill rows but lose to snapshot rows stamped at
                # `stamp`, so only genuinely-deleted keys are removed.
                self._replay_range(manifest.watermark, stamp, f"{backfill_id}-fwd")
            return self.log.latest()

        if behavior != "overwrite":
            raise ValueError(f"unknown backfillBehavior: {behavior!r}")

        # ---- Overwrite: sharded staging + atomic flip ---------------------
        fs = _lakefs(ctx.sink.target_root)
        state_rel = f"_backfill/{backfill_id}.json"
        state = {"shards": {}, "at_version": stamp}
        if fs.exists(state_rel):
            state = json.loads(fs.read_bytes(state_rel))
            stamp = state["at_version"]

        overwrite_schema = self._overwrite_schema(source, manifest)  # loop-invariant
        for si, shard_file in enumerate(files):
            key = str(si)
            if key in state["shards"]:
                continue  # restartable: skip finished shards (docs/crd.md:45-47)
            cycle_id = f"backfill-{backfill_id}-s{si:04d}"
            # overwrite writes a fresh BASE layout through the cow writer,
            # never deltas; partition_files={} ignores the current target
            stats = self._cow_pool(
                manifest.num_partitions, manifest.key_hash_algo
            ).apply_change_batch(
                self._plan([shard_file]),
                transform=_AsInsertEvents(stamp, self._transform),
                cycle_id=cycle_id,
                partition_files={},
                schema=overwrite_schema,
                sorted_by=tuple(ctx.sink.sorted_by),
                key_col=self._transform.key_col,
                precombine_threshold=ctx.sink.precombine_dup_threshold,
                cluster_by=self._cluster_by,
                cluster_min_rows=ctx.sink.cluster_min_rows,
                merge_key_alias=alias,
            )
            state["shards"][key] = {
                str(int(s["_pid"])): json.loads(s["files_json"]) for s in stats
            }
            for s in stats:  # write-time partition_by bounds, per shard
                if s.get("file_stats_json"):
                    state.setdefault("file_stats", {}).update(
                        json.loads(s["file_stats_json"])
                    )
            fs.write_bytes(state_rel, json.dumps(state).encode("utf-8"))

        # CONTRACT: shards are key-disjoint (write_snapshot slices are; a
        # user-provided snapshot must be).  Opt-in verification scans the
        # staged base ONCE (key column only, coarse-bucket shuffle of the
        # bare keys) and fails the backfill before the flip commits.
        if ctx.stream_mode.backfill_validate_disjoint and len(files) > 1:
            self._validate_disjoint_shards(state, manifest)

        # atomic flip: union shard outputs per partition
        nxt = manifest.next()
        nxt.partitions = {}
        nxt.deltas = {}  # overwrite discards pending deltas with the old base
        nxt.lineage = {}
        for shard in state["shards"].values():
            for pid_s, fl in shard.items():
                nxt.partitions.setdefault(int(pid_s), []).extend(fl)
        # the flip replaces every file, so file bounds start fresh too
        nxt.file_stats = dict(state.get("file_stats", {}))
        nxt.schema = overwrite_schema
        nxt.merge_key_alias = alias
        nxt.watermark = max(stamp, manifest.watermark)
        nxt.metrics = {
            "backfill": {
                "id": backfill_id,
                "behavior": "overwrite",
                "shards": len(files),
            }
        }
        committed = self.log.commit(nxt, expect_version=self.log.latest().version)
        fs.delete(state_rel)
        # stale snapshot (stamp < watermark): converge by re-applying the
        # already-seen range — see the merge branch for rationale
        if manifest.watermark > stamp:
            self._replay_range(stamp, manifest.watermark, f"{backfill_id}-cv")
            committed = self.log.latest()
        return committed

    def _validate_disjoint_shards(self, state: dict, manifest: Manifest) -> None:
        """One distributed pass over the staged overwrite base: count
        merge keys appearing in more than one row.  The cow writer
        rank-1-collapses duplicates WITHIN a shard, so any survivor
        duplicate is a cross-shard overlap — a violated disjointness
        contract that would ship duplicate rows through the flip.  The
        key-column read is planned from the staged files' footers."""
        import numpy as np
        import pyarrow.compute as pc

        from arcane_stream_sqlserver_change_tracking_ray.stages.merge import hash_keys

        tfs = _lakefs(self.ctx.sink.target_root)
        paths = sorted(
            {
                tfs.full(rel.split("#", 1)[0])
                for shard in state["shards"].values()
                for fl in shard.values()
                for rel in fl
            }
        )
        if not paths:
            return
        key_col = self._transform.key_col
        ds = units_dataset(plan_units(paths, filesystem=tfs.pafs, columns=[key_col]))

        def bucket(batch: pa.Table) -> pa.Table:
            # only the bare key column moves through the exchange
            with np.errstate(over="ignore"):
                b = (
                    (hash_keys(batch[key_col], "polars") * np.uint64(0x9E3779B97F4A7C15))
                    >> np.uint64(32)
                ) % np.uint64(1024)
            return pa.table(
                {"k": batch[key_col], "_b": pa.array(b.astype(np.int64))}
            )

        def dup_count(group: pa.Table) -> pa.Table:
            dups = group.num_rows - len(pc.unique(group["k"].combine_chunks()))
            return pa.table({"dups": pa.array([dups], pa.int64())})

        total = sum(
            r["dups"]
            for r in ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_b")
            .map_groups(dup_count, batch_format="pyarrow")
            .take_all()
        )
        if total:
            raise ShardOverlapError(
                f"overwrite backfill shards are not key-disjoint: {total} "
                f"duplicate merge key(s) across shards (contract: each key "
                f"appears in exactly one snapshot shard)"
            )

    def _replay_range(self, lo: int, hi: int, tag: str) -> None:
        """Re-apply change events ``(lo, hi]`` from the feed to an existing
        target (idempotent LWW) without touching the watermark."""
        from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import list_segments

        paths = [p for s_lo, s_hi, p in list_segments(self.ctx.source.ctlog_dir) if s_hi > lo and s_lo <= hi]
        if not paths:
            return
        import pyarrow.compute as pc

        manifest = self.log.latest()
        predicate = (pc.field(VERSION_COL) > lo) & (pc.field(VERSION_COL) <= hi)
        cycle_id = f"replay-{tag}"
        alias = self._merge_key_alias(manifest, schemas_of_parquet_files(paths))
        stats = self._merge(
            self._plan(paths, predicate), cycle_id, manifest, manifest.schema,
            self._transform, alias,
        )
        nxt = manifest.next()
        nxt.merge_key_alias = alias
        metrics = fold_stats_into_manifest(nxt, stats, cycle_id)
        metrics["replay_range"] = [lo, hi]
        nxt.metrics = metrics
        self.log.commit(nxt, expect_version=manifest.version)

    def _overwrite_schema(self, source: pa.Schema, manifest: Manifest) -> pa.Schema:
        batch_schema = transformed_schema(source, self.ctx)
        for extra, typ in ((VERSION_COL, pa.int64()), (OP_COL, pa.string())):
            if extra not in [f.name for f in batch_schema]:
                batch_schema = batch_schema.append(pa.field(extra, typ))
        unified, _ = unify_target_schema(manifest.schema, batch_schema)
        return unified


def _check_merge_key_alias(manifest: Manifest, alias: str | None) -> None:
    """Fail fast when *manifest* records a merge-key alias other than
    *alias* (the one a runner writes under)."""
    if manifest.merge_key_alias is not None and manifest.merge_key_alias != alias:
        raise MergeKeyAliasError(
            f"the table's {MERGE_KEY_COL} is an alias of "
            f"{manifest.merge_key_alias!r}, fixed for the table's life; this "
            f"runner's merge key is "
            + (f"{alias!r}" if alias else "not that column")
        )


# ---------------------------------------------------------------------------
# target readers
# ---------------------------------------------------------------------------
#: CAS-retry budget for out-of-band delete commits racing stream cycles
_DELETE_CAS_ATTEMPTS = 5


def _commit_with_cas_retry(log: ManifestLog, build) -> dict:
    """Shared CAS-retry loop for out-of-band commits (deletes): *build*
    takes the freshly read manifest and returns ``(nxt, result)``; on a
    ``CommitConflictError`` (a stream cycle committed in between) the
    whole build re-runs against the new manifest — re-validating,
    re-routing, and re-stamping at the NEW watermark ("as of now"
    semantics either way).  Files written by a failed attempt stay
    unreferenced; the startup sweep reclaims them."""
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        CommitConflictError,
    )

    for attempt in range(_DELETE_CAS_ATTEMPTS):
        m = log.require_watermark()
        nxt, result = build(m)
        try:
            log.commit(nxt, expect_version=m.version)
        except CommitConflictError:
            if attempt == _DELETE_CAS_ATTEMPTS - 1:
                raise
            continue
        return result


#: history-table commit classification: metrics marker key -> kind
_COMMIT_KINDS = (
    ("rollback", "rollback"),
    ("delete_where", "predicate_delete"),
    ("delete_keys", "equality_delete"),
    ("backfill", "backfill"),
    ("maintenance", "maintenance"),
    ("maintenance_done", "maintenance"),
)


def table_history(target_root: str) -> pa.Table:
    """The retained commit log as a tiny Arrow table — the Iceberg
    ``snapshots`` / Delta ``DESCRIBE HISTORY`` metadata-table analog:
    one row per retained manifest with ``(version, watermark, kind,
    changes_in)``, where *kind* classifies the commit (bootstrap /
    cycle / backfill / maintenance / predicate_delete / equality_delete
    / rollback / commit) from its metrics markers.  Driver-side and
    O(retained versions) — the manifest log IS the history; no data
    file is touched."""
    log = ManifestLog(target_root)
    vs = log.versions()
    rows = []
    for v in vs:
        m = log.read(v)
        kind = next((k for key, k in _COMMIT_KINDS if key in m.metrics), None)
        if kind is None:
            if "changes_in" in m.metrics:
                kind = "cycle"
            else:
                # only the true v0 is the bootstrap — after expire_versions
                # GCs it, the oldest SURVIVING marker-less commit must not
                # inherit the label
                kind = "bootstrap" if v == 0 else "commit"
        rows.append(
            {
                "version": v,
                "watermark": int(m.watermark),
                "kind": kind,
                "changes_in": int(m.metrics.get("changes_in", 0) or 0),
            }
        )
    schema = pa.schema(
        [
            pa.field("version", pa.int64()),
            pa.field("watermark", pa.int64()),
            pa.field("kind", pa.string()),
            pa.field("changes_in", pa.int64()),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def rollback_to(target_root: str, version: int) -> dict:
    """Roll the table back to snapshot *version* as ONE manifest commit
    (the Iceberg ``rollback_to_snapshot`` analog — the bad-deploy /
    bad-data incident lever): the new manifest re-publishes the old
    snapshot's ENTIRE state — file map, deltas, schema, partition spec,
    pending deletes, and crucially the WATERMARK — without touching a
    data file.  History stays linear (the rollback is a new version on
    top, so time-travel reads of the rolled-back range still work) and
    the stream self-heals: the next cycle re-polls from the restored
    watermark and LWW re-application is idempotent, so the target
    converges to the same state as if the bad range had replayed once.

    Requires the old snapshot's files to still exist (``expire_versions``
    GC bounds how far back a rollback can reach, exactly like Iceberg
    snapshot retention).  The change feed refuses to cross a rollback
    commit — the un-happened range has no forward row-level history."""
    from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs

    log = ManifestLog(target_root)
    cur = log.require_watermark()
    version = log.resolve_ref(version)  # tag names roll back too
    if version >= cur.version:
        raise ValueError(
            f"rollback target v{version} is not older than the current v{cur.version}"
        )
    old = log.read(version)
    fs = lakefs(target_root)
    missing = [f for f in sorted(old.all_files()) if not fs.exists(f)]
    if missing:
        raise ValueError(
            f"cannot roll back to v{version}: {len(missing)} of its data "
            f"files were expired (e.g. {missing[0]}); bound by snapshot "
            "retention"
        )
    nxt = old.next()
    nxt.version = cur.version + 1
    nxt.metrics = {
        "rollback": {
            "to_version": int(version),
            "from_version": int(cur.version),
            "watermark": int(old.watermark),
        }
    }
    log.commit(nxt, expect_version=cur.version, allow_watermark_rollback=True)
    return {
        "rolled_back_to": int(version),
        "new_version": nxt.version,
        "watermark": int(old.watermark),
    }


def delete_where(target_root: str, conjunction: list) -> dict:
    """Merge-on-read predicate DELETE (K9): ``DELETE FROM target WHERE
    <conjunction>`` as ONE manifest commit — no data file is touched.

    The predicate (a list of ``[column, op, literal]`` terms AND-ed
    together, ops ``== != < <= > >=``) is appended to the manifest with
    the current watermark; every reader drops matching rows whose
    winning version is ≤ that watermark (rows re-upserted later
    survive — SQL DELETE semantics at a point in the change sequence).
    The GDPR/right-to-be-forgotten path at 100 TB: the delete itself is
    O(1); physical removal happens in the ``materialize_deletes``
    maintenance action, which rewrites partitions and clears the list.
    The change feed refuses to read across a predicate-delete commit
    (these deletes carry no row-level history, like an Iceberg DELETE
    without CDF)."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        validate_conjunction,
    )

    log = ManifestLog(target_root)
    if not conjunction:
        raise ValueError("delete_where requires at least one [col, op, literal] term")

    def build(m: Manifest):
        norm = validate_conjunction(conjunction, m.schema)
        nxt = m.next()
        cycle_id = f"delete-{nxt.version:012d}-{uuid.uuid4().hex[:8]}"
        nxt.delete_predicates = list(m.delete_predicates) + [
            {"conjunction": norm, "watermark": int(m.watermark), "cycle": cycle_id}
        ]
        nxt.metrics = {
            "delete_where": {"conjunction": norm, "watermark": int(m.watermark)}
        }
        return nxt, {
            "predicates": len(nxt.delete_predicates),
            "watermark": int(m.watermark),
        }

    return _commit_with_cas_retry(log, build)


def delete_keys(target_root: str, keys, *, max_rows_per_file: int = 1_000_000) -> dict:
    """Merge-on-read equality DELETE (K9b): drop every row whose merge
    key is in *keys* — the GDPR-by-key path for key sets too large to be
    a predicate (flagged URLs, forget-me user ids).

    Keys are canonicalized to the string merge-key domain, deduplicated,
    hash-routed to their owning partitions with the table's recorded
    routing algo, and written as per-partition parquet delete files (the
    Iceberg v2 equality-delete analog); ONE manifest commit publishes
    them with the current watermark.  No data file is touched — cost is
    O(|keys|), not O(table).  Every reader anti-joins rows whose winning
    version is ≤ that watermark, so a key re-upserted after the delete
    survives; ``materialize_deletes`` physically erases and clears.
    At cluster scale the per-partition routing keeps the read-side work
    distributed: each partition resolve touches only its own (small)
    delete files."""
    import numpy as np
    import pyarrow.compute as pc

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        partition_ids,
        write_partition_files,
    )

    if isinstance(keys, (str, bytes)):
        raise ValueError(
            "delete_keys expects a COLLECTION of keys; a bare string "
            "would be iterated per character — wrap the single key in a "
            "list"
        )
    log = ManifestLog(target_root)
    arr = keys if isinstance(keys, (pa.Array, pa.ChunkedArray)) else pa.array(list(keys))
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        arr = pc.cast(arr, pa.string())  # canonical merge-key domain
    arr = pc.unique(arr.drop_null())
    if len(arr) == 0:
        raise ValueError("delete_keys requires at least one non-null key")

    def build(m: Manifest):
        # re-runs whole on a CAS retry: re-routes (a concurrent
        # repartition changes the pid domain) and re-stamps at the new
        # watermark; files from a failed attempt stay unreferenced and
        # the startup sweep reclaims them
        pids = partition_ids(arr, m.num_partitions, m.key_hash_algo)
        nxt = m.next()
        cycle_id = f"keydel-{nxt.version:012d}-{uuid.uuid4().hex[:8]}"
        n_files = 0
        for pid in np.unique(pids):
            subset = arr.filter(pa.array(pids == pid))
            rels, _ = write_partition_files(
                pa.table({MERGE_KEY_COL: subset}),
                target_root,
                cycle_id,
                int(pid),
                max_rows_per_file=max_rows_per_file,
                compression="zstd",
                prefix="keydel",
            )
            nxt.key_deletes.setdefault(int(pid), []).extend(
                {"file": rel, "watermark": int(m.watermark), "cycle": cycle_id}
                for rel in rels
            )
            n_files += len(rels)
        nxt.metrics = {
            "delete_keys": {
                "keys": len(arr), "files": n_files, "watermark": int(m.watermark)
            }
        }
        return nxt, {
            "keys": len(arr), "files": n_files, "watermark": int(m.watermark)
        }

    return _commit_with_cas_retry(log, build)


def read_target(
    target_root: str,
    columns: list[str] | None = None,
    drop_meta: bool = False,
    version: int | str | None = None,
    where: list | None = None,
):
    """The committed snapshot as a lazy ``ray.data.Dataset``; files from
    the manifest only (uncommitted cycle output is invisible).

    The read is planned on the driver from the manifest alone (file
    list, ``file_stats`` pruning, schema): no footer, metadata or
    sampling task.  It runs as ``pqio.units_dataset``, at most one read
    task per CPU, each streaming one block per unit:

    - With no deltas, a unit is one base file, read against the manifest
      schema (a file that predates an additive migration reads the new
      column as nulls, in the manifest's type and position; an aliased
      ``arcane_merge_key`` is derived from its key column, never read
      as nulls).
    - Merge-on-read: with pending deltas, a unit is one partition's
      resolve (base+deltas → LWW → drop tombstones), so its cost is that
      partition's data only.

    ``where`` is an AND-ed ``[[col, op, literal], ...]`` row filter
    (SQL ``WHERE``).  On the no-delta path it is pushed into the
    parquet scan as a ``pyarrow.dataset`` expression, so row-group
    min/max statistics skip non-matching groups at the read (the
    reference gets this from Iceberg metadata + ``sortedBy``).  On the
    merge-on-read path it is applied AFTER the LWW resolve — filtering
    before LWW could resurrect an older version of a key whose winner
    does not match — so it prunes output, not input, there.

    ``version`` time-travels to an older retained snapshot (analog of
    Iceberg snapshot reads; available until ``expire_versions`` GCs it)."""

    import ray.data

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        conjunction_expression,
        filter_conjunction,
        predicate_columns,
        resolve_partition_table,
        validate_conjunction,
    )

    log = ManifestLog(target_root)
    m = log.read(version) if version is not None else log.require_watermark()
    has_deltas = any(m.deltas.values())
    meta_cols = (OP_COL, MERGE_KEY_COL)
    if where is not None:
        where = validate_conjunction(where, m.schema, allow_temporal=True)

    if not has_deltas and not m.delete_predicates and not m.key_deletes:
        files = sorted(m.all_files())
        if where is not None and m.file_stats:
            # manifest-level file skipping (Iceberg manifest-entry
            # bounds analog): whole files whose ANALYZE-recorded column
            # bounds can't match are dropped BEFORE any scan task —
            # row-group pruning below then handles the survivors
            files = prune_files_by_stats(files, m.file_stats, where)
        if not files:
            schema = m.schema
            if schema is not None and columns is not None:
                by_name = {f.name: f for f in schema}
                schema = pa.schema([by_name[n] for n in columns if n in by_name])
            return ray.data.from_arrow(schema.empty_table() if schema else pa.table({}))
        import pyarrow.fs as pafs

        fs = _lakefs(target_root)
        filesystem = fs.pafs or pafs.LocalFileSystem()
        keep = tuple(
            n
            for n in (columns or m.schema.names)
            if not drop_meta or n not in meta_cols
        )
        alias = m.merge_key_alias
        # an aliased merge key is no file column: a predicate on it
        # filters after the read, not in the scan
        post = alias is not None and where is not None and MERGE_KEY_COL in {t[0] for t in where}
        read_cols = tuple(dict.fromkeys(keep + tuple(t[0] for t in where))) if post else keep
        # the scan filter may reference columns outside the projection
        flt = conjunction_expression(where, m.schema) if where is not None and not post else None
        units = [
            ReadUnit(
                ((fs.full(f), None),), m.schema, read_cols, flt, filesystem,
                merge_key_from=alias or MERGE_KEY_COL,
            )
            for f in files
        ]
        if post:

            def read_where(unit: ReadUnit) -> pa.Table:
                return filter_conjunction(unit.read(), where).select(list(keep))

            units = [functools.partial(read_where, u) for u in units]
        return units_dataset(units)

    # ---- merge-on-read: one resolve unit per partition ----------------
    full_schema = m.schema
    out_cols = [n for n in (columns or full_schema.names)]
    if drop_meta:
        out_cols = [n for n in out_cols if n not in meta_cols]
    # LWW needs key+version+op even when the caller prunes them; delete
    # predicates additionally need their referenced columns in flight
    need = (
        set(out_cols)
        | {MERGE_KEY_COL, VERSION_COL, OP_COL}
        | predicate_columns(m.delete_predicates)
        | ({t[0] for t in where} if where is not None else set())
    )
    read_schema = pa.schema([f for f in full_schema if f.name in need])
    pids = sorted(m.partition_pids())
    if where is not None and m.file_stats:
        # partition-level skipping on the merge-on-read path: a pid whose
        # EVERY base and delta file is excluded by the recorded bounds
        # cannot contribute a matching row (LWW picks among rows, all of
        # which are excluded; deletes only remove rows) — sound to skip
        # the whole resolve.  Files without bounds keep the pid.
        def _pid_files(pid: int) -> list[str]:
            return list(m.partitions.get(pid, [])) + [
                e.partition("#rg=")[0] for e in m.deltas.get(pid, [])
            ]

        pids = [
            pid
            for pid in pids
            if prune_files_by_stats(_pid_files(pid), m.file_stats, where)
        ]
    if not pids:
        return ray.data.from_arrow(pa.schema(
            [f for f in full_schema if f.name in set(out_cols)]
        ).empty_table())
    base, deltas = dict(m.partitions), dict(m.deltas)
    preds, kdels = list(m.delete_predicates), dict(m.key_deletes)
    alias = m.merge_key_alias

    def resolve(pid: int) -> pa.Table:
        t = resolve_partition_table(
            target_root, base.get(pid, []), deltas.get(pid, []), read_schema,
            delete_predicates=preds, key_deletes=kdels.get(pid, []),
            merge_key_alias=alias,
        )
        if where is not None:
            t = filter_conjunction(t, where)
        return t.select(out_cols)

    return units_dataset([functools.partial(resolve, pid) for pid in pids])


def read_target_table(
    target_root: str, drop_meta: bool = True, version: int | str | None = None
) -> pa.Table:
    """Driver-side materialized read (tests / small results only);
    resolves pending merge-on-read deltas per partition.  ``version``
    time-travels to an older retained snapshot (same contract as
    ``read_target``)."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        resolve_partition_table,
    )

    log = ManifestLog(target_root)
    m = log.read(version) if version is not None else log.require_watermark()
    tables = [
        resolve_partition_table(
            target_root, m.partitions.get(pid, []), m.deltas.get(pid, []), m.schema,
            delete_predicates=m.delete_predicates,
            key_deletes=m.key_deletes.get(pid, []),
            merge_key_alias=m.merge_key_alias,
        )
        for pid in sorted(m.partition_pids())
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        out = m.schema.empty_table() if m.schema else pa.table({})
    else:
        out = pa.concat_tables(tables)
    if drop_meta:
        drop = [c for c in (OP_COL, MERGE_KEY_COL) if c in out.column_names]
        if drop:
            out = out.drop_columns(drop)
    return out


def _change_feed_plan(
    target_root: str,
    from_version: int,
    to_version: int | None,
    drop_meta: bool,
    pre_image_columns: tuple[str, ...],
    net: bool,
):
    """Shared prologue of the two feed readers: argument validation,
    manifest resolution (lookback validated by ``appended_deltas``
    BEFORE any manifest read can FileNotFoundError), output schema, and
    a per-pid resolver closure dispatching net vs all-changes mode."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        change_feed_all_partition,
        change_feed_partition,
        change_feed_schema_fields,
    )

    if not net and pre_image_columns:
        raise ValueError("pre_image_columns requires net=True (per-key winners)")
    log = ManifestLog(target_root)
    from_version = log.resolve_ref(from_version)  # tag names baseline too
    m_to = log.read(to_version) if to_version is not None else log.require_watermark()
    appended = log.appended_deltas(from_version, m_to.version)
    m_from = log.read(from_version)
    if m_from.num_partitions != m_to.num_partitions:
        raise ValueError(
            "change feed cannot cross a repartition boundary "
            f"(P={m_from.num_partitions} at v{m_from.version} vs "
            f"P={m_to.num_partitions} at v{m_to.version}); re-baseline "
            "from a post-repartition snapshot"
        )
    if m_from.delete_predicates != m_to.delete_predicates:
        raise ValueError(
            "change feed cannot cross a predicate-delete commit (the "
            "delete carries no row-level history); re-baseline from a "
            "snapshot at or after the delete"
        )
    if m_from.key_deletes != m_to.key_deletes:
        raise ValueError(
            "change feed cannot cross an equality-delete commit (the "
            "delete carries no row-level history); re-baseline from a "
            "snapshot at or after the delete"
        )
    schema = m_to.schema
    out_fields = change_feed_schema_fields(schema, drop_meta, pre_image_columns)
    base_a, deltas_a = dict(m_from.partitions), dict(m_from.deltas)
    # the alias is fixed once recorded, and files written before the
    # table recorded it store the same key: the newer snapshot's serves
    alias = m_to.merge_key_alias

    def resolve_pid(pid: int) -> pa.Table:
        if net:
            return change_feed_partition(
                target_root,
                appended[pid],
                base_a.get(pid, []),
                deltas_a.get(pid, []),
                schema,
                drop_meta=drop_meta,
                pre_image_columns=pre_image_columns,
                delete_predicates=m_from.delete_predicates,
                key_deletes=m_from.key_deletes.get(pid, []),
                merge_key_alias=alias,
            )
        return change_feed_all_partition(
            target_root, appended[pid], schema, drop_meta=drop_meta,
            merge_key_alias=alias,
        )

    return appended, out_fields, resolve_pid


def read_change_feed(
    target_root: str,
    from_version: int,
    to_version: int | None = None,
    drop_meta: bool = True,
    pre_image_columns: tuple[str, ...] = (),
    net: bool = True,
):
    """Change-data-feed read: a Dataset of the NET row-level changes
    committed in ``(from_version, to_version]`` — what a downstream
    consumer needs to incrementally maintain a replica/materialized view
    without rescanning the table (SQL Server ``CHANGETABLE(CHANGES …)``
    net semantics, the same contract the reference's source consumes
    upstream; Delta-Lake CDF analog on the sink side).

    Scale shape: per touched partition, ONE task reads only the delta
    entries appended in the range (``#rg=`` row-group slices — cost ∝
    changes, not table size) and probes the FROM snapshot for just the
    touched keys (partition-pruned, bloom-assisted, key/version/op +
    pre-image columns only).  Untouched partitions are never read.
    *pre_image_columns* adds ``pre_<col>`` FROM-snapshot values (null
    for inserts) for retraction-based incremental consumers.
    ``net=False`` returns ALL persisted change rows in the range instead
    of per-key winners (``cdc.fn_cdc_get_all_changes`` analog; no
    snapshot probe at all)."""
    import ray.data

    appended, out_fields, resolve_pid = _change_feed_plan(
        target_root, from_version, to_version, drop_meta, pre_image_columns, net
    )
    pids = sorted(p for p, v in appended.items() if v)
    if not pids:
        return ray.data.from_arrow(pa.schema(out_fields).empty_table())
    return units_dataset([functools.partial(resolve_pid, pid) for pid in pids])


def read_change_feed_table(
    target_root: str,
    from_version: int,
    to_version: int | None = None,
    drop_meta: bool = True,
    pre_image_columns: tuple[str, ...] = (),
    net: bool = True,
) -> pa.Table:
    """Driver-side materialized change feed (tests / small results)."""
    appended, out_fields, resolve_pid = _change_feed_plan(
        target_root, from_version, to_version, drop_meta, pre_image_columns, net
    )
    tables = [t for t in (resolve_pid(pid) for pid in sorted(appended)) if t.num_rows]
    if tables:
        return pa.concat_tables(tables)
    return pa.schema(out_fields).empty_table()


def lookup_keys(
    target_root: str,
    keys: list[str],
    key_col: str = MERGE_KEY_COL,
    use_bloom: bool = True,
    stats: dict | None = None,
    version: int | str | None = None,
) -> pa.Table:
    """Point lookups with partition pruning: hash each key to its owning
    partition and read ONLY those partitions' files — at P=4096 on a
    100 TB table a lookup touches ~0.025% of the data.  The same pruning
    the reference gets from Iceberg ``bucket(arcane_merge_key, P)``.
    Pending merge-on-read deltas are resolved per touched partition;
    filtering by key BEFORE the LWW resolve is safe because all versions
    of a key live in one partition.  *version* time-travels the lookup
    to a retained snapshot or tag name ("what did this key hold at the
    prod-baseline tag?").

    Each touched partition resolves key first over its deltas
    (``merge.resolve_partition_table``): only the LWW columns of every
    entry are decoded, the rest only for the winning rows; committed
    files' footers are parsed once per process (``fs.FOOTERS``)."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        partition_ids,
        resolve_partition_table,
    )

    log = ManifestLog(target_root)
    m = log.read(version) if version is not None else log.require_watermark()
    key_arr = pa.array(keys, pa.string())
    pids = set(partition_ids(key_arr, m.num_partitions, m.key_hash_algo).tolist())
    tables = []
    for pid in sorted(pids):
        t = resolve_partition_table(
            target_root,
            m.partitions.get(pid, []),
            m.deltas.get(pid, []),
            m.schema,
            key_filter=key_arr,
            key_col=key_col,
            bloom_column=key_col if use_bloom else None,
            stats=stats,
            delete_predicates=m.delete_predicates,
            key_deletes=m.key_deletes.get(pid, []),
            merge_key_alias=m.merge_key_alias,
        )
        if t.num_rows:
            tables.append(t)
    if not tables:
        return m.schema.empty_table() if m.schema else pa.table({})
    return pa.concat_tables(tables)


def export_snapshot(
    target_root: str,
    out_dir: str,
    version: int | str | None = None,
    drop_meta: bool = True,
    compression: str = "zstd",
) -> dict:
    """Publish a CONSISTENT snapshot of the target AS OF *version* to a
    partitioned parquet directory (``pid=<n>/part-0.parquet``) that
    plain consumers can read without the manifest/MoR machinery — the
    Iceberg snapshot-export analog.

    RESUMABLE by construction: each partition writes to a temp file and
    ``os.replace``s it into place (atomic on POSIX), and partitions
    whose output file already exists are SKIPPED — a failed/killed
    export is simply re-run and only the missing partitions are
    produced.  Zero-row partitions still write an (empty) file so a
    resume can tell "done, empty" from "not done".  A ``_SUCCESS``
    marker recording the exported manifest version is written last.

    Partitions fan out over at most one plain Ray task per CPU
    (``merge.run_per_cpu``; the same per-pid resolve the readers use —
    partition-pruned, no shuffle); returns
    ``{"partitions": n, "skipped": k, "rows": total}``."""
    import json
    import os

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        resolve_partition_table,
        run_per_cpu,
    )

    log = ManifestLog(target_root)
    m = log.read(version) if version is not None else log.require_watermark()
    os.makedirs(out_dir, exist_ok=True)
    # pin the export's manifest version BEFORE any partition writes: a
    # resume may only skip files produced for the SAME snapshot —
    # otherwise a crash + new stream commits + re-export would stitch a
    # mixed-version "consistent" snapshot
    marker = os.path.join(out_dir, "_EXPORT")
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as f:
            pinned = json.load(f)["manifest_version"]
        if pinned != m.version:
            raise ValueError(
                f"output dir is a partial export of manifest v{pinned}; "
                f"resume it with version={pinned} or export v{m.version} "
                "to a fresh directory"
            )
    else:
        tmp = marker + f".tmp-{uuid.uuid4().hex}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"manifest_version": m.version}, f)
        os.replace(tmp, marker)
    pids = sorted(m.partition_pids())
    schema = m.schema
    out_names = [
        n for n in schema.names
        if not drop_meta or n not in (OP_COL, MERGE_KEY_COL)
    ]
    base, deltas = dict(m.partitions), dict(m.deltas)
    preds, kdels = list(m.delete_predicates), dict(m.key_deletes)
    alias = m.merge_key_alias

    def export_one(pid: int) -> dict:
        import pyarrow.parquet as pq

        part_dir = os.path.join(out_dir, f"pid={pid}")
        final = os.path.join(part_dir, "part-0.parquet")
        if os.path.exists(final):  # finished by a previous run
            return {"pid": pid, "rows": -1, "skipped": True}
        t = resolve_partition_table(
            target_root, base.get(pid, []), deltas.get(pid, []), schema,
            delete_predicates=preds, key_deletes=kdels.get(pid, []),
            merge_key_alias=alias,
        ).select(out_names)
        os.makedirs(part_dir, exist_ok=True)
        tmp = final + f".tmp-{uuid.uuid4().hex}"
        pq.write_table(t, tmp, compression=compression)
        os.replace(tmp, final)  # atomic: readers never see a partial file
        return {"pid": pid, "rows": t.num_rows, "skipped": False}

    results = run_per_cpu(export_one, pids)
    with open(os.path.join(out_dir, "_SUCCESS"), "w", encoding="utf-8") as f:
        f.write(json.dumps({"manifest_version": m.version, "watermark": m.watermark}))
    return {
        "partitions": len(results),
        "skipped": sum(1 for r in results if r["skipped"]),
        "rows": sum(r["rows"] for r in results if not r["skipped"]),
    }


def get_watermark(target_root: str) -> int:
    """Testkit analog of the reference's ``getWatermark``."""
    return ManifestLog(target_root).require_watermark().watermark


__all__ = [
    "StreamRunner",
    "TransformStage",
    "prepare_watermark",
    "read_target",
    "read_target_table",
    "read_change_feed",
    "read_change_feed_table",
    "export_snapshot",
    "get_watermark",
]
