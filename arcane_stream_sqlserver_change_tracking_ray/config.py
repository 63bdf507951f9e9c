"""Stream-context configuration tree.

Mirrors the reference's single-JSON-document stream spec with sections
``observability / staging / streamMode / sink / throughput / source``
(reference ``MicrosoftSqlServerPluginStreamContext.scala:21-38``,
``dev.env.example:39-165``, annotated in ``docs/crd.md``), re-expressed
as plain dataclasses.  Loaded from a dict / JSON string / the
``STREAMCONTEXT__SPEC`` environment variable, with ``STREAMCONTEXT__*``
env overrides for individual scalar knobs (the reference overrides
secrets the same way, ``integration-tests.env:1-12``).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Any

logger = logging.getLogger("arcane_ray.config")

#: settings that no longer exist, per section, with the reason the
#: warning gives.  Specs that still set them parse; from_dict drops the
#: keys with one warning.
_RETIRED_SETTINGS = {
    "sink": (
        frozenset({"merge_strategy", "merge_actors", "exchange_compression"}),
        "merge_mode alone selects the writer",
    ),
    "throughput": (
        frozenset({"advised_burst"}),
        "the advised_rate token bucket has no burst",
    ),
}


@dataclass
class SourceSettings:
    """The change-feed source (reference ``docs/crd.md:83-89,196-203``)."""

    #: directory of version-range-partitioned change-log parquet segments
    ctlog_dir: str = ""
    #: parquet dir of the base-table snapshot used by backfill (S2)
    snapshot_dir: str = ""
    #: poll interval seconds (reference changeCaptureInterval; 0 = poll hot)
    change_capture_interval: float = 0.0
    #: +- fraction of interval jittered per poll (changeCaptureJitterVariance)
    change_capture_jitter: float = 0.0
    #: seed for the jitter PRNG (changeCaptureJitterSeed)
    change_capture_jitter_seed: int = 42
    #: rows per read unit when scanning the feed (fetchSize analog):
    #: whole segments share a unit up to this many rows, and a split
    #: never makes a unit smaller
    fetch_size: int = 65536
    #: primary-key columns the merge key is synthesized from (T3)
    key_columns: tuple[str, ...] = ("url",)
    #: source buffering strategy (reference source.buffering,
    #: docs/crd.md:205-223; CRD ...stream.yaml:450-478).  The ingest
    #: cycle holds at most one read unit per CPU whatever the strategy
    #: (one task per unit, nothing in the object store); "bounded" caps
    #: Ray Data's object-store budget, which bounds staging and the
    #: table reads: none (executor defaults) | unbounded (no cap) | bounded
    buffering: str = "none"
    #: rows the bounded buffer may hold (maxBufferSize analog); converted
    #: to an object-store byte budget with the shaper's row-size estimate
    max_buffer_size: int = 10_000


@dataclass
class FieldSelectionSettings:
    """T1 field-selection rule (reference ``docs/crd.md:224-241``)."""

    rule: str = "all"  # all | include | exclude
    fields: tuple[str, ...] = ()
    #: push the projection into the parquet read instead of filtering in-app
    is_server_side: bool = True


@dataclass
class StagingSettings:
    """G1 staging (reference ``docs/crd.md:39-73``).

    ``enabled=False`` by default: the reference stages every batch into a
    transient Iceberg table because its source (a SQL cursor) is not
    replayable mid-merge; our change feed is durable Parquet, and the
    merge output itself is staged under an attempt-unique ``cycles/``
    dir until the manifest commit, so an extra pre-merge copy buys no
    additional safety.  Enable for parity/debugging.
    """

    enabled: bool = False
    staging_root: str = ""  # default: <target_root>/staging
    table_prefix: str = "staging_"
    max_rows_per_file: int = 10_000
    #: staging file format (CRD ``…stream.yaml:230-236`` offers
    #: PARQUET|ORC|AVRO): "parquet" (default), "orc" (pyarrow.orc) or
    #: "avro" (polars' Avro codec)
    format: str = "parquet"


@dataclass
class SinkSettings:
    """Target lake table (reference ``docs/crd.md:106-135``)."""

    target_root: str = ""
    #: fixed partition count P; change events route by hash(merge_key) % P
    #: (analog of the Iceberg partition expression bucket(arcane_merge_key, P),
    #: docs/crd.md:114-119).  Fixed in the manifest at table creation.
    num_partitions: int = 16
    #: writer sort order inside each partition file (sortedBy analog)
    sorted_by: tuple[str, ...] = ()
    #: value-based partition expressions (the SECOND E2 partition
    #: dimension — reference partitionExpressions, docs/crd.md:114-119,
    #: e.g. month(order_date)): BASE data files are clustered into one
    #: file run per transform value at CoW/backfill/compaction writes,
    #: with write-time column bounds recorded in manifest.file_stats so
    #: read_target(where=…) prunes whole files with no ANALYZE pass.
    #: Syntax: "col" | "identity(col)" | "year(col)" | "month(col)" |
    #: "day(col)" | "hour(col)" | "truncate(col, W)" | "bucket(col, N)"
    #: (stages/partitioning.py; parsed at bootstrap, fail-fast).
    partition_by: tuple[str, ...] = ()
    #: anti-tiny-file guard for partition_by: adjacent value runs smaller
    #: than this are packed into one file (bounds stay exact — the file
    #: just covers a contiguous value range).  0 = value-pure files.
    #: Set this when a transform is high-cardinality (identity over a
    #: key-like column, day() over years of data).
    cluster_min_rows: int = 0
    max_rows_per_file: int = 1_000_000
    parquet_compression: str = "zstd"
    #: "mor" (merge-on-read, default) = each cycle writes per-partition
    #: DELTA files only; readers resolve base+deltas with LWW and the
    #: maintenance OPTIMIZE pass folds deltas into base files.  Cycle cost
    #: scales with cycle size, not table size — at 100 TB a CoW cycle
    #: would rewrite ~the whole table (reference gets file-level CoW +
    #: metadata pruning from Iceberg MERGE, docs/crd.md:136-172).
    #: "cow" = rewrite touched partitions every cycle (reads stay
    #: zero-overhead; right for small tables / high read:write ratios).
    #: The mode alone picks the writer: "mor" runs
    #: ``apply_change_batch_direct`` (each task writes its own pid-sorted
    #: delta file, no exchange); "cow" runs ``ActorMergePool``
    #: (min(num_partitions, cluster CPUs) persistent partition-owner actors).
    merge_mode: str = "mor"
    #: fsync data files before the manifest commit and the manifest log
    #: dir after it, so a published manifest never references
    #: non-durable parquet (power-loss safety; SIGKILL is safe either way)
    durable_writes: bool = True
    #: columns getting a per-file bloom-filter SIDECAR for point-lookup
    #: file skipping inside a partition (reference
    #: targetTableProperties.parquetBloomFilterColumns, docs/crd.md:111,128;
    #: pyarrow 16 cannot write parquet-native bloom filters, so the engine
    #: writes `<file>.bloom` sidecars and prunes in lookup_keys)
    bloom_filter_columns: tuple[str, ...] = ()
    #: adaptive pre-combine trigger: LWW-collapse a push batch before
    #: routing when its duplicate-key rate exceeds this fraction (hot-key
    #: storm defusal).  > 1.0 disables the combiner (raw per-op counters
    #: become exact), 0.0 combines every batch.
    precombine_dup_threshold: float = 0.25
    #: startup-sweep grace window (seconds): uncommitted cycle/staging
    #: dirs YOUNGER than this survive the bootstrap sweep.  0 (default)
    #: sweeps everything, the single-writer semantics; HA deployments
    #: running a standby writer set it above the longest expected cycle
    #: so a standby's bootstrap can't delete the primary's in-flight dir
    sweep_grace_seconds: float = 0.0
    #: confine schema migration to stream bootstrap; later batch-schema
    #: drift FAILS the cycle instead of migrating inline (reference
    #: isUnifiedSchema, docs/crd.md:59-61 — "reduce pressure on the
    #: catalog... could fail on batch schema mismatch")
    is_unified_schema: bool = False
    # -- merge/commit retry policy (reference queryRetry*, docs/crd.md:97-105,
    #    CRD crd-microsoft-sql-server-stream.yaml:181-211) ------------------
    query_retry_mode: str = "never"  # never | always | backfillOnly
    query_retry_base_duration: float = 1.0  # seconds
    query_retry_scale_factor: float = 3.0
    query_retry_max_attempts: int = 3
    query_retry_on_message_contents: tuple[str, ...] = ()


@dataclass
class StreamModeSettings:
    """streamMode section: backfill switches (reference main.scala:95-101)."""

    backfill: bool = False
    backfill_id: str = ""
    backfill_behavior: str = "overwrite"  # overwrite | merge
    #: Overwrite backfill CONTRACT: snapshot shards must be key-disjoint
    #: (write_snapshot shards are; the reference inherits the same
    #: guarantee from its source's PK scan).  Flip this on to verify the
    #: contract with one extra distributed pass over the new base before
    #: the atomic flip commits — duplicate merge keys across shards fail
    #: the backfill instead of silently shipping duplicate rows.
    backfill_validate_disjoint: bool = False


@dataclass
class ThroughputSettings:
    """Grouping + rate shaping (reference docs/crd.md:49-52,179-195).

    Backpressure itself is native to Ray Data's streaming executor
    (SURVEY.md §4.2); only the replay-rate bound and grouping knobs are
    kept.
    """

    rows_per_group: int = 50_000
    #: reference semantics: a group closes on rowsPerGroup OR this interval,
    #: whichever first.  In the poll model the interval IS the poll tick:
    #: a cycle takes min(rows_per_group, everything available) and never
    #: waits to fill a group, so the count cap + changeCaptureInterval
    #: reproduce the same behavior; kept for spec compatibility.
    grouping_interval_seconds: float = 15.0
    #: token-bucket: advised events/sec admitted into the tailer; 0 = unlimited
    advised_rate: float = 0.0
    # -- throughput shaper (reference throughput.shaperImpl, CRD
    #    ...stream.yaml:319-396): "static" = the token bucket above;
    #    "memoryBound" = additionally cap each poll's admitted segments by
    #    ESTIMATED IN-MEMORY BYTES vs a memory budget — the OOM guard the
    #    reference ships by default for backfill ---------------------------
    shaper: str = "static"  # static | memoryBound
    #: poll byte budget; 0 = auto (memory_budget_fraction of free RAM)
    memory_budget_bytes: int = 0
    #: fraction of currently-free memory a poll may occupy when auto-sized
    memory_budget_fraction: float = 0.2
    #: fallback per-row size estimates when parquet footer stats are
    #: unavailable (reference fallbackStringTypeSizeEstimate /
    #: objectTypeSizeEstimate, CRD ...stream.yaml:369-376)
    fallback_string_size: int = 50
    object_size_estimate: int = 4096
    #: read-split granularity: a poll whose whole segments give fewer
    #: read units is split into about ``blocks_per_cpu x CPUs`` units of
    #: row-group runs, each at least ``fetch_size`` rows (each unit = one
    #: task = one delta file in the direct-MoR path; see ``pqio``).  More
    #: units keep scheduling waves full when a poll spans few segment
    #: files, but every extra delta file pays
    #: fixed costs (fsync, footer re-read, num_partitions tiny row
    #: groups) that grow with CPU count.  Measured on the 20M-event
    #: replay (two reps each level): 2 beats 4 at 32 CPUs by 7-15% and
    #: at 8 CPUs by ~2%, so 2 is the default; raise it if polls span
    #: very few files at low parallelism
    blocks_per_cpu: int = 2


@dataclass
class MaintenanceSettings:
    """K4 target maintenance (reference docs/crd.md:136-172)."""

    enabled: bool = True
    #: run maintenance every N merged batches (targetOptimizeSettings.batchThreshold)
    batch_threshold: int = 60
    #: compact partitions whose data files are smaller than this
    file_size_threshold_bytes: int = 512 * 1024 * 1024
    #: also compact partitions holding more than this many files
    max_files_per_partition: int = 8
    #: manifests/snapshots older than this many committed versions are expired
    retention_versions: int = 20
    #: columns included in the ANALYZE stats pass (ColumnSummary..., T5)
    analyze_included_columns: tuple[str, ...] = ()
    #: rows per file OPTIMIZE compacts into (0 = sink.max_rows_per_file);
    #: the reference targets ~512MB files regardless of write-time chunking
    compact_target_rows: int = 0
    #: merge-on-read fold trigger: partitions holding more than this many
    #: delta files are folded (base+deltas -> new base) by OPTIMIZE even
    #: if their base files are healthy
    max_deltas_per_partition: int = 8


@dataclass
class ObservabilitySettings:
    """F4 metrics/log tags (reference docs/crd.md:34-38)."""

    metric_tags: dict[str, str] = field(default_factory=dict)
    log_level: str = "INFO"
    #: external metrics push (reference DataDog.UdsPublisher,
    #: main.scala:116): "uds://<abspath>" (DogStatsD over a Unix
    #: datagram socket) or "udp://<host>:<port>"; "" disables the push
    #: (cycle metrics are ALWAYS persisted in the manifest regardless)
    statsd_target: str = ""
    metrics_prefix: str = "arcane.stream"


@dataclass
class StreamContext:
    """The whole stream spec; one per stream/table, like the reference CRD."""

    source: SourceSettings = field(default_factory=SourceSettings)
    field_selection: FieldSelectionSettings = field(default_factory=FieldSelectionSettings)
    staging: StagingSettings = field(default_factory=StagingSettings)
    sink: SinkSettings = field(default_factory=SinkSettings)
    stream_mode: StreamModeSettings = field(default_factory=StreamModeSettings)
    throughput: ThroughputSettings = field(default_factory=ThroughputSettings)
    maintenance: MaintenanceSettings = field(default_factory=MaintenanceSettings)
    observability: ObservabilitySettings = field(default_factory=ObservabilitySettings)

    # ------------------------------------------------------------------ io
    @staticmethod
    def _snake(name: str) -> str:
        """Accept the reference's camelCase spec keys (``rowsPerGroup``,
        ``streamMode``, ...) alongside snake_case, so an existing stream
        spec ports without renaming."""
        import re

        return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "StreamContext":
        def build(dc_cls, data):
            if data is None:
                return dc_cls()
            names = {f.name for f in dataclasses.fields(dc_cls)}
            kwargs = {}
            for k, v in data.items():
                key = cls._snake(k)
                if key not in names:
                    raise ValueError(f"unknown {dc_cls.__name__} setting: {k!r}")
                if isinstance(v, list):
                    v = tuple(v)
                kwargs[key] = v
            return dc_cls(**kwargs)

        spec = {cls._snake(k): v for k, v in spec.items()}
        for section, (names, why) in _RETIRED_SETTINGS.items():
            data = spec.get(section) or {}
            retired = sorted(k for k in data if cls._snake(k) in names)
            if retired:
                logger.warning(
                    "ignoring retired %s setting(s) %s: %s", section, ", ".join(retired), why
                )
                spec[section] = {k: v for k, v in data.items() if k not in retired}
        known = {
            "source", "field_selection", "staging", "sink",
            "stream_mode", "throughput", "maintenance", "observability",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown StreamContext section(s): {sorted(unknown)}")
        return cls(
            source=build(SourceSettings, spec.get("source")),
            field_selection=build(FieldSelectionSettings, spec.get("field_selection")),
            staging=build(StagingSettings, spec.get("staging")),
            sink=build(SinkSettings, spec.get("sink")),
            stream_mode=build(StreamModeSettings, spec.get("stream_mode")),
            throughput=build(ThroughputSettings, spec.get("throughput")),
            maintenance=build(MaintenanceSettings, spec.get("maintenance")),
            observability=build(ObservabilitySettings, spec.get("observability")),
        )

    @classmethod
    def from_json(cls, text: str) -> "StreamContext":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "StreamContext":
        """Read ``STREAMCONTEXT__SPEC`` (JSON) + ``STREAMCONTEXT__*`` overrides.

        Mirrors the reference's env contract (``dev.env.example:39``,
        ``StreamRunner.scala:209-210``): ``STREAMCONTEXT__BACKFILL=true``
        and ``STREAMCONTEXT__BACKFILL_ID`` flip backfill mode.
        """
        env = dict(os.environ if env is None else env)
        spec = env.get("STREAMCONTEXT__SPEC", "{}")
        ctx = cls.from_json(spec)
        if env.get("STREAMCONTEXT__BACKFILL", "").lower() == "true":
            ctx.stream_mode.backfill = True
        if "STREAMCONTEXT__BACKFILL_ID" in env:
            ctx.stream_mode.backfill_id = env["STREAMCONTEXT__BACKFILL_ID"]
        return ctx

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def merge(self, other: dict[str, Any]) -> "StreamContext":
        """Operator-driven override merge (reference
        ``MicrosoftSqlServerPluginStreamContext.scala:21-30`` overrides
        ``merge(other)``): *other* wins on any key it sets."""
        base = self.to_dict()
        for section, vals in other.items():
            base.setdefault(self._snake(section), {}).update(vals)
        return StreamContext.from_dict(base)
