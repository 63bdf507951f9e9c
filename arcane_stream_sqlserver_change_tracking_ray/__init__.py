"""Ray-Data-native CDC / incremental-ingest engine.

A from-scratch rebuild of the query & data-processing capabilities of
``SneaksAndData/arcane-stream-sqlserver-change-tracking`` (reference at
/root/reference, surveyed in SURVEY.md) expressed Ray-Data-first:

- a change-feed tailer emits ``sys_change_version``-ordered insert /
  update / delete Arrow batches keyed by ``arcane_merge_key`` (= url),
- a streaming ``ray.data.Dataset`` pipeline normalizes, projects and
  hash-partitions the events,
- a per-partition last-writer-wins merge upserts into a partitioned
  Parquet lake table: direct per-task delta files under merge-on-read,
  partition-owner actors that rewrite partitions under copy-on-write,
- every cycle commits atomically through a version/watermark manifest
  log so replay-after-crash is exactly-once.

Nothing here is a port: the reference is a single-JVM coordinator that
delegates the merge to Trino (SURVEY.md §0); this engine internalizes
the merge as Ray Data operators.
"""

from arcane_stream_sqlserver_change_tracking_ray import types  # noqa: F401
from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext  # noqa: F401
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (  # noqa: F401
    InvalidWatermarkError,
    Manifest,
    ManifestLog,
)

__version__ = "0.1.0"
