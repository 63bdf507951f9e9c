"""Arrow schemas, type mapping and the pseudo-column constants.

Mirrors the reference's data model (SURVEY.md §1):

- essential / pseudo columns ``sys_change_version``,
  ``sys_change_operation``, ``arcane_merge_key`` — the CRD's mandatory
  ``essentialFields`` (reference
  ``.helm/templates/crd-microsoft-sql-server-stream.yaml:417-421``).
  ``arcane_merge_key`` is always a column of the table's logical schema,
  but when it is an alias of one source column (the manifest's
  ``merge_key_alias``, e.g. ``url``) data files do not store it: readers
  derive it from that column,
- the ``ArcaneType`` scalar set mapped onto Arrow types (reference
  ``src/test/scala/tests/integration/Fixtures.scala:4,17-23`` shows
  ``IntType``/``StringType``; the rest is the standard JDBC scalar set,
  SURVEY.md §1.2),
- the payload schema of the target lake table per BASELINE.json
  ``input_hint``: Common-Crawl-style web pages.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Pseudo-columns carried on every change event (CRD essentialFields).
# ---------------------------------------------------------------------------
VERSION_COL = "sys_change_version"
OP_COL = "sys_change_operation"
MERGE_KEY_COL = "arcane_merge_key"

#: columns a field-selection rule may never drop
ESSENTIAL_COLS: tuple[str, ...] = (VERSION_COL, OP_COL, MERGE_KEY_COL)


class MergeKeyMissingError(ValueError):
    """A table data file lacks the stored ``arcane_merge_key`` and the
    manifest records no alias to derive it from.  Reading the file
    against the table schema would give null merge keys, which LWW
    groups as one key, so the read fails instead."""

#: internal routing column added before the partitioned merge
PID_COL = "_pid"

OP_INSERT = "I"
OP_UPDATE = "U"
OP_DELETE = "D"

# ---------------------------------------------------------------------------
# ArcaneType -> Arrow mapping (single source of truth for casts, T4).
# ---------------------------------------------------------------------------
ARCANE_TO_ARROW: dict[str, pa.DataType] = {
    "ShortType": pa.int16(),
    "IntType": pa.int32(),
    "LongType": pa.int64(),
    "FloatType": pa.float32(),
    "DoubleType": pa.float64(),
    "DecimalType": pa.decimal128(38, 18),
    "BooleanType": pa.bool_(),
    "StringType": pa.string(),
    "BytesType": pa.binary(),
    "DateType": pa.date32(),
    "TimeType": pa.time64("us"),
    "TimestampType": pa.timestamp("us"),
    "DateTimeOffsetType": pa.timestamp("us", tz="UTC"),
}

ARROW_TO_ARCANE: dict[pa.DataType, str] = {v: k for k, v in ARCANE_TO_ARROW.items()}


# ---------------------------------------------------------------------------
# Payload schema per BASELINE.json input_hint: Common-Crawl-style pages.
# `url` plays the role of the source primary key (reference source tables
# require a PK: Fixtures.scala:35).
# ---------------------------------------------------------------------------
PAGE_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)


def change_schema(payload_schema: pa.Schema = PAGE_SCHEMA) -> pa.Schema:
    """Schema of a change-event batch: essential columns + payload post-image.

    Analog of the reference CT feed row: ``CHANGETABLE(CHANGES ...)``
    joined to the base table so each event carries full current row
    values (SURVEY.md §2.1 S1 / M3).
    """
    fields = [
        pa.field(VERSION_COL, pa.int64()),
        pa.field(OP_COL, pa.string()),
        pa.field(MERGE_KEY_COL, pa.string()),
    ]
    for f in payload_schema:
        if f.name not in {VERSION_COL, OP_COL, MERGE_KEY_COL}:
            fields.append(f)
    return pa.schema(fields)


CHANGE_SCHEMA = change_schema()


def schema_to_bytes(schema: pa.Schema) -> bytes:
    return schema.serialize().to_pybytes()


def schema_from_bytes(data: bytes) -> pa.Schema:
    return pa.ipc.read_schema(pa.BufferReader(data))


def import_polars():
    """Import polars with its Rust thread pool capped for worker use.

    polars sizes its global pool to the machine at FIRST import; inside
    a Ray worker that means every worker process spawns a full-width
    pool (workers × cores threads machine-wide), and a failed
    ``pthread_create`` under host pressure panics the pool permanently
    for that worker — every later polars call in the process then fails
    (observed once as two unrelated queries failing on the same worker
    pid).  The hashing workloads here are per-batch and small, so two
    threads lose nothing.  The cap must be set before the first import;
    if polars is already loaded this is a no-op."""
    import os
    import sys

    if "polars" not in sys.modules:
        os.environ.setdefault("POLARS_MAX_THREADS", "2")
    import polars as pl

    return pl
