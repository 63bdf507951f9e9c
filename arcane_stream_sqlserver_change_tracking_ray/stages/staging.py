"""Staging of polled change batches (G1/G2) + disposal (K3).

Reference: each batch is written to a uniquely named staging Iceberg
table (``stagingTablePrefix`` + GUID, ``docs/crd.md:43-73``), dropped
after merge (``DisposeBatchProcessor``, ``main.scala:72``), and
leftover staging tables are swept by prefix at startup.

Ray-native translation: a staging *directory*
``<staging_root>/<prefix><cycle>-<guid>/`` of parquet files written
with ``Dataset.write_parquet`` (Ray parallelizes the file writes, the
analog of ``maxRowsPerFile`` parallel staging files).  Disabled by
default — see ``config.StagingSettings`` for why (the durable parquet
change feed already makes every cycle replayable; the merge output is
itself staged under ``cycles/`` until the manifest commit).
"""

from __future__ import annotations

import uuid

from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs


def _unlarge(table):
    """Cast polars' large_* arrow types back to the standard widths the
    parquet staging path produces, so downstream merge sees one schema
    regardless of staging format."""
    import pyarrow as pa

    def fix(t: pa.DataType) -> pa.DataType:
        if pa.types.is_large_string(t):
            return pa.string()
        if pa.types.is_large_binary(t):
            return pa.binary()
        if pa.types.is_large_list(t):
            return pa.list_(fix(t.value_type))
        if pa.types.is_list(t):
            return pa.list_(fix(t.value_type))
        return t

    target = pa.schema([f.with_type(fix(f.type)) for f in table.schema])
    return table.cast(target) if target != table.schema else table


def stage_change_batch(
    ds,
    staging_root: str,
    table_prefix: str,
    cycle_id: str,
    max_rows_per_file: int = 10_000,
    fmt: str = "parquet",
):
    """Write the polled batch *ds* (a ``ray.data.Dataset``) to a unique
    staging dir; returns ``(staged, staging_dir)`` where *staged*
    re-reads the staged files (the merge then consumes durable input,
    like the reference merging from the staging table): read units
    (``pqio.plan_units``) for parquet, a ``ray.data.Dataset`` for orc and
    avro, which the writers adapt one block per task.  *staging_dir* is
    ``"<staging_root>|<name>"`` — an opaque token ``dispose_staging``
    resolves back through the lake filesystem (the staging root may be
    an object store).

    *fmt* mirrors the CRD's stagingDataSettings.format
    (``…stream.yaml:230-236``, PARQUET|ORC|AVRO): "parquet" stages via
    ``Dataset.write_parquet``; "orc" and "avro" write one file per
    ~*max_rows_per_file* rows inside ``map_batches`` (Ray has no native
    writer for either; avro rides polars' Avro codec) and re-read them
    distributed via ``read_binary_files`` + a per-task decode."""
    import ray.data

    fs = lakefs(staging_root)
    name = f"{table_prefix}{cycle_id}-{uuid.uuid4().hex[:8]}"
    fs.makedirs(name)
    if fmt == "parquet":
        from arcane_stream_sqlserver_change_tracking_ray.pqio import plan_units

        ds.write_parquet(fs.full(name), filesystem=fs.pafs,
                         max_rows_per_file=max_rows_per_file)
        # re-read the exact files just written, one unit per file
        staged_files = [
            f"{fs.full(name)}/{f}" for f in sorted(fs.listdir(name))
            if f.endswith(".parquet")
        ]
        staged = plan_units(staged_files, filesystem=fs.pafs)
    elif fmt == "orc":
        root = staging_root  # capture the string, workers rebuild the facade

        def write_orc(batch):
            import io

            import pyarrow as pa
            import pyarrow.orc as orc

            buf = io.BytesIO()
            orc.write_table(batch, buf)
            rel = f"{name}/block-{uuid.uuid4().hex}.orc"
            lakefs(root).write_bytes(rel, buf.getvalue())
            return pa.table({"file": pa.array([rel])})

        n_files = (
            ds.map_batches(
                write_orc, batch_format="pyarrow", batch_size=max_rows_per_file
            ).count()
        )
        assert n_files >= 0

        def decode_orc(batch):
            import io

            import pyarrow as pa
            import pyarrow.orc as orc

            tables = [
                orc.ORCFile(io.BytesIO(b.as_py())).read()
                for b in batch["bytes"]
            ]
            return pa.concat_tables(tables) if tables else pa.table({})

        staged = ray.data.read_binary_files(
            fs.full(name), filesystem=fs.pafs
        ).map_batches(decode_orc, batch_format="pyarrow")
    elif fmt == "avro":
        root = staging_root

        def write_avro(batch):
            import io

            import polars as pl
            import pyarrow as pa

            buf = io.BytesIO()
            pl.from_arrow(batch).write_avro(buf)
            rel = f"{name}/block-{uuid.uuid4().hex}.avro"
            lakefs(root).write_bytes(rel, buf.getvalue())
            return pa.table({"file": pa.array([rel])})

        n_files = (
            ds.map_batches(
                write_avro, batch_format="pyarrow", batch_size=max_rows_per_file
            ).count()
        )
        assert n_files >= 0

        def decode_avro(batch):
            import io

            import polars as pl
            import pyarrow as pa

            tables = [
                _unlarge(pl.read_avro(io.BytesIO(b.as_py())).to_arrow())
                for b in batch["bytes"]
            ]
            return pa.concat_tables(tables) if tables else pa.table({})

        staged = ray.data.read_binary_files(
            fs.full(name), filesystem=fs.pafs
        ).map_batches(decode_avro, batch_format="pyarrow")
    else:
        raise NotImplementedError(
            f"staging format {fmt!r} not supported (no {fmt} codec in this "
            "environment); use 'parquet', 'orc' or 'avro'"
        )
    return staged, f"{staging_root}|{name}"


def dispose_staging(staging_dir: str) -> None:
    """K3: drop the staging table once the batch is merged + committed."""
    root, _, name = staging_dir.rpartition("|")
    lakefs(root).delete_dir(name)


def sweep_staging(
    staging_root: str, table_prefix: str, grace_seconds: float = 0.0
) -> list[str]:
    """Startup sweep by prefix (``docs/crd.md:45-48``).

    ``grace_seconds`` applies the same HA-standby guard as
    ``ManifestLog.sweep_uncommitted`` (shared ``manifest.in_grace``): a
    bootstrapping standby must not delete the primary's in-flight
    staging dirs."""
    import time

    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import in_grace

    fs = lakefs(staging_root)
    now = time.time()
    removed = []
    for nm in fs.listdir(""):
        if not nm.startswith(table_prefix):
            continue
        if in_grace(fs, nm, grace_seconds, now):
            continue
        fs.delete_dir(nm)
        removed.append(nm)
    return removed
