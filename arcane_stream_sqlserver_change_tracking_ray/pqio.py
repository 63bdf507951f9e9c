"""Parquet read helper: ``ray.data.read_parquet`` with a SMALL-READ
fast path that fuses into the tasks that consume it.

``read_parquet`` pays a fixed planning cost per call — dataset metadata
resolution, a remote fragment-sampling round trip (launched
unconditionally in Ray 2.49 for the decoding-size estimate), and scan
operator startup — ~0.2–0.5 s that is pure overhead when the input is a
few MB.  That is exactly the per-cycle pattern of a streaming CDC
engine: poll a handful of fresh CT-log segments, re-read a just-written
staging dir, read a partition's delta files.

Below :data:`SMALL_READ_TOTAL_BYTES` in total (and
:data:`SMALL_READ_FILE_BYTES` per file, so no block outgrows the target
block size) :func:`read_parquet_files` reads the files through a lazy
Ray Data ``Datasource`` instead:

- The driver reads only the footers: one unified schema (a file that
  lacks a column an additive migration added later in the poll reads
  it as nulls) plus each file's row count and decoded size for the
  ``BlockMetadata``.  Calling it launches no task.
- Each ``ReadTask`` is a pyarrow dataset read of its file(s) against
  that unified schema, with the caller's projection and row filter,
  yielding ONE block.  The read runs ``override_num_blocks =
  len(read tasks)``, so Ray adds no split factor — a split factor would
  block operator fusion.  A downstream ``map_batches`` with
  ``batch_size=None`` then fuses with the read: read → transform →
  route → delta write run in one task per block, and the decoded table
  never goes through the object store.
- A ``batch_size`` on the first downstream ``map_batches`` blocks that
  fusion (Ray does not fuse a read into an operator that asks for a
  minimum bundle size).  Callers that want larger tasks pass
  ``min_rows_per_block``: consecutive files then share one read task
  until their footer row count reaches it, as a ``batch_size`` map's
  bundling would group them.  ``read_parquet_auto`` ignores
  ``override_num_blocks`` on this path.

Why not ``from_arrow``/``from_arrow_refs`` or ``from_items`` +
``map_batches``: ``from_arrow*`` runs a remote metadata task before the
first consumer can start, and reading each file in its own remote task
puts the decoded table in the object store (~37 MB per 100k-event
segment).  A ``from_items`` table of paths has 1-row blocks, so a
downstream ``batch_size`` bundling packs every file of a poll into one
task.

Anything larger takes the standard streaming ``read_parquet`` path
unchanged (row-group pruning, block splitting, backpressure) — at
100 TB every hot read is far above the threshold.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata

#: fast path only when the whole read fits comfortably in a few blocks
SMALL_READ_TOTAL_BYTES = 64 << 20
#: ... and no single file outgrows a sane object-store block
SMALL_READ_FILE_BYTES = 32 << 20


def _read_files(paths: list[str], schema, columns, filter_expr, fs) -> list[pa.Table]:
    import pyarrow.dataset as pads

    ds = pads.dataset(paths, schema=schema, format="parquet", filesystem=fs)
    return [ds.to_table(columns=columns, filter=filter_expr)]


class _ParquetFiles(Datasource):
    """One read task per group of files; see the module docstring."""

    def __init__(self, groups, schema, columns, filter_expr, filesystem):
        self._groups = groups  # [(paths, footer rows, decoded bytes)]
        self._schema = schema
        self._columns = columns
        self._filter = filter_expr
        self._fs = filesystem
        # unknown when a projected column is missing (the read raises)
        missing = columns is not None and not set(columns) <= set(schema.names)
        self._out_schema = None if missing else pa.schema(
            [schema.field(c) for c in columns or schema.names]
        )

    def get_name(self) -> str:
        return "ParquetFiles"

    def estimate_inmemory_data_size(self) -> int | None:
        return sum(size for _, _, size in self._groups) or None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [
            ReadTask(
                functools.partial(
                    _read_files, paths, self._schema, self._columns, self._filter, self._fs
                ),
                BlockMetadata(
                    # the footers count rows BEFORE the row filter
                    num_rows=rows if self._filter is None else None,
                    size_bytes=size,
                    input_files=list(paths),
                    exec_stats=None,
                ),
                schema=self._out_schema,
            )
            for paths, rows, size in self._groups
        ]


def _file_sizes(paths, filesystem) -> list[int] | None:
    """Byte sizes per path, or None when any size is unknowable (then
    the caller must take the streaming path)."""
    sizes = []
    try:
        if filesystem is not None:
            for info in filesystem.get_file_info(list(paths)):
                if info.size is None:
                    return None
                sizes.append(info.size)
        else:
            for p in paths:
                sizes.append(os.path.getsize(p[7:] if p.startswith("file://") else p))
    except OSError:
        return None
    return sizes


def is_small_read(paths, *, filesystem=None, file_sizes=None) -> bool:
    """Whether *paths* (FILES, not directories) take the fast path."""
    sizes = file_sizes if file_sizes is not None else _file_sizes(paths, filesystem)
    return bool(
        paths
        and sizes is not None
        and len(sizes) == len(paths)
        and sum(sizes) <= SMALL_READ_TOTAL_BYTES
        and max(sizes) <= SMALL_READ_FILE_BYTES
    )


def read_parquet_files(
    paths: list[str],
    *,
    filesystem=None,
    columns: list[str] | None = None,
    filter=None,
    min_rows_per_block: int | None = None,
):
    """The lazy fast-path read of *paths* (see module docstring)."""
    import pyarrow.dataset as pads
    import ray.data

    frags = list(
        pads.dataset(list(paths), format="parquet", filesystem=filesystem).get_fragments()
    )
    try:
        unified = pa.unify_schemas([f.physical_schema for f in frags])
    except pa.ArrowInvalid:
        unified = pads.dataset(list(paths), format="parquet", filesystem=filesystem).schema
    groups: list[tuple[list[str], int, int]] = []
    cur: list[str] = []
    rows = size = 0
    for path, frag in zip(paths, frags):
        md = frag.metadata  # cached by the physical_schema read above
        cur.append(path)
        rows += md.num_rows
        size += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        if not min_rows_per_block or rows >= min_rows_per_block:
            groups.append((cur, rows, size))
            cur, rows, size = [], 0, 0
    if cur:
        groups.append((cur, rows, size))
    return ray.data.read_datasource(
        _ParquetFiles(groups, unified, columns, filter, filesystem),
        override_num_blocks=len(groups),
    )


def read_parquet_auto(
    paths: list[str],
    *,
    filesystem=None,
    columns: list[str] | None = None,
    filter=None,
    file_sizes: list[int] | None = None,
    **read_parquet_kwargs,
):
    """:func:`read_parquet_files` when :func:`is_small_read`, else
    ``ray.data.read_parquet``.  Extra kwargs go to ``read_parquet`` on
    the streaming path (and disable the fast path if they would change
    semantics the fast path can't honor)."""
    import ray.data

    if not set(read_parquet_kwargs) - {"override_num_blocks"} and is_small_read(
        paths, filesystem=filesystem, file_sizes=file_sizes
    ):
        return read_parquet_files(paths, filesystem=filesystem, columns=columns, filter=filter)
    return ray.data.read_parquet(
        list(paths),
        filesystem=filesystem,
        columns=columns,
        filter=filter,
        **read_parquet_kwargs,
    )
