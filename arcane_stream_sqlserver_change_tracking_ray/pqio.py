"""Parquet reads planned on the driver into *read units*.

A :class:`ReadUnit` is a picklable description of one task's input:
file paths, the row-group run to read from each, the read's unified
schema, the projection and the row filter.  ``ReadUnit.read()`` is one
pyarrow dataset read against that schema, so a file that lacks a column
an additive migration added later in the read returns it as nulls.

:func:`plan_units` reads only the footers, on the driver, and launches
no task:

- Consecutive whole files share a unit until it reaches ``min_rows``
  footer rows (a change-log poll passes ``fetch_size``), so a poll of
  100k-event segments plans one unit per segment.
- Only when that gives fewer than ``target_units`` units (the runner
  passes ``blocks_per_cpu x CPUs``) are files split into contiguous
  row-group runs, and never into units smaller than ``min_rows``.

Table reads are planned without footers: ``read_target`` builds one
unit per file from the manifest (file list, ``file_stats`` pruning,
manifest schema, merge-key alias), or, over pending deltas, one unit
per task's run of partitions; that task sizes its blocks of partitions
from the footer cache as it runs.

The ingest writers (``stages.merge``) run one plain Ray task per unit:
it reads, transforms and writes, and returns only its stats rows, so
the decoded data never enters the object store and a cycle runs no Ray
Data executor.  Planning replaces ``ray.data.read_parquet``'s fixed
cost per call (metadata resolution, a remote fragment-sampling round
trip, scan-operator start-up: 0.2-0.5 s), which dominated small polls
and small table reads alike.

:func:`units_dataset` is the lazy Ray Data view of units, for the reads
that hand a ``Dataset`` to the caller (``read_target``,
``read_change_feed``) and for staging's ``write_parquet``.  A unit is a
``ReadUnit`` (one block) or a zero-argument callable returning an
iterable of blocks: a merge-on-read ``read_target`` passes one callable
per task, resolving its run of partitions a block of partitions at a
time, and a change feed one per partition.  It runs at most one read
task per CPU: Ray Data's executor polls all active tasks with a 0.1 s
timeout, so on one CPU two tasks of one read cost several times one
task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import pyarrow as pa

from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    MergeKeyMissingError,
)


@dataclass(frozen=True)
class ReadUnit:
    """One task's input; see the module docstring."""

    #: ``(path, row groups)``; ``None`` reads the whole file
    pieces: tuple[tuple[str, tuple[int, ...] | None], ...]
    schema: pa.Schema
    columns: tuple[str, ...] | None
    filter: object  # a pyarrow compute Expression, or None
    filesystem: object
    #: footer row count, BEFORE the row filter (None: not planned from
    #: footers)
    rows: int | None = None
    #: decoded (uncompressed) bytes, from the footers (None: unknown)
    nbytes: int | None = None
    #: table reads only: the column ``arcane_merge_key`` comes from —
    #: itself (every file must store it) or the column the manifest
    #: records it as an alias of (a stored copy is never decoded).  None
    #: for change-log reads, where a missing column reads as nulls.
    merge_key_from: str | None = None

    @property
    def paths(self) -> list[str]:
        return [p for p, _ in self.pieces]

    def read(self) -> pa.Table:
        import pyarrow.dataset as pads

        fmt = pads.ParquetFileFormat()
        frags = [
            fmt.make_fragment(p, filesystem=self.filesystem, row_groups=rgs)
            for p, rgs in self.pieces
        ]
        cols = list(self.columns) if self.columns is not None else self.schema.names
        schema, read, key_from = self.schema, cols, self.merge_key_from
        if key_from == MERGE_KEY_COL and MERGE_KEY_COL in cols:
            for frag in frags:
                if MERGE_KEY_COL not in frag.physical_schema.names:
                    raise MergeKeyMissingError(
                        f"{frag.path} stores no {MERGE_KEY_COL} and the table "
                        "records no merge-key alias"
                    )
        elif key_from is not None and MERGE_KEY_COL in cols:
            # the alias: read its column once, against a schema without
            # the stored copy, and present it under both names
            schema = schema.remove(schema.get_field_index(MERGE_KEY_COL))
            read = list(dict.fromkeys(key_from if c == MERGE_KEY_COL else c for c in cols))
        ds = pads.FileSystemDataset(frags, schema, fmt, self.filesystem)
        t = ds.to_table(columns=read, filter=self.filter)
        if read is cols:
            return t
        key, typ = t[key_from], self.schema.field(MERGE_KEY_COL).type
        return t.append_column(MERGE_KEY_COL, key.cast(typ)).select(cols)


def _unified_schema(mds) -> pa.Schema:
    schemas = [md.schema.to_arrow_schema() for md in mds]
    try:
        return pa.unify_schemas(schemas)
    except pa.ArrowInvalid:
        return schemas[0]  # incompatible types: read_parquet's first-file rule


def plan_units(
    paths: list[str],
    *,
    filesystem=None,
    columns: list[str] | None = None,
    filter=None,
    min_rows: int = 1,
    target_units: int | None = None,
) -> list[ReadUnit]:
    """Plan the read of *paths* (files, in order) into units from their
    footers; see the module docstring."""
    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    if not paths:
        return []
    if filesystem is None:
        filesystem = pafs.LocalFileSystem()
        paths = [p[7:] if p.startswith("file://") else p for p in paths]
    mds = [pq.read_metadata(p, filesystem=filesystem) for p in paths]
    schema = _unified_schema(mds)
    cols = tuple(columns) if columns is not None else None
    min_rows = max(int(min_rows or 1), 1)

    def unit(pieces, rows, nbytes) -> ReadUnit:
        return ReadUnit(tuple(pieces), schema, cols, filter, filesystem, rows, nbytes)

    # (path, row group, rows, decoded bytes) in read order
    rgs = [
        (p, i, md.row_group(i).num_rows, md.row_group(i).total_byte_size)
        for p, md in zip(paths, mds)
        for i in range(md.num_row_groups)
    ]
    total = sum(r for _, _, r, _ in rgs)
    want = min(target_units or 0, total // min_rows)

    units: list[ReadUnit] = []
    pieces: list = []
    rows = nbytes = 0
    for p, md in zip(paths, mds):
        pieces.append((p, None))
        rows += md.num_rows
        nbytes += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        if rows >= min_rows:
            units.append(unit(pieces, rows, nbytes))
            pieces, rows, nbytes = [], 0, 0
    if pieces:
        units.append(unit(pieces, rows, nbytes))
    if len(units) >= want:
        return units

    # too few whole-file units to fill the CPUs: contiguous row-group runs
    # that close at the k-th of `want` equal row boundaries, each at least
    # min_rows
    runs: list[tuple[list, int, int]] = []
    cur: dict[str, list[int]] = {}
    rows = nbytes = seen = 0
    for p, i, r, b in rgs:
        cur.setdefault(p, []).append(i)
        rows += r
        nbytes += b
        seen += r
        if rows >= min_rows and seen * want >= total * (len(runs) + 1):
            runs.append((list(cur.items()), rows, nbytes))
            cur, rows, nbytes = {}, 0, 0
    if cur:
        if runs and rows < min_rows:
            # a short tail joins the previous run (same file order)
            prev, prows, pbytes = runs.pop()
            merged: dict[str, list[int]] = {}
            for p, ids in prev + list(cur.items()):
                merged.setdefault(p, []).extend(ids)
            runs.append((list(merged.items()), prows + rows, pbytes + nbytes))
        else:
            runs.append((list(cur.items()), rows, nbytes))
    nrg = {p: md.num_row_groups for p, md in zip(paths, mds)}
    return [
        unit(
            [(p, None if len(ids) == nrg[p] else tuple(ids)) for p, ids in run],
            rows,
            nbytes,
        )
        for run, rows, nbytes in runs
    ]


def cluster_cpus() -> int:
    """The CPUs of the running Ray cluster (this machine's before Ray
    starts: Ray Data starts Ray with all of them)."""
    import os

    import ray

    if not ray.is_initialized():
        return os.cpu_count() or 1
    return max(int(ray.cluster_resources().get("CPU", 1)), 1)


def spread(items: list, n: int) -> list[list]:
    """*items* in at most *n* contiguous runs of near-equal length, in
    order."""
    if not items:
        return []
    n = max(1, min(n, len(items)))
    q, r = divmod(len(items), n)
    runs, i = [], 0
    for k in range(n):
        j = i + q + (k < r)
        runs.append(items[i:j])
        i = j
    return runs


def _blocks(unit) -> Iterable[pa.Table]:
    return (unit.read(),) if isinstance(unit, ReadUnit) else unit()


def units_dataset(units: list):
    """A lazy ``ray.data.Dataset`` of *units*: a ``Datasource`` with at
    most one read task per CPU, each streaming the blocks of every unit
    of its contiguous run — one per ``ReadUnit``, those a callable unit
    yields (one or several) — and no split factor, so a downstream
    ``map_batches(batch_size=None)`` fuses with the read."""
    import ray.data
    from ray.data import Datasource, ReadTask
    from ray.data.block import BlockMetadata

    runs = spread(units, cluster_cpus())

    def metadata(run: list) -> BlockMetadata:
        planned = [u for u in run if isinstance(u, ReadUnit)]
        # the footers count rows BEFORE the row filter
        rows = [u.rows if u.filter is None else None for u in planned]
        sizes = [u.nbytes for u in planned]
        whole = len(planned) == len(run)
        return BlockMetadata(
            num_rows=sum(rows) if whole and None not in rows else None,
            size_bytes=sum(sizes) if whole and None not in sizes else None,
            input_files=[p for u in planned for p in u.paths],
            exec_stats=None,
        )

    class ReadUnits(Datasource):
        def estimate_inmemory_data_size(self) -> int | None:
            sizes = [metadata(run).size_bytes for run in runs]
            return None if None in sizes else sum(sizes) or None

        def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
            return [
                ReadTask(lambda run=run: (b for u in run for b in _blocks(u)), metadata(run))
                for run in runs
            ]

    return ray.data.read_datasource(ReadUnits(), override_num_blocks=max(len(runs), 1))
