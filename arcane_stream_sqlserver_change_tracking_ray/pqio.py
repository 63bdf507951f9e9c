"""Parquet reads planned from footers into *read units*.

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

The ingest writers (``stages.merge``) run one plain Ray task per unit:
it reads, transforms and writes, and returns only its stats rows, so
the decoded data never enters the object store and a cycle runs no Ray
Data executor.  Planning replaces ``ray.data.read_parquet``'s fixed
cost per call (metadata resolution, a remote fragment-sampling round
trip, scan-operator start-up: 0.2-0.5 s), which dominated small polls.

:func:`units_dataset` is a lazy Ray Data view of units (a
``Datasource`` with one read task per unit).  Only staging (G1) still
needs it, to write the polled batch with ``Dataset.write_parquet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa


@dataclass(frozen=True)
class ReadUnit:
    """One task's input; see the module docstring."""

    #: ``(path, row groups)``; ``None`` reads the whole file
    pieces: tuple[tuple[str, tuple[int, ...] | None], ...]
    schema: pa.Schema
    columns: tuple[str, ...] | None
    filter: object  # a pyarrow compute Expression, or None
    filesystem: object
    #: footer row count, BEFORE the row filter
    rows: int
    #: decoded (uncompressed) bytes, from the footers
    nbytes: int

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
        ds = pads.FileSystemDataset(frags, self.schema, fmt, self.filesystem)
        cols = list(self.columns) if self.columns is not None else None
        return ds.to_table(columns=cols, filter=self.filter)


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


def units_dataset(units: list[ReadUnit]):
    """A lazy ``ray.data.Dataset`` of *units*: a ``Datasource`` with one
    read task per unit and no split factor, so a downstream
    ``map_batches(batch_size=None)`` fuses with the read."""
    import ray.data
    from ray.data import Datasource, ReadTask
    from ray.data.block import BlockMetadata

    class ReadUnits(Datasource):
        def estimate_inmemory_data_size(self) -> int | None:
            return sum(u.nbytes for u in units) or None

        def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
            return [
                ReadTask(
                    lambda u=u: [u.read()],
                    BlockMetadata(
                        # the footers count rows BEFORE the row filter
                        num_rows=u.rows if u.filter is None else None,
                        size_bytes=u.nbytes,
                        input_files=u.paths,
                        exec_stats=None,
                    ),
                )
                for u in units
            ]

    return ray.data.read_datasource(ReadUnits(), override_num_blocks=max(len(units), 1))
