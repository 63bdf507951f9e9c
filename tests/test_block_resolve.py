"""Merge-on-read reads resolve a block of partitions at once.

``read_target`` and ``read_target_table`` hand runs of consecutive
partitions to ``merge.resolve_partition_table`` in blocks
(``merge.partition_blocks``): a block reads each file once and runs one
LWW.  The property test pins a block's output to the per-partition
resolve concatenated in partition order, rows and order; the pins record
a block's file reads and the split of a run by
``DataContext.target_max_block_size``."""

import glob
import os
import uuid
from unittest import mock

import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

import arcane_stream_sqlserver_change_tracking_ray.stages.merge as merge_mod
from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.functions.transforms import cast_to_schema
from arcane_stream_sqlserver_change_tracking_ray.gen import small_spec, write_ctlog
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    read_target,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    Partition,
    apply_delete_predicates,
    apply_key_deletes,
    filter_conjunction,
    lww_alive,
    partition_blocks,
    read_entry_table,
    resolve_partition_table,
    split_entry,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)

KEY = "url"
SCHEMA = pa.schema(
    [
        (VERSION_COL, pa.int64()),
        (OP_COL, pa.string()),
        (KEY, pa.string()),
        ("lang", pa.string()),
        ("html", pa.string()),
        (MERGE_KEY_COL, pa.string()),
        ("title", pa.string()),  # added mid-chain: older files lack it
    ]
)
PIDS = 5
KEYS_PER_PID = 5


def _url(pid: int, k: int) -> str:
    """Partitions are key-disjoint: each owns its own keys."""
    return f"https://p{pid}.example/{k}"


def _rows_table(pid: int, rows, with_title: bool, aliased: bool) -> pa.Table:
    """A partition's rows ``(key index, version, op, lang)``; every
    ``html`` is unique, so a tie broken the other way shows.  An
    *aliased* table's files store no ``arcane_merge_key``."""
    tag = uuid.uuid4().hex[:6]
    urls = pa.array([_url(pid, k) for k, _, _, _ in rows], pa.string())
    cols = {
        VERSION_COL: pa.array([v for _, v, _, _ in rows], pa.int64()),
        OP_COL: pa.array([op for _, _, op, _ in rows], pa.string()),
        KEY: urls,
        "lang": pa.array([lang for _, _, _, lang in rows], pa.string()),
        "html": pa.array([f"<p>{tag}-{i} v{r[1]}</p>" for i, r in enumerate(rows)], pa.string()),
    }
    if not aliased:
        cols[MERGE_KEY_COL] = urls
    if with_title:
        cols["title"] = pa.array([f"t{v}" for _, v, _, _ in rows], pa.string())
    return pa.table(cols)


def _write_cycle(root: str, tables: dict[int, pa.Table]) -> dict[int, str]:
    """One pid-sorted delta file, as the direct MoR writer lays it out:
    each pid's rows in their own 2-row row groups.  Returns each pid's
    ``#rg=a-b`` entry."""
    rel = f"cycles/c-{uuid.uuid4().hex[:8]}/delta-{uuid.uuid4().hex}.parquet"
    schema = next(iter(tables.values())).schema
    w = lakefs(root).parquet_writer(rel, schema, compression="zstd")
    entries, rg = {}, 0
    for pid in sorted(tables):
        w.write_table(tables[pid], row_group_size=2)
        n = -(-tables[pid].num_rows // 2)
        entries[pid] = f"{rel}#rg={rg}-{rg + n - 1}"
        rg += n
    w.close()
    return entries


def _build(root: str, lake: dict) -> tuple[list[Partition], list]:
    """Write a lake; returns its partitions and delete predicates."""
    fs = lakefs(root)
    aliased = lake["aliased"]
    base = {p: [] for p in range(PIDS)}
    for pid in range(PIDS):
        if lake["bases"][pid]:  # a fold's output: one alive row per key
            rel = f"base-{uuid.uuid4().hex}.parquet"
            rows = [(k, 0, "U", "en") for k in range(3)]
            fs.write_table(_rows_table(pid, rows, lake["title_from"] == 0, aliased), rel)
            base[pid].append(rel)
    deltas = {p: [] for p in range(PIDS)}
    for i, cycle in enumerate(lake["cycles"]):
        tables = {
            pid: _rows_table(pid, rows, i + 1 >= lake["title_from"], aliased)
            for pid, rows in cycle.items()
        }
        if tables:
            for pid, entry in _write_cycle(root, tables).items():
                deltas[pid].append(entry)
    key_deletes = {p: [] for p in range(PIDS)}
    for pid, (keys, wm) in lake["key_deletes"].items():
        rel = f"keydel-{uuid.uuid4().hex}.parquet"
        fs.write_table(pa.table({MERGE_KEY_COL: pa.array([_url(pid, k) for k in keys])}), rel)
        key_deletes[pid].append({"file": rel, "watermark": wm})
    preds = []
    if lake["lang_delete_wm"] is not None:
        preds = [{"conjunction": [["lang", "==", "de"]], "watermark": lake["lang_delete_wm"]}]
    parts = [Partition(base[p], deltas[p], key_deletes[p]) for p in range(lake["n_pids"])]
    return parts, preds


def _per_partition(root, parts, schema, preds, alias) -> pa.Table:
    """The reference: each partition resolved on its own — every entry
    read by itself, LWW over the partition's rows when it has deltas,
    then its equality deletes and the delete predicates — concatenated
    in partition order."""
    out = []
    for p in parts:
        entries = [*p.base, *p.deltas]
        if not entries:
            continue
        t = pa.concat_tables([
            cast_to_schema(read_entry_table(root, e, set(schema.names), merge_key_alias=alias),
                           schema)
            for e in entries
        ])
        if p.deltas:
            t, _ = lww_alive(t)
        if p.key_deletes:
            t = apply_key_deletes(t, root, p.key_deletes)
        out.append(apply_delete_predicates(t, preds))
    return pa.concat_tables(out) if out else schema.empty_table()


def _footer_bytes(root: str, part: Partition, schema: pa.Schema, alias: str | None) -> int:
    """The uncompressed bytes of the stored columns a read of *schema*
    decodes, in the partition's row groups."""
    names = set(schema.names)
    if alias is not None:
        names = (names - {MERGE_KEY_COL}) | {alias}
    total = 0
    for entry in (*part.base, *part.deltas):
        rel, rgs = split_entry(entry)
        md = lakefs(root).parquet_file(rel).metadata
        for g in rgs if rgs is not None else range(md.num_row_groups):
            rg = md.row_group(g)
            total += sum(
                rg.column(j).total_uncompressed_size
                for j in range(rg.num_columns)
                if rg.column(j).path_in_schema in names
            )
    return total


_row = st.tuples(
    st.integers(0, KEYS_PER_PID - 1),
    st.integers(1, 6),  # a narrow version range: equal-version ties across entries
    st.sampled_from(["I", "U", "U", "D"]),
    st.sampled_from(["en", "de"]),
)
_lake = st.fixed_dictionaries(
    {
        "n_pids": st.integers(1, PIDS),
        "bases": st.lists(st.booleans(), min_size=PIDS, max_size=PIDS),
        "cycles": st.lists(
            st.dictionaries(st.integers(0, PIDS - 1), st.lists(_row, min_size=1, max_size=5),
                            max_size=PIDS),
            max_size=4,
        ),
        "title_from": st.integers(0, 5),
        "aliased": st.booleans(),
        "key_deletes": st.dictionaries(
            st.integers(0, PIDS - 1),
            st.tuples(st.lists(st.integers(0, KEYS_PER_PID - 1), min_size=1, max_size=3),
                      st.integers(0, 7)),
            max_size=3,
        ),
        "lang_delete_wm": st.one_of(st.none(), st.integers(0, 7)),
        "where": st.one_of(
            st.none(),
            st.sampled_from([
                [["lang", "==", "en"]],
                [[VERSION_COL, ">=", 3]],
                [["title", "!=", "t2"], ["lang", "==", "de"]],
            ]),
        ),
        "max_bytes": st.one_of(st.none(), st.integers(0, 3000)),
    }
)


@pytest.fixture(scope="module", params=["posix", "mock"])
def lake_base(request, tmp_path_factory):
    base = str(tmp_path_factory.mktemp(f"block_{request.param}"))
    return base if request.param == "posix" else f"mock://{base}"


@settings(max_examples=120, deadline=None)
@given(lake=_lake)
def test_block_resolve_equals_the_per_partition_concat(lake_base, lake):
    """Rows and order equal the per-partition resolves concatenated in
    partition order, whatever the blocks: base files and delta chains
    (pids sharing each cycle's delta file, a pid absent from some
    cycles), tombstones and equal-version ties, a column added
    mid-chain, key deletes, a delete predicate, a ``where`` applied
    after the resolve, aliased and unaliased tables.  No block of more
    than one partition exceeds the byte limit."""
    root = f"{lake_base}/{uuid.uuid4().hex}"
    parts, preds = _build(root, lake)
    alias = KEY if lake["aliased"] else None
    blocks = partition_blocks(root, parts, SCHEMA, lake["max_bytes"], alias)
    assert [p for b in blocks for p in b] == parts
    if lake["max_bytes"] is not None:
        for b in blocks:
            size = sum(_footer_bytes(root, p, SCHEMA, alias) for p in b)
            assert len(b) == 1 or size <= lake["max_bytes"]

    tables = [
        resolve_partition_table(root, b, SCHEMA, delete_predicates=preds, merge_key_alias=alias)
        for b in blocks
    ]
    got = pa.concat_tables(tables) if tables else SCHEMA.empty_table()
    want = _per_partition(root, parts, SCHEMA, preds, alias)
    if lake["where"] is not None:
        got, want = filter_conjunction(got, lake["where"]), filter_conjunction(want, lake["where"])
    assert got.schema == SCHEMA
    assert got.equals(want), (got.to_pydict(), want.to_pydict())


@pytest.mark.parametrize("backend", ["posix", "mock"])
def test_a_block_reads_each_file_once(tmp_path, backend):
    """Four partitions, each with a base file and an entry in each of
    three shared delta files: the block decodes every file once, a
    delta file over the union of the block's row groups, where the
    per-partition resolves decode each delta file once per partition."""
    root = str(tmp_path) if backend == "posix" else f"mock://{tmp_path}"
    lake = {
        "n_pids": 4, "bases": [True] * PIDS, "title_from": 2, "aliased": True,
        "cycles": [
            {pid: [(k, 10 * c + k, "D" if k == c else "U", "en") for k in range(3)]
             for pid in range(4)}
            for c in range(3)
        ],
        "key_deletes": {}, "lang_delete_wm": None,
    }
    parts, _ = _build(root, lake)
    reads = []
    real = merge_mod.read_file_table

    def recorded(pf, rel, rgs, *a, **kw):
        reads.append((rel, rgs))
        return real(pf, rel, rgs, *a, **kw)

    with mock.patch.object(merge_mod, "read_file_table", recorded):
        got = resolve_partition_table(root, parts, SCHEMA, merge_key_alias=KEY)
    files = {split_entry(e)[0] for p in parts for e in (*p.base, *p.deltas)}
    assert sorted(rel for rel, _ in reads) == sorted(files)
    deltas = {split_entry(e)[0] for e in parts[0].deltas}
    # every row group of a shared delta file belongs to the block
    assert all(rgs is None for rel, rgs in reads if rel in deltas)
    assert got.equals(_per_partition(root, parts, SCHEMA, [], KEY))

    # one partition: its own row groups of each delta file
    reads.clear()
    with mock.patch.object(merge_mod, "read_file_table", recorded):
        one = resolve_partition_table(root, parts[1:2], SCHEMA, merge_key_alias=KEY)
    assert [rgs for rel, rgs in reads if rel in deltas] == [[2, 3]] * 3
    assert one.equals(_per_partition(root, parts[1:2], SCHEMA, [], KEY))


@pytest.fixture
def ordered_reads():
    """Ray Data returns blocks in task order, so Dataset reads compare
    row for row."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    was, opts.preserve_order = opts.preserve_order, True
    yield
    opts.preserve_order = was


@pytest.fixture
def max_block_size():
    """Set ``DataContext.target_max_block_size`` for one test."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    was = ctx.target_max_block_size

    def set_to(n):
        ctx.target_max_block_size = n

    yield set_to
    ctx.target_max_block_size = was


def test_a_small_target_max_block_size_splits_a_run(
    tmp_lake, tmp_path, monkeypatch, ordered_reads, max_block_size
):
    """A P=8 merge-on-read table read with the default block size
    resolves each task's run in one call; with a limit below any
    partition's bytes each partition is a block of its own.  Rows and
    order are the same either way, through ``read_target`` (with and
    without ``where``) and ``read_target_table``.  (Ray Data may split
    an output block over the limit further; order is kept.)"""
    cpus = int(ray.cluster_resources()["CPU"])
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct},
            "sink": {"target_root": tgt, "num_partitions": 8},
            "throughput": {"rows_per_group": 500},
        }
    )
    StreamRunner(ctx).run()
    m = ManifestLog(tgt).latest()
    assert any(m.deltas.values())
    smallest = min(
        _footer_bytes(tgt, Partition(m.partitions.get(p, []), m.deltas.get(p, [])), m.schema,
                      m.merge_key_alias)
        for p in m.partition_pids()
    )

    def read_all(where=None) -> pa.Table:
        ds = read_target(tgt, drop_meta=True, where=where)
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))

    def counted(kind: str, read):
        """*read()* with every resolve call recorded: the number of
        partitions it was handed."""
        d = str(tmp_path / kind)
        os.makedirs(d)
        real = merge_mod.resolve_partition_table

        def call(target_root, parts, *a, **kw):
            with open(os.path.join(d, uuid.uuid4().hex), "w") as f:
                f.write(str(len(parts)))
            return real(target_root, parts, *a, **kw)

        with monkeypatch.context() as mp:
            mp.setattr(merge_mod, "resolve_partition_table", call)
            out = read()
        return out, sorted(int(open(p).read()) for p in glob.glob(os.path.join(d, "*")))

    where = [["lang", "==", "en"]]
    want, calls = counted("default", read_all)
    assert len(calls) == min(cpus, 8) and sum(calls) == 8
    want_where = read_all(where)
    want_table = read_target_table(tgt)
    assert want.num_rows and want_where.num_rows

    max_block_size(smallest // 2)
    got, calls = counted("small", read_all)
    assert calls == [1] * 8
    assert got.equals(want)
    assert read_all(where).equals(want_where)
    assert read_target_table(tgt).equals(want_table)
