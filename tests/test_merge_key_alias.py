"""The merge key stored once.

A table whose ``arcane_merge_key`` is an alias of one source column
records the alias in its manifest (``merge_key_alias``); its data files
do not store the copy, and every reader derives the column from the key
column and never decodes a stored one.

- Equivalence: the same feed written three ways — the legacy layout
  (the copy stored, no alias recorded), the aliased layout, and a mixed
  chain (legacy base and deltas, then aliased deltas, then a fold) —
  reads the same through every reader: rows, order and schema, with the
  meta columns kept.  A composite-key table records no alias and stores
  the column, as before.
- Layout pin: what each writer path stores.
- Null guard: a file without the column, read with no alias recorded,
  raises instead of reading null keys.
"""

import glob
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import segment_path
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    MergeKeyAliasError,
    StreamRunner,
    delete_keys,
    export_snapshot,
    lookup_keys,
    read_change_feed_table,
    read_target,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
    materialize_deletes,
    optimize,
    repartition_table,
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
    MergeKeyMissingError,
)

KEYS = {"str": ["url"], "int": ["id"], "composite": ["id", "lang"]}
LANGS = ["en", "de"]
ABSENT_ID = 999


def _url(i: int) -> str:
    return f"https://site.example/p{i}"


def _merge_keys(kind: str, ids, langs) -> list[str]:
    """The canonical ``arcane_merge_key`` strings of (id, lang) pairs."""
    if kind == "str":
        return [_url(i) for i in ids]
    if kind == "int":
        return [str(i) for i in ids]
    return [f"{i}#{lang}" for i, lang in zip(ids, langs)]


def _segment(events: list, lo: int) -> pa.Table:
    """Change events ``(id, op, lang)`` at versions ``lo+1 ...``."""
    v = np.arange(lo + 1, lo + 1 + len(events), dtype=np.int64)
    return pa.table(
        {
            VERSION_COL: pa.array(v, pa.int64()),
            OP_COL: pa.array([op for _, op, _ in events], pa.string()),
            "id": pa.array([k for k, _, _ in events], pa.int64()),
            "url": pa.array([_url(k) for k, _, _ in events], pa.string()),
            "lang": pa.array([lang for _, _, lang in events], pa.string()),
            "body": pa.array([f"body {k} v{x}" for (k, _, _), x in zip(events, v)], pa.string()),
        }
    )


def _ctx(ctlog: str, tgt: str, kind: str, mode: str = "mor", **sink) -> StreamContext:
    return StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ctlog, "key_columns": KEYS[kind]},
            "sink": {"target_root": tgt, "num_partitions": 3, "merge_mode": mode, **sink},
            "throughput": {"rows_per_group": 10_000},
            "maintenance": {"enabled": False, "max_deltas_per_partition": 0},
        }
    )


def _cycle(ctx: StreamContext, legacy: bool) -> None:
    """Catch the table up; a *legacy* runner writes the layout of tables
    committed before the alias existed (copy stored, no alias)."""
    runner = StreamRunner(ctx)
    if legacy:
        runner._transform.merge_key_alias = None
    runner.run()


def _materialize(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else pa.table({})


@pytest.fixture
def ordered_reads():
    """Ray Data returns blocks in task order, so Dataset reads compare
    row for row."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    was, opts.preserve_order = opts.preserve_order, True
    yield
    opts.preserve_order = was


def _replay_and_read(base: str, backend: str, kind: str, parts: list, legacy_parts: int) -> dict:
    """Write *parts* of a feed into a fresh table — the first
    *legacy_parts* by a legacy runner — and read it every way.  Part 0
    is folded into a base before part 1 lands."""
    os.makedirs(base)
    ctlog = os.path.join(base, "ctlog")
    os.makedirs(ctlog)
    tgt = os.path.join(base, "tgt") if backend == "posix" else f"mock://{base}/tgt"
    prepare_watermark(tgt, 0, num_partitions=3)
    ctx = _ctx(ctlog, tgt, kind)
    log = ManifestLog(tgt)
    lo, heads = 0, []
    for i, events in enumerate(parts):
        pq.write_table(_segment(events, lo), segment_path(ctlog, lo, lo + len(events)))
        lo += len(events)
        _cycle(ctx, legacy=i < legacy_parts)
        if i == 0:
            optimize(log, ctx)
        heads.append(log.latest().version)
    out: dict = {"alias": log.latest().merge_key_alias}
    ids = sorted({k for events in parts for k, _, _ in events}) + [ABSENT_ID]
    probe = _merge_keys(kind, ids, [LANGS[k % 2] for k in ids])

    def reads(tag: str, version=None) -> None:
        out[f"{tag}/read_target"] = _materialize(read_target(tgt, version=version))
        out[f"{tag}/read_target_drop"] = _materialize(
            read_target(tgt, drop_meta=True, version=version)
        )
        out[f"{tag}/read_target_where"] = _materialize(
            read_target(tgt, where=[[MERGE_KEY_COL, ">=", probe[len(probe) // 2]]], version=version)
        )
        out[f"{tag}/table"] = read_target_table(tgt, drop_meta=False, version=version)
        out[f"{tag}/table_drop"] = read_target_table(tgt, version=version)
        out[f"{tag}/lookup"] = lookup_keys(tgt, probe, version=version)
        if kind == "str":
            out[f"{tag}/lookup_url"] = lookup_keys(
                tgt, [_url(i) for i in ids], key_col="url", version=version
            )

    reads("mor", heads[-1])  # the delta chain
    frm = heads[1]
    out["feed_net"] = read_change_feed_table(
        tgt, frm, heads[-1], drop_meta=False, pre_image_columns=("lang", "body")
    )
    out["feed_all"] = read_change_feed_table(tgt, frm, heads[-1], drop_meta=False, net=False)
    optimize(log, ctx)
    reads("folded")  # no deltas: one unit per base file
    delete_keys(tgt, probe[::3])
    reads("key_deleted")
    materialize_deletes(log, ctx)
    out["materialized"] = read_target_table(tgt, drop_meta=False)
    repartition_table(log, ctx, 5)
    out["repartitioned"] = read_target_table(tgt, drop_meta=False)
    out["repartitioned_lookup"] = lookup_keys(tgt, probe)
    exp = os.path.join(base, "export")
    export_snapshot(tgt, exp, drop_meta=False)
    files = sorted(glob.glob(f"{exp}/pid=*/part-0.parquet"))
    out["export"] = pa.concat_tables([pq.read_table(p) for p in files]) if files else None
    return out


def _assert_same_reads(got: dict, want: dict, what: str) -> None:
    assert got.keys() == want.keys()
    for name, t in want.items():
        g = got[name]
        if name == "alias":
            continue
        if t is None:
            assert g is None, f"{what}: {name}"
            continue
        assert g.schema == t.schema, f"{what}: {name} schema"
        assert g.equals(t), f"{what}: {name} differs"


def _check_layouts(backend: str, kind: str, parts: list) -> None:
    base = tempfile.mkdtemp(prefix="mk-alias-")
    try:
        legacy = _replay_and_read(f"{base}/legacy", backend, kind, parts, len(parts))
        aliased = _replay_and_read(f"{base}/aliased", backend, kind, parts, 0)
        mixed = _replay_and_read(f"{base}/mixed", backend, kind, parts, 2)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert legacy["alias"] is None
    want_alias = KEYS[kind][0] if kind != "composite" else None
    assert aliased["alias"] == mixed["alias"] == want_alias
    _assert_same_reads(aliased, legacy, f"{kind}/{backend} aliased")
    _assert_same_reads(mixed, legacy, f"{kind}/{backend} mixed")


_event = st.tuples(st.integers(0, 7), st.sampled_from(["I", "U", "U", "D"]), st.sampled_from(LANGS))
_feed = st.lists(st.lists(_event, min_size=1, max_size=12), min_size=4, max_size=4)


@pytest.mark.parametrize("backend", ["posix", "mock"])
@pytest.mark.parametrize("kind", ["str", "int", "composite"])
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(parts=_feed)
def test_layouts_read_the_same(ordered_reads, backend, kind, parts):
    """Legacy, aliased and mixed layouts of one feed read the same
    through every reader, and a composite key records no alias."""
    if kind == "composite":
        # the lang column is part of the key: a key is (id, lang)
        parts = [[(k, op, LANGS[k % 2]) for k, op, _ in events] for events in parts]
    _check_layouts(backend, kind, parts)


# ---------------------------------------------------------------------------
# layout pin
# ---------------------------------------------------------------------------
def _new_files(log: ManifestLog, before: set[str]) -> list[str]:
    m = log.latest()
    return sorted(m.all_files() - before - {e["file"] for v in m.key_deletes.values() for e in v})


def _stores_key(root: str, rels: list[str]) -> set[bool]:
    fs = lakefs(root)
    return {MERGE_KEY_COL in fs.parquet_file(r).schema_arrow.names for r in rels}


@pytest.mark.parametrize("kind", ["str", "composite"])
def test_every_writer_stores_the_key_only_when_it_is_no_alias(tmp_path, kind):
    """Every writer path — MoR deltas, the CoW flush, the OPTIMIZE
    fold, ``materialize_deletes``, ``repartition_table`` and the
    overwrite backfill — stores no ``arcane_merge_key`` for a single-key
    table and still stores it for a composite key."""
    ctlog = str(tmp_path / "ctlog")
    os.makedirs(ctlog)
    events = [(k % 6, "U" if k % 5 else "D", LANGS[k % 2]) for k in range(30)]
    pq.write_table(_segment(events, 0), segment_path(ctlog, 0, len(events)))
    stores = kind == "composite"

    def step(log, what, fn):
        before = log.latest().all_files()
        fn()
        rels = _new_files(log, before)
        assert rels, what
        assert _stores_key(log.root, rels) == {stores}, what

    tgt = str(tmp_path / "mor")
    prepare_watermark(tgt, 0, num_partitions=3)
    ctx, log = _ctx(ctlog, tgt, kind), ManifestLog(tgt)
    step(log, "mor delta", lambda: _cycle(ctx, legacy=False))
    step(log, "optimize", lambda: optimize(log, ctx))
    delete_keys(tgt, _merge_keys(kind, [1], ["de"]))
    step(log, "materialize_deletes", lambda: materialize_deletes(log, ctx))
    step(log, "repartition", lambda: repartition_table(log, ctx, 4))

    tgt = str(tmp_path / "cow")
    prepare_watermark(tgt, 0, num_partitions=3)
    ctx, log = _ctx(ctlog, tgt, kind, "cow"), ManifestLog(tgt)
    step(log, "cow flush", lambda: _cycle(ctx, legacy=False))

    snap = str(tmp_path / "snap")
    os.makedirs(snap)
    t = read_target_table(tgt)
    pq.write_table(t.drop_columns([VERSION_COL]), f"{snap}/shard0000-snapshot-v{99:012d}.parquet")
    ctx.source.snapshot_dir = snap
    ctx.stream_mode.backfill_id = "b1"
    step(log, "overwrite backfill", lambda: StreamRunner(ctx).run_backfill())
    assert log.latest().merge_key_alias == (None if stores else KEYS[kind][0])


def test_bloom_sidecar_on_the_aliased_key_still_prunes(tmp_path):
    """A bloom sidecar configured on ``arcane_merge_key`` is built from
    the in-memory alias, so lookups still skip files by it."""
    ctlog = str(tmp_path / "ctlog")
    os.makedirs(ctlog)
    tgt = str(tmp_path / "tgt")
    prepare_watermark(tgt, 0, num_partitions=2)
    ctx = _ctx(ctlog, tgt, "str", bloom_filter_columns=[MERGE_KEY_COL])
    lo = 0
    for keys in ([0, 1, 2], [3, 4, 5], [6, 7, 8]):
        events = [(k, "U", "en") for k in keys]
        pq.write_table(_segment(events, lo), segment_path(ctlog, lo, lo + len(events)))
        lo += len(events)
        _cycle(ctx, legacy=False)
    m = ManifestLog(tgt).latest()
    assert m.merge_key_alias == "url"
    fs = lakefs(tgt)
    for rel in m.all_files():
        assert MERGE_KEY_COL not in fs.parquet_file(rel).schema_arrow.names
        assert MERGE_KEY_COL in fs.read_npz(rel + ".bloom.npz")
    st_: dict = {}
    got = lookup_keys(tgt, [_url(4)], stats=st_)
    assert got["url"].to_pylist() == [_url(4)]
    assert got[MERGE_KEY_COL].to_pylist() == [_url(4)]
    assert st_.get("files_skipped", 0) >= 1


@pytest.mark.parametrize("kind", ["str", "int"])
def test_analyze_bounds_the_aliased_key_when_the_alias_is_a_string(tmp_path, monkeypatch, kind):
    """ANALYZE records a string alias's footer bounds under
    ``arcane_merge_key``, so ``read_target(where=...)`` on the merge key
    skips files again; an int alias records none (its string cast does
    not sort like the column) and the read skips nothing."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines import runner as runner_mod
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import analyze

    ctlog = str(tmp_path / "ctlog")
    os.makedirs(ctlog)
    events = [(k, "U", "en") for k in range(12)]
    pq.write_table(_segment(events, 0), segment_path(ctlog, 0, len(events)))
    tgt = str(tmp_path / "tgt")
    prepare_watermark(tgt, 0, num_partitions=3)
    ctx, log = _ctx(ctlog, tgt, kind), ManifestLog(tgt)
    _cycle(ctx, legacy=False)
    optimize(log, ctx)  # no deltas: read_target plans one unit per base file
    analyze(log, ctx)
    m = log.latest()
    assert m.merge_key_alias == KEYS[kind][0]
    files = sorted(m.all_files())
    assert len(files) >= 2
    stats = [m.file_stats[f] for f in files]
    if kind == "str":
        assert [s[MERGE_KEY_COL] for s in stats] == [s["url"] for s in stats]
    else:
        assert all(MERGE_KEY_COL not in s for s in stats)

    probe = min(_merge_keys(kind, range(12), ["en"] * 12))
    planned: list[int] = []
    real = runner_mod.units_dataset
    monkeypatch.setattr(
        runner_mod, "units_dataset", lambda units: planned.append(len(units)) or real(units)
    )
    got = _materialize(read_target(tgt, where=[[MERGE_KEY_COL, "==", probe]]))
    assert got[MERGE_KEY_COL].to_pylist() == [probe]
    assert planned == [1 if kind == "str" else len(files)]


# ---------------------------------------------------------------------------
# the null guard, the fixed alias and sources that ship the column
# ---------------------------------------------------------------------------
def _aliased_table(tmp_path, merge_mode: str = "mor") -> tuple[str, str]:
    ctlog = str(tmp_path / "ctlog")
    os.makedirs(ctlog)
    events = [(k % 5, "U", "en") for k in range(12)]
    pq.write_table(_segment(events, 0), segment_path(ctlog, 0, len(events)))
    tgt = str(tmp_path / "tgt")
    prepare_watermark(tgt, 0, num_partitions=2)
    _cycle(_ctx(ctlog, tgt, "str", merge_mode), legacy=False)
    return ctlog, tgt


def _forget_alias(tgt: str) -> None:
    """Rewrite the head manifest as if it recorded no alias."""
    log = ManifestLog(tgt)
    m = log.latest()
    assert m.merge_key_alias == "url"
    m.merge_key_alias = None
    lakefs(tgt).write_bytes(log._rel(m.version), m.to_json().encode())


@pytest.mark.parametrize("merge_mode", ["mor", "cow"])
def test_a_file_without_the_key_never_reads_as_null_keys(tmp_path, merge_mode):
    _, tgt = _aliased_table(tmp_path, merge_mode)
    _forget_alias(tgt)
    with pytest.raises(MergeKeyMissingError):
        read_target_table(tgt)
    with pytest.raises(MergeKeyMissingError):
        lookup_keys(tgt, [_url(1)])
    with pytest.raises(Exception, match="stores no arcane_merge_key"):
        _materialize(read_target(tgt))  # the no-delta read (CoW) or the resolve (MoR)
    if merge_mode == "cow":
        # a read of base files that does not ask for the key is unaffected
        assert _materialize(read_target(tgt, columns=["url", "lang"])).num_rows == 5


def test_the_alias_is_fixed_for_the_tables_life(tmp_path):
    ctlog, tgt = _aliased_table(tmp_path)
    with pytest.raises(MergeKeyAliasError):
        StreamRunner(_ctx(ctlog, tgt, "composite")).bootstrap()
    with pytest.raises(MergeKeyAliasError):
        StreamRunner(_ctx(ctlog, tgt, "int")).bootstrap()
    StreamRunner(_ctx(ctlog, tgt, "str")).bootstrap()


def test_a_source_that_ships_the_key_keeps_it_stored(tmp_path):
    """A source column named ``arcane_merge_key`` is the table's key as
    shipped: no alias is recorded and files store the column."""
    ctlog = str(tmp_path / "ctlog")
    os.makedirs(ctlog)
    seg = _segment([(k % 4, "U", "en") for k in range(8)], 0)
    seg = seg.append_column(MERGE_KEY_COL, pa.array([f"own-{k % 4}" for k in range(8)]))
    pq.write_table(seg, segment_path(ctlog, 0, 8))
    tgt = str(tmp_path / "tgt")
    prepare_watermark(tgt, 0, num_partitions=2)
    _cycle(_ctx(ctlog, tgt, "str"), legacy=False)
    m = ManifestLog(tgt).latest()
    assert m.merge_key_alias is None
    assert _stores_key(tgt, sorted(m.all_files())) == {True}
    got = read_target_table(tgt, drop_meta=False)
    assert sorted(got[MERGE_KEY_COL].to_pylist()) == [f"own-{k}" for k in range(4)]
