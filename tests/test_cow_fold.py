"""The copy-on-write writer folds on plain Ray tasks.

``ActorMergePool.apply_change_batch`` runs one unit task per read unit,
then one fold task per run of consecutive pids (``merge.fold_partitions``),
which resolves all of the run's touched partitions with one LWW.  The
property test pins each partition's rewrite to the per-partition flush
(its entries, then its change slices in unit order, LWW, tombstones
out, ``sorted_by``, ``cluster_by``), rows and order, on POSIX and
``mock://``; the replay test pins the files to be byte-identical
whatever the number of fold tasks, with no actor started."""

import hashlib
import uuid

import numpy as np
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
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    ActorMergePool,
    apply_change_batch_direct,
    ensure_merge_key_alias,
    fold_stats_into_manifest,
    lww_alive,
    partition_ids,
    read_entry_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
    cluster_order,
    parse_partition_exprs,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    Manifest,
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    PID_COL,
    VERSION_COL,
)

P = 6
SCHEMA = pa.schema(
    [
        (VERSION_COL, pa.int64()),
        (OP_COL, pa.string()),
        ("url", pa.string()),
        ("lang", pa.string()),
        ("html", pa.string()),
        (MERGE_KEY_COL, pa.string()),
    ]
)


def _unit(rows, layout: str) -> pa.Table:
    """A change batch ``(key index, version, op, lang)``; every ``html``
    is unique, so a tie broken the other way shows.  A composite key is
    ``(url, lang)`` with its own ``arcane_merge_key``; a single key is
    ``url`` and the writer appends the merge key."""
    tag = uuid.uuid4().hex[:6]
    if layout == "composite":
        urls = [f"https://x.example/{k // 2}" for k, _, _, _ in rows]
        langs = [("en", "de")[k % 2] for k, _, _, _ in rows]
    else:
        urls = [f"https://x.example/{k}" for k, _, _, _ in rows]
        langs = [lang for _, _, _, lang in rows]
    cols = {
        VERSION_COL: pa.array([v for _, v, _, _ in rows], pa.int64()),
        OP_COL: pa.array([op for _, _, op, _ in rows], pa.string()),
        "url": pa.array(urls, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "html": pa.array([f"<p>{tag}-{i}</p>" for i in range(len(rows))], pa.string()),
    }
    if layout == "composite":
        cols[MERGE_KEY_COL] = pa.array([f"{u}|{g}" for u, g in zip(urls, langs)])
    return pa.table(cols)


def _key_col(layout: str) -> str:
    return MERGE_KEY_COL if layout == "composite" else "url"


def _alias(layout: str) -> str | None:
    return "url" if layout == "aliased" else None


def _per_pid_flush(root, entries, slices, sorted_by, cluster_by, layout) -> pa.Table:
    """The reference: one partition flushed on its own — each entry read
    by itself, then the change slices in unit order, LWW with tombstones
    out, sorted by *sorted_by*, laid out in *cluster_by* order."""
    existing = [
        cast_to_schema(
            read_entry_table(root, e, set(SCHEMA.names), merge_key_alias=_alias(layout)), SCHEMA
        )
        for e in entries
    ]
    new = [cast_to_schema(ensure_merge_key_alias(t, _key_col(layout)), SCHEMA) for t in slices]
    alive, _ = lww_alive(pa.concat_tables(existing + new))
    if sorted_by:
        alive = alive.sort_by([(c, "ascending") for c in sorted_by])
    co = cluster_order(alive, cluster_by) if cluster_by and alive.num_rows else None
    return alive if co is None else alive.take(pa.array(co[0]))


def _routed(unit: pa.Table, layout: str) -> dict[int, pa.Table]:
    """pid -> the unit's rows routed there, in unit order (no pre-combine)."""
    keys = ensure_merge_key_alias(unit, _key_col(layout))[MERGE_KEY_COL]
    pid = partition_ids(keys, P, "polars")
    return {int(p): unit.filter(pa.array(pid == p)) for p in np.unique(pid)}


_row = st.tuples(
    st.integers(0, 11),
    st.integers(1, 5),  # a narrow version range: equal-version ties across units
    st.sampled_from(["I", "U", "U", "D"]),
    st.sampled_from(["en", "de"]),
)
_units = st.lists(st.lists(_row, max_size=8), min_size=1, max_size=3)
_case = st.fixed_dictionaries(
    {
        "layout": st.sampled_from(["aliased", "legacy", "composite"]),
        # earlier cycles, each written by the cow or the mor writer: base
        # files and pending deltas the last (cow) cycle folds
        "history": st.lists(st.tuples(st.sampled_from(["cow", "mor"]), _units), max_size=3),
        "units": _units,
        "sorted_by": st.sampled_from([(), ("lang",), ("html",)]),
        "cluster_by": st.sampled_from([(), ("lang",)]),
        "combine": st.booleans(),
        "cpus": st.sampled_from([1, 2, 4]),
    }
)


@pytest.fixture(scope="module", params=["posix", "mock"])
def lake_base(request, tmp_path_factory):
    base = str(tmp_path_factory.mktemp(f"cow_fold_{request.param}"))
    return base if request.param == "posix" else f"mock://{base}"


@settings(max_examples=40, deadline=None)
@given(case=_case)
def test_fold_equals_the_per_partition_flush(lake_base, case):
    """Every rewritten partition holds its per-partition flush, rows and
    order: tombstones, equal-version ties across units and against the
    current files, base files and pending deltas, aliased, stored and
    composite keys, ``sorted_by`` and ``cluster_by``, one fold task or
    several.  Partitions without changes are not rewritten, and one left
    with no live row leaves the manifest."""
    root = f"{lake_base}/{uuid.uuid4().hex}"
    layout = case["layout"]
    key_col, alias = _key_col(layout), _alias(layout)
    sorted_by = case["sorted_by"]
    cluster_by = parse_partition_exprs(case["cluster_by"])
    writer = ActorMergePool(root, P, hash_algo="polars")
    threshold = 0.0 if case["combine"] else 2.0
    m = Manifest(version=0, watermark=0, num_partitions=P)

    def files():
        return {p: m.partitions.get(p, []) + m.deltas.get(p, []) for p in m.partition_pids()}

    for i, (mode, rows) in enumerate(case["history"]):
        units = [_unit(r, layout) for r in rows]
        if mode == "cow":
            stats = writer.apply_change_batch(
                units, cycle_id=f"h{i}", partition_files=files(), schema=SCHEMA,
                key_col=key_col, sorted_by=sorted_by, cluster_by=cluster_by,
                merge_key_alias=alias,
            )
        else:
            stats = apply_change_batch_direct(
                units, target_root=root, cycle_id=f"h{i}", schema=SCHEMA, num_partitions=P,
                key_col=key_col, hash_algo="polars", merge_key_alias=alias,
            )
        fold_stats_into_manifest(m, stats, f"h{i}")

    before = files()
    units = [_unit(r, layout) for r in case["units"]]
    real = merge_mod.cluster_cpus
    merge_mod.cluster_cpus = lambda: case["cpus"]
    try:
        stats = writer.apply_change_batch(
            units, cycle_id="last", partition_files=before, schema=SCHEMA, key_col=key_col,
            precombine_threshold=threshold, sorted_by=sorted_by, cluster_by=cluster_by,
            merge_key_alias=alias,
        )
    finally:
        merge_mod.cluster_cpus = real
    routed = [_routed(u, layout) for u in units]
    touched = sorted({p for r in routed for p in r})
    assert sorted(int(s[PID_COL]) for s in stats) == touched
    fold_stats_into_manifest(m, stats, "last")
    for pid in range(P):
        if pid not in touched:
            assert files().get(pid, []) == before.get(pid, [])  # not rewritten
            continue
        want = _per_pid_flush(
            root, before.get(pid, []), [r[pid] for r in routed if pid in r],
            sorted_by, cluster_by, layout,
        )
        if want.num_rows == 0:
            assert pid not in m.partitions and pid not in m.deltas
            continue
        assert pid not in m.deltas
        got = pa.concat_tables([
            cast_to_schema(read_entry_table(root, e, set(SCHEMA.names), merge_key_alias=alias),
                           SCHEMA)
            for e in m.partitions[pid]
        ])
        assert got.equals(want), (pid, got.to_pydict(), want.to_pydict())
        if alias is not None:
            stored = lakefs(root).parquet_file(m.partitions[pid][0]).schema_arrow.names
            assert MERGE_KEY_COL not in stored


@pytest.fixture
def monkeypatch_cpus():
    """Set the CPU count the cow writer splits its fold runs by."""
    real = merge_mod.cluster_cpus
    yield lambda n: setattr(merge_mod, "cluster_cpus", lambda: n)
    merge_mod.cluster_cpus = real


def _replay(root: str, cpus: int, monkeypatch_cpus, runs: list) -> dict[int, list[str]]:
    """A cow replay of the small feed with fold runs split for *cpus*
    CPUs; returns each pid's file digests and checks the table."""
    ct, tgt = f"{root}/ctlog", f"{root}/target"
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = StreamContext.from_dict({
        "source": {"ctlog_dir": ct, "key_columns": ["url"]},
        "sink": {"target_root": tgt, "num_partitions": 8, "merge_mode": "cow",
                 "sorted_by": ["url"]},
        "throughput": {"rows_per_group": 300},
    })
    monkeypatch_cpus(cpus)
    real_spread = merge_mod.spread

    def recorded(items, n):
        out = real_spread(items, n)
        runs.append(len(out))
        return out

    merge_mod.spread = recorded
    try:
        StreamRunner(ctx).run()
    finally:
        merge_mod.spread = real_spread
    m = ManifestLog(tgt).latest()
    assert read_target_table(tgt).num_rows == sum(m.lineage[p]["rows"] for p in m.partitions)
    return {
        pid: [hashlib.sha256(lakefs(tgt).read_bytes(f)).hexdigest() for f in fl]
        for pid, fl in m.partitions.items()
    }


def _actors() -> int:
    return len(ray._private.state.actors())


def test_replay_files_do_not_depend_on_the_fold_tasks(tmp_path, monkeypatch_cpus):
    """The same cow feed writes byte-identical partition files with one
    fold task per cycle and with four, and starts no actor."""
    actors = _actors()
    one, four = [], []
    a = _replay(str(tmp_path / "one"), 1, monkeypatch_cpus, one)
    b = _replay(str(tmp_path / "four"), 4, monkeypatch_cpus, four)
    assert set(one) == {1} and set(four) == {4}
    assert a == b and len(a) == 8
    assert _actors() == actors


def test_fold_counts_every_row(tmp_path):
    """A cycle's stats account each arriving row once: routed rows as
    each pid's changes, pre-combined ones as ``combined_away``."""
    units = [_unit([(k % 5, k, "U", "en") for k in range(20)], "aliased") for _ in range(3)]
    writer = ActorMergePool(str(tmp_path), P, hash_algo="polars")
    stats = writer.apply_change_batch(
        units + [_unit([], "aliased")], cycle_id="c", partition_files={}, schema=SCHEMA,
        key_col="url", precombine_threshold=0.0, merge_key_alias="url",
    )
    m = Manifest(version=1, watermark=0, num_partitions=P)
    metrics = fold_stats_into_manifest(m, stats, "c")
    assert metrics["changes_in"] == 60
    assert metrics["precombined_rows"] == 45
    assert sum(m.lineage[p]["rows"] for p in m.partitions) == 5
