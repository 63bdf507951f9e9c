"""S2/G2/M4 backfill scenarios + the reference's golden
stream -> backfill -> stream end-state test (F3 #2)."""

import json
import os
import shutil

import pytest

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import (
    expected_final_state,
    small_spec,
    write_ctlog,
    write_snapshot,
)
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    get_watermark,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from tests.util import assert_tables_equal


def make_ctx(ct, tgt, snap, **overrides):
    spec = {
        "source": {"ctlog_dir": ct, "snapshot_dir": snap, "key_columns": ["url"]},
        "sink": {"target_root": tgt, "num_partitions": 4},
        "throughput": {"rows_per_group": 300},
        "stream_mode": {"backfill": True, "backfill_id": "t1"},
    }
    for sec, vals in overrides.items():
        spec.setdefault(sec, {}).update(vals)
    return StreamContext.from_dict(spec)


def test_backfill_overwrite(tmp_lake):
    ct, tgt, snap = tmp_lake
    write_ctlog(ct, small_spec())
    write_snapshot(ct, snap, at_version=1000)
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt, snap)).run_backfill()
    got = read_target_table(tgt)
    exp = expected_final_state(ct)
    # overwrite stamps every row with the backfill version, not per-event ones
    assert set(got["sys_change_version"].to_pylist()) == {1000}
    assert_tables_equal(
        got.drop_columns(["sys_change_version"]),
        exp.drop_columns(["sys_change_version"]),
    )
    assert get_watermark(tgt) == 1000


def test_backfill_merge(tmp_lake):
    """Merge behavior: snapshot rows merged into a target that already has
    newer streamed rows — existing newer versions win."""
    ct, tgt, snap = tmp_lake
    write_ctlog(ct, small_spec())
    # stream everything first
    stream_ctx = make_ctx(ct, tgt, snap, stream_mode={"backfill": False})
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(stream_ctx).run()
    before = read_target_table(tgt)
    # snapshot taken at v600, then merge-backfilled in
    write_snapshot(ct, snap, at_version=600)
    ctx = make_ctx(ct, tgt, snap, stream_mode={"backfill": True, "backfill_behavior": "merge"})
    StreamRunner(ctx).run_backfill()
    after = read_target_table(tgt)
    # rows deleted after v600 are resurrected by the snapshot merge, then
    # re-deleted by the convergence replay of (600, 1000]; untouched rows
    # may carry the snapshot stamp (600) instead of their original event
    # version, but the payload row set must be identical
    assert_tables_equal(
        after.drop_columns(["sys_change_version"]),
        before.drop_columns(["sys_change_version"]),
        sort_by="url",
    )
    assert get_watermark(tgt) == 1000


def test_backfill_shard_restart_skips_completed(tmp_lake):
    """G2: a restarted backfill skips finished shards (state file)."""
    ct, tgt, snap = tmp_lake
    write_ctlog(ct, small_spec())
    paths = write_snapshot(ct, snap, at_version=1000, num_files=3)
    assert len(paths) == 3
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(ct, tgt, snap)
    r = StreamRunner(ctx)
    # pre-plant a completed-shard state file claiming shard 0 done with no
    # files: if the restart re-ran shard 0, its rows would appear
    state_dir = os.path.join(tgt, "_backfill")
    os.makedirs(state_dir)
    with open(os.path.join(state_dir, "t1.json"), "w") as f:
        json.dump({"shards": {"0": {}}, "at_version": 1000}, f)
    r.run_backfill()
    assert not os.path.exists(os.path.join(state_dir, "t1.json"))
    got = read_target_table(tgt)
    exp = expected_final_state(ct)
    # shards 1+2 processed, shard 0 skipped -> exactly the oracle minus
    # shard 0's key range
    import pyarrow.parquet as pq

    shard0_urls = set(pq.read_table(paths[0], columns=["url"])["url"].to_pylist())
    assert set(got["url"].to_pylist()) == set(exp["url"].to_pylist()) - shard0_urls
    assert 0 < got.num_rows < exp.num_rows


def test_backfill_multi_shard_complete(tmp_lake):
    """A 3-shard overwrite backfill converges to the full oracle."""
    ct, tgt, snap = tmp_lake
    write_ctlog(ct, small_spec())
    write_snapshot(ct, snap, at_version=1000, num_files=3)
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt, snap)).run_backfill()
    got = read_target_table(tgt).drop_columns(["sys_change_version"])
    exp = expected_final_state(ct).drop_columns(["sys_change_version"])
    assert_tables_equal(got, exp)
    assert get_watermark(tgt) == 1000


def test_golden_stream_backfill_stream(tmp_lake):
    """Reference test #2 transliteration (StreamRunner.scala:186-259):
    stream some inserts; backfill (Overwrite) from a snapshot taken
    mid-log; resume streaming updates + deletes; the final table equals
    exactly the LWW oracle over the whole log and the watermark equals
    the source's current version."""
    ct, tgt, snap = tmp_lake
    stage = ct + "_all"
    write_ctlog(stage, small_spec())
    segs = sorted(os.listdir(stage))
    os.makedirs(ct)

    # phase 1: stream the first quarter of the feed
    shutil.copy(os.path.join(stage, segs[0]), os.path.join(ct, segs[0]))
    prepare_watermark(tgt, version=0, num_partitions=4)
    stream_ctx = make_ctx(ct, tgt, snap, stream_mode={"backfill": False})
    StreamRunner(stream_ctx).run()
    assert get_watermark(tgt) == 200

    # phase 2: source keeps changing (segments 2-3 arrive); backfill from a
    # snapshot of the source state at v600
    for s in segs[1:3]:
        shutil.copy(os.path.join(stage, s), os.path.join(ct, s))
    write_snapshot(stage, snap, at_version=600)
    bf_ctx = make_ctx(ct, tgt, snap, stream_mode={"backfill": True, "backfill_id": "g1"})
    StreamRunner(bf_ctx).run_backfill()
    assert get_watermark(tgt) == 600
    got = read_target_table(tgt).drop_columns(["sys_change_version"])
    exp = expected_final_state(stage, upto_version=600).drop_columns(["sys_change_version"])
    assert_tables_equal(got, exp)

    # phase 3: resume streaming the rest (updates + deletes)
    for s in segs[3:]:
        shutil.copy(os.path.join(stage, s), os.path.join(ct, s))
    StreamRunner(stream_ctx).run()
    assert get_watermark(tgt) == 1000
    got = read_target_table(tgt)
    exp = expected_final_state(stage)
    # post-backfill rows keep the backfill version stamp unless re-touched;
    # compare payload identity (row set per url) + updated values
    assert_tables_equal(
        got.drop_columns(["sys_change_version"]),
        exp.drop_columns(["sys_change_version"]),
    )
    log = ManifestLog(tgt)
    assert log.latest().watermark == 1000


@pytest.mark.parametrize("backend", ["posix", "mock"])
def test_backfill_overwrite_validate_disjoint(tmp_lake, backend):
    """Opt-in shard-disjointness gate: clean shards pass; a snapshot with
    the same key in two shards fails BEFORE the flip commits (target
    keeps its previous state).  Runs on both lake backends."""
    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        ShardOverlapError,
    )

    ct, tgt, snap = tmp_lake
    if backend == "mock":
        tgt = f"mock://{tgt}"
    write_ctlog(ct, small_spec())
    paths = write_snapshot(ct, snap, at_version=1000, num_files=3)
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(
        ct, tgt, snap, stream_mode={"backfillValidateDisjoint": True}
    )
    StreamRunner(ctx).run_backfill()  # disjoint: passes
    assert get_watermark(tgt) == 1000

    # corrupt the contract: copy one row of shard 0 into shard 1
    t0 = pq.read_table(paths[0])
    t1 = pq.read_table(paths[1])
    import pyarrow as pa

    pq.write_table(pa.concat_tables([t1, t0.slice(0, 1)]), paths[1])
    lakefs(tgt).delete_dir("_backfill")
    ctx2 = make_ctx(
        ct,
        tgt,
        snap,
        stream_mode={"backfillValidateDisjoint": True, "backfillId": "t2"},
    )
    before = read_target_table(tgt)
    with pytest.raises(ShardOverlapError, match="not key-disjoint"):
        StreamRunner(ctx2).run_backfill()
    # the flip never committed: table state unchanged
    assert_tables_equal(read_target_table(tgt), before, sort_by="url")
