"""E1 schema-evolution scenarios (reference SchemaMigrationTests.scala).

F3 #3: a column (`title`) appears mid-stream -> pre-evolution rows read
NULL.  F3 #4: the column disappears from the feed -> the target RETAINS
it and post-drop rows read NULL (additive-only, never destructive)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import (
    CtLogSpec,
    expected_final_state,
    small_spec,
    write_ctlog,
)
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    read_target,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.schema_evo import (
    unify_target_schema,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)
from tests.util import assert_tables_equal


def make_ctx(ct, tgt):
    return StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 250},
        }
    )


# ------------------------------------------------------------------ unit
def test_unify_adds_new_columns():
    a = pa.schema([("x", pa.int64())])
    b = pa.schema([("x", pa.int64()), ("y", pa.string())])
    u, migrated = unify_target_schema(a, b)
    assert [f.name for f in u] == ["x", "y"] and migrated


def test_unify_retains_dropped_columns():
    a = pa.schema([("x", pa.int64()), ("y", pa.string())])
    b = pa.schema([("x", pa.int64())])
    u, migrated = unify_target_schema(a, b)
    assert [f.name for f in u] == ["x", "y"] and not migrated


def test_unify_widens():
    a = pa.schema([("x", pa.int32()), ("s", pa.string())])
    b = pa.schema([("x", pa.int64()), ("s", pa.large_string())])
    u, migrated = unify_target_schema(a, b)
    assert u.field("x").type == pa.int64()
    assert u.field("s").type == pa.large_string()
    assert migrated


def test_unify_never_narrows():
    a = pa.schema([("x", pa.int64())])
    b = pa.schema([("x", pa.int32())])
    u, migrated = unify_target_schema(a, b)
    assert u.field("x").type == pa.int64() and not migrated


def test_unify_incompatible_raises():
    a = pa.schema([("x", pa.int64())])
    b = pa.schema([("x", pa.timestamp("us"))])
    with pytest.raises(TypeError, match="incompatible"):
        unify_target_schema(a, b)


# ------------------------------------------------------------------- e2e
def test_add_column_mid_stream(tmp_lake):
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=500))
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt)).run()
    got = read_target_table(tgt)
    assert "title" in got.column_names
    assert_tables_equal(got, expected_final_state(ct))
    # rows whose last event predates the evolution read NULL title
    import pandas as pd

    df = got.to_pandas()
    pre = df[df.sys_change_version < 500]
    post = df[df.sys_change_version >= 500]
    assert pre["title"].isna().all()
    assert post["title"].notna().all()
    assert len(pre) > 0 and len(post) > 0


def test_no_delta_read_after_migration_reads_missing_column_as_nulls(tmp_lake):
    """A CoW table whose last, small cycle adds ``title`` keeps the base
    files of the partitions it did not touch without the column.  The
    no-delta ``read_target`` reads them against the manifest schema:
    ``title`` is null there, in the manifest's type and position."""
    import pyarrow.parquet as pq

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=996))
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = make_ctx(ct, tgt)
    ctx.sink.num_partitions = 8
    ctx.sink.merge_mode = "cow"
    ctx.throughput.rows_per_group = 995  # the migrating cycle is 5 events
    StreamRunner(ctx).run()
    m = ManifestLog(tgt).latest()
    assert not any(m.deltas.values())
    lacking = [f for f in m.all_files() if "title" not in pq.read_schema(f"{tgt}/{f}").names]
    assert 0 < len(lacking) < len(m.all_files())
    batches = read_target(tgt).iter_batches(batch_format="pyarrow", batch_size=None)
    got = pa.concat_tables(list(batches))
    assert got.schema.names == m.schema.names
    assert got.schema.field("title").type == m.schema.field("title").type
    old = got.filter(pc.less(got[VERSION_COL], 996))
    assert old.num_rows > 0 and old["title"].null_count == old.num_rows
    assert_tables_equal(got.drop_columns([OP_COL, MERGE_KEY_COL]), expected_final_state(ct))


def test_schema_drift_every_cycle(tmp_lake):
    """20 consecutive additive migrations in one stream: a new column
    appears every cycle (drift_every == rows_per_group), so EVERY cycle
    commit carries a schema migration.  The unified target must hold all
    20 extras with NULLs exactly where a row's last event predates the
    column (reference SchemaMigrationTests.scala does one add; the CRD's
    isUnifiedSchema contract has to hold under repeated drift too)."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(n_events=2000, drift_every=100))
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 100},
        }
    )
    StreamRunner(ctx).run()
    got = read_target_table(tgt)
    extras = sorted(c for c in got.column_names if c.startswith("extra"))
    assert extras == [f"extra{k:02d}" for k in range(1, 21)]
    assert_tables_equal(got, expected_final_state(ct))


def test_schema_drift_kill_storm(tmp_path):
    """VERDICT r4 task 8: drift the schema every cycle for 20 cycles
    UNDER the kill-storm harness — repeated additive evolution, the
    conditional-PUT CAS commit (mock:// target) and the startup orphan
    sweep all interacting.  Three SIGKILLs land at different schema
    stages; the final clean run must converge byte-identical to the
    DuckDB LWW oracle over the heterogeneous-schema log."""
    import json
    import subprocess
    import sys
    import time

    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        get_watermark,
    )

    ct = str(tmp_path / "ct")
    tgt = f"mock://{tmp_path}/tgt"
    write_ctlog(
        ct,
        CtLogSpec(n_keys=400, n_events=4000, events_per_file=200, drift_every=200),
    )
    prepare_watermark(tgt, 0, num_partitions=4)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "source": {"ctlog_dir": ct, "key_columns": ["url"]},
                "sink": {"target_root": tgt, "num_partitions": 4},
                "throughput": {"rows_per_group": 200},
                "maintenance": {"enabled": True, "batch_threshold": 6},
            }
        )
    )
    cmd = [
        sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray",
        "stream", "--spec", str(spec),
    ]
    import os

    env = dict(os.environ, RAY_ADDRESS="local")
    kills = 0
    # kill once the watermark crosses successive thresholds so each kill
    # lands in a different schema era (5, 10, 15 migrations in)
    for threshold in (1000, 2000, 3000):
        if get_watermark(tgt) >= threshold:
            continue  # a prior run already got past this era
        p = subprocess.Popen(cmd, cwd="/root/repo", env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            try:
                wm = get_watermark(tgt)
            except Exception:
                wm = 0
            if wm >= threshold or p.poll() is not None:
                break
            time.sleep(0.05)
        if p.poll() is None:
            p.kill()
            kills += 1
        p.wait()
    # final clean run: sweep orphans, finish the remaining migrations
    r = subprocess.run(cmd, cwd="/root/repo", env=env, capture_output=True,
                       text=True, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    assert get_watermark(tgt) == 4000
    got = read_target_table(tgt)
    extras = sorted(c for c in got.column_names if c.startswith("extra"))
    assert extras == [f"extra{k:02d}" for k in range(1, 21)]
    assert_tables_equal(got, expected_final_state(ct))
    assert kills >= 1  # the storm actually stormed


def test_drop_column_mid_stream_retained(tmp_lake):
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=300, drop_column_at=700))
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt)).run()
    got = read_target_table(tgt)
    # target RETAINS the dropped column (additive-only)
    assert "title" in got.column_names
    assert_tables_equal(got, expected_final_state(ct))
    df = got.to_pandas()
    in_window = df[(df.sys_change_version >= 300) & (df.sys_change_version < 700)]
    outside = df[(df.sys_change_version < 300) | (df.sys_change_version >= 700)]
    assert in_window["title"].notna().all()
    assert outside["title"].isna().all()
