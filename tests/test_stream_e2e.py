"""End-to-end replay scenarios (FIXTURES.md F3 / reference test inventory §5).

Each test runs a REAL pipeline for a few cycles, then reads the target
back and compares against the DuckDB LWW oracle — the reference's
pattern of `readTarget` + sorted row-set compare
(StreamRunner.scala:207,254-258)."""

import logging
import os
import shutil

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
    get_watermark,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    InvalidWatermarkError,
    ManifestLog,
    prepare_watermark,
)
from tests.util import assert_tables_equal


def make_ctx(ct, tgt, **overrides):
    spec = {
        "source": {"ctlog_dir": ct, "key_columns": ["url"]},
        "sink": {"target_root": tgt, "num_partitions": 8},
        "throughput": {"rows_per_group": 300},
        "maintenance": {"batch_threshold": 1000},
    }
    for sec, vals in overrides.items():
        spec.setdefault(sec, {}).update(vals)
    return StreamContext.from_dict(spec)


def test_watermark_gate_negative(tmp_lake):
    """Reference test #1: stream without a prepared watermark must fail."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    with pytest.raises(InvalidWatermarkError, match="Invalid watermark value: 'null'"):
        StreamRunner(make_ctx(ct, tgt)).run()


@pytest.mark.parametrize("merge_mode", ["mor", "cow"], ids=["direct", "actors"])
def test_full_replay_matches_oracle(tmp_lake, merge_mode):
    """Each merge mode's writer (direct per-task deltas for mor, the
    owner-actor pool for cow) must yield the identical oracle state."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    runner = StreamRunner(make_ctx(ct, tgt, sink={"merge_mode": merge_mode}))
    metrics = runner.run()
    assert len(metrics) >= 2  # multiple poll cycles, not one big batch
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    assert get_watermark(tgt) == 1000  # == CHANGE_TRACKING_CURRENT_VERSION()


def test_retired_merge_strategy_key_is_dropped_with_one_warning(tmp_lake, caplog):
    """A spec that still sets a retired writer knob parses: from_dict
    drops it with ONE warning and the stream runs on the mode's writer."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    with caplog.at_level(logging.WARNING, logger="arcane_ray.config"):
        ctx = make_ctx(
            ct, tgt,
            sink={"mergeMode": "cow", "mergeStrategy": "groupby",
                  "merge_actors": 3, "exchangeCompression": "lz4"},
        )
    warned = [r for r in caplog.records if r.name == "arcane_ray.config"]
    assert len(warned) == 1
    msg = warned[0].getMessage()
    assert "mergeStrategy" in msg and "merge_actors" in msg and "exchangeCompression" in msg
    assert not hasattr(ctx.sink, "merge_strategy")
    runner = StreamRunner(ctx)
    runner.bootstrap()
    assert runner.run_cycle() is not None
    assert runner._pool is not None  # the cow writer ran
    lineage = ManifestLog(tgt).latest().lineage
    assert lineage and {e["mode"] for e in lineage.values()} == {"cow"}
    runner.run()
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_retired_advised_burst_key_is_dropped_with_one_warning(tmp_lake, caplog):
    """``throughput.advisedBurst`` is retired the same way: the token
    bucket has no burst, so the key parses, warns once and is dropped;
    the rest of the section stays."""
    ct, tgt, _ = tmp_lake
    with caplog.at_level(logging.WARNING, logger="arcane_ray.config"):
        ctx = make_ctx(ct, tgt, throughput={"advisedRate": 500.0, "advisedBurst": 1000})
    warned = [r for r in caplog.records if r.name == "arcane_ray.config"]
    assert len(warned) == 1 and "advisedBurst" in warned[0].getMessage()
    assert not hasattr(ctx.throughput, "advised_burst")
    assert ctx.throughput.advised_rate == 500.0


def test_byte_identical_text_per_url(tmp_lake):
    """input_hint invariant: extracted text is byte-identical per url."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    StreamRunner(make_ctx(ct, tgt)).run()
    got = read_target_table(tgt)
    exp = expected_final_state(ct)
    g = dict(zip(got["url"].to_pylist(), got["text"].to_pylist()))
    e = dict(zip(exp["url"].to_pylist(), exp["text"].to_pylist()))
    assert g == e
    # and bytes of html too
    gh = dict(zip(got["url"].to_pylist(), got["html"].to_pylist()))
    eh = dict(zip(exp["url"].to_pylist(), exp["html"].to_pylist()))
    assert gh == eh


def test_crash_resume_exactly_once(tmp_lake):
    """F3 #5: kill between staging and commit -> rerun -> identical table."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    r = StreamRunner(make_ctx(ct, tgt))
    r.bootstrap()
    r.run_cycle()  # one committed cycle

    # simulate a crash AFTER the merge wrote files but BEFORE the commit:
    # an uncommitted cycle dir exists, the manifest still points at v-old
    orphan = os.path.join(tgt, "cycles", "000000000099-dead")
    os.makedirs(orphan)
    with open(os.path.join(orphan, "part-00000-x.parquet"), "wb") as f:
        f.write(b"partial")

    r2 = StreamRunner(make_ctx(ct, tgt))
    r2.run()
    assert not os.path.exists(orphan)  # startup sweep removed it
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_replay_idempotent_when_rerun(tmp_lake):
    """Re-running a caught-up stream changes nothing (exactly-once)."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    StreamRunner(make_ctx(ct, tgt)).run()
    v1 = ManifestLog(tgt).latest().version
    t1 = read_target_table(tgt)
    assert StreamRunner(make_ctx(ct, tgt)).run() == []
    assert ManifestLog(tgt).latest().version == v1
    assert_tables_equal(read_target_table(tgt), t1)


def test_hot_key_update_delete_storm(tmp_lake):
    """F3 #6: many U/D versions per hot key within one batch -> LWW winner
    only; tombstones honored across batches.  zipf_a high => few very hot
    keys."""
    ct, tgt, _ = tmp_lake
    spec = CtLogSpec(n_keys=20, n_events=2000, zipf_a=4.0, events_per_file=500)
    write_ctlog(ct, spec)
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt, throughput={"rows_per_group": 500})).run()
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_incremental_arrival(tmp_lake):
    """Segments arriving between runs are picked up from the watermark."""
    ct, tgt, _ = tmp_lake
    stage = ct + "_all"
    write_ctlog(stage, small_spec())
    segs = sorted(os.listdir(stage))
    os.makedirs(ct)
    for s in segs[:2]:
        shutil.copy(os.path.join(stage, s), os.path.join(ct, s))
    prepare_watermark(tgt, version=0, num_partitions=8)
    StreamRunner(make_ctx(ct, tgt)).run()
    wm1 = get_watermark(tgt)
    assert 0 < wm1 < 1000
    for s in segs[2:]:
        shutil.copy(os.path.join(stage, s), os.path.join(ct, s))
    StreamRunner(make_ctx(ct, tgt)).run()
    assert get_watermark(tgt) == 1000
    assert_tables_equal(read_target_table(tgt), expected_final_state(stage))


def test_staging_enabled_parity(tmp_lake):
    """G1: enabling explicit staging yields the identical end state and
    leaves no staging dirs behind (K3 dispose)."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = make_ctx(ct, tgt, staging={"enabled": True, "max_rows_per_file": 100})
    StreamRunner(ctx).run()
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    staging_root = os.path.join(tgt, "staging")
    assert not os.path.isdir(staging_root) or os.listdir(staging_root) == []


def test_staging_orc_format_parity(tmp_lake):
    """CRD stagingDataSettings.format=ORC (…stream.yaml:230-236): the
    ORC staging path (pyarrow.orc per-block writes + distributed ORC
    decode on re-read) yields the identical end state, actually writes
    .orc files, and disposes them after merge; an unknown format
    raises."""
    import glob

    import pytest

    from arcane_stream_sqlserver_change_tracking_ray.stages.staging import (
        stage_change_batch,
    )

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = make_ctx(
        ct, tgt,
        staging={"enabled": True, "max_rows_per_file": 100, "format": "orc"},
    )
    StreamRunner(ctx).run()
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    staging_root = os.path.join(tgt, "staging")
    assert not os.path.isdir(staging_root) or os.listdir(staging_root) == []

    # the writer really produces ORC files (unit-level, no engine)
    import pyarrow as pa
    import ray.data

    staged, token = stage_change_batch(
        ray.data.from_arrow(pa.table({"a": pa.array(range(250), pa.int64())})),
        staging_root, "staging_", "probe", max_rows_per_file=100, fmt="orc",
    )
    got = staged.take_all()
    assert sorted(r["a"] for r in got) == list(range(250))
    assert glob.glob(os.path.join(staging_root, "staging_probe-*", "*.orc"))
    from arcane_stream_sqlserver_change_tracking_ray.stages.staging import (
        dispose_staging,
    )
    dispose_staging(token)
    assert not glob.glob(os.path.join(staging_root, "staging_probe-*"))

    with pytest.raises(NotImplementedError, match="protobuf"):
        stage_change_batch(
            ray.data.from_arrow(pa.table({"a": pa.array([1], pa.int64())})),
            staging_root, "staging_", "probe2", fmt="protobuf",
        )


def test_staging_avro_format_parity(tmp_lake):
    """CRD stagingDataSettings.format=AVRO (…stream.yaml:230-236): the
    AVRO staging path (polars Avro per-block writes + distributed decode
    on re-read, large_* types cast back to the parquet path's widths)
    yields the identical end state, actually writes .avro files, and
    disposes them after merge."""
    import glob

    from arcane_stream_sqlserver_change_tracking_ray.stages.staging import (
        stage_change_batch,
    )

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = make_ctx(
        ct, tgt,
        staging={"enabled": True, "max_rows_per_file": 100, "format": "avro"},
    )
    StreamRunner(ctx).run()
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    staging_root = os.path.join(tgt, "staging")
    assert not os.path.isdir(staging_root) or os.listdir(staging_root) == []

    # the writer really produces Avro files and the re-read casts the
    # decoded large_string back to string (one schema either path)
    import pyarrow as pa
    import ray.data

    staged, token = stage_change_batch(
        ray.data.from_arrow(
            pa.table({"a": pa.array([str(i) for i in range(250)], pa.string())})
        ),
        staging_root, "staging_", "probe", max_rows_per_file=100, fmt="avro",
    )
    assert staged.schema().base_schema.field("a").type == pa.string()
    got = staged.take_all()
    assert sorted(int(r["a"]) for r in got) == list(range(250))
    assert glob.glob(os.path.join(staging_root, "staging_probe-*", "*.avro"))
    from arcane_stream_sqlserver_change_tracking_ray.stages.staging import (
        dispose_staging,
    )
    dispose_staging(token)
    assert not glob.glob(os.path.join(staging_root, "staging_probe-*"))


def test_field_selection_pushdown(tmp_lake):
    """T1 server-side include-rule: only selected + essential columns land
    in the target."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=8)
    ctx = make_ctx(
        ct, tgt,
        field_selection={"rule": "include", "fields": ["text", "lang"], "is_server_side": True},
    )
    StreamRunner(ctx).run()
    got = read_target_table(tgt, drop_meta=False)
    # key column (url) is essential and survives the include rule; the
    # merge key is persisted as its alias (CRD ...:432 — mandatory fields
    # like ARCANE_MERGE_KEY are always retained)
    assert set(got.column_names) == {
        "sys_change_version", "sys_change_operation", "arcane_merge_key",
        "url", "text", "lang",
    }
    assert got["arcane_merge_key"].to_pylist() == got["url"].to_pylist()
    # row set still matches the oracle projected to those columns
    exp = expected_final_state(ct).select(["sys_change_version", "url", "text", "lang"])
    assert_tables_equal(got.select(exp.column_names), exp)
