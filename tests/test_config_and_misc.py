"""Config env contract (S3), throughput shaping (F3), maintenance (K4),
CLI entry — the remaining SURVEY §2 operators."""

import json
import os
import subprocess
import sys
import time

import pytest

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import small_spec, write_ctlog
from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import ChangeFeedTailer
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)


# ---------------------------------------------------------------- config S3
def test_stream_context_from_env():
    """Reference env contract: STREAMCONTEXT__SPEC json + BACKFILL flags
    (dev.env.example:39; StreamRunner.scala:209-210)."""
    spec = {
        "source": {"ctlog_dir": "/x", "key_columns": ["url"]},
        "sink": {"target_root": "/y", "num_partitions": 4},
        "throughput": {"rows_per_group": 123},
    }
    env = {
        "STREAMCONTEXT__SPEC": json.dumps(spec),
        "STREAMCONTEXT__BACKFILL": "true",
        "STREAMCONTEXT__BACKFILL_ID": "bf-7",
    }
    ctx = StreamContext.from_env(env)
    assert ctx.source.ctlog_dir == "/x"
    assert ctx.throughput.rows_per_group == 123
    assert ctx.stream_mode.backfill is True
    assert ctx.stream_mode.backfill_id == "bf-7"


def test_observability_log_level_is_checked_and_applied(tmp_path):
    """``observability.log_level`` names a ``logging`` level (any case;
    an unknown name fails the parse) and ``StreamRunner`` sets it on the
    engine's ``arcane_ray`` loggers."""
    import logging

    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import StreamRunner

    with pytest.raises(ValueError, match="log_level"):
        StreamContext.from_dict({"observability": {"logLevel": "LOUD"}})

    def ctx(level: str) -> StreamContext:
        return StreamContext.from_dict({
            "sink": {"target_root": str(tmp_path / "tgt")},
            "observability": {"logLevel": level},
        })

    assert ctx("warning").observability.log_level == "WARNING"
    engine, runner_log = logging.getLogger("arcane_ray"), logging.getLogger("arcane_ray.runner")
    was = engine.level
    try:
        StreamRunner(ctx("warning")).close()
        assert engine.level == logging.WARNING
        assert not runner_log.isEnabledFor(logging.INFO)
        StreamRunner(ctx("DEBUG")).close()
        assert runner_log.isEnabledFor(logging.DEBUG)
    finally:
        engine.setLevel(was)


def test_stream_context_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown SourceSettings setting"):
        StreamContext.from_dict({"source": {"nope": 1}})


def test_stream_context_merge_override():
    ctx = StreamContext.from_dict({"sink": {"target_root": "/a", "num_partitions": 4}})
    merged = ctx.merge({"sink": {"num_partitions": 8}, "throughput": {"rows_per_group": 9}})
    assert merged.sink.target_root == "/a"
    assert merged.sink.num_partitions == 8
    assert merged.throughput.rows_per_group == 9


# ---------------------------------------------------------- throughput F3
def test_tailer_token_bucket_throttles(tmp_path):
    """advisedRate parity: polling N versions at rate R takes >= N/R s."""
    d = str(tmp_path / "ct")
    write_ctlog(d, small_spec())  # 1000 events
    t = ChangeFeedTailer(d, 0, rows_per_poll=200, advised_rate=2000.0)
    t0 = time.monotonic()
    polls = 0
    while (p := t.plan()) is not None:
        t._throttle(p[1] - t.watermark)
        t.advance(p[1])
        polls += 1
    elapsed = time.monotonic() - t0
    # 1000 versions at 2000/s -> >= ~0.4s (first poll unthrottled)
    assert polls == 5
    assert elapsed >= 0.35


# ---------------------------------------------------------- maintenance K4
def test_run_maintenance_compacts_and_analyzes(tmp_lake):
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
        StreamRunner,
        read_target_table,
    )
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        run_maintenance,
    )
    from tests.util import assert_tables_equal
    from arcane_stream_sqlserver_change_tracking_ray.gen import expected_final_state

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, 0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            # max_rows_per_file=10 forces several small files per partition
            # (copy-on-write otherwise rewrites each partition into few
            # target-size files every cycle, so small files never pile up)
            "sink": {"target_root": tgt, "num_partitions": 4, "max_rows_per_file": 10},
            "throughput": {"rows_per_group": 200},
            "maintenance": {
                "enabled": False,  # run it explicitly below
                "max_files_per_partition": 1,
                "retention_versions": 2,
                "analyze_included_columns": ["url", "lang"],
                "compact_target_rows": 100_000,
            },
        }
    )
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    before = read_target_table(tgt)
    out = run_maintenance(log, ctx)
    assert out["optimize"]["compacted_partitions"] >= 1
    assert out["expired_versions"] >= 1
    # content identical after compaction; stats recorded; counter reset
    assert_tables_equal(read_target_table(tgt), before)
    m = log.latest()
    assert m.counters["batches_since_maintenance"] == 0
    assert "url" in m.stats and m.stats["url"]["count"] == before.num_rows
    # every file on disk is referenced by SOME retained manifest version
    # (expired versions' exclusive files were deleted; retained older
    # snapshots legitimately keep theirs — time travel within retention)
    retained = {
        os.path.join(tgt, f)
        for v in log.versions()
        for f in log.read(v).all_files()
    }
    on_disk = {
        os.path.join(dp, f)
        for dp, _, fs in os.walk(os.path.join(tgt, "cycles"))
        for f in fs
    }
    assert on_disk <= retained


# ------------------------------------------------------------------- CLI F1
def test_cli_prepare_watermark_and_stream(tmp_path):
    """The `just stream` analog end-to-end through the module CLI."""
    ct = str(tmp_path / "ct")
    tgt = str(tmp_path / "tgt")
    write_ctlog(ct, small_spec())
    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray",
         "prepare-watermark", "--target", tgt, "--partitions", "4"],
        capture_output=True, text=True, cwd="/root/repo", env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["watermark"] == 0

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "source": {"ctlog_dir": ct, "key_columns": ["url"]},
        "sink": {"target_root": tgt, "num_partitions": 4},
        "throughput": {"rows_per_group": 500},
    }))
    r = subprocess.run(
        [sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray",
         "stream", "--spec", str(spec)],
        capture_output=True, text=True, cwd="/root/repo", env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["cycles"] >= 1
    assert ManifestLog(tgt).latest().watermark == 1000

def test_camelcase_spec_keys_accepted():
    """The reference's camelCase spec keys port without renaming."""
    ctx = StreamContext.from_dict(
        {
            "streamMode": {"backfill": True, "backfillBehavior": "merge"},
            "throughput": {"rowsPerGroup": 777, "groupingIntervalSeconds": 5},
            "source": {"changeCaptureInterval": 30, "fetchSize": 256,
                       "keyColumns": ["url"]},
        }
    )
    assert ctx.stream_mode.backfill and ctx.stream_mode.backfill_behavior == "merge"
    assert ctx.throughput.rows_per_group == 777
    assert ctx.source.change_capture_interval == 30
    assert ctx.source.fetch_size == 256


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown StreamContext section"):
        StreamContext.from_dict({"sinks": {}})


def test_merge_override_camelcase_section():
    """Section-key spelling must not decide whether merge() merges or
    replaces: a camelCase override updates the section in place."""
    ctx = StreamContext.from_dict(
        {"stream_mode": {"backfill": True, "backfill_behavior": "merge"}}
    )
    merged = ctx.merge({"streamMode": {"backfillId": "x"}})
    assert merged.stream_mode.backfill is True
    assert merged.stream_mode.backfill_behavior == "merge"
    assert merged.stream_mode.backfill_id == "x"


def test_sweep_preserves_inflight_backfill_shards(tmp_path):
    """A streaming bootstrap between backfill attempts must not delete
    completed shard output the resumed backfill will commit."""
    import json as _json

    root = str(tmp_path / "t")
    prepare_watermark(root, 0, num_partitions=2)
    shard_dir = os.path.join(root, "cycles", "backfill-bf1-s0000")
    os.makedirs(shard_dir)
    open(os.path.join(shard_dir, "part-00000-x.parquet"), "w").write("d")
    orphan = os.path.join(root, "cycles", "orphan")
    os.makedirs(orphan)
    os.makedirs(os.path.join(root, "_backfill"))
    with open(os.path.join(root, "_backfill", "bf1.json"), "w") as f:
        _json.dump(
            {"shards": {"0": {"0": ["cycles/backfill-bf1-s0000/part-00000-x.parquet"]}},
             "at_version": 5},
            f,
        )
    removed = ManifestLog(root).sweep_uncommitted()
    assert "cycles/orphan" in removed
    assert os.path.exists(os.path.join(shard_dir, "part-00000-x.parquet"))


def test_cli_maintenance_ignores_env_backfill_flag(tmp_path):
    """maintenance subcommand must not be hijacked into a backfill by a
    leftover STREAMCONTEXT__BACKFILL=true in the environment."""
    ct = str(tmp_path / "ct")
    tgt = str(tmp_path / "tgt")
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, 0, num_partitions=2)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "source": {"ctlog_dir": ct, "key_columns": ["url"], "snapshot_dir": ct},
        "sink": {"target_root": tgt, "num_partitions": 2},
    }))
    env = dict(os.environ, RAY_ADDRESS="local", STREAMCONTEXT__BACKFILL="true")
    r = subprocess.run(
        [sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray",
         "maintenance", "--spec", str(spec)],
        capture_output=True, text=True, cwd="/root/repo", env=env, timeout=180,
    )
    assert r.returncode == 0, r.stderr[-800:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert "optimize" in out  # maintenance ran, not a backfill
