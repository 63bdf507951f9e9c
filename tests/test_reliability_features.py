"""Reliability / flow-control features added in round 2:

- F5 query retry policy (exp backoff, modes, message filters)
- F3 memoryBound throughput shaper (poll admission by estimated bytes)
- E1 isUnifiedSchema (bootstrap-only migration, fail on later drift)
- E2 bloom-filter sidecars for point-lookup file skipping
- G3 bounded source buffering knob
- F2 SIGTERM-graceful lifetime (subprocess)
"""

import json
import os
import signal
import subprocess
import sys
import time

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
    lookup_keys,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    CommitConflictError,
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.state.retry import RetryPolicy
from tests.util import assert_tables_equal


def make_ctx(ct, tgt, **overrides):
    spec = {
        "source": {"ctlog_dir": ct, "key_columns": ["url"]},
        "sink": {"target_root": tgt, "num_partitions": 4},
        "throughput": {"rows_per_group": 250},
        "maintenance": {"enabled": False},
    }
    for sec, vals in overrides.items():
        spec.setdefault(sec, {}).update(vals)
    return StreamContext.from_dict(spec)


# ---------------------------------------------------------------------------
# F5 retry policy
# ---------------------------------------------------------------------------
def test_retry_backoff_schedule_and_success():
    calls, sleeps = [], []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("transient fs error")
        return "ok"

    p = RetryPolicy(mode="always", base_duration=0.1, scale_factor=3.0, max_attempts=4)
    assert p.call(flaky, sleep=sleeps.append) == "ok"
    assert len(calls) == 3
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.3)]


def test_retry_exhaustion_raises():
    p = RetryPolicy(mode="always", base_duration=0.0, max_attempts=3)
    calls = []

    def always_fails():
        calls.append(1)
        raise OSError("boom")

    with pytest.raises(OSError):
        p.call(always_fails, sleep=lambda s: None)
    assert len(calls) == 3


def test_retry_message_filter():
    p = RetryPolicy(
        mode="always", base_duration=0.0, max_attempts=3,
        on_message_contents=("No worker nodes available", "Query killed"),
    )
    calls = []

    def fails_nonmatching():
        calls.append(1)
        raise OSError("disk on fire")

    with pytest.raises(OSError):
        p.call(fails_nonmatching, sleep=lambda s: None)
    assert len(calls) == 1  # non-matching message: no retry

    calls.clear()

    def fails_matching():
        calls.append(1)
        if len(calls) < 2:
            raise OSError("Query killed by oom")
        return 7

    assert p.call(fails_matching, sleep=lambda s: None) == 7


def test_retry_mode_gating_and_non_retryable():
    never = RetryPolicy(mode="never")
    assert not never.active() and not never.active(backfill=True)
    bf = RetryPolicy(mode="backfillOnly")
    assert bf.active(backfill=True) and not bf.active(backfill=False)
    always = RetryPolicy(mode="always", base_duration=0.0, max_attempts=5)
    calls = []

    def conflict():
        calls.append(1)
        raise CommitConflictError("v3 already committed")

    with pytest.raises(CommitConflictError):
        always.call(conflict, sleep=lambda s: None)
    assert len(calls) == 1  # control-flow errors never retry
    with pytest.raises(ValueError):
        RetryPolicy(mode="sometimes")


def test_retry_recovers_transient_merge_failure(tmp_lake):
    """Fault injection: the first merge attempt of every cycle fails with
    a transient FS error; with retryMode=always the replay converges."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(ct, tgt, sink={
        "queryRetryMode": "always",
        "queryRetryBaseDuration": 0.01,
        "queryRetryMaxAttempts": 3,
        "queryRetryOnMessageContents": ["transient"],
    })
    r = StreamRunner(ctx)
    real_merge = r._merge
    state = {"cycles": 0, "failed": 0}

    def flaky_merge(units, cycle_id, manifest, schema, transform):
        state["cycles"] += 1
        if state["cycles"] % 2 == 1 and state["failed"] < 2:
            state["failed"] += 1
            raise OSError("transient object-store write failure")
        return real_merge(units, cycle_id, manifest, schema, transform)

    r._merge = flaky_merge
    r.bootstrap()
    while r.run_cycle() is not None:
        pass
    r.close()
    assert state["failed"] == 2
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    assert get_watermark(tgt) == 1000


# ---------------------------------------------------------------------------
# F3 memoryBound shaper
# ---------------------------------------------------------------------------
def test_memory_bound_shaper_bounds_each_poll(tmp_lake):
    """With a byte budget smaller than one segment, every poll admits a
    version sub-range whose estimated bytes fit the budget, and the
    replay still converges to the oracle."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(events_per_file=1000))  # ONE big segment
    prepare_watermark(tgt, version=0, num_partitions=4)
    import pyarrow.parquet as pq

    seg = [f for f in os.listdir(ct) if f.endswith(".parquet")]
    md = pq.ParquetFile(os.path.join(ct, seg[0])).metadata
    seg_bytes = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    budget = seg_bytes // 4
    ctx = make_ctx(
        ct, tgt,
        throughput={"rows_per_group": 10_000, "shaper": "memoryBound",
                    "memoryBudgetBytes": int(budget)},
    )
    r = StreamRunner(ctx)
    r.bootstrap()
    estimates = []
    while True:
        m = r.run_cycle()
        if m is None:
            break
        estimates.append(dict(r.tailer.last_plan_estimate))
    r.close()
    assert len(estimates) >= 3  # budget forced multiple polls
    for e in estimates:
        assert e["budget"] == budget
        assert e["bytes"] <= budget * 1.05
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    assert get_watermark(tgt) == 1000


def test_memory_bound_auto_budget(tmp_lake):
    """Auto budget (fraction of free memory) admits everything for a tiny
    feed — the shaper only bites when data outgrows memory."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(ct, tgt, throughput={"shaper": "memoryBound"})
    r = StreamRunner(ctx)
    r.run()
    assert get_watermark(tgt) == 1000


# ---------------------------------------------------------------------------
# E1 isUnifiedSchema
# ---------------------------------------------------------------------------
def test_unified_schema_fails_on_midstream_drift(tmp_lake):
    from arcane_stream_sqlserver_change_tracking_ray.stages.schema_evo import (
        SchemaMismatchError,
    )

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=600))
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(ct, tgt, sink={"isUnifiedSchema": True})
    r = StreamRunner(ctx)
    with pytest.raises(SchemaMismatchError):
        r.run()
    # the pre-drift cycles committed; the stream stopped AT the drift
    assert 0 < get_watermark(tgt) < 600 + 250


def test_unified_schema_default_migrates_inline(tmp_lake):
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=600))
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(make_ctx(ct, tgt)).run()
    got = read_target_table(tgt)
    assert "title" in got.column_names
    assert get_watermark(tgt) == 1000


# ---------------------------------------------------------------------------
# E2 bloom-filter sidecars
# ---------------------------------------------------------------------------
def test_bloom_sidecar_skips_files_on_lookup(tmp_lake):
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = make_ctx(ct, tgt, sink={"bloomFilterColumns": ["arcane_merge_key"]})
    StreamRunner(ctx).run()
    m = ManifestLog(tgt).latest()
    # sidecars exist next to every PHYSICAL data file (delta entries may
    # carry #rg= fragments under the direct merge strategy)
    files = sorted(m.all_files())
    assert files
    assert all(os.path.exists(os.path.join(tgt, f + ".bloom.npz")) for f in files)
    exp = expected_final_state(ct)
    # probe a COLD key (high key id under the zipf skew): it appears in
    # one or two delta files only, so bloom pruning has files to skip —
    # the hottest key is legitimately present in nearly every file
    url = sorted(exp["url"].to_pylist())[-1]
    stats: dict = {}
    hit = lookup_keys(tgt, [url], stats=stats)
    assert hit.num_rows == 1 and hit["url"][0].as_py() == url
    assert stats.get("files_skipped", 0) > 0, f"no files skipped: {stats}"
    # and identical result without bloom pruning
    no_bloom = lookup_keys(tgt, [url], use_bloom=False)
    assert hit.num_rows == no_bloom.num_rows
    assert sorted(hit.column_names) == sorted(no_bloom.column_names)


def test_bloom_filter_unit():
    import numpy as np
    import pyarrow as pa

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        bloom_may_contain,
        build_bloom,
    )

    present = pa.array([f"https://site{i}.example.com/p/{i}" for i in range(500)])
    absent = pa.array([f"https://other{i}.example.net/q/{i}" for i in range(500)])
    bits = build_bloom(present)
    assert bloom_may_contain(bits, present).all()  # NO false negatives
    fp = bloom_may_contain(bits, absent).mean()
    assert fp < 0.15  # ~6% expected at 10 bits/key, 4 hashes


# ---------------------------------------------------------------------------
# G3 bounded buffering knob
# ---------------------------------------------------------------------------
def test_bounded_buffering_sets_objectstore_cap(tmp_lake):
    from ray.data import DataContext

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    dc = DataContext.get_current()
    old = dc.execution_options.resource_limits
    try:
        ctx = make_ctx(ct, tgt, source={"buffering": "bounded", "maxBufferSize": 5000})
        StreamRunner(ctx).run()
        cap = dc.execution_options.resource_limits.object_store_memory
        assert cap is not None and cap >= 32 << 20
        assert_tables_equal(read_target_table(tgt), expected_final_state(ct))
    finally:
        dc.execution_options.resource_limits = old


# ---------------------------------------------------------------------------
# F2 SIGTERM-graceful lifetime (subprocess)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_sigterm_drains_gracefully(tmp_path):
    ct, tgt = str(tmp_path / "ct"), str(tmp_path / "tgt")
    write_ctlog(ct, CtLogSpec(n_keys=200, n_events=4000, events_per_file=200))
    prepare_watermark(tgt, version=0, num_partitions=4)
    spec = {
        "source": {"ctlogDir": ct, "keyColumns": ["url"],
                   "changeCaptureInterval": 0.3},
        "sink": {"targetRoot": tgt, "numPartitions": 4},
        "throughput": {"rowsPerGroup": 200},
        "maintenance": {"enabled": False},
    }
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, PYTHONPATH="/root/repo", RAY_ADDRESS="local")
    proc = subprocess.Popen(
        [sys.executable, "-m", "arcane_stream_sqlserver_change_tracking_ray",
         "stream", "--spec", spec_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    # wait for the first committed cycle, then signal
    log = ManifestLog(tgt)
    deadline = time.time() + 120
    while time.time() < deadline:
        m = log.latest()
        if m is not None and m.version >= 1:
            break
        time.sleep(0.25)
    else:
        proc.kill()
        pytest.fail("stream never committed a cycle")
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, f"exit {proc.returncode}: {err[-2000:]}"
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["stopped_by_signal"] is True
    assert 0 < payload["cycles"] < 20  # drained early, not a full run
    # graceful drain leaves NOTHING for the startup sweep
    assert log.sweep_uncommitted() == []
    # target is consistent: every referenced file exists
    m = log.latest()
    for rel in m.all_files():
        assert os.path.exists(os.path.join(tgt, rel))


# ---------------------------------------------------------------------------
# config: camelCase round-trip for the new sections
# ---------------------------------------------------------------------------
def test_new_settings_camelcase_roundtrip():
    ctx = StreamContext.from_dict(
        {
            "sink": {
                "targetRoot": "/t",
                "queryRetryMode": "backfillOnly",
                "queryRetryBaseDuration": 0.5,
                "queryRetryScaleFactor": 2.0,
                "queryRetryMaxAttempts": 5,
                "queryRetryOnMessageContents": ["No worker nodes available"],
                "bloomFilterColumns": ["arcane_merge_key"],
                "isUnifiedSchema": True,
                "mergeMode": "cow",
                "durableWrites": False,
            },
            "source": {"buffering": "bounded", "maxBufferSize": 123},
            "throughput": {"shaper": "memoryBound", "memoryBudgetBytes": 77},
        }
    )
    s = ctx.sink
    assert s.query_retry_mode == "backfillOnly"
    assert s.query_retry_base_duration == 0.5
    assert s.query_retry_scale_factor == 2.0
    assert s.query_retry_max_attempts == 5
    assert s.query_retry_on_message_contents == ("No worker nodes available",)
    assert s.bloom_filter_columns == ("arcane_merge_key",)
    assert s.is_unified_schema is True and s.merge_mode == "cow"
    assert s.durable_writes is False
    assert ctx.source.buffering == "bounded" and ctx.source.max_buffer_size == 123
    assert ctx.throughput.shaper == "memoryBound"
    assert ctx.throughput.memory_budget_bytes == 77
