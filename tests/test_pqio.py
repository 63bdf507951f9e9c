"""pqio read units: planned from footers, read against the unified
schema like ``ray.data.read_parquet``, planning launches no task, and a
cycle runs one plain Ray task per unit (no Ray Data executor).  Table
reads plan their units from the manifest, and every partition fan-out
runs at most one task per CPU."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import (
    expected_final_state,
    small_spec,
    write_ctlog,
)
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    read_change_feed,
    read_target,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.pqio import plan_units, spread
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from tests.util import assert_tables_equal


def _drifting_files(d) -> list[str]:
    """Three segments of four row groups; the third gains a column
    (additive migration)."""
    paths = []
    for i in range(3):
        n = 500
        cols = {
            "k": [f"k{(i * n + j) % 97}" for j in range(n)],
            "v": pa.array(range(i * n, (i + 1) * n), pa.int64()),
            "x": pa.array([float(j) for j in range(n)]),
        }
        if i == 2:
            cols["title"] = [f"t{j}" for j in range(n)]
        path = os.path.join(d, f"seg{i}.parquet")
        pq.write_table(pa.table(cols), path, row_group_size=128)
        paths.append(path)
    return paths


def _table(ds) -> pa.Table:
    # read_parquet's blocks keep each file's own columns: promote them
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches, promote_options="default").sort_by(
        [("v", "ascending")]
    )


def _read_units(units) -> pa.Table:
    return pa.concat_tables([u.read() for u in units]).sort_by([("v", "ascending")])


@pytest.mark.parametrize("columns", [None, ["v", "k", "title"]], ids=["all", "projected"])
def test_fast_path_matches_read_parquet_under_drift(tmp_path, columns):
    """A read planned into row-group runs that cross files reads as
    ``read_parquet`` does with the unified schema: the segments before
    the migration hold nulls in the new column, projected or not.
    (``read_parquet`` itself raises on a projected column missing from
    the first file, so the expected table projects after reading.)"""
    paths = _drifting_files(str(tmp_path))
    flt = (pc.field("v") > 250) & (pc.field("v") <= 1300)
    units = plan_units(paths, columns=columns, filter=flt, min_rows=200, target_units=5)
    assert len(units) >= 4  # more units than files: row-group runs
    assert any(rgs is not None for u in units for _, rgs in u.pieces)
    assert any(len(u.pieces) > 1 for u in units)  # a run crosses a file boundary
    assert sum(u.rows for u in units) == 1500
    got = _read_units(units)
    want = _table(ray.data.read_parquet(paths, filter=flt))
    if columns is not None:
        want = want.select(columns)
    assert got.equals(want)
    assert got.num_rows == 1050
    assert got.filter(pc.field("v") < 1000)["title"].null_count == 749
    assert got.column_names == (columns or ["k", "v", "x", "title"])


def test_whole_files_share_a_unit_up_to_min_rows(tmp_path):
    """Whole files bundle until a unit reaches min_rows (the last may be
    shorter); no split while that already gives target_units units, and
    split runs never fall below min_rows."""
    paths = _drifting_files(str(tmp_path))
    units = plan_units(paths, min_rows=800)
    assert [u.paths for u in units] == [paths[:2], paths[2:]]
    assert all(rgs is None for u in units for _, rgs in u.pieces)
    assert len(plan_units(paths, min_rows=500, target_units=3)) == 3
    # 1500 rows at min_rows=300 allow 5 units, however many CPUs; runs
    # close at >= 300 rows, so 4 of them
    split = plan_units(paths, min_rows=300, target_units=8)
    assert [u.rows for u in split] == [384, 372, 372, 372]
    assert sum(_read_units([u]).num_rows for u in split) == 1500


def test_planning_a_poll_launches_no_task(tmp_path, monkeypatch):
    """A poll reads footers only, even when it splits segments into
    row-group runs: no remote function runs until a writer reads the
    units."""
    from ray.remote_function import RemoteFunction

    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import ChangeFeedTailer

    d = str(tmp_path / "ct")
    write_ctlog(d, small_spec(row_group_size=50))
    launched = []
    real = RemoteFunction._remote

    def spy(self, *a, **kw):
        launched.append(self._function_name)
        return real(self, *a, **kw)

    monkeypatch.setattr(RemoteFunction, "_remote", spy)
    t = ChangeFeedTailer(d, 10, rows_per_poll=10**6, fetch_size=150)
    t.target_units = 8
    units, hi = t.poll()
    assert launched == []
    assert len(units) == 6 and hi == 1000
    assert sum(u.read().num_rows for u in units) == 990  # and they still read


def test_mor_cycle_writes_one_delta_per_large_segment(tmp_lake):
    """A poll of 3 segments of >= 65,536 rows each (fetch_size) fuses
    read, transform and delta write into one task per segment: 3 delta
    files, and the table matches the oracle."""
    ct, tgt, _ = tmp_lake
    n = 3 * 65536
    write_ctlog(ct, small_spec(n_events=n, n_keys=n // 4, events_per_file=65536))
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": n},
        }
    )
    r = StreamRunner(ctx)
    r.bootstrap()
    metrics = r.run_cycle()
    assert r.run_cycle() is None  # one poll took every segment
    r.close()
    assert metrics["versions"] == [1, n]
    m = ManifestLog(tgt).latest()
    files = {e.partition("#rg=")[0] for fl in m.deltas.values() for e in fl}
    assert len(files) == 3
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


# ---------------------------------------------------------------------------
# the tailer drops the version filter only when the footers prove it
# ---------------------------------------------------------------------------
def _poll_rows(tailer):
    """``(read filter, per-unit footer row counts, rows sorted by version)``
    of one poll."""
    from arcane_stream_sqlserver_change_tracking_ray.types import VERSION_COL

    units, hi = tailer.poll()
    flt = units[0].filter
    assert all(u.filter is flt for u in units)  # one filter for the whole poll
    counts = [u.rows for u in units]
    rows = pa.concat_tables([u.read() for u in units]).sort_by(
        [(VERSION_COL, "ascending")]
    )
    return flt, counts, rows, hi


def _filtered_read(paths, lo, hi) -> pa.Table:
    from arcane_stream_sqlserver_change_tracking_ray.types import VERSION_COL

    v = pc.field(VERSION_COL)
    return pq.read_table(paths, filters=(v > lo) & (v <= hi)).sort_by(
        [(VERSION_COL, "ascending")]
    )


@pytest.mark.parametrize("watermark", [0, 200])
def test_poll_inside_the_range_reads_without_filter(tmp_path, watermark):
    """Segments whose footers put every version in (watermark, hi] are
    read with no filter: the same rows as the filtered read, and footer
    row counts that are exact."""
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
        ChangeFeedTailer,
        list_segments,
    )

    d = str(tmp_path / "ct")
    write_ctlog(d, small_spec())
    t = ChangeFeedTailer(d, watermark, rows_per_poll=10**6)
    flt, counts, rows, hi = _poll_rows(t)
    assert flt is None and hi == 1000
    paths = [p for _, s_hi, p in list_segments(d) if s_hi > watermark]
    assert rows.equals(_filtered_read(paths, watermark, hi))
    assert sum(counts) == rows.num_rows == 1000 - watermark


def test_poll_straddling_the_watermark_keeps_the_filter(tmp_path):
    """A memoryBound admission of part of a segment, then a restart from
    the committed watermark inside that segment: both polls filter, and
    the second returns none of the rows the first committed."""
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
        ChangeFeedTailer,
        list_segments,
    )

    d = str(tmp_path / "ct")
    write_ctlog(d, small_spec())
    paths = [p for _, _, p in list_segments(d)]
    budget = ChangeFeedTailer(d, 0)._segment_meta(paths[0])[1] // 3
    first = ChangeFeedTailer(
        d, 0, shaper="memoryBound", memory_budget_bytes=budget, rows_per_poll=10**6
    )
    flt, _, rows, hi = _poll_rows(first)
    assert flt is not None and 0 < hi < 200
    assert rows.equals(_filtered_read(paths[:1], 0, hi))

    restarted = ChangeFeedTailer(d, hi, rows_per_poll=10**6)
    flt, _, rest, end = _poll_rows(restarted)
    assert flt is not None and end == 1000
    assert rest.equals(_filtered_read(paths, hi, end))
    from arcane_stream_sqlserver_change_tracking_ray.types import VERSION_COL

    assert pc.min(rest[VERSION_COL]).as_py() == hi + 1
    assert rows.num_rows + rest.num_rows == 1000


def test_poll_without_footer_statistics_keeps_the_filter(tmp_path):
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
        ChangeFeedTailer,
        list_segments,
    )

    d = str(tmp_path / "ct")
    write_ctlog(d, small_spec())
    paths = [p for _, _, p in list_segments(d)]
    pq.write_table(pq.read_table(paths[0]), paths[0], write_statistics=False)
    t = ChangeFeedTailer(d, 0, rows_per_poll=10**6)
    flt, _, rows, hi = _poll_rows(t)
    assert flt is not None and hi == 1000
    assert rows.equals(_filtered_read(paths, 0, hi))


# ---------------------------------------------------------------------------
# one plain Ray task per unit: no Ray Data executor in the ingest cycle
# ---------------------------------------------------------------------------
def _ctx(ct, tgt, merge_mode="mor"):
    return StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "fetch_size": 150},
            "sink": {"target_root": tgt, "num_partitions": 4, "merge_mode": merge_mode},
            "throughput": {"rows_per_group": 10**6},
        }
    )


@pytest.mark.parametrize("merge_mode", ["mor", "cow"])
def test_cycle_runs_no_ray_data_executor(tmp_lake, monkeypatch, merge_mode):
    """A cycle reads, transforms and writes in plain Ray tasks: with Ray
    Data's reads and ``take_all`` refusing to run, one cycle still
    matches the oracle."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    r = StreamRunner(_ctx(ct, tgt, merge_mode))
    r.bootstrap()

    def refuse(*a, **kw):
        raise AssertionError("Ray Data ran inside the ingest cycle")

    try:
        with monkeypatch.context() as mp:
            mp.setattr(ray.data, "read_datasource", refuse)
            mp.setattr(ray.data, "read_parquet", refuse)
            mp.setattr(ray.data.Dataset, "take_all", refuse)
            metrics = r.run_cycle()
    finally:
        r.close()
    assert metrics["versions"] == [1, 1000]
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_replay_range_reads_across_a_migration(tmp_lake):
    """``_replay_range`` plans its read like a poll: row-group-run units
    over segments before and after an additive migration read against
    the unified schema, and re-applying the range keeps the table equal
    to the oracle (older rows keep a null title)."""
    from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import list_segments

    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec(add_column_at=500, row_group_size=50))
    prepare_watermark(tgt, version=0, num_partitions=4)
    r = StreamRunner(_ctx(ct, tgt))
    r.run()
    paths = [p for _, _, p in list_segments(ct)]
    assert "title" not in pq.read_schema(paths[0]).names
    units = r._plan(paths)
    assert any(rgs is not None for u in units for _, rgs in u.pieces)  # runs
    assert any(len(u.pieces) > 1 for u in units)
    r._replay_range(0, 1000, "migration")
    want = expected_final_state(ct)
    got = read_target_table(tgt)
    assert_tables_equal(got, want)
    assert 0 < got["title"].null_count < got.num_rows


def test_cow_replays_write_identical_partition_files(tmp_path):
    """Two CoW replays of one feed write the same bytes per partition:
    each fold task takes its pids' slices in unit order, not in the
    order concurrent unit tasks finish."""
    import hashlib

    def replay(name):
        ct, tgt = str(tmp_path / "ct"), str(tmp_path / name)
        if not os.path.isdir(ct):
            write_ctlog(ct, small_spec(n_events=4000, n_keys=300))
        prepare_watermark(tgt, version=0, num_partitions=4)
        ctx = _ctx(ct, tgt, "cow")
        ctx.throughput.rows_per_group = 2000  # two cycles of 10 units
        assert len(StreamRunner(ctx).run()) == 2
        m = ManifestLog(tgt).latest()
        return {
            pid: [
                hashlib.sha256(open(os.path.join(tgt, f), "rb").read()).hexdigest()
                for f in files
            ]
            for pid, files in m.partitions.items()
        }

    first, second = replay("a"), replay("b")
    assert len(first) == 4
    assert first == second


# ---------------------------------------------------------------------------
# table reads: planned from the manifest, at most one task per CPU
# ---------------------------------------------------------------------------
def _materialize(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def test_spread_keeps_order_in_near_equal_runs():
    assert spread(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert spread([1, 2], 8) == [[1], [2]]
    assert spread([], 4) == []


@pytest.mark.parametrize("merge_mode", ["mor", "cow"])
def test_read_target_plans_from_the_manifest(tmp_lake, monkeypatch, merge_mode):
    """``read_target`` on a merge-on-read table (pending deltas) and on a
    no-delta (CoW) table runs with ``ray.data.read_parquet`` and
    ``ray.data.from_arrow`` refusing to run, filtered or not, and
    matches the oracle."""
    ct, tgt, _ = tmp_lake
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    StreamRunner(_ctx(ct, tgt, merge_mode)).run()
    assert any(ManifestLog(tgt).latest().deltas.values()) == (merge_mode == "mor")

    def refuse(*a, **kw):
        raise AssertionError("read_target went through read_parquet or from_arrow")

    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "read_parquet", refuse)
        mp.setattr(ray.data, "from_arrow", refuse)
        got = _materialize(read_target(tgt, drop_meta=True))
        en = _materialize(read_target(tgt, columns=["url", "lang"], where=[["lang", "==", "en"]]))
    want = expected_final_state(ct)
    assert_tables_equal(got, want)
    assert en.column_names == ["url", "lang"]
    assert_tables_equal(en, want.filter(pc.equal(want["lang"], "en")).select(["url", "lang"]))


def test_partition_fanouts_spread_over_workers(tmp_lake, tmp_path, monkeypatch):
    """On a Ray of >= 2 CPUs, a P=8 merge-on-read ``read_target``, a
    change feed and OPTIMIZE each resolve their partitions in more than
    one worker process and in at most one task per CPU; ``read_target``
    resolves each task's run of partitions in one call.  (A Ray Data
    ``map_batches(batch_size=1)`` over one block of partition ids ran
    every partition in ONE task.)"""
    from arcane_stream_sqlserver_change_tracking_ray.stages import maintenance, merge

    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus >= 2
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
    want = expected_final_state(ct)

    def recorder(kind: str):
        d = str(tmp_path / kind)
        os.makedirs(d)

        def record():
            import time
            import uuid

            time.sleep(0.2)  # long enough for the tasks to overlap
            task = ray.get_runtime_context().get_task_id()
            with open(os.path.join(d, uuid.uuid4().hex), "w") as f:
                f.write(f"{os.getpid()} {task}")

        return record

    def seen(kind: str) -> tuple[int, int, int]:
        calls = [open(p).read().split() for p in glob.glob(str(tmp_path / kind / "*"))]
        return len(calls), len({p for p, _ in calls}), len({t for _, t in calls})

    def wrapped(fn, record):
        def call(*a, **kw):
            record()
            return fn(*a, **kw)

        return call

    with monkeypatch.context() as mp:
        mp.setattr(
            merge,
            "resolve_partition_table",
            wrapped(merge.resolve_partition_table, recorder("read")),
        )
        got = _materialize(read_target(tgt, drop_meta=True))
    assert_tables_equal(got, want)

    with monkeypatch.context() as mp:
        mp.setattr(
            merge,
            "change_feed_partition",
            wrapped(merge.change_feed_partition, recorder("feed")),
        )
        feed = _materialize(read_change_feed(tgt, from_version=0))
    assert feed.num_rows == want.num_rows  # every key is an insert since v0

    record = recorder("optimize")

    class Recorded(maintenance.CompactPartition):
        def __call__(self, pid):
            record()
            return super().__call__(pid)

    with monkeypatch.context() as mp:
        mp.setattr(maintenance, "CompactPartition", Recorded)
        assert maintenance.optimize(ManifestLog(tgt), ctx)["compacted_partitions"] == 8
    assert_tables_equal(read_target_table(tgt), want)

    for kind in ("read", "feed", "optimize"):
        calls, workers, tasks = seen(kind)
        # a read task resolves its run of partitions as one block (the
        # table is far below DataContext.target_max_block_size)
        assert calls == (min(cpus, 8) if kind == "read" else 8), kind
        assert workers >= 2, kind
        assert tasks <= cpus, kind
