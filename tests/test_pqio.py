"""pqio.read_parquet_auto: the small-read fast path against
``ray.data.read_parquet``, its laziness, and one fused write task per
change-log segment."""

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
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.pqio import read_parquet_auto
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from tests.util import assert_tables_equal


def _drifting_files(d) -> list[str]:
    """Three segments; the third gains a column (additive migration)."""
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


@pytest.mark.parametrize("columns", [None, ["v", "k"]], ids=["all", "projected"])
def test_fast_path_matches_read_parquet_under_drift(tmp_path, columns):
    paths = _drifting_files(str(tmp_path))
    flt = (pc.field("v") > 250) & (pc.field("v") <= 1300)
    got = _table(read_parquet_auto(paths, columns=columns, filter=flt))
    want = _table(ray.data.read_parquet(paths, columns=columns, filter=flt))
    assert got.equals(want)
    assert got.num_rows == 1050
    if columns is None:
        # the segments before the migration read the new column as nulls
        assert got.column_names == ["k", "v", "x", "title"]
        assert got.filter(pc.field("v") < 1000)["title"].null_count == 749
    else:
        assert got.column_names == columns


def test_fast_path_launches_no_task(tmp_path, monkeypatch):
    """Building the dataset reads footers only: no remote function runs
    until a consumer executes it."""
    from ray.remote_function import RemoteFunction

    paths = _drifting_files(str(tmp_path))
    launched = []
    real = RemoteFunction._remote

    def spy(self, *a, **kw):
        launched.append(self._function_name)
        return real(self, *a, **kw)

    monkeypatch.setattr(RemoteFunction, "_remote", spy)
    ds = read_parquet_auto(paths, columns=["k", "v"], filter=pc.field("v") > 10)
    assert launched == []
    assert ds.count() == 1489  # and it still reads when consumed


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
    """``(read filter, per-task footer row counts, rows sorted by version)``
    of one poll."""
    from arcane_stream_sqlserver_change_tracking_ray.types import VERSION_COL

    ds, hi = tailer.poll()
    src = ds._logical_plan.dag._datasource
    counts = [rt.metadata.num_rows for rt in src.get_read_tasks(1)]
    rows = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by([(VERSION_COL, "ascending")])
    return src._filter, counts, rows, hi


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
