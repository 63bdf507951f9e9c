"""M1/M2 merge kernel unit tests: LWW, tombstones, stable routing."""

import numpy as np
import pyarrow as pa
import pytest

from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    SMALL_LWW_ROWS,
    drop_tombstones,
    hash_keys,
    lww_alive,
    lww_hash_mask,
    lww_string_sort_mask,
    lww_table,
    lww_winner_mask,
    partition_ids,
    precombine_and_hash,
    stable_hash,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)


def _t(rows):
    return pa.table(
        {
            MERGE_KEY_COL: [r[0] for r in rows],
            VERSION_COL: pa.array([r[1] for r in rows], pa.int64()),
            OP_COL: [r[2] for r in rows],
        }
    )


def test_lww_picks_max_version_per_key():
    t = _t([("a", 1, "I"), ("a", 3, "U"), ("a", 2, "U"), ("b", 5, "I")])
    out = lww_table(t)
    got = sorted(zip(out[MERGE_KEY_COL].to_pylist(), out[VERSION_COL].to_pylist()))
    assert got == [("a", 3), ("b", 5)]


def test_lww_empty_and_singleton():
    assert lww_table(_t([])).num_rows == 0
    assert lww_table(_t([("a", 1, "I")])).num_rows == 1


def test_tombstones_dropped():
    t = _t([("a", 3, "D"), ("b", 5, "U")])
    out = drop_tombstones(t)
    assert out[MERGE_KEY_COL].to_pylist() == ["b"]


def test_delete_then_reinsert_wins():
    t = _t([("a", 1, "I"), ("a", 2, "D"), ("a", 3, "I")])
    out = drop_tombstones(lww_table(t))
    assert out[VERSION_COL].to_pylist() == [3]


def test_stable_hash_process_stable():
    # pinned values: routing must never change across runs/versions, or
    # committed partition files would be read by the wrong owner
    h = stable_hash(np.array(["https://a/x", "https://b/y"], dtype=object))
    assert h.tolist() == [14245038171000130420, 13612805710151817711]


def test_partition_ids_range_and_determinism():
    keys = pa.array([f"k{i}" for i in range(1000)])
    p1 = partition_ids(keys, 16)
    p2 = partition_ids(keys, 16)
    assert (p1 == p2).all()
    assert p1.min() >= 0 and p1.max() < 16
    # reasonably uniform: every partition hit
    assert len(set(p1.tolist())) == 16


def test_precombine_and_route():
    """The kernel both writers share: hash once, LWW-combine a batch
    whose duplicate rate crosses the threshold, keep hashes aligned."""
    t = _t([("a", 1, "I"), ("a", 2, "U"), ("b", 3, "I")])
    keep, h = precombine_and_hash(t, MERGE_KEY_COL, "polars", threshold=0.0)
    assert keep.tolist() == [1, 2]  # within-batch LWW collapsed key 'a'
    out = t.take(keep)
    got = dict(zip(out[MERGE_KEY_COL].to_pylist(), out[VERSION_COL].to_pylist()))
    assert got == {"a": 2, "b": 3}
    assert (h == hash_keys(out[MERGE_KEY_COL], "polars")).all()  # aligned to rows
    # below the threshold the batch ships uncombined
    keep2, h2 = precombine_and_hash(t, MERGE_KEY_COL, "polars", threshold=0.5)
    assert keep2.tolist() == [0, 1, 2] and len(h2) == 3


def _lww_rows(t):
    return np.flatnonzero(lww_string_sort_mask(t, MERGE_KEY_COL)).tolist()


def test_lww_winner_mask_on_zero_rows():
    """Regression: the kernel once raised IndexError on an empty table."""
    for mask_fn in (lww_winner_mask, lww_hash_mask, lww_string_sort_mask):
        mask = mask_fn(_t([]), MERGE_KEY_COL)
        assert mask.dtype == bool and mask.shape == (0,)


def test_precombine_exact_under_forced_hash_collision(monkeypatch):
    """Every key hashing alike must not merge distinct keys: the
    hash-sorted winners fall back to the string sort, in the
    pre-combine and in the read-side mask alike."""
    import arcane_stream_sqlserver_change_tracking_ray.stages.merge as merge_mod

    monkeypatch.setattr(
        merge_mod, "hash_keys", lambda keys, algo="pandas": np.full(len(keys), 7, np.uint64)
    )
    t = _t([("a", 1, "I"), ("b", 4, "U"), ("a", 3, "U"), ("b", 4, "D"), ("c", 2, "I")])
    keep, h = precombine_and_hash(t, MERGE_KEY_COL, "polars", threshold=0.0)
    assert keep.tolist() == _lww_rows(t) == [1, 2, 4]
    assert len(h) == 3
    assert np.flatnonzero(lww_hash_mask(t)).tolist() == [1, 2, 4]
    # above the small-input switch the read-side mask runs the hash kernel
    # and falls back too
    big = pa.concat_tables([t] * (SMALL_LWW_ROWS // t.num_rows + 1))
    assert big.num_rows > SMALL_LWW_ROWS
    assert np.flatnonzero(lww_winner_mask(big)).tolist() == _lww_rows(big) == [1, 2, 4]


def test_precombine_null_version_falls_back_to_string_sort(monkeypatch):
    import arcane_stream_sqlserver_change_tracking_ray.stages.merge as merge_mod

    calls = []
    real = merge_mod.lww_string_sort_mask
    monkeypatch.setattr(
        merge_mod, "lww_string_sort_mask", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    # above SMALL_LWW_ROWS, so only a real fallback reaches the string sort
    pad = SMALL_LWW_ROWS
    t = pa.table(
        {
            MERGE_KEY_COL: ["a", "a", "b", "b"] + [f"z{i}" for i in range(pad)],
            VERSION_COL: pa.array([1, None, 2, 5] + [1] * pad, pa.int64()),
            OP_COL: ["I", "U", "I", "U"] + ["U"] * pad,
        }
    )
    keep, h = precombine_and_hash(t, MERGE_KEY_COL, "polars", threshold=0.0)
    assert calls, "a null version must take the string-sort path"
    want = [0, 3] + list(range(4, 4 + pad))
    assert keep.tolist() == np.flatnonzero(real(t, MERGE_KEY_COL)).tolist() == want
    assert (h == hash_keys(t[MERGE_KEY_COL], "polars")[keep]).all()
    calls.clear()
    assert np.flatnonzero(lww_winner_mask(t)).tolist() == want
    assert calls, "the read-side mask falls back on a null version too"


def test_small_inputs_skip_the_hash_kernel(monkeypatch):
    """At or below SMALL_LWW_ROWS the winners come from the string sort
    alone, so lookups and small partitions do not pay the hash kernel's
    fixed cost; above it the hash kernel runs."""
    import arcane_stream_sqlserver_change_tracking_ray.stages.merge as merge_mod

    hashed = []
    real = merge_mod.hash_keys
    monkeypatch.setattr(
        merge_mod, "hash_keys", lambda *a, **kw: hashed.append(1) or real(*a, **kw)
    )
    for n, uses_hash in ((4, False), (SMALL_LWW_ROWS, False), (SMALL_LWW_ROWS + 1, True)):
        hashed.clear()
        t = _t([(f"k{i % 7}", i, "U") for i in range(n)])
        assert np.flatnonzero(lww_winner_mask(t)).tolist() == _lww_rows(t)
        assert bool(hashed) == uses_hash, n


def test_lww_alive_is_one_filter_of_lww_and_tombstones():
    t = _t([("a", 1, "I"), ("b", 2, "I"), ("a", 3, "D"), ("c", 4, "U"), ("b", 5, "U")])
    alive, deletes = lww_alive(t)
    assert alive.equals(drop_tombstones(lww_table(t)))
    assert alive[MERGE_KEY_COL].to_pylist() == ["c", "b"] and deletes == 1
    same, none_deleted = lww_alive(_t([("a", 1, "I"), ("b", 2, "U")]))
    assert same.num_rows == 2 and none_deleted == 0


@pytest.mark.parametrize("merge_mode", ["mor", "cow"], ids=["direct", "actors"])
def test_direct_mode_accounts_precombined_rows(tmp_path, merge_mode):
    """The cycle invariant 'every arriving row is accounted'
    (changes_in == rows arriving) must hold for both writers even when
    the adaptive pre-combine collapses duplicates before routing
    (regression: direct stats once reported combined_away=0 with
    post-combine changes_in, and the cow pool dropped the combined rows
    the same way, undercounting the cycle)."""
    import ray.data

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        ActorMergePool,
        apply_change_batch_direct,
        fold_stats_into_manifest,
    )
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import Manifest

    n, keys = 400, 20  # heavy duplication -> combiner collapses a lot
    t = pa.table(
        {
            MERGE_KEY_COL: pa.array([str(i % keys) for i in range(n)]),
            VERSION_COL: pa.array(np.arange(n, dtype=np.int64)),
            OP_COL: pa.array(["U"] * n),
            "v": pa.array(np.arange(n, dtype=np.float64)),
        }
    )
    # a Dataset goes through the writers' one adapter (to_arrow_refs): one
    # task per block, as a read unit gets
    ds = ray.data.from_arrow(t).repartition(2)
    if merge_mode == "mor":
        stats = apply_change_batch_direct(
            ds,
            target_root=str(tmp_path),
            cycle_id="c1",
            schema=t.schema,
            num_partitions=4,
            hash_algo="polars",
            precombine_threshold=0.0,  # force the combiner on
        )
    else:
        pool = ActorMergePool(str(tmp_path), num_partitions=4, hash_algo="polars")
        stats = pool.apply_change_batch(
            ds,
            cycle_id="c1",
            partition_files={},
            schema=t.schema,
            precombine_threshold=0.0,
        )
    m = Manifest(version=1, watermark=0, num_partitions=4)
    metrics = fold_stats_into_manifest(m, stats, "c1")
    assert metrics["precombined_rows"] > 0
    assert metrics["changes_in"] == n
    assert metrics["upserts"] == metrics["changes_in"] - metrics["precombined_rows"]
