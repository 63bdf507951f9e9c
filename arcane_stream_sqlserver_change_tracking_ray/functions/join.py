"""Joins / lookups (M3, SURVEY.md §2.4).

The reference's only join is change-event × base-row on the PK, executed
source-side (the CT feed carries PK + metadata; payload comes from
joining the base table at poll time).  In this engine the synthetic
feed already carries the post-image so the streaming path needs no
join; these operators provide the general mechanism:

- **broadcast lookup join** — the small side is ``ray.put`` ONCE and
  joined per batch with pyarrow's C++ hash join inside ``map_batches``;
  no shuffle, the canonical dimension-table pattern (SURVEY.md §4.2).
- **partitioned equi-join** — both sides large: bucket both by key
  hash and join matching buckets (explicit partitioned hash join).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arcane_stream_sqlserver_change_tracking_ray.stages.merge import partition_ids
from arcane_stream_sqlserver_change_tracking_ray.types import PID_COL


class BroadcastJoiner:
    """Per-batch hash join against a broadcast small side."""

    def __init__(self, small_ref, on, right_on=None, join_type="inner", small_columns=None):
        import ray

        small = small_ref if isinstance(small_ref, pa.Table) else ray.get(small_ref)
        self.on = list(on) if isinstance(on, (list, tuple)) else [on]
        self.right_on = (
            (list(right_on) if isinstance(right_on, (list, tuple)) else [right_on])
            if right_on
            else self.on
        )
        if small_columns:
            keep = list(dict.fromkeys(self.right_on + list(small_columns)))
            small = small.select(keep)
        self.small = small
        self.join_type = join_type

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.join(
            self.small,
            keys=self.on,
            right_keys=self.right_on,
            join_type=self.join_type,
        )


def broadcast_lookup_join(ds, small: pa.Table, on, right_on=None, join_type="inner", small_columns=None):
    """Join *ds* against the SMALL table *small* without any shuffle.

    *small* is put in the object store once; every task zero-copy reads
    it and runs pyarrow's vectorized hash join per batch."""
    import ray

    ref = ray.put(small)

    def join_batch(batch: pa.Table) -> pa.Table:
        return BroadcastJoiner(ref, on, right_on, join_type, small_columns)(batch)

    return ds.map_batches(join_batch, batch_format="pyarrow")


def partitioned_equi_join(left_ds, right_ds, on: str, num_buckets: int = 32, join_type="inner"):
    """Both-sides-large equi-join: bucket BOTH sides by the same stable
    key hash, co-locate buckets with one groupby, and hash-join inside
    each bucket — an explicit partitioned hash join (SURVEY.md §4.2).

    The two sides are union'd through the shuffle by padding each to the
    union schema with null columns plus a side tag (nulls cost nothing
    in Arrow); inside a bucket the sides are split back and joined with
    pyarrow's C++ join.  Salt hot keys upstream; bucket count is the
    parallelism knob.
    """
    left_schema: pa.Schema = left_ds.schema().base_schema
    right_schema: pa.Schema = right_ds.schema().base_schema
    left_cols = [f.name for f in left_schema]
    right_cols = [f.name for f in right_schema]
    union_fields = list(left_schema) + [
        f for f in right_schema if f.name not in set(left_cols)
    ]
    union_schema = pa.schema(union_fields)

    def pad(batch: pa.Table, side: str) -> pa.Table:
        arrays = []
        for f in union_schema:
            if f.name in batch.column_names:
                col = batch[f.name]
                arrays.append(col if col.type == f.type else col.cast(f.type))
            else:
                arrays.append(pa.nulls(batch.num_rows, f.type))
        out = pa.Table.from_arrays(arrays, schema=union_schema)
        # ephemeral (per-run) bucket ids: the fast buffer-level hash —
        # routing-format stability only matters for persisted tables
        pid = partition_ids(out[on], num_buckets, algo="polars")
        out = out.append_column(PID_COL, pa.array(pid, type=pa.int64()))
        import numpy as np

        return out.append_column(
            "_side", pa.array(np.full(out.num_rows, 0 if side == "l" else 1, np.int8))
        )

    # coalesce each side to the bucket count before the exchange: the
    # shuffle's map/reduce task count tracks input blocks, and read-side
    # splitting (tuned for wide scans) over-fragments a join input —
    # per-task fixed costs on tiny blocks would dominate the sort
    left = left_ds.map_batches(lambda b: pad(b, "l"), batch_format="pyarrow").repartition(
        num_buckets
    )
    right = right_ds.map_batches(lambda b: pad(b, "r"), batch_format="pyarrow").repartition(
        num_buckets
    )
    both = left.union(right)

    def join_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        l = group.filter(pc.equal(group["_side"], 0)).select(left_cols)
        r = group.filter(pc.equal(group["_side"], 1)).select(right_cols)
        return l.join(r, keys=[on], join_type=join_type)

    return both.groupby(PID_COL).map_groups(join_bucket, batch_format="pyarrow")


def asof_join(
    left_ds,
    right_ds,
    key_col: str,
    ts_col: str,
    tie_col: str,
    payload_cols: list[str],
    num_buckets: int = 64,
):
    """Backward as-of join — for every left row, attach the LAST right
    row of the same key with ``(ts, tie) <= (left.ts, +inf)`` (same-ts
    right rows DO match; ties break to the largest ``tie_col``).  The
    classic event×slowly-changing-dimension operator Ray Data has no
    primitive for.

    Shape: one co-shuffle — both sides are padded to a union schema,
    bucketed by key hash, and co-located with a single groupby; inside a
    bucket ONE lexsort by (key, ts, side, tie) linearizes the merge and
    ``np.maximum.accumulate`` over right-row positions resolves every
    left row's match in O(n) with no per-row Python.  Nulls (no earlier
    right row) surface as nulls in the matched columns."""
    import numpy as np
    import pyarrow.compute as pc

    left_schema: pa.Schema = left_ds.schema().base_schema
    left_cols = [f.name for f in left_schema]
    right_schema: pa.Schema = right_ds.schema().base_schema
    union_fields = list(left_schema) + [
        f for f in right_schema if f.name not in set(left_cols)
    ]
    union_schema = pa.schema(union_fields)

    def pad(batch: pa.Table, side: int) -> pa.Table:
        arrays = []
        for f in union_schema:
            if f.name in batch.column_names:
                col = batch[f.name]
                arrays.append(col if col.type == f.type else col.cast(f.type))
            else:
                arrays.append(pa.nulls(batch.num_rows, f.type))
        out = pa.Table.from_arrays(arrays, schema=union_schema)
        pid = partition_ids(out[key_col], num_buckets, algo="polars")
        out = out.append_column(PID_COL, pa.array(pid, type=pa.int64()))
        return out.append_column(
            "_side", pa.array(np.full(out.num_rows, side, np.int8))
        )

    left = left_ds.map_batches(
        lambda b: pad(b, 1), batch_format="pyarrow"
    ).repartition(num_buckets)
    right = right_ds.map_batches(
        lambda b: pad(b, 0), batch_format="pyarrow"
    ).repartition(num_buckets)
    both = left.union(right)

    def _i64(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_timestamp(col.type):
            return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        return col.to_numpy(zero_copy_only=False).astype(np.int64)

    def asof_bucket(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy(zero_copy_only=False)
        k = _i64(group[key_col])
        ts = _i64(group[ts_col])
        tie = _i64(group[tie_col])
        # key major; right (0) before left (1) at equal ts so same-ts
        # right rows are visible; tie ascending so the LAST equal-ts
        # right row has the max tie
        order = np.lexsort((tie, side, ts, k))
        srt = group.take(pa.array(order))
        is_r = side[order] == 0
        k2 = k[order]
        pos = np.where(is_r, np.arange(len(order), dtype=np.int64), -1)
        last_r = np.maximum.accumulate(pos) if len(pos) else pos
        li = np.flatnonzero(~is_r)
        cand = last_r[li]
        valid = (cand >= 0) & (k2[np.maximum(cand, 0)] == k2[li])
        src = np.where(valid, cand, -1)
        src_arr = pa.array(src, type=pa.int64(), mask=src < 0)
        out = srt.take(pa.array(li)).select(left_cols)
        for c in payload_cols:
            out = out.append_column(f"matched_{c}", srt[c].take(src_arr))
        return out

    return both.groupby(PID_COL).map_groups(asof_bucket, batch_format="pyarrow")


def broadcast_semi_join(ds, keys_ds, on: str, right_on: str | None = None, anti: bool = False):
    """Semi / anti join against the DISTINCT key set of *keys_ds* —
    `WHERE [NOT] EXISTS (SELECT 1 FROM right WHERE right.k = left.k)`.

    Scale shape: the key side is thinned DISTRIBUTEDLY first (per-batch
    DISTINCT via Arrow's hash group-by inside ``map_batches``, so only
    distinct 8-byte keys ever leave a task), the partials fold into one
    sorted array driver-side (dimension-sized by contract), and that
    array broadcasts once via ``ray.put``; the probe side then streams
    through one ``np.searchsorted`` membership test per batch — no
    probe-side shuffle, no row movement.  For fact×fact semi joins where
    the distinct key set itself is too big to broadcast, use
    ``partitioned_equi_join(..., join_type="left semi" / "left anti")``
    instead (both sides bucket-shuffle).
    """
    import ray

    right_on = right_on or on

    def _distinct(batch: pa.Table) -> pa.Table:
        # NULL keys never equi-match (SQL semantics) — drop them here so
        # np.unique never sees None (object-array sort would raise)
        t = batch.select([right_on]).drop_null()
        return t.group_by([right_on]).aggregate([])

    parts = keys_ds.map_batches(_distinct, batch_format="pyarrow").take_all()
    keys = np.unique(np.array([r[right_on] for r in parts]))
    ref = ray.put(keys)

    def probe(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
        col = batch[on]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        v = col.to_numpy(zero_copy_only=False)
        hit = np.zeros(len(v), dtype=bool)
        # NULL probes never match: semi drops them, anti keeps them
        if len(ks) and valid.any():
            vv = v[valid]
            pos = np.searchsorted(ks, vv)
            hit[valid] = (pos < len(ks)) & (ks[np.clip(pos, 0, len(ks) - 1)] == vv)
        return batch.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(probe, batch_format="pyarrow")


def fuzzy_self_join(
    ds,
    text_col: str,
    block_pattern: str = r"(?P<blk>\S+)$",
    max_distance: int = 3,
    max_block: int = 4096,
):
    """Blocked approximate-string self-join: all DISTINCT values of
    *text_col* whose edit (Levenshtein) distance is ≤ *max_distance*,
    restricted to pairs sharing a blocking key (default: the last
    whitespace token) — the record-linkage join no dataframe engine has
    a primitive for.

    Shape: per-batch DISTINCT (value, block) rows via Arrow group-by —
    only distinct short strings shuffle — then one groupby(block); the
    per-block all-pairs distance matrix is a NUMPY-VECTORIZED DP (the
    row-iterative Wagner–Fischer recurrence with the pair axis
    vectorized: ~len² fused numpy ops per block, no per-pair Python).
    Blocks are capped at *max_block* members with a LOGGED truncation
    (the no-silent-caps rule; blocking keys are vocabulary-bounded for
    name-like data, so the cap should never bind in practice)."""
    import logging

    def _distinct(batch: pa.Table) -> pa.Table:
        t = batch.select([text_col]).group_by([text_col]).aggregate([])
        blk = pc.extract_regex(t[text_col], block_pattern)
        t = t.append_column("_blk", pc.struct_field(blk, 0))
        return t.filter(pc.is_valid(t["_blk"]))

    def pairs(group: pa.Table) -> pa.Table:
        # per-batch DISTINCT thins but doesn't globally dedupe — the same
        # value may arrive once per upstream batch; finish the dedup here
        names = sorted(set(group[text_col].to_pylist()))
        if len(names) > max_block:
            logging.getLogger("arcane_ray.join").warning(
                "fuzzy block capped: %d -> %d members (pairs beyond the "
                "cap are NOT emitted; refine block_pattern)",
                len(names), max_block,
            )
            names = names[:max_block]
        n = len(names)
        empty = pa.table(
            {
                "name_a": pa.array([], pa.string()),
                "name_b": pa.array([], pa.string()),
                "dist": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        ia, ib = np.triu_indices(n, k=1)
        d = levenshtein_pairs([names[i] for i in ia], [names[j] for j in ib])
        keep = d <= max_distance
        if not keep.any():
            return empty
        return pa.table(
            {
                "name_a": pa.array([names[i] for i in ia[keep]], pa.string()),
                "name_b": pa.array([names[j] for j in ib[keep]], pa.string()),
                "dist": pa.array(d[keep].astype(np.int64)),
            }
        )

    return (
        ds.map_batches(_distinct, batch_format="pyarrow")
        .groupby("_blk")
        .map_groups(lambda g: pairs(g.drop_columns(["_blk"])), batch_format="pyarrow")
    )


def levenshtein_pairs(a: list[str], b: list[str]) -> np.ndarray:
    """Unit-cost Levenshtein distance for P string pairs at once: the
    Wagner–Fischer DP with the PAIR axis vectorized — the i/j loops run
    max_len² times total while every min/compare is a fused numpy op
    over all P pairs (no per-pair Python)."""
    P = len(a)
    if P == 0:
        return np.zeros(0, dtype=np.int64)
    # distances are over Unicode CODE POINTS (utf-32-le -> uint32 matrix),
    # not utf-8 bytes — one non-ASCII substitution costs exactly 1 edit
    la = np.array([len(s) for s in a], dtype=np.int64)
    lb = np.array([len(s) for s in b], dtype=np.int64)
    La, Lb = int(la.max()), int(lb.max())
    A = np.zeros((P, max(La, 1)), dtype=np.uint32)
    B = np.zeros((P, max(Lb, 1)), dtype=np.uint32)
    for p, s in enumerate(a):
        if s:
            A[p, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    for p, s in enumerate(b):
        if s:
            B[p, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    prev = np.repeat(np.arange(Lb + 1, dtype=np.int32)[None, :], P, axis=0)
    out = np.empty(P, dtype=np.int64)
    done = la == 0
    out[done] = lb[done]
    for i in range(1, La + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, Lb + 1):
            cost = (A[:, i - 1] != B[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost,
            )
        prev = cur
        hit = la == i
        if hit.any():
            out[hit] = prev[hit, lb[hit]]
            done |= hit
    return out


def broadcast_range_join(
    ds,
    intervals: pa.Table,
    on: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    payload_cols: tuple[str, ...] = (),
):
    """Range (interval) join: attach the interval containing each row's
    *on* value — ``lo <= v < hi`` — from a SMALL, SORTED,
    NON-OVERLAPPING interval table (banding, IP→geo, SLA tiers: the
    non-equi join Ray Data has no primitive for).

    Scale shape: the interval table broadcasts once via ``ray.put``;
    each batch is ONE ``np.searchsorted`` against the lo bounds plus a
    hi-bound mask — O(n log m) per batch, no shuffle, no row explosion.
    Rows matching no interval are dropped (inner semantics).  The
    non-overlap contract is validated once at build time (overlapping
    intervals need a flat_map variant that emits one row per match —
    deliberately not this operator)."""
    import ray

    idx_sort = pc.sort_indices(intervals, sort_keys=[(lo_col, "ascending")])
    intervals = intervals.take(idx_sort)
    lo = intervals[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
    hi = intervals[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
    if (lo >= hi).any():
        raise ValueError("broadcast_range_join requires lo < hi per interval")
    if len(lo) > 1 and (hi[:-1] > lo[1:]).any():
        raise ValueError("broadcast_range_join requires non-overlapping intervals")
    keep = list(payload_cols) or [
        c for c in intervals.column_names if c not in (lo_col, hi_col)
    ]
    small_ref = ray.put((lo, hi, intervals.select(keep)))

    def join_batch(batch: pa.Table) -> pa.Table:
        lo_, hi_, pay = ray.get(small_ref)
        v = batch[on].to_numpy(zero_copy_only=False).astype(np.float64)
        pos = np.searchsorted(lo_, v, side="right") - 1
        ok = (pos >= 0) & (v < hi_[np.clip(pos, 0, len(hi_) - 1)])
        out = batch.filter(pa.array(ok))
        taken = pay.take(pa.array(pos[ok]))
        for name in taken.column_names:
            out = out.append_column(name, taken[name])
        return out

    return ds.map_batches(join_batch, batch_format="pyarrow")
