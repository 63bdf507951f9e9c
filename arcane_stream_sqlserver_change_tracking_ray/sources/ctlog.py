"""Change-feed tailer + backfill snapshot reader (S1/S2, SURVEY.md §2.1).

``ChangeFeedTailer`` is the Ray-native analog of the reference's
``MsSqlStreamingSource`` / ``MsSqlStreamingDataProvider``
(``main.scala:36,63-67``; ``docs/crd.md:83-89,196-203``): every poll it
selects the change-log parquet segments covering versions
``(watermark, hi]`` and returns them as a lazy ``ray.data.Dataset``
with the version-range predicate and the projection pushed into the
read — pruned columns and row groups never leave storage.  The
predicate is dropped when every chosen segment's footer statistics put
all of its versions inside the range (see ``ChangeFeedTailer.poll``).

The feed is a directory of version-range segments
``v{lo:012d}-{hi:012d}.parquet`` (FIXTURES.md F2).  Poll pacing
reproduces the reference's knobs: ``changeCaptureInterval`` ± seeded
jitter (``changeCaptureJitterVariance/Seed``) and an optional
token-bucket on admitted events (``throughput.advisedRate`` — mostly
subsumed by Ray Data's backpressure, kept for replay-rate parity,
SURVEY.md §2.7 F3).
"""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pyarrow.compute as pc

from arcane_stream_sqlserver_change_tracking_ray.types import VERSION_COL

#: don't split a poll finer than this many rows per read block — below
#: it, per-task scheduling (~3 ms) outweighs the parallelism gained
MIN_ROWS_PER_BLOCK = 16_384

_SEG_RE = re.compile(r"^v(\d{12})-(\d{12})\.parquet$")


def list_segments(ctlog_dir: str) -> list[tuple[int, int, str]]:
    """Sorted ``(lo, hi, path)`` with lo/hi INCLUSIVE version bounds."""
    out = []
    if not os.path.isdir(ctlog_dir):
        return out
    for name in os.listdir(ctlog_dir):
        m = _SEG_RE.match(name)
        if m:
            out.append((int(m.group(1)), int(m.group(2)), os.path.join(ctlog_dir, name)))
    out.sort()
    return out


def max_available_version(ctlog_dir: str) -> int:
    segs = list_segments(ctlog_dir)
    return segs[-1][1] if segs else 0


class ChangeFeedTailer:
    """Stateful tailer: cursor = last emitted version.

    Driver-side by design — it only *plans* reads (file selection +
    predicate); all data movement happens inside the returned Dataset on
    the cluster.  This mirrors the reference app being a tiny
    coordinator while the heavy lifting runs elsewhere (SURVEY.md §3.1).
    """

    def __init__(
        self,
        ctlog_dir: str,
        watermark: int,
        *,
        rows_per_poll: int = 50_000,
        fetch_size: int = 65536,
        columns: list[str] | None = None,
        poll_interval: float = 0.0,
        jitter: float = 0.0,
        jitter_seed: int = 42,
        advised_rate: float = 0.0,
        shaper: str = "static",
        memory_budget_bytes: int = 0,
        memory_budget_fraction: float = 0.2,
        fallback_string_size: int = 50,
        object_size_estimate: int = 4096,
    ):
        self.ctlog_dir = ctlog_dir
        self.watermark = int(watermark)
        self.rows_per_poll = rows_per_poll
        self.fetch_size = fetch_size
        self.columns = columns
        self.poll_interval = poll_interval
        self.jitter = jitter
        self._rng = np.random.default_rng(jitter_seed)
        self.advised_rate = advised_rate
        if shaper not in ("static", "memoryBound", "memory_bound"):
            raise ValueError(f"unknown throughput shaper: {shaper!r}")
        self.shaper = "memoryBound" if shaper != "static" else "static"
        self.memory_budget_bytes = memory_budget_bytes
        self.memory_budget_fraction = memory_budget_fraction
        self.fallback_string_size = fallback_string_size
        self.object_size_estimate = object_size_estimate
        #: estimate of the LAST planned poll: {"rows": n, "bytes": b,
        #: "budget": b|None} — surfaced for metrics/tests
        self.last_plan_estimate: dict | None = None
        self._last_poll_t: float | None = None
        #: segment path -> (row count, uncompressed bytes, version range)
        #: from the parquet footer (cached so a poll never re-reads
        #: footers it has seen); see ``_footer_int_range``
        self._seg_meta: dict[str, tuple[int, int, tuple[int, int] | None]] = {}
        #: split the poll's read into at least this many blocks so the
        #: fused read→transform stage can use every CPU even when the
        #: version range spans few segment files (the generator writes
        #: small row groups precisely so reads can split)
        self.target_blocks: int | None = None
        #: ``batch_size`` for the map stages over the LAST poll's dataset:
        #: None after a small per-file read (each block is one task's
        #: worth and a batch size would stop the read fusing into the
        #: transform and writer, see pqio), ``fetch_size`` after a
        #: streaming read (bundles the read's blocks into larger tasks)
        self.map_batch_size: int | None = fetch_size

    # ------------------------------------------------------------------
    def next_interval(self) -> float:
        """Poll interval ± jitter (changeCaptureJitterVariance analog)."""
        if self.poll_interval <= 0:
            return 0.0
        if self.jitter > 0:
            return self.poll_interval * (1.0 + self._rng.uniform(-self.jitter, self.jitter))
        return self.poll_interval

    def _throttle(self, n_versions: int) -> None:
        """Token-bucket replay throttle (advisedRate parity)."""
        if self.advised_rate <= 0:
            return
        now = time.monotonic()
        if self._last_poll_t is not None:
            need = n_versions / self.advised_rate
            elapsed = now - self._last_poll_t
            if elapsed < need:
                time.sleep(need - elapsed)
        self._last_poll_t = time.monotonic()

    # ------------------------------------------------------------------
    def plan(self) -> tuple[list[str], int] | None:
        """Choose the segment files for the next poll; returns
        ``(paths, hi_version)`` or None when fully caught up.

        Contiguity guard: if the next available segment starts beyond
        ``watermark + 1`` (segments landed out of order), the tailer
        WAITS rather than advancing the watermark over a hole — skipping
        versions would silently lose their events forever (SURVEY.md
        §7.5.6: version ordering across cycles)."""
        segs = [s for s in list_segments(self.ctlog_dir) if s[1] > self.watermark]
        if not segs:
            return None
        if segs[0][0] > self.watermark + 1:
            import logging

            logging.getLogger("arcane_ray.tailer").warning(
                "version gap: watermark=%d but next segment starts at %d; "
                "waiting for the missing range",
                self.watermark,
                segs[0][0],
            )
            return None
        budget = self._poll_byte_budget()
        chosen: list[str] = []
        hi = self.watermark
        rows = 0
        est = 0.0
        for lo, seg_hi, path in segs:
            if lo > hi + 1:
                break  # later gap: poll only the contiguous prefix
            seg_rows, seg_bytes = self._segment_meta(path)
            # the first segment may be partially consumed (watermark mid-
            # segment): account only the REMAINING version range's share
            start = max(self.watermark, lo - 1)
            seg_span = max(seg_hi - (lo - 1), 1)
            rem_span = seg_hi - start
            per_version = seg_bytes / seg_span
            rem_bytes = per_version * rem_span
            rem_rows = seg_rows * rem_span / seg_span
            if budget is not None and chosen and est + rem_bytes > budget:
                break  # memoryBound: next segment would blow the budget
            chosen.append(path)
            if budget is not None and est + rem_bytes > budget:
                # a SINGLE oversized segment: admit only a version
                # sub-range of it (the predicate pushdown bounds what is
                # read; the remainder re-polls next cycle) — the
                # admission-control role of the reference's sigmoid
                # chunk-cost shaper (CRD ...stream.yaml:363-396)
                admit = max(1, int((budget - est) / max(per_version, 1e-9)))
                hi = min(seg_hi, start + admit)
                est += per_version * (hi - start)
                rows += int(rem_rows * (hi - start) / max(rem_span, 1))
                break
            hi = seg_hi
            # cap the poll by ACTUAL row count (cheap driver-side footer
            # read, cached), not version span — a feed with several rows
            # per version or sparse versions would otherwise admit far
            # more (or fewer) rows than throughput.rows_per_group intends
            rows += int(rem_rows)
            est += rem_bytes
            if rows >= self.rows_per_poll:
                break
        self.last_plan_estimate = {"rows": rows, "bytes": int(est), "budget": budget}
        return chosen, hi

    # -- memoryBound shaper helpers ------------------------------------
    def _poll_byte_budget(self) -> int | None:
        if self.shaper != "memoryBound":
            return None
        if self.memory_budget_bytes > 0:
            return self.memory_budget_bytes
        return int(_available_memory_bytes() * self.memory_budget_fraction)

    def _segment_meta(self, path: str) -> tuple[int, int]:
        """``(row count, uncompressed bytes)`` of a segment."""
        return self._footer(path)[:2]

    def _footer(self, path: str) -> tuple[int, int, tuple[int, int] | None]:
        meta = self._seg_meta.get(path)
        if meta is None:
            import pyarrow.parquet as pq

            try:
                md = pq.ParquetFile(path).metadata
                rows = md.num_rows
                nbytes = sum(
                    md.row_group(i).total_byte_size for i in range(md.num_row_groups)
                )
                if nbytes <= 0:
                    nbytes = rows * self._fallback_row_bytes(md.schema.to_arrow_schema())
                vrange = _footer_int_range(md, VERSION_COL)
            except Exception:
                rows, nbytes, vrange = 0, 0, None
            meta = (rows, nbytes, vrange)
            self._seg_meta[path] = meta
        return meta

    def _inside(self, paths: list[str], hi: int) -> bool:
        """Whether the footers prove every row of *paths* has a version in
        ``(watermark, hi]``."""
        for p in paths:
            vr = self._footer(p)[2]
            if vr is None or vr[0] <= self.watermark or vr[1] > hi:
                return False
        return True

    def _fallback_row_bytes(self, schema) -> int:
        """Per-row size estimate from declared types when footer stats are
        absent (reference fallbackStringTypeSizeEstimate /
        objectTypeSizeEstimate)."""
        import pyarrow as pa

        total = 0
        for f in schema:
            if pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type):
                total += self.object_size_estimate
            elif pa.types.is_string(f.type) or pa.types.is_large_string(f.type):
                total += self.fallback_string_size
            else:
                total += 16
        return max(total, 16)

    def poll(self, planned: tuple[list[str], int] | None = None):
        """Return ``(dataset, hi_version)`` for versions
        ``(watermark, hi]`` or None.  Does NOT advance the cursor — call
        ``advance(hi)`` only after the cycle commits, so a failed cycle
        re-polls the same range (exactly-once via idempotent replay).

        The read filters rows by ``watermark < version <= hi`` unless
        every chosen segment's footer statistics (min, max and a zero
        null count of the version column, in every row group) place all
        of its rows inside that range; then it reads without a filter,
        which saves a copy of the decoded segment.  A segment straddling
        the range (a memoryBound sub-range admission, a restart inside a
        segment), one written without statistics, or one with null
        versions keeps the filter.  Segment file names are never trusted
        for this.

        Pass the ``plan()`` result the cycle already inspected so the
        read covers EXACTLY the segments the cycle's schema decision was
        made from — re-planning here could pick up a segment that landed
        in between, whose new columns the decided schema would drop."""
        import ray.data

        planned = planned if planned is not None else self.plan()
        if planned is None:
            return None
        paths, hi = planned
        self._throttle(hi - self.watermark)
        predicate = None
        if not self._inside(paths, hi):
            predicate = (pc.field(VERSION_COL) > self.watermark) & (
                pc.field(VERSION_COL) <= hi
            )
        from arcane_stream_sqlserver_change_tracking_ray.pqio import (
            is_small_read,
            read_parquet_files,
        )

        if is_small_read(paths):
            # small polls (a few fresh segments) skip read_parquet's fixed
            # planning cost and fuse into the cycle's write tasks; files
            # smaller than fetch_size share a task, as the transform's
            # fetch_size bundling grouped them on the streaming path
            self.map_batch_size = None
            ds = read_parquet_files(
                paths,
                columns=self.columns,
                filter=predicate,
                min_rows_per_block=self.fetch_size,
            )
            return ds, hi
        self.map_batch_size = self.fetch_size
        kwargs = {}
        if self.target_blocks:
            blocks = self.target_blocks
            # Cap by the planned row count (free — footers are already
            # cached for the memoryBound shaper): a tiny poll shattered
            # into 4×CPU blocks pays ~3 ms scheduling per task for rows
            # that fit in one, which dominates small-cycle wall time.
            # At production cycle sizes rows/MIN_ROWS_PER_BLOCK exceeds
            # 4×CPUs and this cap never binds.
            total_rows = sum(self._segment_meta(p)[0] for p in paths)
            if total_rows > 0:
                blocks = min(blocks, -(-total_rows // MIN_ROWS_PER_BLOCK))
            kwargs["override_num_blocks"] = max(len(paths), blocks)
        ds = ray.data.read_parquet(
            paths,
            columns=self.columns,
            filter=predicate,
            **kwargs,
        )
        return ds, hi

    def advance(self, hi: int) -> None:
        if hi < self.watermark:
            raise ValueError(f"tailer cursor must be monotone: {hi} < {self.watermark}")
        self.watermark = hi


def _footer_int_range(md, column: str) -> tuple[int, int] | None:
    """``(min, max)`` of an integer column over a file's row groups, or
    None when any row group lacks min/max or a zero null count."""
    names = [md.schema.column(j).path for j in range(md.num_columns)]
    if column not in names:
        return None
    j = names.index(column)
    lo = hi = None
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(j).statistics
        if (
            st is None
            or not st.has_min_max
            or not st.has_null_count
            or st.null_count != 0
            or type(st.min) is not int
            or type(st.max) is not int
        ):
            return None
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return None if lo is None else (lo, hi)


def _available_memory_bytes() -> int:
    """Currently-available system memory (Linux /proc/meminfo; falls back
    to a conservative 1 GiB when unreadable)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 1 << 30


def read_snapshot(snapshot_dir: str, columns: list[str] | None = None, num_shards: int | None = None):
    """Backfill source (S2): full-table snapshot re-read.

    Ray's file/block-level sharding replaces the reference's manual
    shard tables under ``backfillShardSchemaName``; *num_shards* maps to
    ``override_num_blocks`` for explicit shard-count control."""
    import ray.data

    kwargs = {}
    if num_shards:
        kwargs["override_num_blocks"] = num_shards
    return ray.data.read_parquet(snapshot_dir, columns=columns, **kwargs)


_SNAP_RE = re.compile(r"snapshot-v(\d+)\.parquet$")


def snapshot_version(snapshot_dir: str) -> int | None:
    """Version encoded in snapshot filenames (``snapshot-v{v}.parquet``),
    i.e. the source version current when the snapshot was taken — the
    version streaming resumes from after an Overwrite backfill
    (reference resumes from the version captured at backfill start,
    ``StreamRunner.scala:209-223``)."""
    vs = [int(m.group(1)) for f in snapshot_files(snapshot_dir) if (m := _SNAP_RE.search(f))]
    return max(vs) if vs else None


def snapshot_files(snapshot_dir: str) -> list[str]:
    return sorted(
        os.path.join(snapshot_dir, f)
        for f in os.listdir(snapshot_dir)
        if f.endswith(".parquet")
    )
