"""The partitioned last-writer-wins merge — the heart of the engine.

Reproduces the reference's ``MergeBatchProcessor`` semantics
(``main.scala:74,85``; results pinned by ``StreamRunner.scala:155-161,
254-258``): per ``arcane_merge_key`` take the event with max
``sys_change_version``; op ``D`` deletes the target row; otherwise
upsert all columns.  The reference delegates this to a Trino SQL
``MERGE``; here it runs in one plain Ray task per read unit (``run_units``):

1. **pre-combine**: within-batch LWW inside each unit's task
   keeps only the max-version event per key per batch — at
   10^10-event scale this collapses hot-key event storms *before* any
   data moves (SURVEY.md §4.2 "skew"),
2. **route**: ``_pid = stable_hash(key) % P`` (P fixed in the manifest
   — the analog of Iceberg ``bucket(arcane_merge_key, P)``),
3. **write**, one writer per merge mode:
   - ``mor``: ``apply_change_batch_direct`` — each task writes its own
     pid-sorted delta file; no exchange, base files never read;
   - ``cow``: ``ActorMergePool`` — tasks return their rows in one
     object per run of consecutive pids; one task per run (at most one
     per CPU) reads those partitions' current files, applies one LWW
     over the run, drops tombstones and rewrites each partition
     copy-on-write.
   Every file lands under an attempt-unique ``cycles/<id>/`` dir;
   nothing is visible until the manifest commit.

Partition routing must be stable ACROSS runs and processes (files
persist): we use ``pandas.util.hash_array`` (SipHash with a fixed key),
never Python's salted ``hash()``.

The manifest log follows Delta Lake's mutual-exclusion-on-rename
protocol (Armbrust et al., VLDB 2020).

Scale notes: only partitions touched by the cycle are rewritten; a cow
fold task holds the cycle's changes for its run of P/CPUs partitions
plus the current files of the touched ones — up to target_size/CPUs
when a cycle touches every partition.
Tombstones need no persisted set: cycles apply strictly in version
order (monotone watermark), so a delete at version v can never be
trumped by a late event with version < v.
"""

from __future__ import annotations

import json
import uuid
from typing import NamedTuple, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from arcane_stream_sqlserver_change_tracking_ray.functions.transforms import cast_to_schema
from arcane_stream_sqlserver_change_tracking_ray.pqio import cluster_cpus, spread
from arcane_stream_sqlserver_change_tracking_ray.stages.partitioning import (
    cluster_order,
    coalesce_runs,
    column_bounds,
    source_columns,
)
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.types import (
    import_polars,
    MERGE_KEY_COL,
    MergeKeyMissingError,
    OP_COL,
    OP_DELETE,
    PID_COL,
    VERSION_COL,
)

# ---------------------------------------------------------------------------
# stable partition routing
# ---------------------------------------------------------------------------
def stable_hash(keys: pa.ChunkedArray | pa.Array | np.ndarray) -> np.ndarray:
    """Process-stable uint64 hash of a string column (SipHash, fixed key).

    ~0.7 µs/row — it round-trips every value through a Python object.
    Kept as the ``"pandas"`` routing algo for tables committed by round 1
    (changing a table's routing hash orphans its partition files); new
    tables default to the ~30x faster ``"polars"`` algo below."""
    if isinstance(keys, (pa.ChunkedArray, pa.Array)):
        keys = keys.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(keys, dtype=object))


def hash_keys(keys, algo: str = "pandas") -> np.ndarray:
    """uint64 key hash under a NAMED algorithm.

    The algo is recorded in the table's manifest (``key_hash_algo``) —
    routing must be stable across runs and processes for the life of the
    table, so the function is part of the table format, not a tunable.

    The hash DOMAIN is canonical too: non-string keys are cast to their
    decimal/utf8 string form first — exactly the ``arcane_merge_key``
    string ``synthesize_merge_key`` / ``ensure_merge_key_alias`` store.
    Every router and reader (cycle routing, point-lookup pruning,
    repartitioning) must place a key identically whether it sees the
    aliased raw column or the stored merge-key string; hashing raw int
    buffers here would silently route to a different partition than a
    string-keyed ``lookup_keys`` probes (found only by accident of
    pid coverage).  The url-keyed headline path is already a string —
    zero extra work there.

    - ``"pandas"``: pd.util.hash_array (SipHash-1-3, fixed key); slow
      (Python-object round-trip) but the round-1 format.
    - ``"polars"``: polars' ahash over the Arrow buffers directly —
      ~30x faster, deterministic across processes for a pinned polars
      version (verified 1.42); the default for new tables.
    """
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if isinstance(keys, pa.Array) and not (
        pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type)
    ):
        keys = pc.cast(keys, pa.string())
    if algo == "polars":
        pl = import_polars()

        if isinstance(keys, pa.Array):
            return pl.from_arrow(keys).hash(seed=42).to_numpy(allow_copy=True)
        return pl.Series(
            np.asarray(keys, dtype=object).astype(str)
        ).hash(seed=42).to_numpy(allow_copy=True)
    if algo != "pandas":
        raise ValueError(f"unknown key_hash_algo: {algo!r}")
    if isinstance(keys, pa.Array):
        return stable_hash(keys)
    arr = np.asarray(keys, dtype=object)
    if arr.size and not isinstance(arr.flat[0], str):
        arr = arr.astype(str).astype(object)
    return stable_hash(arr)


def partition_ids(keys, num_partitions: int, algo: str = "pandas") -> np.ndarray:
    return (hash_keys(keys, algo) % np.uint64(num_partitions)).astype(np.int64)


#: skip the push-side LWW combine when a batch's duplicate-key rate is
#: below this: at low dup rates the string sort costs more than shipping
#: the few duplicate rows (the cow fold and every read resolve exact LWW);
#: at hot-key-storm rates the combine collapses the storm pre-exchange
PRECOMBINE_DUP_THRESHOLD = 0.25


def precombine_and_hash(
    batch: pa.Table, key_col: str, algo: str, threshold: float = PRECOMBINE_DUP_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Hash the batch's keys once; LWW-combine the batch ONLY when its
    duplicate rate crosses *threshold* (M2 as an adaptive combiner).

    Returns ``(keep, h)``: the ascending row indices the batch keeps
    (every row below the threshold) and the key hashes of those rows,
    which the writers gather in their own order (:func:`gather_kept`).

    One unstable ``argsort`` of the hashes gives the duplicate rate;
    the winners come from the same sort through :func:`_hash_lww_rows`,
    the kernel :func:`lww_hash_mask` uses, so the kept rows equal the
    string sort's, ties on (key, version) included.  It falls back to
    :func:`lww_string_sort_mask` on a hash collision, a null key, or a
    null or non-integer version."""
    keys = batch[key_col].combine_chunks()  # a take on chunks concatenates them
    h = hash_keys(keys, algo)
    n = len(h)
    rows = np.arange(n)
    if n <= 1:
        return rows, h
    order, starts = _hash_runs(h)
    if n - len(starts) <= threshold * n:
        return rows, h
    keep = _hash_lww_rows(keys, batch[VERSION_COL], order, starts)
    if keep is None:
        keep = np.flatnonzero(lww_string_sort_mask(batch, key_col))
    return keep, h[keep]


# ---------------------------------------------------------------------------
# vectorized LWW
# ---------------------------------------------------------------------------
def _hash_runs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: an unstable sort of the hashes (~4x cheaper
    than a stable lexsort) and the first sorted position of each run of
    equal hashes."""
    order = np.argsort(h)
    hs = h[order]
    return order, np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])


def _hash_lww_rows(
    keys: pa.Array, version: pa.ChunkedArray, order: np.ndarray, starts: np.ndarray
) -> np.ndarray | None:
    """Ascending row indices of the max-version row per key, from the
    rows sorted by key hash: *order* (any sort of the hashes, stable or
    not) and *starts*, the first sorted position of each hash run.

    Each run's winner has the run's maximum version and, among rows
    tied on it, the smallest row index — the row a stable string sort
    by (key, version descending) puts first.  Returns None, for the
    string sort to decide, when the hashes cannot: a null key, a null
    or non-integer version, or a run holding two distinct keys (a
    64-bit hash collision, found by comparing adjacent sorted keys)."""
    if not (
        pa.types.is_integer(version.type)
        and version.null_count == 0
        and keys.null_count == 0
        and (
            pa.types.is_string(keys.type)
            or pa.types.is_large_string(keys.type)
            or pa.types.is_integer(keys.type)
        )
    ):
        return None
    n = len(order)
    if len(starts) == n:
        return np.arange(n)  # every hash, so every key, is unique
    same = np.ones(n, dtype=bool)
    same[starts] = False
    pos = np.flatnonzero(same)
    eq = pc.equal(keys.take(order[pos - 1]), keys.take(order[pos]))
    if not pc.all(eq).as_py():
        return None
    vs = version.to_numpy()[order]
    top = np.maximum.reduceat(vs, starts)
    counts = np.diff(np.r_[starts, n])
    tied = np.where(vs == np.repeat(top, counts), order, n)
    return np.sort(np.minimum.reduceat(tied, starts))


#: at or below this many rows :func:`lww_winner_mask` picks the winners
#: with the exact string sort: the hash kernel's fixed cost (~0.5 ms on
#: one core) is about nine times the string sort's on a few rows
SMALL_LWW_ROWS = 512


def lww_winner_mask(
    t: pa.Table, key_col: str = MERGE_KEY_COL, version_col: str = VERSION_COL
) -> np.ndarray:
    """Boolean mask (in ORIGINAL row order) of the max-version row per
    key; ties on (key, version) keep the earliest row.

    The one LWW entry point: :func:`lww_string_sort_mask` up to
    :data:`SMALL_LWW_ROWS` rows (point lookups, change-feed windows,
    small partitions), :func:`lww_hash_mask` above.  Both pick the same
    winners."""
    if t.num_rows <= SMALL_LWW_ROWS:
        return lww_string_sort_mask(t, key_col, version_col)
    return lww_hash_mask(t, key_col, version_col)


def lww_hash_mask(
    t: pa.Table, key_col: str = MERGE_KEY_COL, version_col: str = VERSION_COL
) -> np.ndarray:
    """:func:`lww_winner_mask` from the keys' sorted 64-bit hashes
    (:func:`_hash_lww_rows`), never the strings, gathering no payload
    column.  It falls back to :func:`lww_string_sort_mask` on a hash
    collision, a null key, or a null or non-integer version."""
    if t.num_rows <= 1:
        return np.ones(t.num_rows, dtype=bool)
    keys = t[key_col].combine_chunks()
    order, starts = _hash_runs(hash_keys(keys, "polars"))
    rows = _hash_lww_rows(keys, t[version_col], order, starts)
    if rows is None:
        return lww_string_sort_mask(t, key_col, version_col)
    mask = np.zeros(t.num_rows, dtype=bool)
    mask[rows] = True
    return mask


def lww_string_sort_mask(
    t: pa.Table, key_col: str = MERGE_KEY_COL, version_col: str = VERSION_COL
) -> np.ndarray:
    """The exact LWW mask from a stable sort of the (key, version)
    projection: the fallback of the hash kernel (null keys group
    together; null versions sort last, so they lose)."""
    mask = np.zeros(t.num_rows, dtype=bool)
    if t.num_rows == 0:
        return mask
    sel = t.select([key_col, version_col])
    idx = pc.sort_indices(
        sel, sort_keys=[(key_col, "ascending"), (version_col, "descending")]
    )
    idxn = idx.to_numpy()
    k = sel[key_col].take(idx).to_numpy(zero_copy_only=False)
    first = np.r_[True, k[1:] != k[:-1]]
    mask[idxn[first]] = True
    return mask


def lww_table(
    t: pa.Table, key_col: str = MERGE_KEY_COL, version_col: str = VERSION_COL
) -> pa.Table:
    """Keep the max-version row per key (rank-1 per key, reference M2:
    ``row_number() over (partition by merge_key order by version desc) = 1``).
    Vectorized; output keeps the surviving rows in their original order."""
    if t.num_rows <= 1:
        return t
    return t.filter(pa.array(lww_winner_mask(t, key_col, version_col)))


def lww_alive(t: pa.Table, key_col: str = MERGE_KEY_COL) -> tuple[pa.Table, int]:
    """``drop_tombstones(lww_table(t))`` in ONE filter — one copy of the
    surviving payload instead of two.  Returns ``(alive rows in their
    original order, number of winners that were tombstones)``."""
    win = lww_winner_mask(t, key_col)
    alive = win & ~_is_delete(t)
    n_alive = int(np.count_nonzero(alive))
    deletes = int(np.count_nonzero(win)) - n_alive
    if n_alive == t.num_rows:
        return t, deletes
    return t.filter(pa.array(alive)), deletes


def ensure_merge_key_alias(t: pa.Table, key_col: str) -> pa.Table:
    """Append ``arcane_merge_key`` as an in-memory alias of *key_col*
    (the same buffers for a string key, a cast to string otherwise).

    Writers append it after the exchange, so the duplicate never travels
    (see TransformStage's single-key fast path); routing, ``bucket``
    partition expressions, bloom sidecars and write-time bounds see it,
    but a table whose manifest records the alias does not store it
    (:func:`stored_columns`).  Readers of such a table append it again
    (:func:`read_entry_table`)."""
    if key_col == MERGE_KEY_COL or MERGE_KEY_COL in t.column_names:
        return t
    col = t[key_col]
    if not pa.types.is_string(col.type):
        col = pc.cast(col, pa.string())
    return t.append_column(MERGE_KEY_COL, col)


def stored_columns(t: pa.Table, merge_key_alias: str | None) -> pa.Table:
    """The columns of *t* a data file stores: all but the in-memory
    ``arcane_merge_key`` when the table records it as an alias."""
    if merge_key_alias is None or MERGE_KEY_COL not in t.column_names:
        return t
    return t.drop_columns([MERGE_KEY_COL])


def gather_kept(batch: pa.Table, keep: np.ndarray, order: np.ndarray) -> pa.Table:
    """Rows ``keep[order]`` of *batch*: the pre-combine's kept rows in a
    writer's (pid) order.  A ``take`` on a multi-chunk table
    concatenates every chunk first (pyarrow 16) — a copy of the whole
    batch — so the kept rows are filtered chunk by chunk and only they
    are joined and gathered."""
    if len(keep) < batch.num_rows:
        mask = np.zeros(batch.num_rows, dtype=bool)
        mask[keep] = True
        batch = batch.filter(pa.array(mask))
    return batch.combine_chunks().take(order)


def _is_delete(t: pa.Table) -> np.ndarray:
    """Per-row tombstone flag (a null op is an upsert)."""
    if OP_COL not in t.column_names:
        return np.zeros(t.num_rows, dtype=bool)
    return pc.equal(pc.coalesce(t[OP_COL], pa.scalar("U")), OP_DELETE).to_numpy()


def drop_tombstones(t: pa.Table) -> pa.Table:
    if OP_COL not in t.column_names or t.num_rows == 0:
        return t
    return t.filter(pc.not_equal(pc.coalesce(t[OP_COL], pa.scalar("U")), OP_DELETE))


# ---------------------------------------------------------------------------
# bloom-filter sidecars (E2 parquetBloomFilterColumns analog)
# ---------------------------------------------------------------------------
#: pyarrow 16 cannot write parquet-native bloom filters, so the writers
#: emit `<file>.bloom.npz` sidecars (one bitset per configured column)
#: and `lookup_keys` prunes files whose bitset excludes every probed key
#: (reference targetTableProperties.parquetBloomFilterColumns,
#: docs/crd.md:111,128).
BLOOM_SUFFIX = ".bloom.npz"
_BLOOM_BITS_PER_KEY = 10
_BLOOM_HASHES = 4


def _bloom_m_bits(n_keys: int) -> int:
    m = 64
    while m < n_keys * _BLOOM_BITS_PER_KEY:
        m <<= 1
    return m


def _bloom_positions(values, m: int) -> tuple[np.ndarray, np.ndarray]:
    h1 = stable_hash(values)
    h2 = (h1 >> np.uint64(33)) | np.uint64(1)
    idx = np.empty((_BLOOM_HASHES, len(h1)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(_BLOOM_HASHES):
            idx[i] = (h1 + np.uint64(i) * h2) % np.uint64(m)
    return idx >> np.uint64(6), idx & np.uint64(63)


def build_bloom(values) -> np.ndarray:
    """uint64 bitset bloom filter over a (string) column's values."""
    m = _bloom_m_bits(len(values))
    words, bits = _bloom_positions(values, m)
    out = np.zeros(m >> 6, dtype=np.uint64)
    np.bitwise_or.at(out, words.ravel(), np.uint64(1) << bits.ravel())
    return out


def bloom_may_contain(bitset: np.ndarray, keys) -> np.ndarray:
    """Per-key boolean: could the file contain this key? (no false
    negatives; false-positive rate ~ (1/2)^4 at 10 bits/key)."""
    m = len(bitset) << 6
    words, bits = _bloom_positions(keys, m)
    hit = np.ones(words.shape[1], dtype=bool)
    for i in range(_BLOOM_HASHES):
        hit &= (bitset[words[i]] >> bits[i]) & np.uint64(1) != 0
    return hit


def write_bloom_sidecar(
    fs, parquet_rel: str, table: pa.Table, columns: tuple[str, ...]
) -> None:
    blooms = {
        c: build_bloom(table[c]) for c in columns if c in table.column_names
    }
    if blooms:
        fs.write_npz(parquet_rel + BLOOM_SUFFIX, **blooms)


def bloom_sidecar_excludes(fs, parquet_rel: str, column: str, keys) -> bool:
    """True iff a sidecar exists for *column* and rules out EVERY key."""
    z = fs.read_npz(parquet_rel + BLOOM_SUFFIX)
    if z is None or column not in z:
        return False
    try:
        return not bloom_may_contain(z[column], keys).any()
    except Exception:
        return False


#: rows per parquet ROW GROUP inside partition files.  Partitioning is
#: by key HASH, so a whole file's min/max on any payload/sort column
#: spans ~the full domain and can never be skipped; row groups within a
#: file DO carry narrow min/max ranges when the file is sorted
#: (sortedBy), and pyarrow's scan-filter prunes at row-group
#: granularity — this is what makes `read_target(where=...)` skip I/O
#: on a sorted column.  ~32k rows ≈ tens of MB for webtext rows, the
#: usual lake sweet spot.
ROW_GROUP_ROWS = 32_768


#: leading rows per column that :func:`dictionary_columns` samples
DICT_SAMPLE_ROWS = 1024


def dictionary_columns(table: pa.Table) -> list[str] | bool:
    """``use_dictionary`` for a data-file write: the columns whose first
    :data:`DICT_SAMPLE_ROWS` values hold at most half as many distinct
    values.  A column of unique values (urls, page bodies, versions)
    gains nothing from a dictionary page — the writer would hash every
    value into a dictionary that overflows and falls back to plain
    pages.  Tables with a nested or extension column keep dictionary
    pages on every column: ``use_dictionary`` names leaf column paths,
    which differ from such a column's field name."""
    if any(
        pa.types.is_nested(f.type) or isinstance(f.type, pa.ExtensionType)
        for f in table.schema
    ):
        return True
    head = table.slice(0, DICT_SAMPLE_ROWS)
    out = []
    for name, col in zip(head.column_names, head.columns):
        try:
            repeats = 2 * pc.count_distinct(col).as_py() <= len(col)
        except pa.ArrowNotImplementedError:  # null and dictionary types
            repeats = True
        if repeats:
            out.append(name)
    return out


def write_partition_files(
    table: pa.Table,
    target_root: str,
    cycle_id: str,
    pid: int,
    *,
    max_rows_per_file: int,
    compression: str,
    fsync: bool = True,
    prefix: str = "part",
    bloom_columns: tuple[str, ...] = (),
    row_group_rows: int = ROW_GROUP_ROWS,
    cluster_by: tuple = (),
    cluster_min_rows: int = 0,
    bounds_cols: tuple[str, ...] = (),
    bounds_out: dict | None = None,
    merge_key_alias: str | None = None,
) -> tuple[list[str], int]:
    """Write one partition's rows under the attempt-unique cycle dir;
    returns (relative paths, bytes).  Shared by the CoW rewrite,
    compaction, repartitioning and key-delete files.  *bloom_columns*
    adds per-file bloom sidecars for point-lookup file skipping (E2).
    With *merge_key_alias* the files do not store ``arcane_merge_key``
    (:func:`stored_columns`); sidecars and bounds still see it.

    *cluster_by* (parsed ``PartitionExpr`` tuple — the E2
    ``partitionExpressions`` value dimension, reference
    ``docs/crd.md:114-119``) splits the partition's rows into one file
    run per transform value (stable, so an upstream ``sorted_by`` order
    survives within each cluster).  *bounds_out*, when given a dict,
    receives write-time ``{rel: {col: [lo, hi]}}`` bounds over the
    transform source columns for ``manifest.file_stats`` — pruning
    works immediately, no ANALYZE pass needed."""
    rels: list[str] = []
    total = 0
    if table.num_rows == 0:
        return rels, 0
    fs = lakefs(target_root)

    use_dictionary = dictionary_columns(stored_columns(table, merge_key_alias))
    runs: list[pa.Table] = [table]
    bcols: tuple[str, ...] = tuple(bounds_cols)
    if cluster_by:
        bcols = bcols or source_columns(cluster_by)
        co = cluster_order(table, cluster_by)
        if co is not None:
            order, starts = co
            starts = coalesce_runs(starts, cluster_min_rows)
            sorted_tbl = table.take(pa.array(order))
            runs = [
                sorted_tbl.slice(s, e - s) for s, e in zip(starts[:-1], starts[1:])
            ]

    for run in runs:
        for off in range(0, run.num_rows, max_rows_per_file):
            chunk = run.slice(off, max_rows_per_file)
            rel = f"cycles/{cycle_id}/{prefix}-{pid:05d}-{uuid.uuid4().hex}.parquet"
            total += fs.write_table(
                stored_columns(chunk, merge_key_alias),
                rel,
                durable=fsync,
                compression=compression,
                row_group_size=row_group_rows,
                use_dictionary=use_dictionary,
            )
            if bloom_columns:
                write_bloom_sidecar(fs, rel, chunk, bloom_columns)
            if bounds_out is not None and bcols:
                b = column_bounds(chunk, bcols)
                if b:
                    bounds_out[rel] = b
            rels.append(rel)
    return rels, total


def split_entry(entry: str) -> tuple[str, list[int] | None]:
    """Parse a manifest file entry into ``(relpath, row_group_indices)``.

    Plain entries are whole files.  The 'direct' MoR merge writes ONE
    pid-sorted delta file per push task with row groups aligned to
    partition boundaries; the manifest then references the pid's slice
    as ``<relpath>#rg=<a>-<b>`` (inclusive) so readers fetch only that
    partition's row groups."""
    rel, sep, frag = entry.partition("#rg=")
    if not sep:
        return entry, None
    lo, dash, hi = frag.partition("-")
    return rel, list(range(int(lo), int(hi) + 1 if dash else int(lo) + 1))


def read_entry_table(
    target_root: str,
    entry: str,
    wanted: set[str] | None = None,
    use_threads: bool = True,
    rows: np.ndarray | None = None,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """Read a manifest file entry (fragment-aware): the columns of the
    file that are in *wanted* (all when None); see
    :func:`read_file_table`."""
    rel, rgs = split_entry(entry)
    pf = lakefs(target_root).parquet_file(rel)
    return read_file_table(pf, rel, rgs, wanted, use_threads, rows, merge_key_alias)


def read_file_table(
    pf: pq.ParquetFile,
    rel: str,
    rgs: list[int] | None,
    wanted: set[str] | None = None,
    use_threads: bool = True,
    rows: np.ndarray | None = None,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """The row groups *rgs* (all when None) of *pf*, the open data file
    *rel*: the columns of the file that are in *wanted* (all when None).

    With *merge_key_alias* (the manifest's), ``arcane_merge_key`` is the
    alias column under that name, appended without a copy for a string
    key; a stored copy (files written before the table recorded the
    alias) is never decoded.  Without one, a file that lacks the stored
    column while *wanted* names it raises :class:`MergeKeyMissingError`
    instead of reading null keys.

    With *rows* — ascending row positions within those row groups —
    decode only the row groups that hold them and return just those
    rows, in order (the payload phase of a key-first resolve).  Readers
    open *pf* through ``LakeFS.parquet_file``, whose footer comes from
    the lake's footer cache (``fs.FOOTERS``): committed data files are
    never rewritten, so each is parsed once per process."""
    names = pf.schema_arrow.names
    if merge_key_alias is None:
        if wanted is not None and MERGE_KEY_COL in wanted and MERGE_KEY_COL not in names:
            raise MergeKeyMissingError(
                f"{rel} stores no {MERGE_KEY_COL} and the table records no merge-key alias"
            )
        cols = [c for c in names if c in wanted] if wanted is not None else None
        return _read_rows(pf, rgs, cols, use_threads, rows)
    want_key = wanted is None or MERGE_KEY_COL in wanted
    if want_key and merge_key_alias not in names:
        raise MergeKeyMissingError(f"{rel} lacks {merge_key_alias}, which {MERGE_KEY_COL} aliases")
    cols = [
        c for c in names
        if c != MERGE_KEY_COL
        and (wanted is None or c in wanted or (want_key and c == merge_key_alias))
    ]
    t = _read_rows(pf, rgs, cols, use_threads, rows)
    if not want_key:
        return t
    t = ensure_merge_key_alias(t, merge_key_alias)
    if wanted is None or merge_key_alias in wanted:
        return t
    return t.drop_columns([merge_key_alias])


def _read_rows(pf, rgs, cols, use_threads: bool, rows: np.ndarray | None) -> pa.Table:
    """*cols* of the row groups *rgs* (all when None) of *pf*; with
    *rows*, only those rows, decoding only the groups that hold them."""
    if rows is None:
        if rgs is None:
            return pf.read(columns=cols, use_threads=use_threads)
        return pf.read_row_groups(rgs, columns=cols, use_threads=use_threads)
    if rgs is None:
        rgs = list(range(pf.num_row_groups))
    sizes = np.array([pf.metadata.row_group(i).num_rows for i in rgs], dtype=np.int64)
    starts = np.r_[0, np.cumsum(sizes)]
    group = np.searchsorted(starts, rows, side="right") - 1
    need = np.unique(group)
    t = pf.read_row_groups([rgs[i] for i in need], columns=cols, use_threads=use_threads)
    # each row's offset inside the decoded run of the groups it needs
    need_starts = np.r_[0, np.cumsum(sizes[need])]
    return t.take(rows - starts[group] + need_starts[np.searchsorted(need, group)])


#: comparison operators a delete predicate may use (K9 predicate
#: deletes): conjunction terms are ``[column, op, literal]``
PREDICATE_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
}


def term_scalar(op: str, lit, col_type: pa.DataType) -> pa.Scalar:
    """The literal as a scalar comparable against *col_type*: a PLAIN
    scalar when the compare kernel promotes the pair (int64 column vs
    float literal compares exactly, no truncation), else the literal is
    cast to the column type (a timestamp column vs an epoch-micros int
    literal has no promoting kernel).  Raises when neither works —
    ``validate_conjunction`` surfaces that as a clean ValueError at
    commit/read time instead of a bricked reader."""
    plain = pa.scalar(lit)
    try:
        PREDICATE_OPS[op](pa.nulls(0, col_type), plain)
        return plain
    except pa.ArrowNotImplementedError:
        return pa.scalar(lit, col_type)


def validate_conjunction(
    conjunction: list, schema: pa.Schema | None, allow_temporal: bool = False
) -> list:
    """Validate and normalize a ``[[col, op, literal], ...]`` AND-ed
    conjunction (shared by ``delete_where`` and filtered reads).

    *allow_temporal* additionally admits datetime/date literals —
    filtered READS pass it (timestamp predicates drive the
    partition_by file pruning); the delete_where path keeps the strict
    JSON-scalar contract because its predicates PERSIST in the manifest
    until ``materialize_deletes``."""
    import datetime as _dt

    if not conjunction:
        raise ValueError("predicate requires at least one [col, op, literal] term")
    ok_types: tuple = (int, float, str, bool)
    if allow_temporal:
        ok_types += (_dt.datetime, _dt.date)
    norm = []
    for term in conjunction:
        col, op, lit = term
        if op not in PREDICATE_OPS:
            raise ValueError(f"unsupported predicate op {op!r}")
        if schema is not None and col not in schema.names:
            raise ValueError(f"unknown column {col!r} in predicate")
        if not isinstance(lit, ok_types):
            raise ValueError(f"unsupported literal type {type(lit).__name__}")
        if schema is not None:
            col_type = schema.field(col).type
            try:
                term_scalar(op, lit, col_type)
            except Exception:
                raise ValueError(
                    f"literal {lit!r} is not comparable with column "
                    f"{col!r} ({col_type})"
                )
        norm.append([col, op, lit])
    return norm


def conjunction_expression(conjunction: list, schema: pa.Schema | None = None):
    """The conjunction as a ``pyarrow.dataset`` filter Expression — fed
    to ``read_parquet(filter=...)`` so parquet row-group statistics
    prune non-matching row groups AT THE SCAN (no bytes leave storage
    for excluded groups).  With *schema*, literals whose pair has no
    promoting compare kernel (timestamp column vs epoch int) are cast
    to the column type, mirroring the merge-on-read apply path."""
    import operator as _op

    import pyarrow.dataset as pads

    ops = {
        "==": _op.eq, "!=": _op.ne, "<": _op.lt,
        "<=": _op.le, ">": _op.gt, ">=": _op.ge,
    }
    expr = None
    for col, op, lit in conjunction:
        rhs = (
            term_scalar(op, lit, schema.field(col).type)
            if schema is not None and col in schema.names
            else lit
        )
        e = ops[op](pads.field(col), rhs)
        expr = e if expr is None else expr & e
    return expr


def filter_conjunction(t: pa.Table, conjunction: list) -> pa.Table:
    """SQL ``WHERE`` over an Arrow table: keep rows matching every term;
    null comparisons are non-matches (dropped), unlike delete
    predicates where null comparisons mean 'keep the row'."""
    if t.num_rows == 0:
        return t
    mask = None
    for col, op, lit in conjunction:
        m = PREDICATE_OPS[op](t[col], term_scalar(op, lit, t[col].type))
        mask = m if mask is None else pc.and_kleene(mask, m)
    return t.filter(pc.coalesce(mask, pa.scalar(False)))


def predicate_columns(delete_predicates) -> set[str]:
    """Every column referenced by any predicate (readers must retain
    them through column pruning so the filter can evaluate)."""
    return {
        term[0]
        for pred in (delete_predicates or [])
        for term in pred["conjunction"]
    }


def apply_delete_predicates(
    t: pa.Table, delete_predicates, version_col: str = VERSION_COL
) -> pa.Table:
    """Apply committed MoR DELETE predicates to LWW-resolved rows.

    Each predicate is point-in-time: it deletes rows whose winning
    version is ≤ the predicate's commit watermark AND whose payload
    matches the conjunction — a key re-upserted AFTER the delete
    survives, exactly like SQL ``DELETE`` followed by new inserts.  A
    conjunction term naming a column absent from *t* (pre-evolution
    files) cannot match, so the predicate drops nothing there."""
    for pred in delete_predicates or []:
        if t.num_rows == 0:
            break
        mask = pc.less_equal(t[version_col], pa.scalar(pred["watermark"], pa.int64()))
        ok = True
        for col, op, lit in pred["conjunction"]:
            if col not in t.column_names:
                ok = False
                break
            # kernel promotion where possible (never literal truncation),
            # typed cast only where no promoting kernel exists (timestamps)
            mask = pc.and_kleene(
                mask, PREDICATE_OPS[op](t[col], term_scalar(op, lit, t[col].type))
            )
        if not ok:
            continue
        # null comparisons stay null -> treated as non-matching (kept)
        t = t.filter(pc.coalesce(pc.invert(mask), pa.scalar(True)))
    return t


def apply_key_deletes(
    t: pa.Table,
    target_root: str,
    key_delete_entries,
    key_col: str = MERGE_KEY_COL,
    version_col: str = VERSION_COL,
) -> pa.Table:
    """Apply committed equality-delete files (K9b) to LWW-resolved rows:
    drop rows whose canonical merge-key string is in a delete file AND
    whose winning version is ≤ that delete's commit watermark — a key
    re-upserted after the delete survives (Iceberg v2 equality deletes
    scoped by sequence number).  The files of one commit (one watermark)
    filter in one pass."""
    by_watermark: dict[int, list[str]] = {}
    for entry in key_delete_entries or []:
        by_watermark.setdefault(entry["watermark"], []).append(entry["file"])
    fs = lakefs(target_root)
    for watermark, files in by_watermark.items():
        if t.num_rows == 0:
            break
        dk = pa.concat_arrays([
            fs.read_table(f, columns=[MERGE_KEY_COL])[MERGE_KEY_COL].combine_chunks()
            for f in files
        ])
        name = MERGE_KEY_COL if MERGE_KEY_COL in t.column_names else key_col
        col = t[name]
        if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
            col = pc.cast(col, pa.string())  # the canonical hash/key domain
        mask = pc.and_kleene(
            pc.is_in(col, value_set=dk),
            pc.less_equal(t[version_col], pa.scalar(watermark, pa.int64())),
        )
        # null key/version comparisons stay null -> treated as
        # non-matching (row KEPT), same contract as delete predicates
        t = t.filter(pc.coalesce(pc.invert(mask), pa.scalar(True)))
    return t


class Partition(NamedTuple):
    """One partition's committed entries, as a resolve reads them: base
    files (LWW-resolved and alive), the delta chain (manifest entries,
    ``#rg=`` slices included) and its equality-delete files."""

    base: Sequence[str] = ()
    deltas: Sequence[str] = ()
    key_deletes: Sequence[dict] = ()


def resolve_partition_table(
    target_root: str,
    parts: Sequence[Partition],
    schema: pa.Schema,
    key_filter: pa.Array | None = None,
    key_col: str = MERGE_KEY_COL,
    use_threads: bool = True,
    bloom_column: str | None = None,
    stats: dict | None = None,
    delete_predicates=None,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """Merge-on-read resolve of a run of partitions (a *block*): LWW
    across each partition's base + deltas, tombstones dropped, then its
    equality deletes and the table's delete predicates.  The output is
    the concat of the partitions' resolves, in order: partition, then
    entry, then row order within the entry.

    Without *key_filter* the block resolves at once
    (:func:`_resolve_block`): each file is read once, and one LWW runs
    over the rows of every partition with deltas — exact, because
    partitions are key-disjoint.

    A key-filtered resolve (point lookups, change-feed probes) takes a
    run of one partition; *key_filter* prunes rows early — filtering by
    key before LWW is safe because every version of a key lives in the
    same partition.  With *bloom_column*, files whose bloom sidecar
    rules out every probed key are skipped entirely (no false
    negatives, so skipping cannot change the LWW outcome for the probed
    keys).  Over deltas it runs key first (:func:`_resolve_key_first`):
    it decodes the LWW columns of every entry, and the rest of *schema*
    only for the winning rows.  Without deltas every key-matching row is
    already a winner, so that read stays one pass over each file.
    ``stats["files_read"]`` counts the entries opened (once each, in
    the key phase) and ``stats["files_skipped"]`` those the bloom
    sidecars ruled out.  *merge_key_alias* is the manifest's (see
    :func:`read_file_table`)."""
    if key_filter is None:
        combined = _resolve_block(target_root, parts, schema, key_col, use_threads, merge_key_alias)
    else:
        (part,) = parts
        combined = _resolve_keyed(
            target_root, part, schema, key_filter, key_col, use_threads, bloom_column, stats,
            merge_key_alias,
        )
    if delete_predicates:
        combined = apply_delete_predicates(combined, delete_predicates)
    return combined


def _resolve_keyed(
    target_root: str,
    part: Partition,
    schema: pa.Schema,
    key_filter: pa.Array,
    key_col: str,
    use_threads: bool,
    bloom_column: str | None,
    stats: dict | None,
    merge_key_alias: str | None,
) -> pa.Table:
    """One partition's key-filtered resolve, equality deletes applied;
    see :func:`resolve_partition_table`."""
    fs = lakefs(target_root)
    entries = []
    for entry in list(part.base) + list(part.deltas):
        rel, _ = split_entry(entry)
        if bloom_column is not None and bloom_sidecar_excludes(fs, rel, bloom_column, key_filter):
            if stats is not None:
                stats["files_skipped"] = stats.get("files_skipped", 0) + 1
            continue
        if stats is not None:
            stats["files_read"] = stats.get("files_read", 0) + 1
        entries.append(entry)
    if not entries:
        return schema.empty_table()
    if part.deltas:
        combined = _resolve_key_first(
            target_root, entries, schema, key_filter, key_col, use_threads, merge_key_alias
        )
    else:
        # base files are already LWW-resolved and alive
        wanted = set(schema.names)
        tables = []
        for entry in entries:
            t = read_entry_table(
                target_root, entry, wanted, use_threads=use_threads,
                merge_key_alias=merge_key_alias,
            )
            t = t.filter(pc.is_in(t[key_col], value_set=key_filter))
            tables.append(cast_to_schema(t, schema))
        combined = pa.concat_tables(tables)
    if part.key_deletes:
        combined = apply_key_deletes(combined, target_root, part.key_deletes, key_col)
    return combined


def _resolve_block(
    target_root: str,
    parts: Sequence[Partition],
    schema: pa.Schema,
    key_col: str,
    use_threads: bool,
    merge_key_alias: str | None,
) -> pa.Table:
    """The unfiltered resolve of a block of partitions, equality deletes
    applied: the rows of every entry (:func:`_read_block_entries`), one
    LWW (tombstones out, as :func:`lww_alive`) over the rows of the
    partitions with deltas (a partition without deltas holds base files
    only, already LWW-resolved and alive), then the block's equality
    deletes."""
    entries = [split_entry(e) for p in parts for e in (*p.base, *p.deltas)]
    if not entries:
        return schema.empty_table()
    pieces = _read_block_entries(target_root, entries, schema, use_threads, merge_key_alias)
    combined = pa.concat_tables(pieces)
    # per piece: does its partition have deltas (its rows take part in the LWW)?
    lww = np.repeat([bool(p.deltas) for p in parts], [len(p.base) + len(p.deltas) for p in parts])
    if lww.any():
        rows = np.repeat(lww, [t.num_rows for t in pieces])
        t = pa.concat_tables([x for x, d in zip(pieces, lww) if d])
        alive = np.ones(combined.num_rows, dtype=bool)
        alive[rows] = lww_winner_mask(t) & ~_is_delete(t)
        if not alive.all():
            combined = combined.filter(pa.array(alive))
    # a partition's delete files hold only its own keys
    key_deletes = [e for p in parts for e in p.key_deletes]
    if key_deletes:
        combined = apply_key_deletes(combined, target_root, key_deletes, key_col)
    return combined


def _read_block_entries(
    target_root: str,
    entries: list[tuple[str, list[int] | None]],
    schema: pa.Schema,
    use_threads: bool,
    merge_key_alias: str | None,
) -> list[pa.Table]:
    """Each ``(file, row groups)`` entry's rows as *schema*, in order,
    reading each file once: one :func:`read_file_table` over the union
    of its entries' row groups, cast once and sliced back per entry.  A
    block's delta entries are row-group runs of the same pid-sorted
    files, so the union reads no byte a per-entry read would not."""
    fs = lakefs(target_root)
    wanted = set(schema.names)
    by_file: dict[str, list[int]] = {}
    for k, (rel, _) in enumerate(entries):
        by_file.setdefault(rel, []).append(k)
    out: list = [None] * len(entries)
    for rel, ks in by_file.items():
        pf = fs.parquet_file(rel)
        md = pf.metadata
        groups = [
            entries[k][1] if entries[k][1] is not None else range(md.num_row_groups) for k in ks
        ]
        union = sorted(set().union(*groups))
        t = cast_to_schema(
            read_file_table(
                pf, rel, None if len(union) == md.num_row_groups else union, wanted,
                use_threads, merge_key_alias=merge_key_alias,
            ),
            schema,
        )
        end = dict(zip(union, np.cumsum([md.row_group(g).num_rows for g in union]).tolist()))
        for k, gs in zip(ks, groups):
            # an entry's groups are a contiguous run, so its rows are too
            lo = end[gs[0]] - md.row_group(gs[0]).num_rows
            out[k] = t.slice(lo, end[gs[-1]] - lo)
    return out


def partition_blocks(
    target_root: str,
    parts: Sequence[Partition],
    schema: pa.Schema,
    max_bytes: int | None,
    merge_key_alias: str | None = None,
) -> list[list[Partition]]:
    """*parts* in runs of consecutive partitions, each resolved as one
    block.  A block grows while its footer bytes — the uncompressed size
    of *schema*'s columns in its entries' row groups, from the footer
    cache — stay within *max_bytes* (None: no limit); a partition over
    the limit alone is a block of its own."""
    if max_bytes is None or len(parts) <= 1:
        return [list(parts)] if parts else []
    fs = lakefs(target_root)
    names = set(schema.names)
    if merge_key_alias is not None and MERGE_KEY_COL in names:
        names = (names - {MERGE_KEY_COL}) | {merge_key_alias}  # a stored copy is never read
    sizes: dict[str, list[int]] = {}  # per file: the read columns' bytes per row group

    def entry_bytes(entry: str) -> int:
        rel, rgs = split_entry(entry)
        if rel not in sizes:
            md = fs.parquet_file(rel).metadata
            cols = [
                j for j in range(md.num_columns)
                if md.schema.column(j).path.split(".")[0] in names
            ]
            sizes[rel] = [
                sum(md.row_group(g).column(j).total_uncompressed_size for j in cols)
                for g in range(md.num_row_groups)
            ]
        per_group = sizes[rel]
        return sum(per_group) if rgs is None else sum(per_group[g] for g in rgs)

    blocks: list[list[Partition]] = []
    block: list[Partition] = []
    size = 0
    for p in parts:
        n = sum(entry_bytes(e) for e in (*p.base, *p.deltas))
        if block and size + n > max_bytes:
            blocks.append(block)
            block, size = [], 0
        block.append(p)
        size += n
    blocks.append(block)
    return blocks


def _resolve_key_first(
    target_root: str,
    entries: list[str],
    schema: pa.Schema,
    key_filter: pa.Array,
    key_col: str,
    use_threads: bool,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """``lww_alive`` over the key-filtered rows of *entries*, decoding
    the payload of the live winners only.

    1. **Key phase.**  Read the LWW columns (*key_col*,
       ``arcane_merge_key``, the column it aliases, version and op —
       those in *schema*) of every entry, keep each entry's key-matching
       row positions, and pick the live winners (LWW, tombstones out)
       over the narrow concat.  An aliased merge key decodes one string
       column, not two.
    2. **Payload phase.**  Read the rest of *schema* only from entries
       holding a live winner, only the row groups holding it, ``take``
       those rows and join them to the narrow columns.

    A point lookup over a chain of deltas thus decodes every entry's
    key column but at most one entry's ``html``/``text``; an absent or
    deleted key decodes no payload at all.  Rows keep the order
    ``lww_alive`` gives over the key-filtered concat."""
    lww_cols = (key_col, MERGE_KEY_COL, merge_key_alias, VERSION_COL, OP_COL)
    narrow = pa.schema([f for f in schema if f.name in lww_cols])
    payload = pa.schema([f for f in schema if f.name not in narrow.names])
    hits, tables = [], []
    for entry in entries:
        t = read_entry_table(
            target_root, entry, set(narrow.names), use_threads=use_threads,
            merge_key_alias=merge_key_alias,
        )
        rows = np.flatnonzero(pc.is_in(t[key_col], value_set=key_filter).to_numpy())
        hits.append(rows)
        if len(rows):
            tables.append(cast_to_schema(t.take(rows), narrow))
    if not tables:
        return schema.empty_table()
    keys = pa.concat_tables(tables)
    alive = lww_winner_mask(keys) & ~_is_delete(keys)
    keys = keys.filter(pa.array(alive))
    if not payload:
        return keys
    parts, off = [], 0
    for entry, rows in zip(entries, hits):
        live = rows[alive[off : off + len(rows)]]
        off += len(rows)
        if len(live):
            t = read_entry_table(
                target_root, entry, set(payload.names), use_threads=use_threads, rows=live,
                merge_key_alias=merge_key_alias,
            )
            parts.append(cast_to_schema(t, payload))
    body = pa.concat_tables(parts) if parts else payload.empty_table()
    return pa.Table.from_arrays(
        [keys[f.name] if f.name in narrow.names else body[f.name] for f in schema],
        schema=schema,
    )


CHANGE_TYPE_COL = "change_type"


def change_feed_schema_fields(
    schema: pa.Schema, drop_meta: bool, pre_image_columns: tuple[str, ...] = ()
) -> list[pa.Field]:
    """Output fields of a change-feed read (shared by the per-partition
    resolver and the Dataset wrapper so empty results keep the schema)."""
    fields = [f for f in schema] + [pa.field(CHANGE_TYPE_COL, pa.string())]
    fields += [pa.field(f"pre_{c}", schema.field(c).type) for c in pre_image_columns]
    if drop_meta:
        fields = [f for f in fields if f.name not in (OP_COL, MERGE_KEY_COL)]
    return fields


def change_feed_partition(
    target_root: str,
    appended_entries: list[str],
    base_at_from: list[str],
    deltas_at_from: list[str],
    schema: pa.Schema,
    drop_meta: bool = True,
    key_col: str = MERGE_KEY_COL,
    pre_image_columns: tuple[str, ...] = (),
    delete_predicates=None,
    key_deletes=None,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """NET row-level changes of ONE partition between two snapshots —
    the change-data-feed resolve (SQL Server ``CHANGETABLE(CHANGES t,
    @from)`` net semantics, the very feed the reference consumes:
    ``docs/crd.md`` change-tracking contract; Delta-Lake CDF analog).

    Reads ONLY the delta entries appended in ``(from, to]`` (cost ∝
    changes, never table size), takes the LWW winner per key among
    them, then probes the FROM snapshot for just those keys (key_filter
    + bloom sidecars — the same partition-pruned point-lookup path as
    ``lookup_keys``) to classify:

    - winner is a tombstone, key alive at FROM    -> ``delete``
    - winner is a tombstone, key absent at FROM   -> net no-op (dropped)
    - winner is an upsert, key alive at FROM      -> ``update``
    - winner is an upsert, key absent at FROM     -> ``insert``

    Emits the winner's payload row (for deletes: the tombstone's row —
    its ``sys_change_version`` is the deleting change's version) plus a
    ``change_type`` column.  *pre_image_columns* additionally attaches
    the FROM-snapshot value of those columns as ``pre_<name>`` (null for
    inserts) — what an incremental consumer needs to RETRACT the old
    contribution of an updated/deleted row (materialized-view
    maintenance; Delta CDF ``update_preimage`` analog).  The pre-images
    come from the prior-snapshot probe already performed for
    classification, so they cost no extra reads."""
    wanted = set(schema.names)
    tables = [
        cast_to_schema(
            read_entry_table(target_root, e, wanted, merge_key_alias=merge_key_alias), schema
        )
        for e in appended_entries
    ]
    tables = [t for t in tables if t.num_rows]
    out_fields = change_feed_schema_fields(schema, drop_meta, pre_image_columns)
    empty = pa.schema(out_fields).empty_table()
    if not tables:
        return empty
    changes = lww_table(pa.concat_tables(tables), key_col=key_col)
    keys = changes[key_col].combine_chunks()
    # the FROM-snapshot probe needs only existence (key/version/op for
    # the LWW resolve) plus any requested pre-image columns — never the
    # full payload (html/text dominate a webtext row; reading them here
    # would make feed cost grow with row width for no reason)
    probe_need = (
        {key_col, VERSION_COL, OP_COL}
        | set(pre_image_columns)
        | predicate_columns(delete_predicates)
    )
    probe_schema = pa.schema([f for f in schema if f.name in probe_need])
    prior = resolve_partition_table(
        target_root,
        [Partition(base_at_from, deltas_at_from, key_deletes or ())],
        probe_schema,
        key_filter=keys,
        key_col=key_col,
        bloom_column=key_col,
        delete_predicates=delete_predicates,
        merge_key_alias=merge_key_alias,
    )
    prior_keys = prior[key_col].combine_chunks()
    existed = pc.is_in(changes[key_col], value_set=prior_keys)
    is_del = pc.equal(pc.coalesce(changes[OP_COL], pa.scalar("U")), OP_DELETE)
    kind = pc.if_else(
        is_del,
        pa.scalar("delete"),
        pc.if_else(existed, pa.scalar("update"), pa.scalar("insert")),
    )
    out = changes.append_column(CHANGE_TYPE_COL, kind)
    if pre_image_columns:
        idx = pc.index_in(changes[key_col], value_set=prior_keys)
        for c in pre_image_columns:  # null index -> null pre-image (inserts)
            out = out.append_column(f"pre_{c}", prior[c].combine_chunks().take(idx))
    # a key created AND deleted inside the range never existed in either
    # snapshot: net no-op, exactly like CHANGETABLE's net mode
    out = out.filter(pc.or_(pc.invert(is_del), existed))
    if drop_meta:
        out = out.drop_columns([c for c in (OP_COL, MERGE_KEY_COL) if c in out.column_names])
    return out.select([f.name for f in out_fields])


def change_feed_all_partition(
    target_root: str,
    appended_entries: list[str],
    schema: pa.Schema,
    drop_meta: bool = True,
    merge_key_alias: str | None = None,
) -> pa.Table:
    """ALL row-level changes of one partition appended in ``(from, to]``
    — the per-change history as persisted (``cdc.fn_cdc_get_all_changes``
    analog; :func:`change_feed_partition` above is the NET mode that
    collapses to per-key winners).  ``change_type`` surfaces each row's
    logged operation (I/U/D → insert/update/delete) — source-claimed,
    not snapshot-relative.  Under the adaptive pre-combine the persisted
    history is the per-push LWW survivors; replay with
    ``precombine_dup_threshold > 1`` when raw per-event fidelity is
    required (same knob the exact cycle counters need)."""
    wanted = set(schema.names)
    tables = [
        cast_to_schema(
            read_entry_table(target_root, e, wanted, merge_key_alias=merge_key_alias), schema
        )
        for e in appended_entries
    ]
    tables = [t for t in tables if t.num_rows]
    out_fields = change_feed_schema_fields(schema, drop_meta)
    if not tables:
        return pa.schema(out_fields).empty_table()
    rows = pa.concat_tables(tables)
    op = pc.coalesce(rows[OP_COL], pa.scalar("U"))
    kind = pc.if_else(
        pc.equal(op, OP_DELETE),
        pa.scalar("delete"),
        pc.if_else(pc.equal(op, "I"), pa.scalar("insert"), pa.scalar("update")),
    )
    out = rows.append_column(CHANGE_TYPE_COL, kind)
    if drop_meta:
        out = out.drop_columns(
            [c for c in (OP_COL, MERGE_KEY_COL) if c in out.column_names]
        )
    return out.select([f.name for f in out_fields])


def fold_stats_into_manifest(manifest, stats: list[dict], cycle_id: str) -> dict:
    """Update manifest.partitions / lineage from merge stats; returns the
    cycle metrics dict (rows_in, upserts, deletes, bytes, partitions)."""
    totals = {
        "changes_in": 0,
        "combined_away": 0,
        "upserts": 0,
        "deletes": 0,
        "bytes": 0,
        "rows": 0,
    }
    per_pid_load: dict[int, int] = {}
    for s in stats:
        pid = int(s[PID_COL])
        files = json.loads(s["files_json"])
        mode = s.get("mode", "cow")
        if mode == "mor":
            # delta files APPEND (append order == version order); base
            # files untouched.  The OPTIMIZE fold rewrites base + clears.
            if files:
                manifest.deltas.setdefault(pid, []).extend(files)
        else:
            manifest.partitions[pid] = files
            if not files:
                manifest.partitions.pop(pid, None)
            # a CoW rewrite folded every visible row (callers pass
            # base+deltas as partition_files), so pending deltas are dead
            manifest.deltas.pop(pid, None)
        manifest.lineage[pid] = {
            "cycle": cycle_id,
            "rows": int(s["rows"]),
            "files": len(files),
            "bytes": int(s["bytes"]),
            "mode": mode,
            "deltas": len(manifest.deltas.get(pid, [])),
        }
        per_pid_load[pid] = per_pid_load.get(pid, 0) + int(s["changes_in"])
        fsj = s.get("file_stats_json") if hasattr(s, "get") else None
        if fsj:
            # write-time column bounds (partition_by source columns) —
            # read_target pruning engages without waiting for ANALYZE
            manifest.file_stats.update(json.loads(fsj))
        for k in totals:
            v = s[k] if k in s else None
            totals[k] += int(v) if v is not None else 0
    # distinct pids: the direct writer emits one stats row per
    # (task, pid), so len(stats) would overcount
    totals["partitions_touched"] = len(per_pid_load)
    # every arriving row is accounted: routed + collapsed-by-combine
    # (precombined_rows is kept visible — storm-defusal telemetry)
    totals["precombined_rows"] = totals.pop("combined_away")
    totals["changes_in"] += totals["precombined_rows"]
    # skew telemetry (SURVEY.md §4.2): per-cycle partition load histogram
    # over rows ROUTED per partition (post-combine — the physical
    # exchange/write load).  A max/mean ratio near 1 means hot keys were
    # defused before the exchange; sustained high ratios would call for
    # re-bucketing the hot partitions
    loads = list(per_pid_load.values())
    if loads:
        mean = sum(loads) / len(loads)
        totals["skew"] = {
            "max_partition_changes": max(loads),
            "mean_partition_changes": round(mean, 1),
            "max_over_mean": round(max(loads) / mean, 3) if mean else 0.0,
        }
    if manifest.file_stats:
        # drop bounds of files this commit superseded (CoW rewrites /
        # delta folds); surviving entries stay exact — files are immutable
        live = manifest.all_files()
        manifest.file_stats = {
            k: v for k, v in manifest.file_stats.items() if k in live
        }
    return totals


# ---------------------------------------------------------------------------
# one plain Ray task per read unit
# ---------------------------------------------------------------------------
def _unit_task(unit, transform, fn, index: int):
    """Read one unit (or take the Dataset block Ray resolved), apply the
    caller's transform, and hand the batch to the writer's *fn*."""
    batch = unit if isinstance(unit, pa.Table) else unit.read()
    if transform is not None:
        batch = transform(batch)
    return fn(batch, index)


def _run_task(fn, items: list) -> list:
    return [fn(x) for x in items]


_REMOTE: dict = {}


def _remote(task):
    """*task* as a plain ``ray.remote`` function of one CPU, exported
    once per process."""
    import ray

    if task not in _REMOTE:
        _REMOTE[task] = ray.remote(task)
    return _REMOTE[task]


def run_units(units, transform, fn) -> list:
    """``fn(transform(unit.read()), index)`` in one Ray task per unit;
    returns the results in unit order.

    *units* is a list of ``pqio.ReadUnit`` or a ``ray.data.Dataset``.
    A Dataset is adapted in :func:`_submit_units` only, through
    ``Dataset.to_arrow_refs()``: each block ref is a unit that the task
    receives as its (resolved) argument.  A task takes one CPU, so at
    most one runs per CPU, and the cycle needs no Ray Data executor.
    The cow writer starts the same tasks through :func:`_submit_units`,
    which hands it each task's extra returns as objects."""
    import ray

    return ray.get(_submit_units(units, transform, fn))


def _submit_units(units, transform, fn, num_returns: int = 1) -> list:
    """Start :func:`run_units`' tasks; returns each task's object ref,
    or its list of *num_returns* refs (the caller owns those objects)."""
    if hasattr(units, "to_arrow_refs"):  # a ray.data.Dataset
        units = units.to_arrow_refs()
    task = _remote(_unit_task).options(num_returns=num_returns)
    return [task.remote(u, transform, fn, i) for i, u in enumerate(units)]


def run_per_cpu(fn, items: list) -> list:
    """``[fn(x) for x in items]`` in at most one plain Ray task per CPU,
    each over a contiguous run of *items*; results in item order.  The
    partition fan-outs of maintenance and export use it (a Ray Data map
    over a one-block Dataset of partition ids would run them all in one
    task)."""
    import ray

    task = _remote(_run_task)
    runs = spread(list(items), cluster_cpus())
    return [r for out in ray.get([task.remote(fn, run) for run in runs]) for r in out]


# ---------------------------------------------------------------------------
# the mor writer: direct per-task delta writes
# ---------------------------------------------------------------------------
def apply_change_batch_direct(
    units,
    *,
    transform=None,
    target_root: str,
    cycle_id: str,
    schema: pa.Schema,
    num_partitions: int,
    compression: str = "zstd",
    sorted_by: tuple[str, ...] = (),
    key_col: str = MERGE_KEY_COL,
    fsync: bool = True,
    bloom_columns: tuple[str, ...] = (),
    hash_algo: str = "pandas",
    max_rows_per_file: int = 1_000_000,
    precombine_threshold: float = PRECOMBINE_DUP_THRESHOLD,
    bounds_cols: tuple[str, ...] = (),
    merge_key_alias: str | None = None,
) -> list[dict]:
    """Merge-on-read WITHOUT an exchange: one task per read unit
    (``run_units``) reads it, applies *transform* (the caller's
    per-batch transform, or None), pre-combines, routes and writes its
    own pid-sorted delta parquet, row groups aligned to partition
    boundaries; the manifest records each partition's slice as
    ``<file>#rg=<a>-<b>`` (see ``split_entry``).  So one delta file per
    unit, and the tasks return only their stats rows (one per pid).
    *units* may also be a ``ray.data.Dataset`` (one unit per block).
    With *merge_key_alias* the delta files do not store
    ``arcane_merge_key`` (:func:`stored_columns`).

    *bounds_cols* (the partition_by source columns): whole-file
    write-time bounds are recorded for manifest.file_stats so the
    merge-on-read pid pruning in ``read_target`` can skip partitions
    whose every base AND delta file excludes the predicate.  Direct
    deltas are NOT value-clustered — they are transient and the
    OPTIMIZE fold re-clusters when it rewrites base files (Iceberg
    compaction's posture).

    Why: the cow writer's exchange round-trips the full change payload
    through the object store (serialize → plasma → deserialize → write)
    before anything hits disk.  On bandwidth-bound hosts that
    copy chain is the non-scaling term of the cycle (BENCH/BASELINE.md
    round-2 profile: the push stage stayed flat from 2→8 CPUs while the
    flush scaled).
    Direct mode keeps the data inside the unit's task: read → transform →
    route (one argsort + one gather) → zstd to disk.  There is no
    barrier besides the tiny per-task stats collection, and no state —
    tasks are fully elastic across a cluster.

    Correctness: read-side LWW resolves strictly by version
    (``lww_table``), so cross-task duplicate keys within a cycle are
    resolved at read/OPTIMIZE exactly as cross-cycle duplicates already
    are; tombstones are retained in the delta.  The per-cycle combine
    the cow fold performs is an optimization, not a correctness
    point — within-task storms still collapse via the adaptive
    pre-combine.
    """
    P = num_partitions

    def write_task_delta(batch: pa.Table, _index: int) -> list[dict]:
        if batch.num_rows == 0:
            return []
        changes_in_total = batch.num_rows
        keep, h = precombine_and_hash(batch, key_col, hash_algo, precombine_threshold)
        combined_away_total = changes_in_total - len(keep)
        pid = (h % np.uint64(P)).astype(np.int64)
        order = np.argsort(pid, kind="stable")
        b = gather_kept(batch, keep, order)
        pids = pid[order]
        b = cast_to_schema(ensure_merge_key_alias(b, key_col), schema)
        stored = stored_columns(b, merge_key_alias)
        bounds = np.r_[np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]]), len(pids)]
        deleted = np.r_[0, np.cumsum(_is_delete(b))]
        fs = lakefs(target_root)
        rel = f"cycles/{cycle_id}/delta-{uuid.uuid4().hex}.parquet"
        rows_stat: list[dict] = []
        writer = fs.parquet_writer(
            rel, stored.schema, compression=compression,
            use_dictionary=dictionary_columns(stored),
        )
        try:
            rg = 0
            for slice_i, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
                sl = b.slice(s, e - s)
                if sorted_by:
                    sl = sl.sort_by([(c, "ascending") for c in sorted_by])
                sl = stored_columns(sl, merge_key_alias)
                first_rg = rg
                for off in range(0, sl.num_rows, max_rows_per_file):
                    chunk = sl.slice(off, max_rows_per_file)
                    writer.write_table(chunk, row_group_size=chunk.num_rows)
                    rg += 1
                deletes = int(deleted[e] - deleted[s])
                rows_stat.append(
                    {
                        PID_COL: int(pids[s]),
                        "rows": sl.num_rows,
                        "upserts": sl.num_rows - deletes,
                        "deletes": deletes,
                        "changes_in": sl.num_rows,
                        # rows the pre-combine collapsed away BEFORE routing:
                        # attributed to the task's first pid row so the
                        # cycle's 'every arriving row is accounted'
                        # invariant holds; not part of any partition's load
                        "combined_away": combined_away_total if slice_i == 0 else 0,
                        "bytes": 0,  # filled from row-group metadata below
                        "files_json": json.dumps([f"{rel}#rg={first_rg}-{rg - 1}"]),
                        "mode": "mor",
                        # whole-file write-time bounds (first pid row only;
                        # one physical file per task, shared by its slices)
                        "file_stats_json": "",
                    }
                )
        finally:
            writer.close(durable=fsync)
        if bloom_columns:
            write_bloom_sidecar(fs, rel, b, bloom_columns)
        # exact per-partition COMPRESSED sizes from the footer (summed per
        # column chunk — rg.total_byte_size is the uncompressed size)
        md = fs.parquet_file(rel).metadata
        rg_bytes = [
            sum(
                md.row_group(i).column(j).total_compressed_size
                for j in range(md.row_group(i).num_columns)
            )
            for i in range(md.num_row_groups)
        ]
        for r in rows_stat:
            _, rgs = split_entry(json.loads(r["files_json"])[0])
            r["bytes"] = int(sum(rg_bytes[i] for i in rgs))
        # account the pre-combine drop separately (combined_away) so the
        # cycle totals still see every arriving row WITHOUT inflating any
        # partition's routed load — changes_in stays the true per-pid
        # exchange/write load the skew histogram measures
        if rows_stat:
            rows_stat[0]["combined_away"] = changes_in_total - int(
                sum(r["rows"] for r in rows_stat)
            )
            if bounds_cols:
                fb = column_bounds(b, bounds_cols)
                if fb:
                    rows_stat[0]["file_stats_json"] = json.dumps({rel: fb})
        return rows_stat

    # one delta file per unit: file granularity follows the read plan
    # (fetch_size rows, split to blocks_per_cpu x CPUs; see pqio)
    return [r for rows in run_units(units, transform, write_task_delta) for r in rows]


# ---------------------------------------------------------------------------
# the cow writer: unit tasks route, one fold task per run of partitions
# ---------------------------------------------------------------------------
def fold_partitions(
    target_root: str,
    cycle_id: str,
    partition_files: dict[int, list[str]],
    changes: dict[int, list[pa.Table]],
    schema: pa.Schema,
    *,
    key_col: str = MERGE_KEY_COL,
    sorted_by: tuple[str, ...] = (),
    cluster_by: tuple = (),
    cluster_min_rows: int = 0,
    merge_key_alias: str | None = None,
    compression: str = "zstd",
    max_rows_per_file: int = 1_000_000,
    fsync: bool = True,
    bloom_columns: tuple[str, ...] = (),
) -> list[dict]:
    """Rewrite the partitions in *changes* (pid -> that pid's change
    slices, in unit order) copy-on-write; returns one stats row per pid.

    Each pid's rows are its *partition_files* entries (base and pending
    deltas, each file read once) followed by its slices.  One LWW runs
    over the rows of every pid at once — exact, because partitions are
    key-disjoint — and each pid keeps its live winners in their order,
    is sorted by *sorted_by* and is written by
    :func:`write_partition_files` on its own, so its files do not depend
    on which pids share the block.  A pid left with no rows writes no
    file (``fold_stats_into_manifest`` drops it)."""
    pids = sorted(changes)
    entries = [split_entry(e) for pid in pids for e in partition_files.get(pid, [])]
    read = iter(
        _read_block_entries(target_root, entries, schema, False, merge_key_alias)
        if entries else ()
    )
    tables, n_changes = [], []
    for pid in pids:
        existing = [next(read) for _ in partition_files.get(pid, [])]
        new = cast_to_schema(pa.concat_tables(
            [cast_to_schema(ensure_merge_key_alias(t, key_col), schema) for t in changes[pid]]
        ), schema)
        n_changes.append(new.num_rows)
        tables.append(pa.concat_tables(existing + [new]))
    block = pa.concat_tables(tables)
    win = lww_winner_mask(block)
    alive = win & ~_is_delete(block)
    bounds = np.r_[0, np.cumsum([t.num_rows for t in tables])]
    out: list[dict] = []
    for pid, t, n, s, e in zip(pids, tables, n_changes, bounds[:-1], bounds[1:]):
        keep = alive[s:e]
        deletes = int(np.count_nonzero(win[s:e])) - int(np.count_nonzero(keep))
        if not keep.all():
            t = t.filter(pa.array(keep))
        if sorted_by:
            t = t.sort_by([(c, "ascending") for c in sorted_by])
        fb: dict = {}
        rels, nbytes = write_partition_files(
            t, target_root, cycle_id, pid,
            max_rows_per_file=max_rows_per_file,
            compression=compression, fsync=fsync,
            bloom_columns=bloom_columns,
            cluster_by=cluster_by,
            cluster_min_rows=cluster_min_rows,
            bounds_cols=tuple(dict.fromkeys(source_columns(cluster_by) + tuple(sorted_by))),
            bounds_out=fb,
            merge_key_alias=merge_key_alias,
        )
        out.append(
            {
                PID_COL: pid,
                "rows": t.num_rows,
                "upserts": n - deletes,
                "deletes": deletes,
                "changes_in": n,
                "bytes": nbytes,
                "files_json": json.dumps(rels),
                "mode": "cow",
                "file_stats_json": json.dumps(fb) if fb else "",
            }
        )
    return out


def _slices_by_pid(pieces) -> dict[int, list[pa.Table]]:
    """pid -> its slices of the routed *pieces* (``(rows, pids)``, each
    sorted by pid), in piece order."""
    out: dict[int, list[pa.Table]] = {}
    for t, pids in pieces:
        bounds = np.r_[np.flatnonzero(np.r_[True, pids[1:] != pids[:-1]]), len(pids)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            out.setdefault(int(pids[s]), []).append(t.slice(s, e - s))
    return out


def _call(fn, *args):
    return fn(*args)


class ActorMergePool:
    """The copy-on-write writer, on plain Ray tasks.

    Per cycle: one task per read unit (``run_units``) reads the unit,
    applies the caller's transform, pre-combines, routes rows to pids
    with the stable hash and sorts them by pid once; it returns its
    stats and, as separate objects (``num_returns``, so the driver owns
    them), its rows for each *fold run* — a contiguous run of pids from
    ``spread(range(P), cluster_cpus())``.  Then one fold task per run
    that received rows, at most one per CPU, takes those objects as its
    arguments and rewrites the run's touched partitions
    (:func:`fold_partitions`).  The driver sees only stats rows.  No
    actor, nothing kept between cycles; *units* may also be a
    ``ray.data.Dataset``.

    Pass ``partition_files={}`` to write a fresh base layout that
    ignores the current target (overwrite backfill, ephemeral tables),
    and the manifest's *merge_key_alias* to read and write partition
    files without a stored ``arcane_merge_key``.

    The name is the one of the owner-actor pool this writer replaced:
    the benchmark's trace hooks bind ``ActorMergePool.apply_change_batch``
    by name, so it stays until the benchmark rebinds that span.
    """

    def __init__(
        self,
        target_root: str,
        num_partitions: int,
        compression: str = "zstd",
        max_rows_per_file: int = 1_000_000,
        fsync: bool = True,
        bloom_columns: tuple[str, ...] = (),
        hash_algo: str = "pandas",
    ):
        self.target_root = target_root
        self.num_partitions = num_partitions
        self.compression = compression
        self.max_rows_per_file = max_rows_per_file
        self.fsync = fsync
        self.bloom_columns = tuple(bloom_columns)
        self.hash_algo = hash_algo

    def apply_change_batch(
        self,
        units,
        *,
        transform=None,
        cycle_id: str,
        partition_files: dict[int, list[str]],
        schema: pa.Schema,
        sorted_by: tuple[str, ...] = (),
        key_col: str = MERGE_KEY_COL,
        precombine_threshold: float = PRECOMBINE_DUP_THRESHOLD,
        cluster_by: tuple = (),
        cluster_min_rows: int = 0,
        merge_key_alias: str | None = None,
    ) -> list[dict]:
        import ray

        P = self.num_partitions
        runs = spread(list(range(P)), cluster_cpus())
        # each run's first pid, then P: a pid-sorted batch cuts at these
        run_starts = np.array([r[0] for r in runs] + [P])

        def route(batch: pa.Table, _index: int) -> tuple:
            rows_in = batch.num_rows
            if rows_in == 0:
                return ({"rows_in": 0, "rows_kept": 0, "runs": []},) + (None,) * len(runs)
            # hash once; combine only when the dup rate warrants it (M2)
            keep, h = precombine_and_hash(batch, key_col, self.hash_algo, precombine_threshold)
            pid = (h % np.uint64(P)).astype(np.int64)
            order = np.argsort(pid, kind="stable")
            b = gather_kept(batch, keep, order)
            pids = pid[order]
            cuts = np.searchsorted(pids, run_starts)
            pieces = tuple(
                (b.slice(s, e - s), pids[s:e]) if e > s else None
                for s, e in zip(cuts[:-1], cuts[1:])
            )
            sent = [k for k, p in enumerate(pieces) if p is not None]
            return ({"rows_in": rows_in, "rows_kept": len(keep), "runs": sent},) + pieces

        def fold(files: dict, *pieces) -> list[dict]:
            return fold_partitions(
                self.target_root, cycle_id, files, _slices_by_pid(pieces), schema,
                key_col=key_col, sorted_by=tuple(sorted_by), cluster_by=cluster_by,
                cluster_min_rows=cluster_min_rows, merge_key_alias=merge_key_alias,
                compression=self.compression, max_rows_per_file=self.max_rows_per_file,
                fsync=self.fsync, bloom_columns=self.bloom_columns,
            )

        refs = _submit_units(units, transform, route, num_returns=1 + len(runs))
        routed = ray.get([r[0] for r in refs])
        task = _remote(_call)
        folds = []
        for k, run in enumerate(runs):
            # a run's pieces in unit order: the same feed writes the same bytes
            pieces = [r[1 + k] for r, s in zip(refs, routed) if k in s["runs"]]
            if pieces:
                files = {p: partition_files[p] for p in run if p in partition_files}
                folds.append(task.remote(fold, files, *pieces))
        out = [s for o in ray.get(folds) for s in o]
        # rows the pre-combine dropped are in no fold's stats; attribute
        # them to the first stats row, as the direct writer does, so the
        # cycle still accounts every arriving row
        if out:
            out[0]["combined_away"] = sum(r["rows_in"] - r["rows_kept"] for r in routed)
        return out
