"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (the part that must survive 100 TB):

- **exact**: hash-partition on a 64-bit content hash, keep the first
  row per group — the shuffle moves (hash, id) pairs logically but we
  group full rows only within hash buckets; ties break on min id so
  the winner is deterministic.
- **MinHash+LSH**: signatures are computed per batch with numpy
  ``minimum.reduceat`` over flattened word-shingle hashes (no Python
  per-row loop), then exploded into (band, band_hash) bucket keys —
  the ONLY shuffle is the tiny (band_key, doc_id) table, never the
  documents themselves.  Candidate pairs are verified with true
  shingle-set Jaccard.
- **SimHash**: 64-bit signature via bit-majority over shingle hashes
  (vectorized ``np.add.reduceat`` on an (n_shingles, 64) ±1 matrix);
  near-dup pairs found by banding the 4×16-bit chunks (hamming ≤ 3
  guarantees one identical chunk by pigeonhole).

Every operator is deterministic (fixed seeds, stable hashes) so
results are reproducible across runs and cluster sizes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
    _FNV64,
    _hash_utf8,
    rolling_window_hashes,
    split_words,
    words_flat,
)
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import hash_keys

_MERSENNE = np.uint64((1 << 61) - 1)

_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (byte lookup table)."""
    return _POPCNT8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------
class AddContentHash:
    def __init__(self, text_col: str = "text", out_col: str = "_content_hash"):
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        # ephemeral (per-run) content hash: the fast buffer-level algo —
        # nothing persists, so routing-format stability doesn't apply
        h = hash_keys(batch[self.text_col], "polars").view(np.int64)
        batch = batch.append_column(self.out_col, pa.array(h, type=pa.int64()))
        # coarse shuffle bucket: grouping on the raw hash would invoke the
        # group UDF once per distinct document; a few thousand buckets
        # move the same rows and the dedup kernel vectorizes per bucket
        with np.errstate(over="ignore"):
            b = (
                (h.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
            ) % np.uint64(4096)
        return batch.append_column("_chb", pa.array(b.astype(np.int64)))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep one row per distinct *text_col* value (winner = min id).

    hash-partition + per-group first (SURVEY task list).  The shuffle
    routes rows by a coarse bucket of the 64-bit content hash (the text
    itself only moves to ONE bucket); within a bucket, rows are
    compared on (hash, true text) to be collision-safe, vectorized
    across all of the bucket's hash groups in one sort.
    """

    def first_per_text(group: pa.Table) -> pa.Table:
        # within one coarse bucket: min-id row per distinct (hash, text)
        idx = pc.sort_indices(
            group,
            sort_keys=[
                ("_content_hash", "ascending"),
                (text_col, "ascending"),
                (id_col, "ascending"),
            ],
        )
        g = group.take(idx)
        hn = g["_content_hash"].to_numpy(zero_copy_only=False)
        tn = g[text_col].to_numpy(zero_copy_only=False)
        mask = np.r_[True, (hn[1:] != hn[:-1]) | (tn[1:] != tn[:-1])]
        return g.filter(pa.array(mask)).drop_columns(["_content_hash", "_chb"])

    return (
        ds.map_batches(AddContentHash(text_col), batch_format="pyarrow")
        .groupby("_chb")
        .map_groups(first_per_text, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# shingle machinery (shared by minhash / simhash / jaccard)
# ---------------------------------------------------------------------------
def poly_word_hashes(flat: pa.Array) -> np.ndarray:
    """uint64 polynomial hash of each word's UTF-8 bytes
    (``h = h*1000003 + byte`` mod 2^64 — the repo's one
    SQL-oracle-expressible hash, same definition as
    ``text.rolling_window_hashes`` with a whole-string window).
    Empty words hash to 0."""
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    # one whole-string window per non-empty word
    max_len = int(pc.max(pc.binary_length(flat)).as_py() or 0) + 1
    h, offs = rolling_window_hashes(flat, k=max_len)
    out = np.zeros(len(flat), dtype=np.uint64)
    has = np.diff(offs) > 0
    if h.size:
        out[has] = h
    return out


def shingle_hashes(
    texts, k: int = 3, hash_impl: str = "polars"
) -> tuple[np.ndarray, np.ndarray]:
    """uint64 hashes of word k-shingles for every doc, vectorized.

    Returns ``(hashes, doc_offsets)`` — ``hashes[doc_offsets[i]:
    doc_offsets[i+1]]`` are doc i's shingles.  Word hashes come from
    the flattened Arrow split (one C pass); shingles combine k
    consecutive word hashes — with distinct odd multipliers for the
    default (fast) impl, or with a small-base polynomial for
    ``hash_impl="poly"``, whose whole definition (word hash, combiner,
    splitmix finalizer) is reproducible bit-for-bit in DuckDB HUGEINT
    arithmetic (see ``oracle_sql()['dedup_simhash']``).
    """
    flat, offsets = words_flat(texts)
    if hash_impl == "poly":
        wh = poly_word_hashes(flat)
    else:
        wh = hash_keys(flat, "polars")  # uint64 per word (fast buffer-level hash)
    n_docs = len(offsets) - 1
    doc_lens = np.diff(offsets)
    n_sh = np.maximum(doc_lens - k + 1, 0)
    doc_offsets = np.concatenate(([0], np.cumsum(n_sh)))
    total = int(doc_offsets[-1])
    if total == 0:
        return np.empty(0, np.uint64), doc_offsets
    win_doc = np.repeat(np.arange(n_docs), n_sh)
    within = np.arange(total) - np.repeat(doc_offsets[:-1], n_sh)
    starts = offsets[:-1][win_doc] + within
    # distinct odd multiplier per position — adding 2j keeps the value odd
    # AND distinct (the old `| (2j+1)` form collapsed j=0 and j=2 onto the
    # same multiplier because the constant already ends in 0b10101, making
    # the combiner symmetric under shingle reversal: (A,B,C) == (C,B,A))
    mults = [np.uint64((0x9E3779B97F4A7C15 + 2 * j) & 0xFFFFFFFFFFFFFFFF) for j in range(k)]
    with np.errstate(over="ignore"):
        h = np.zeros(total, dtype=np.uint64)
        if hash_impl == "poly":
            # Horner combine mod 2^64 (small base -> plain HUGEINT SQL)
            B = np.uint64(1000003)
            for j in range(k):
                h = h * B + wh[starts + j]
        else:
            for j in range(k):
                h ^= wh[starts + j] * mults[j]
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
    return h, doc_offsets


def minhash_signatures(
    texts, num_perm: int = 64, k_shingle: int = 3, seed: int = 42
) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signature matrix, vectorized.

    Permutation i is the universal hash ``(a_i * x + b_i) mod (2^61-1)``;
    per-doc minima via ``np.minimum.reduceat`` — one pass per
    permutation over the flat shingle array, no per-doc loop.  Docs with
    no shingles get all-max signatures (match nothing)."""
    h, doc_offsets = shingle_hashes(texts, k_shingle)
    n_docs = len(doc_offsets) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    counts = np.diff(doc_offsets)
    has = counts > 0
    if h.size == 0:
        return sig
    x = h % _MERSENNE
    starts = doc_offsets[:-1][has]
    with np.errstate(over="ignore"):
        for i in range(num_perm):
            hv = (a[i] * x + b[i]) % _MERSENNE
            sig[has, i] = np.minimum.reduceat(hv, starts)
    return sig


def simhash_signatures(texts, k_shingle: int = 3, hash_impl: str = "polars") -> np.ndarray:
    """uint64 SimHash per doc: majority vote per bit over shingle hashes
    (vectorized bit-unpack + ``np.add.reduceat``)."""
    h, doc_offsets = shingle_hashes(texts, k_shingle, hash_impl)
    n_docs = len(doc_offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    counts = np.diff(doc_offsets)
    has = counts > 0
    if h.size == 0:
        return out
    # (n_shingles, 64) 0/1 matrix
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int32
    )
    sums = np.add.reduceat(bits, doc_offsets[:-1][has], axis=0)
    maj = sums * 2 > counts[has][:, None]  # bit set iff majority of shingles set it
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
    out[has] = np.where(maj, weights, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    return out


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup pipeline
# ---------------------------------------------------------------------------
class MinHashBandStage:
    """Explode each doc into (band_key, doc_id) bucket rows — the only
    shuffled payload.  band_key packs (band_id, hash-of-band-rows)."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_perm: int = 64,
        bands: int = 16,
        k_shingle: int = 3,
        seed: int = 42,
    ):
        assert num_perm % bands == 0
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.k = num_perm, bands, k_shingle
        self.rows_per_band = num_perm // bands
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = minhash_signatures(batch[self.text_col], self.num_perm, self.k, self.seed)
        n = sig.shape[0]
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        band_keys = np.empty(n * self.bands, dtype=np.int64)
        out_ids = np.repeat(ids, self.bands)
        with np.errstate(over="ignore"):
            for b in range(self.bands):
                rows = sig[:, b * self.rows_per_band : (b + 1) * self.rows_per_band]
                bh = np.zeros(n, dtype=np.uint64)
                for j in range(self.rows_per_band):
                    bh = bh * np.uint64(1099511628211) + rows[:, j]
                # reserve 8 bits for the band id so buckets never collide across bands
                band_keys[b::self.bands] = (
                    ((bh >> np.uint64(8)) << np.uint64(8)) | np.uint64(b)
                ).view(np.int64).reshape(-1)[: n]
        # coarse shuffle bucket: grouping on the raw band_key would invoke
        # the pair UDF once per bucket (~docs x bands mostly-singleton
        # groups); a few thousand coarse buckets move the same rows and
        # the pair kernel vectorizes across each bucket's segments
        with np.errstate(over="ignore"):
            bkb = (
                (band_keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(4096)
        return pa.table(
            {
                "band_key": pa.array(band_keys, pa.int64()),
                "bkb": pa.array(bkb.astype(np.int64)),
                self.id_col: pa.array(out_ids),
            }
        )


def _cap_bucket(ids: np.ndarray, max_bucket: int, kind: str) -> np.ndarray:
    """Cap a pair-emission bucket at *max_bucket* members — an adversarial
    or boilerplate-heavy bucket otherwise emits O(n²) pairs in one task.
    Truncation is LOGGED (no silent caps); ids are sorted so the kept
    prefix is deterministic."""
    if len(ids) <= max_bucket:
        return ids
    import logging

    logging.getLogger("arcane_ray.dedup").warning(
        "%s bucket capped: %d -> %d members (pairs beyond the cap are "
        "dropped; raise bands/chunks to split hot buckets)",
        kind, len(ids), max_bucket,
    )
    return ids[:max_bucket]


def minhash_lsh_candidates(ds, text_col="text", id_col="doc_id", num_perm=64, bands=16, k_shingle=3, seed=42, max_bucket=8192):
    """Candidate near-dup pairs (id_a < id_b) from LSH banding.

    The group payload is doc IDS ONLY; emitting pairs within a bucket.
    Buckets with one member vanish."""
    stage = MinHashBandStage(text_col, id_col, num_perm, bands, k_shingle, seed)

    n_dedup_parts = 64

    def pairs(group: pa.Table) -> pa.Table:
        """Pairs from EVERY LSH bucket inside one coarse ``bkb`` group,
        vectorized: one lexsort, segment boundaries, then a tight loop
        over only the multi-member buckets (singleton buckets — the vast
        majority — are skipped wholesale).  Pairs are PACKED as
        (id_a << 32) | id_b and locally deduped, keyed by a coarse
        pair-hash partition ``pp`` — the global distinct is then a
        64-group vectorized fold instead of one Python call per pair."""
        empty = pa.table({"pp": pa.array([], pa.int64()), "pair": pa.array([], pa.int64())})
        bk = group["band_key"].to_numpy(zero_copy_only=False)
        d = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(d) < 2:
            return empty
        if d.max() >= (1 << 31):
            raise ValueError(
                "minhash_lsh_candidates packs doc-id pairs into int64 and "
                "requires ids < 2^31; re-key the corpus first"
            )
        order = np.lexsort((d, bk))
        bk, d = bk[order], d[order]
        keep = np.r_[True, (bk[1:] != bk[:-1]) | (d[1:] != d[:-1])]
        bk, d = bk[keep], d[keep]
        bounds = np.r_[np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]]), len(bk)]
        counts = np.diff(bounds)
        out = []
        for k in np.flatnonzero(counts >= 2):
            seg = d[bounds[k] : bounds[k + 1]]  # distinct docs, ascending
            if len(seg) > max_bucket:
                seg = _cap_bucket(seg, max_bucket, "minhash-band")
            ia, ib = np.triu_indices(len(seg), k=1)
            out.append((seg[ia] << 32) | seg[ib])
        if not out:
            return empty
        pair = np.unique(np.concatenate(out))
        with np.errstate(over="ignore"):
            pp = (
                (pair.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(n_dedup_parts)
        return pa.table({"pp": pa.array(pp.astype(np.int64)), "pair": pa.array(pair)})

    def distinct_pairs(group: pa.Table) -> pa.Table:
        # a pair can surface from several bands: unique within its hash
        # partition IS the global distinct
        u = np.unique(group["pair"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "id_a": pa.array(u >> 32, pa.int64()),
                "id_b": pa.array(u & 0xFFFFFFFF, pa.int64()),
            }
        )

    return (
        ds.map_batches(stage, batch_format="pyarrow")
        .groupby("bkb")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(distinct_pairs, batch_format="pyarrow")
    )


class CandidateShingles:
    """map_batches stage: emit ``(doc_id, shingles list<uint64>)`` for the
    docs appearing in candidate pairs ONLY — a broadcast SEMI-join where
    the broadcast side is the (small) candidate id set, never the corpus.
    The shuffled payload downstream is candidate docs' shingle sets."""

    def __init__(self, ids_ref, text_col="text", id_col="doc_id", k_shingle=3):
        import ray

        self.ids = ids_ref if isinstance(ids_ref, np.ndarray) else ray.get(ids_ref)
        self.text_col, self.id_col, self.k = text_col, id_col, k_shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        mask = np.isin(ids, self.ids)
        empty = pa.table(
            {
                "doc": pa.array([], pa.int64()),
                "pair_idx": pa.array([], pa.int64()),
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "shingles": pa.array([], pa.large_list(pa.uint64())),
            }
        )
        if not mask.any():
            return empty
        sub = batch.filter(pa.array(mask))
        h, offs = shingle_hashes(sub[self.text_col], self.k)
        shingles = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()), pa.array(h, pa.uint64())
        )
        n = sub.num_rows
        return pa.table(
            {
                "doc": pc.cast(sub[self.id_col], pa.int64()),
                "pair_idx": pa.nulls(n, pa.int64()),
                "id_a": pa.nulls(n, pa.int64()),
                "id_b": pa.nulls(n, pa.int64()),
                "shingles": shingles,
            }
        )


def verify_jaccard_pairs(cand: pa.Table, docs_ds, text_col="text", id_col="doc_id", k_shingle=3):
    """TRUE n-gram Jaccard for candidate pairs as a DISTRIBUTED join-by-id
    — nothing materializes the corpus (the round-1 implementation
    broadcast the entire documents table into every verify actor):

    1. explode pairs into per-doc request rows (pair_idx, side via id_a/id_b),
    2. semi-join the docs to the candidate id set (broadcast of the SMALL
       id set) and compute their shingle arrays per batch,
    3. groupby(doc): attach each doc's shingles to its request rows,
    4. groupby(pair_idx): Jaccard of the two attached shingle sets.

    The two shuffles move only candidate docs' shingles + pair ids.
    Returns a Dataset of (id_a, id_b, jaccard)."""
    import ray
    import ray.data

    n = cand.num_rows
    out_schema = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())]
    )
    if n == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    def _doc_bucket(doc: np.ndarray) -> pa.Array:
        # coarse shuffle bucket over doc id: grouping on the raw id would
        # invoke the attach UDF once per candidate doc; 256 buckets move
        # the same rows and the attach kernel vectorizes per bucket
        with np.errstate(over="ignore"):
            b = (
                (doc.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(256)
        return pa.array(b.astype(np.int64))

    ia = cand["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    ib = cand["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    req_doc = np.concatenate([ia, ib])
    requests = pa.table(
        {
            "doc": pa.array(req_doc),
            "pair_idx": pa.array(np.concatenate([idx, idx])),
            "id_a": pa.array(np.concatenate([ia, ia])),
            "id_b": pa.array(np.concatenate([ib, ib])),
            "shingles": pa.nulls(2 * n, pa.large_list(pa.uint64())),
            "_db": _doc_bucket(req_doc),
        }
    )
    ids = np.unique(np.concatenate([ia, ib]))
    ids_ref = ray.put(ids)

    def cand_shingles(batch: pa.Table) -> pa.Table:
        # task-based semi-join: the broadcast side is the SMALL candidate
        # id set (ray.get of a local plasma ref is zero-copy); tasks keep
        # the corpus scan at full parallelism with no actor-pool warmup
        out = CandidateShingles(ids_ref, text_col, id_col, k_shingle)(batch)
        return out.append_column(
            "_db", _doc_bucket(out["doc"].to_numpy(zero_copy_only=False))
        )

    # the semi-join output is candidate-sized, not corpus-sized: coalesce
    # the corpus read's block count down so the two verify sort-shuffles
    # pay per-block fixed costs on few blocks — but scale the block count
    # with the (known, driver-side) candidate count so a dup-heavy corpus
    # never squeezes unbounded bytes into a fixed number of blocks
    n_blocks = max(8, min(1024, (2 * n) // 10_000 + 1))
    shingle_rows = docs_ds.map_batches(
        cand_shingles, batch_format="pyarrow"
    ).repartition(n_blocks)
    unioned = ray.data.from_arrow(requests).union(shingle_rows)

    def attach(group: pa.Table) -> pa.Table:
        """One call per coarse doc bucket: resolve EVERY request row's doc
        to its shingle list in one searchsorted + list-take (the round-1
        shape called this once per candidate doc)."""
        empty = pa.table(
            {
                "pair_idx": pa.array([], pa.int64()),
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "shingles": pa.array([], pa.large_list(pa.uint64())),
                "_pb": pa.array([], pa.int64()),
            }
        )
        is_doc = pc.is_null(group["pair_idx"]).to_numpy(zero_copy_only=False)
        doc_ids = group["doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_rows = np.flatnonzero(is_doc)
        req_rows = np.flatnonzero(~is_doc)
        if len(req_rows) == 0:
            return empty
        sh_col = group["shingles"].combine_chunks() if isinstance(
            group["shingles"], pa.ChunkedArray
        ) else group["shingles"]
        d_docs = doc_ids[doc_rows]
        order = np.argsort(d_docs, kind="stable")
        d_sorted = d_docs[order]
        req_docs = doc_ids[req_rows]
        if len(d_sorted):
            pos = np.searchsorted(d_sorted, req_docs)
            pos_c = np.minimum(pos, len(d_sorted) - 1)
            found = d_sorted[pos_c] == req_docs
            src = np.where(found, doc_rows[order][pos_c], -1)
        else:
            src = np.full(len(req_rows), -1, dtype=np.int64)
        # null index -> null list for docs missing from the corpus
        # (treated as the empty set downstream)
        sh_taken = sh_col.take(pa.array(src, type=pa.int64(), mask=src < 0))
        sub = group.take(pa.array(req_rows))
        pidx = sub["pair_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "pair_idx": sub["pair_idx"],
                "id_a": sub["id_a"],
                "id_b": sub["id_b"],
                "shingles": sh_taken,
                # coarse pair bucket for the final fold
                "_pb": pa.array(pidx % 64),
            }
        )

    def pair_jaccard(group: pa.Table) -> pa.Table:
        """One call per coarse pair bucket: exact Jaccard for ALL the
        bucket's pairs via two segment-unique lexsorts (per-row distinct,
        then per-pair union)."""
        sh_col = group["shingles"].combine_chunks() if isinstance(
            group["shingles"], pa.ChunkedArray
        ) else group["shingles"]
        pidx = group["pair_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        up, first, inv = np.unique(pidx, return_index=True, return_inverse=True)
        lens = (
            pc.fill_null(pc.list_value_length(sh_col), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vals = sh_col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        # distinct within each row's shingle multiset
        o1 = np.lexsort((vals, row))
        r1, v1 = row[o1], vals[o1]
        k1 = np.r_[True, (r1[1:] != r1[:-1]) | (v1[1:] != v1[:-1])] if len(r1) else np.zeros(0, bool)
        r1, v1 = r1[k1], v1[k1]
        sizes = np.bincount(inv[r1], minlength=len(up))  # |A| + |B| per pair
        # distinct (pair, value): |A ∪ B| per pair
        p2 = inv[r1]
        o2 = np.lexsort((v1, p2))
        p3, v3 = p2[o2], v1[o2]
        k2 = np.r_[True, (p3[1:] != p3[:-1]) | (v3[1:] != v3[:-1])] if len(p3) else np.zeros(0, bool)
        union = np.bincount(p3[k2], minlength=len(up))
        inter = sizes - union
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        return pa.table(
            {
                "id_a": group["id_a"].take(pa.array(first)),
                "id_b": group["id_b"].take(pa.array(first)),
                # exact integer ratio — no rounding, so a DuckDB
                # ``len(list_intersect)/(...)`` oracle matches bit-for-bit
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return (
        unioned.groupby("_db")
        .map_groups(attach, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(pair_jaccard, batch_format="pyarrow")
    )


def minhash_dedup_pairs(ds, docs_table: pa.Table | None = None, threshold=0.8, **kw):
    """End-to-end near-dup pairs with verified Jaccard >= threshold.

    *ds* is consumed twice (lazy plans re-execute): once for LSH
    banding, once to compute candidate docs' shingles for verification.
    ``docs_table`` is accepted for backward compatibility and ignored —
    verification is a distributed join by doc id, never a corpus
    broadcast."""
    cand_ds = minhash_lsh_candidates(ds, **kw)
    cand = pa.Table.from_pandas(
        cand_ds.to_pandas(), preserve_index=False
    )  # candidate PAIRS only: small (near-dup rate), never the corpus
    if cand.num_rows:
        import logging

        logging.getLogger("arcane_ray.dedup").debug(
            "verifying %d candidate pairs", cand.num_rows
        )
    verified = verify_jaccard_pairs(
        cand,
        ds,
        text_col=kw.get("text_col", "text"),
        id_col=kw.get("id_col", "doc_id"),
        k_shingle=kw.get("k_shingle", 3),
    )
    return verified.filter(expr=f"jaccard >= {threshold}")


# ---------------------------------------------------------------------------
# exact n-gram Jaccard similarity join (inverted shingle index)
# ---------------------------------------------------------------------------
class ShingleExplode:
    """map_batches stage: explode each doc into its DISTINCT word-k-shingle
    hashes — output columns ``(doc, sh)`` plus a coarse ``shb`` bucket
    (``sh mod bucket_mod``).  The downstream shuffle payload is
    ~24 bytes/shingle; document text never moves.

    ``shb`` exists because grouping on the raw shingle would invoke the
    ``map_groups`` Python function once per DISTINCT SHINGLE (hundreds of
    thousands of ~µs-payload calls — measured 19 s at sf0.1); grouping on
    a few thousand buckets moves the same rows but amortizes the per-call
    overhead, and the pair kernel vectorizes across the bucket's shingle
    segments."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        k_shingle: int = 3,
        bucket_mod: int = 4096,
    ):
        self.text_col, self.id_col, self.k = text_col, id_col, k_shingle
        self.bucket_mod = bucket_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, offs = shingle_hashes(batch[self.text_col], self.k)
        ids = pc.cast(batch[self.id_col], pa.int64()).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(ids, np.diff(offs))
        if h.size == 0:
            return pa.table(
                {
                    "doc": pa.array([], pa.int64()),
                    "sh": pa.array([], pa.int64()),
                    "shb": pa.array([], pa.int64()),
                }
            )
        # distinct within doc (Jaccard is over shingle SETS); docs are
        # whole rows so a doc never spans batches — per-batch distinct is
        # globally distinct
        order = np.lexsort((h, doc_of))
        d, hh = doc_of[order], h[order]
        keep = np.r_[True, (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])]
        d, hh = d[keep], hh[keep]
        return pa.table(
            {
                "doc": pa.array(d, pa.int64()),
                "sh": pa.array(hh.view(np.int64), pa.int64()),
                "shb": pa.array(
                    (hh % np.uint64(self.bucket_mod)).astype(np.int64), pa.int64()
                ),
            }
        )


class _ShingleCounts:
    """map_batches stage: ``(doc, n_sh)`` — each doc's distinct-shingle
    count, computed per batch with NO shuffle (a doc is one row)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id", k_shingle: int = 3):
        self.text_col, self.id_col, self.k = text_col, id_col, k_shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, offs = shingle_hashes(batch[self.text_col], self.k)
        counts = np.zeros(batch.num_rows, dtype=np.int64)
        if h.size:
            row_of = np.repeat(np.arange(batch.num_rows), np.diff(offs))
            order = np.lexsort((h, row_of))
            d, hh = row_of[order], h[order]
            keep = np.r_[True, (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])]
            counts = np.bincount(d[keep], minlength=batch.num_rows).astype(np.int64)
        return pa.table(
            {
                "doc": pc.cast(batch[self.id_col], pa.int64()),
                "n_sh": pa.array(counts, pa.int64()),
            }
        )


def exact_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.2,
    k_shingle: int = 3,
    max_df: int = 8192,
    counts: str = "broadcast",
    measure: str = "jaccard",
):
    """EXACT n-gram Jaccard similarity join: all pairs (id_a < id_b) with
    ``|A∩B| / |A∪B| >= threshold`` over distinct word-k-shingle sets.
    ``measure="containment"`` scores ``|A∩B| / min(|A|, |B|)`` instead —
    the asymmetric near-CONTAINMENT join (a short doc fully embedded in
    a long one scores 1.0 where Jaccard stays tiny; the quote/excerpt
    detector Jaccard misses) — same index, same shuffles, different
    final ratio.

    Classic inverted-index set-similarity join, Ray-Data-shaped:

    1. ``map_batches(ShingleExplode)`` → (doc, shingle) rows,
    2. ``groupby(sh)`` → emit candidate pairs per posting list (a pair
       appears once per COMMON shingle),
    3. ``groupby([id_a, id_b]).count()`` → |A∩B| per pair,
    4. attach |A| and |B| (per-batch counts, broadcast via ``ray.put``)
       → Jaccard = c/(|A|+|B|-c), filter ≥ threshold.

    Exactness: any pair with Jaccard ≥ t > 0 shares ≥ 1 shingle, so the
    posting-list candidates are a superset of the answer; the Jaccard is
    then computed from exact set sizes (no sampling, no sketches).

    Scale notes: shuffles move only (8-byte key, 8-byte id) rows; the
    pair-count explosion is bounded per shingle by *max_df* (logged when
    hit — a shingle shared by > max_df docs emits a truncated pair set,
    so ultra-boilerplate shingles degrade to approximate; at web scale
    run MinHash+LSH instead, this operator is the exact/oracle path).
    ``counts`` picks how |A|/|B| attach to the pair counts:
    ``"broadcast"`` ships the 16-bytes/doc side table to every task
    (right up to ~10^8 docs); ``"partitioned"`` hash-joins pair rows to
    counts by doc id with two groupby exchanges — nothing materializes
    on the driver or in task memory, the 100-TB path.
    """
    import ray

    sh = ds.map_batches(
        ShingleExplode(text_col, id_col, k_shingle), batch_format="pyarrow"
    )

    n_count_parts = 64

    def pairs_bucket(group: pa.Table) -> pa.Table:
        """PARTIAL pair counts from EVERY shingle posting list inside one
        coarse bucket, vectorized: one lexsort, segment boundaries, then
        a tight loop over only the df>=2 segments (df==1 shingles — the
        vast majority — are dropped wholesale first).  Pairs are PACKED
        as (id_a << 32) | id_b and pre-counted with np.unique (the
        combiner), keyed by a coarse pair-hash partition ``pp`` so the
        global sum is a 64-group map_groups instead of a
        1M-distinct-key Aggregate (measured 10.5s of a 13s query on
        Ray's sort-based aggregate at sf0.1)."""
        s = group["sh"].to_numpy(zero_copy_only=False)
        d = group["doc"].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "pp": pa.array([], pa.int64()),
                "pair": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            }
        )
        if len(s) < 2:
            return empty
        if d.max() >= (1 << 31):
            raise ValueError(
                "exact_jaccard_pairs packs doc-id pairs into int64 and "
                "requires ids < 2^31; re-key the corpus or use the MinHash path"
            )
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        bounds = np.r_[np.flatnonzero(np.r_[True, s[1:] != s[:-1]]), len(s)]
        counts = np.diff(bounds)
        out = []
        for k in np.flatnonzero(counts >= 2):
            seg = d[bounds[k] : bounds[k + 1]]  # distinct docs, ascending
            if len(seg) > max_df:
                seg = _cap_bucket(seg, max_df, "jaccard-posting")
            ia, ib = np.triu_indices(len(seg), k=1)
            out.append((seg[ia].astype(np.int64) << 32) | seg[ib].astype(np.int64))
        if not out:
            return empty
        pair, c = np.unique(np.concatenate(out), return_counts=True)
        with np.errstate(over="ignore"):
            pp = (
                (pair.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(n_count_parts)
        return pa.table(
            {
                "pp": pa.array(pp.astype(np.int64)),
                "pair": pa.array(pair),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    def sum_pairs(group: pa.Table) -> pa.Table:
        """Fold one pair-hash partition's partial counts and unpack the
        packed key — |A∩B| per candidate pair."""
        p = group["pair"].to_numpy(zero_copy_only=False)
        c = group["c"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(p, return_inverse=True)
        tot = np.bincount(inv, weights=c).astype(np.int64)
        return pa.table(
            {
                "id_a": pa.array(u >> 32, pa.int64()),
                "id_b": pa.array(u & 0xFFFFFFFF, pa.int64()),
                "count()": pa.array(tot),
            }
        )

    common = (
        sh.groupby("shb")
        .map_groups(pairs_bucket, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(sum_pairs, batch_format="pyarrow")
    )
    counts_ds = ds.map_batches(
        _ShingleCounts(text_col, id_col, k_shingle), batch_format="pyarrow"
    )

    if measure not in ("jaccard", "containment"):
        raise ValueError(f"unknown measure: {measure!r}")
    if counts == "partitioned":
        return _jaccard_attach_partitioned(common, counts_ds, threshold, measure)
    if counts != "broadcast":
        raise ValueError(f"unknown counts mode: {counts!r}")

    # drop empty blocks: Ray may emit 0-row blocks with a degenerate
    # schema, which pa.concat_tables rejects as a schema mismatch
    counts_blocks = [t for t in ray.get(counts_ds.to_arrow_refs()) if t.num_rows]
    counts_tbl = (
        pa.concat_tables(counts_blocks)
        if counts_blocks
        else pa.table({"doc": pa.array([], pa.int64()), "n_sh": pa.array([], pa.int64())})
    )
    doc_ids = counts_tbl["doc"].to_numpy(zero_copy_only=False)
    n_sh = counts_tbl["n_sh"].to_numpy(zero_copy_only=False)
    order = np.argsort(doc_ids)
    counts_ref = ray.put((doc_ids[order], n_sh[order]))

    def finalize(batch: pa.Table) -> pa.Table:
        sorted_ids, sorted_n = ray.get(counts_ref)
        ia = batch["id_a"].to_numpy(zero_copy_only=False)
        ib = batch["id_b"].to_numpy(zero_copy_only=False)
        c = batch["count()"].to_numpy(zero_copy_only=False).astype(np.int64)
        na = sorted_n[np.searchsorted(sorted_ids, ia)]
        nb = sorted_n[np.searchsorted(sorted_ids, ib)]
        if measure == "containment":
            j = c / np.maximum(np.minimum(na, nb), 1)
        else:
            j = c / np.maximum(na + nb - c, 1)
        keep = j >= threshold
        return pa.table(
            {
                "id_a": pa.array(ia[keep], pa.int64()),
                "id_b": pa.array(ib[keep], pa.int64()),
                measure: pa.array(j[keep], pa.float64()),
            }
        )

    return common.map_batches(finalize, batch_format="pyarrow")


def _jaccard_attach_partitioned(
    common, counts_ds, threshold: float, measure: str = "jaccard"
):
    """Attach per-doc shingle counts to pair counts WITHOUT a broadcast:
    explode each pair into two (doc-keyed) request rows, union with the
    counts rows, ``groupby(doc)`` to stamp n_sh onto the requests, then
    ``groupby([id_a, id_b])`` to combine the two sides — everything is a
    hash exchange over small fixed-width rows, nothing driver-side."""

    def explode(batch: pa.Table) -> pa.Table:
        ia = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        ib = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["count()"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc": pa.array(np.concatenate([ia, ib])),
                "id_a": pa.array(np.concatenate([ia, ia])),
                "id_b": pa.array(np.concatenate([ib, ib])),
                "c": pa.array(np.concatenate([c, c])),
                "n_sh": pa.nulls(2 * len(ia), pa.int64()),
            }
        )

    def tag_counts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc": pc.cast(batch["doc"], pa.int64()),
                "id_a": pa.nulls(n, pa.int64()),
                "id_b": pa.nulls(n, pa.int64()),
                "c": pa.nulls(n, pa.int64()),
                "n_sh": pc.cast(batch["n_sh"], pa.int64()),
            }
        )

    def stamp(group: pa.Table) -> pa.Table:
        is_count = pc.is_null(group["id_a"]).to_numpy(zero_copy_only=False)
        crow = np.flatnonzero(is_count)
        # a doc with no requests contributes nothing; a request for a doc
        # missing from the corpus keeps n_sh null and is dropped later
        n_val = (
            group["n_sh"][int(crow[0])].as_py() if len(crow) else None
        )
        req = group.filter(pa.array(~is_count))
        if req.num_rows == 0:
            return req
        return req.set_column(
            req.schema.get_field_index("n_sh"),
            "n_sh",
            pa.array([n_val] * req.num_rows, pa.int64()),
        )

    def combine(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                measure: pa.array([], pa.float64()),
            }
        )
        if group.num_rows != 2 or group["n_sh"].null_count:
            return empty
        c = int(group["c"][0].as_py())
        na, nb = (int(v.as_py()) for v in group["n_sh"])
        if measure == "containment":
            j = c / max(min(na, nb), 1)
        else:
            j = c / max(na + nb - c, 1)
        if j < threshold:
            return empty
        return pa.table(
            {
                "id_a": group["id_a"].slice(0, 1),
                "id_b": group["id_b"].slice(0, 1),
                measure: pa.array([j], pa.float64()),
            }
        )

    requests = common.map_batches(explode, batch_format="pyarrow")
    tagged = counts_ds.map_batches(tag_counts, batch_format="pyarrow")
    return (
        requests.union(tagged)
        .groupby("doc")
        .map_groups(stamp, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])
        .map_groups(combine, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------
class SimHashStage:
    def __init__(self, text_col: str = "text", k_shingle: int = 3, hash_impl: str = "polars"):
        self.text_col, self.k, self.hash_impl = text_col, k_shingle, hash_impl

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = simhash_signatures(batch[self.text_col], self.k, self.hash_impl)
        return batch.append_column("simhash", pa.array(sig.view(np.int64), pa.int64()))


def simhash_dedup_pairs(ds, id_col="doc_id", text_col="text", max_hamming=3, k_shingle=3, max_bucket=8192, hash_impl="polars"):
    """Near-dup pairs with hamming(simhash) <= max_hamming.

    Banding: split the 64-bit signature into 4 16-bit chunks; any pair
    within hamming 3 shares at least one chunk (pigeonhole), so we
    bucket-group on (chunk_id, chunk_value) and verify hamming inside
    buckets — ids + signatures are the only shuffled payload.

    Exactness precondition: ``max_bucket`` caps a chunk bucket's pair
    emission (logged truncation, the no-silent-caps rule).  The result
    is the EXACT hamming<=h pair set only while every chunk bucket
    holds <= max_bucket docs — beware degenerate corpora where many
    docs share a signature (e.g. >max_bucket docs with < k_shingle
    words all hash to signature 0).  The driver corpora are 500-5000
    docs, far under the cap; raise ``max_bucket`` if certifying larger
    corpora against the all-pairs oracle."""
    CHUNKS = 4

    def explode(batch: pa.Table) -> pa.Table:
        sh = SimHashStage(text_col, k_shingle, hash_impl)(batch)
        sig = sh["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(sig)
        keys = np.empty(n * CHUNKS, dtype=np.int64)
        for c in range(CHUNKS):
            chunk = (sig >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            keys[c::CHUNKS] = (chunk.astype(np.int64) << 3) | c
        # coarse shuffle bucket (see ShingleExplode): vectorize the pair
        # kernel across many mostly-singleton chunk buckets per group
        with np.errstate(over="ignore"):
            ckb = (
                (keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
            ) % np.uint64(4096)
        return pa.table(
            {
                "chunk_key": pa.array(keys, pa.int64()),
                "ckb": pa.array(ckb.astype(np.int64)),
                id_col: pa.array(np.repeat(ids, CHUNKS)),
                "simhash": pa.array(np.repeat(sig.view(np.int64), CHUNKS), pa.int64()),
            }
        )

    empty_pairs = pa.table(
        {"pp": pa.array([], pa.int64()), "pair": pa.array([], pa.int64()),
         "hamming": pa.array([], pa.int64())}
    )

    def pairs(group: pa.Table) -> pa.Table:
        """Hamming-verified pairs from EVERY chunk bucket inside one
        coarse group: one lexsort, segment bounds, tight loop over only
        multi-member buckets; pairs packed as (id_a << 32) | id_b."""
        ck = group["chunk_key"].to_numpy(zero_copy_only=False)
        ids = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sig = group["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        if len(ids) < 2:
            return empty_pairs
        if ids.max() >= (1 << 31):
            raise ValueError(
                "simhash_dedup_pairs packs doc-id pairs into int64 and "
                "requires ids < 2^31; re-key the corpus first"
            )
        order = np.lexsort((ids, ck))
        ck, ids, sig = ck[order], ids[order], sig[order]
        keep = np.r_[True, (ck[1:] != ck[:-1]) | (ids[1:] != ids[:-1])]
        ck, ids, sig = ck[keep], ids[keep], sig[keep]
        bounds = np.r_[np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]]), len(ck)]
        counts = np.diff(bounds)
        out_pair, out_ham = [], []
        for k in np.flatnonzero(counts >= 2):
            s, e = bounds[k], bounds[k + 1]
            seg_ids, seg_sig = ids[s:e], sig[s:e]
            if len(seg_ids) > max_bucket:
                seg_ids = _cap_bucket(seg_ids, max_bucket, "simhash-chunk")
                seg_sig = seg_sig[: len(seg_ids)]
            ia, ib = np.triu_indices(len(seg_ids), k=1)
            ham = popcount64(np.ascontiguousarray(seg_sig[ia] ^ seg_sig[ib]))
            m = ham <= max_hamming
            if m.any():
                out_pair.append((seg_ids[ia][m] << 32) | seg_ids[ib][m])
                out_ham.append(ham[m])
        if not out_pair:
            return empty_pairs
        pair = np.concatenate(out_pair)
        ham = np.concatenate(out_ham).astype(np.int64)
        # local dedup (hamming is a function of the pair: keep any one)
        pair, first = np.unique(pair, return_index=True)
        ham = ham[first]
        with np.errstate(over="ignore"):
            pp = (
                (pair.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(32)
            ) % np.uint64(64)
        return pa.table(
            {"pp": pa.array(pp.astype(np.int64)), "pair": pa.array(pair),
             "hamming": pa.array(ham)}
        )

    def distinct_pairs(group: pa.Table) -> pa.Table:
        p = group["pair"].to_numpy(zero_copy_only=False)
        h = group["hamming"].to_numpy(zero_copy_only=False)
        u, first = np.unique(p, return_index=True)
        return pa.table(
            {
                "id_a": pa.array(u >> 32, pa.int64()),
                "id_b": pa.array(u & 0xFFFFFFFF, pa.int64()),
                "hamming": pa.array(h[first].astype(np.int64)),
            }
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("ckb")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(distinct_pairs, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard pairwise (exact, for candidate verification / small sets)
# ---------------------------------------------------------------------------
#: ngram_jaccard_matrix refuses above this doc count — it is the
#: O(n^2)-pairs test-oracle utility; the scale path is
#: exact_jaccard_pairs (inverted shingle index, bucket-partitioned)
JACCARD_MATRIX_MAX_DOCS = 20_000


def ngram_jaccard_matrix(texts, k_shingle: int = 3) -> np.ndarray:
    """Exact all-pairs Jaccard for a SMALL doc set (test oracle utility)."""
    if len(texts) > JACCARD_MATRIX_MAX_DOCS:
        raise ValueError(
            f"ngram_jaccard_matrix is the O(n^2) test-oracle utility: "
            f"{len(texts)} docs exceeds the {JACCARD_MATRIX_MAX_DOCS}-doc "
            "guard; use exact_jaccard_pairs (inverted-index) at scale"
        )
    h, offs = shingle_hashes(texts, k_shingle)
    sets = [np.unique(h[offs[i] : offs[i + 1]]) for i in range(len(offs) - 1)]
    n = len(sets)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            ua, ub = sets[i], sets[j]
            inter = np.intersect1d(ua, ub, assume_unique=True).size
            union = ua.size + ub.size - inter
            out[i, j] = out[j, i] = inter / union if union else 1.0
    return out


# ---------------------------------------------------------------------------
# connected components over a near-dup pair list
# ---------------------------------------------------------------------------
def connected_components(a: np.ndarray, b: np.ndarray):
    """Min-label connected components over an edge list: returns
    ``(nodes, labels)`` where ``labels[i]`` is the smallest node id in
    ``nodes[i]``'s component.  Vectorized min propagation with pointer
    jumping — O(E) numpy work per round, rounds ~ log(diameter).  Meant
    for the SPARSE pair output of a similarity join; for a pair list
    beyond one node's memory the same min-label iteration runs as a
    groupby-min exchange per round."""
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    lbl = nodes.copy()
    while True:
        old = lbl.copy()
        np.minimum.at(lbl, ia, lbl[ib])
        np.minimum.at(lbl, ib, lbl[ia])
        lbl = np.minimum(lbl, lbl[np.searchsorted(nodes, lbl)])  # pointer jump
        if np.array_equal(old, lbl):
            break
    return nodes, lbl


def _cc_bucket(x: np.ndarray, buckets: int) -> np.ndarray:
    """Coarse shuffle bucket of a node id (same splitmix multiply as
    ``exact_dedup``'s ``_chb``): routes every group keyed by the node to
    ONE bucket while keeping the group-UDF count bounded by *buckets*
    instead of by the number of graph nodes."""
    with np.errstate(over="ignore"):
        b = (
            (x.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
        ) % np.uint64(buckets)
    return b.astype(np.int64)


def _dedup_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if u.size == 0:
        return u.astype(np.int64), v.astype(np.int64)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])]
    return u[keep].astype(np.int64), v[keep].astype(np.int64)


def connected_components_ds(pairs_ds, col_a: str = "id_a", col_b: str = "id_b",
                            max_rounds: int = 64, buckets: int = 1024,
                            stats: dict | None = None):
    """DISTRIBUTED connected components over an edge Dataset — the
    100-TB path for pair lists too big for one node (the r2 verdict's
    remaining driver-side materialization).

    Alternating LARGE-STAR / SMALL-STAR rounds (Kiveris et al.,
    "Connected Components in MapReduce and Beyond", SOCC'14):

    - large-star: group the UNDIRECTED adjacency by node u; with
      m = min(Γ(u) ∪ {u}), rewire every neighbor v > u to (v, m)
    - small-star: group edges directed max→min by the max endpoint u;
      with m = min(Γ(u) ∪ {u}), rewire Γ(u) ∪ {u} (minus m) to m

    Each round is ONE exchange keyed by a COARSE BUCKET of the node
    (``hash(u) % buckets`` — the ``exact_dedup`` shuffle shape, r3
    verdict fix #2): a bucket's group UDF resolves ALL of its node
    groups in one vectorized ``sort + minimum.reduceat`` pass, so the
    per-round Python-call count is ≤ *buckets* regardless of graph
    size (the previous shape invoked the UDF once per graph NODE per
    round — a per-row Python loop at 10^8 nodes).  No label join, no
    driver materialization; the driver folds only a per-round
    (edge_count, checksum) pair for the convergence test.  Converges in
    O(log n) rounds to star graphs rooted at each component's min node.
    Returns a Dataset with columns ``(node, label)`` covering every
    node that appears in some edge (roots map to themselves)."""

    def undirect(batch: pa.Table) -> pa.Table:
        u = batch[col_a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[col_b].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v  # self-loops carry no information
        u, v = u[keep], v[keep]
        return pa.table({"u": np.r_[u, v], "v": np.r_[v, u]})

    def _grouped(group: pa.Table):
        """Sort a bucket's edges by u; return per-u-group geometry."""
        order = np.lexsort(
            (
                group["v"].to_numpy(zero_copy_only=False),
                group["u"].to_numpy(zero_copy_only=False),
            )
        )
        u = group["u"].to_numpy(zero_copy_only=False)[order]
        v = group["v"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        grp = np.cumsum(np.r_[False, u[1:] != u[:-1]])  # row -> group idx
        uu = u[starts]  # distinct nodes in this bucket
        m = np.minimum(uu, np.minimum.reduceat(v, starts))  # min(Γ(u) ∪ {u})
        return u, v, grp, uu, m

    def star_bucket(group: pa.Table, large: bool) -> pa.Table:
        # ALL node groups of one coarse bucket, resolved vectorized
        u, v, grp, uu, m = _grouped(group.drop_columns(["_ccb"]))
        if large:
            # large-star sees the full undirected adjacency of u and
            # rewires every STRICTLY LARGER neighbor to m; u's own link
            # to m survives via m's (or a smaller neighbor's) group
            mask = v > u
            ou, ov = v[mask], m[grp[mask]]
        else:
            # small-star sees only max->min directed edges (all v < u)
            # and rewires Γ(u) ∪ {u} minus the root itself
            cand = np.r_[v, uu]
            mm = m[np.r_[grp, np.arange(len(uu))]]
            mask = cand != mm
            ou, ov = cand[mask], mm[mask]
        ou, ov = _dedup_pairs(ou, ov)
        return pa.table({"u": pa.array(ou), "v": pa.array(ov)})

    def canon(batch: pa.Table, large_next: bool) -> pa.Table:
        # direct edges max -> min and attach the bucket of the NEXT
        # grouping key (large-star groups the mirrored adjacency, so
        # both endpoints' rows are emitted; small-star groups by max)
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        hi, lo = np.maximum(u, v), np.minimum(u, v)
        keep = hi != lo
        hi, lo = hi[keep], lo[keep]
        if large_next:
            gu, gv = np.r_[hi, lo], np.r_[lo, hi]
        else:
            gu, gv = hi, lo
        return pa.table(
            {"u": gu, "v": gv, "_ccb": pa.array(_cc_bucket(gu, buckets))}
        )

    def checksum_part(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            s = int((u * np.uint64(0x9E3779B97F4A7C15) ^ v).sum(dtype=np.uint64))
        return pa.table({"n": pa.array([len(u)], pa.int64()),
                         "s": pa.array([s % (1 << 63)], pa.int64())})

    # canonical max->min edge set (the state between rounds), mirrored
    # + bucketed for the first large-star grouping
    edges = pairs_ds.map_batches(undirect, batch_format="pyarrow")
    prev_sig = None
    for _ in range(max_rounds):
        # one large-star (over the mirrored adjacency) + one small-star
        # (over max->min directed edges ONLY — Kiveris et al. §3)
        edges = (
            edges.map_batches(
                lambda b: canon(b, large_next=True), batch_format="pyarrow"
            )
            .groupby("_ccb")
            .map_groups(lambda g: star_bucket(g, large=True), batch_format="pyarrow")
            .map_batches(lambda b: canon(b, large_next=False), batch_format="pyarrow")
            .groupby("_ccb")
            .map_groups(lambda g: star_bucket(g, large=False), batch_format="pyarrow")
            .materialize()
        )
        parts = edges.map_batches(checksum_part, batch_format="pyarrow").take_all()
        sig = (sum(r["n"] for r in parts), sum(r["s"] for r in parts) % (1 << 63))
        if stats is not None:
            stats.setdefault("round_edges", []).append(sig[0])
            stats["rounds"] = len(stats["round_edges"])
            stats["buckets"] = buckets
        if sig == prev_sig:
            break
        prev_sig = sig

    def emit_labels(batch: pa.Table) -> pa.Table:
        # star edges are (node, root); roots also label themselves
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        node = np.r_[u, v]
        return pa.table(
            {
                "node": node,
                "label": np.r_[v, v],
                "_ccb": pa.array(_cc_bucket(node, buckets)),
            }
        )

    def label_bucket(group: pa.Table) -> pa.Table:
        # min label per node, all of the bucket's nodes in one pass
        order = np.lexsort(
            (
                group["label"].to_numpy(zero_copy_only=False),
                group["node"].to_numpy(zero_copy_only=False),
            )
        )
        n = group["node"].to_numpy(zero_copy_only=False)[order]
        l = group["label"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]])
        return pa.table(
            {
                "node": pa.array(n[starts].astype(np.int64)),
                "label": pa.array(
                    np.minimum.reduceat(l, starts).astype(np.int64)
                ),
            }
        )

    return (
        edges.map_batches(emit_labels, batch_format="pyarrow")
        .groupby("_ccb")
        .map_groups(label_bucket, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# span-level dedup (chunk-granular duplicate-passage removal + reassembly)
# ---------------------------------------------------------------------------
def _span_chunk_meta(texts, window: int):
    """Non-overlapping word-window geometry + per-chunk uint64 hashes.

    Returns ``(flat_words, word_starts, chunk_doc, chunk_idx, chunk_len,
    chunk_abs_start, chunk_hash)`` — everything numpy, one Arrow split.
    The chunk hash is an FNV fold over per-word 64-bit hashes (stable
    across processes for a pinned polars version), so hash equality ≡
    chunk-string equality modulo ~2^-64 collisions and a string-grouping
    SQL oracle reproduces the drop decisions exactly."""
    flat, cnt, starts = split_words(texts)
    wh = _hash_utf8(flat)
    n_chunks = (cnt + window - 1) // window
    total = int(n_chunks.sum())
    doc_rep = np.repeat(np.arange(len(cnt), dtype=np.int64), n_chunks)
    gs = np.r_[0, np.cumsum(n_chunks)]
    cidx = np.arange(total, dtype=np.int64) - np.repeat(gs[:-1], n_chunks)
    wstart = cidx * window
    clen = np.minimum(wstart + window, cnt[doc_rep]) - wstart
    abs_start = starts[doc_rep] + wstart
    h = np.zeros(total, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(window):
            m = clen > j
            h[m] = h[m] * _FNV64 + wh[abs_start[m] + j]
    return flat, starts, doc_rep, cidx, clen, abs_start, h


def _doc_bucket_i64(doc: np.ndarray, mod: int = 256) -> pa.Array:
    with np.errstate(over="ignore"):
        b = ((doc.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)) % np.uint64(mod)
    return pa.array(b.astype(np.int64))


def span_dedup(ds, window: int = 16, text_col: str = "text", id_col: str = "doc_id",
               hash_buckets: int = 4096):
    """Corpus-wide duplicate-passage removal at chunk granularity (the
    scalable approximation of suffix-array substring dedup, Lee et al.
    2022 "Deduplicating Training Data Makes Language Models Better"):
    split every doc into non-overlapping ``window``-word chunks, keep
    only the FIRST occurrence (by ``(doc_id, chunk_idx)``) of every
    distinct chunk corpus-wide, and reassemble each doc from its
    surviving chunks.

    Scale shape: the duplicate-detection shuffle moves only
    ``(chunk_hash, doc_id, chunk_idx)`` triples (24 bytes/chunk — text
    never moves); the rebuild is ONE doc-bucketed exchange of the corpus
    + the (small) drop list, i.e. the same cost as a repartition.  Both
    groupbys use coarse buckets so the per-group Python overhead
    amortizes and every kernel vectorizes across the bucket
    (``hash_buckets`` sizes the duplicate-detection exchange — callers
    with a tiny corpus should pass fewer so per-group slicing doesn't
    dominate)."""
    import ray.data

    hash_mod = np.uint64(max(16, hash_buckets))

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        _, _, doc_rep, cidx, _, _, h = _span_chunk_meta(batch[text_col], window)
        hb = (h % hash_mod).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_rep], pa.int64()),
                "cidx": pa.array(cidx, pa.int64()),
                "ch": pa.array(h, pa.uint64()),
                "_hb": pa.array(hb, pa.int64()),
            }
        )

    def drops_in_bucket(group: pa.Table) -> pa.Table:
        h = group["ch"].to_numpy(zero_copy_only=False)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        c = group["cidx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((c, d, h))
        h2, d2, c2 = h[order], d[order], c[order]
        first = np.r_[True, h2[1:] != h2[:-1]] if len(h2) else np.zeros(0, bool)
        keep = ~first
        return pa.table(
            {
                "doc_id": pa.array(d2[keep], pa.int64()),
                "cidx": pa.array(c2[keep], pa.int64()),
            }
        )

    drops = (
        ds.map_batches(chunk_rows, batch_format="pyarrow")
        .groupby("_hb")
        .map_groups(drops_in_bucket, batch_format="pyarrow")
        .map_batches(
            lambda b: b.append_column(
                "_b", _doc_bucket_i64(b["doc_id"].to_numpy(zero_copy_only=False))
            ).append_column("text", pa.nulls(b.num_rows, pa.string())),
            batch_format="pyarrow",
        )
        # NO coalescing repartition here: the drop list scales with the
        # duplication rate, and squeezing it into a fixed block count
        # would materialize unbounded blocks at a 100-TB dup-heavy corpus;
        # the groupby shuffle right after bounds per-task input anyway
    )

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cidx": pa.nulls(len(ids), pa.int64()),  # null marks a doc row
                "ch": pa.nulls(len(ids), pa.uint64()),
                "_b": _doc_bucket_i64(ids),
                "text": texts,
            }
        )

    def drop_rows_schema(batch: pa.Table) -> pa.Table:
        return batch.append_column("ch", pa.nulls(batch.num_rows, pa.uint64())).select(
            ["doc_id", "cidx", "ch", "_b", "text"]
        )

    unioned = ds.map_batches(doc_rows, batch_format="pyarrow").union(
        drops.map_batches(drop_rows_schema, batch_format="pyarrow")
    )

    def rebuild(group: pa.Table) -> pa.Table:
        is_doc = pc.is_null(group["cidx"]).to_numpy(zero_copy_only=False)
        docs = group.filter(pa.array(is_doc))
        if docs.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chunks": pa.array([], pa.int64()),
                    "n_dropped": pa.array([], pa.int64()),
                    "text_dedup": pa.array([], pa.string()),
                }
            )
        d_ids = docs["doc_id"].to_numpy(zero_copy_only=False)
        d_order = np.argsort(d_ids, kind="stable")
        docs = docs.take(pa.array(d_order))
        d_ids = d_ids[d_order]
        flat, _, doc_rep, cidx, clen, abs_start, _ = _span_chunk_meta(
            docs["text"], window
        )
        n_chunks = np.bincount(doc_rep, minlength=docs.num_rows).astype(np.int64)
        gs = np.r_[0, np.cumsum(n_chunks)]
        keep = np.ones(len(cidx), bool)
        dr = group.filter(pa.array(~is_doc))
        if dr.num_rows:
            dd = dr["doc_id"].to_numpy(zero_copy_only=False)
            dc = dr["cidx"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(d_ids, dd)
            ok = (pos < len(d_ids)) & (d_ids[np.minimum(pos, len(d_ids) - 1)] == dd)
            keep[gs[pos[ok]] + dc[ok]] = False
        n_dropped = np.bincount(doc_rep[~keep], minlength=docs.num_rows).astype(
            np.int64
        )
        # gather surviving chunks' words into one per-doc list array
        ks, kl, kd = abs_start[keep], clen[keep], doc_rep[keep]
        cs = np.r_[0, np.cumsum(kl)]
        gather = np.repeat(ks, kl) + (
            np.arange(int(cs[-1]), dtype=np.int64) - np.repeat(cs[:-1], kl)
        )
        new_flat = flat.take(pa.array(gather, pa.int64()))
        if isinstance(new_flat, pa.ChunkedArray):
            new_flat = new_flat.combine_chunks()
        words_per_doc = np.bincount(kd, weights=kl, minlength=docs.num_rows).astype(
            np.int64
        )
        offs = pa.array(np.r_[0, np.cumsum(words_per_doc)], pa.int64())
        doc_lists = pa.LargeListArray.from_arrays(
            offs, pc.cast(new_flat, pa.large_string())
        )
        text_dedup = pc.cast(
            pc.binary_join(doc_lists, pa.scalar(" ", pa.large_string())), pa.string()
        )
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "n_chunks": pa.array(n_chunks, pa.int64()),
                "n_dropped": pa.array(n_dropped, pa.int64()),
                "text_dedup": text_dedup,
            }
        )

    return unioned.groupby("_b").map_groups(rebuild, batch_format="pyarrow")
