"""Property-based tests (hypothesis): the LWW kernels against a brute-
force oracle over arbitrary op sequences, and manifest CAS under a
concurrent committer."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    drop_tombstones,
    hash_keys,
    SMALL_LWW_ROWS,
    lww_hash_mask,
    lww_string_sort_mask,
    lww_table,
    lww_winner_mask,
    partition_ids,
    precombine_and_hash,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    CommitConflictError,
    ManifestLog,
    prepare_watermark,
)
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)

# an event = (key 0..9, op)
events_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from(["I", "U", "D"])),
    min_size=0,
    max_size=200,
)


def brute_force_final_state(events):
    """Row-by-row application of the reference MERGE semantics."""
    state = {}
    for version, (key, op) in enumerate(events, start=1):
        if op == "D":
            state.pop(key, None)
        else:
            state[key] = version
    return state


def to_table(events):
    return pa.table(
        {
            MERGE_KEY_COL: pa.array([f"k{k}" for k, _ in events], pa.string()),
            VERSION_COL: pa.array(range(1, len(events) + 1), pa.int64()),
            OP_COL: pa.array([op for _, op in events], pa.string()),
        }
    )


@settings(max_examples=200, deadline=None)
@given(events_strategy)
def test_lww_matches_sequential_application(events):
    """One-shot LWW over the whole log == applying events in order."""
    t = to_table(events)
    out = drop_tombstones(lww_table(t))
    got = {
        k: v
        for k, v in zip(out[MERGE_KEY_COL].to_pylist(), out[VERSION_COL].to_pylist())
    }
    exp = {f"k{k}": v for k, v in brute_force_final_state(events).items()}
    assert got == exp


@settings(max_examples=100, deadline=None)
@given(events_strategy, st.integers(1, 4))
def test_lww_is_splittable(events, cut_parts):
    """LWW(all) == LWW(LWW(part1) + LWW(part2) + ...) for any version-
    ordered split — the invariant that makes cycle boundaries and the
    pre-combine combiner safe."""
    t = to_table(events)
    n = t.num_rows
    step = max(1, n // cut_parts)
    partials = [lww_table(t.slice(i, step)) for i in range(0, max(n, 1), step)]
    recombined = lww_table(pa.concat_tables(partials)) if partials else t
    assert drop_tombstones(recombined).to_pydict() == drop_tombstones(lww_table(t)).to_pydict() or (
        # dict compare ignores row order: normalize
        sorted(zip(*drop_tombstones(recombined).to_pydict().values()))
        == sorted(zip(*drop_tombstones(lww_table(t)).to_pydict().values()))
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 9)),
            st.one_of(st.none(), st.integers(0, 5)),
            st.sampled_from(["I", "U", "D"]),
        ),
        min_size=0,
        max_size=120,
    ),
    st.sampled_from(["polars", "pandas"]),
    st.booleans(),
)
def test_precombine_keeps_the_string_sort_winners(events, algo, nulls):
    """The hash-sorted LWW kernel — in the pre-combine and in
    ``lww_winner_mask`` — keeps exactly the rows, in the same order,
    that the string-sort mask keeps: ties on (key, version) keep the
    earliest row, and null keys or versions take the exact fallback."""
    if not nulls:
        events = [(k or 0, 0 if v is None else v, op) for k, v, op in events]
    t = pa.table(
        {
            MERGE_KEY_COL: pa.array(
                [None if k is None else f"k{k}" for k, _, _ in events], pa.string()
            ),
            VERSION_COL: pa.array([v for _, v, _ in events], pa.int64()),
            OP_COL: pa.array([op for _, _, op in events], pa.string()),
        }
    )
    want = np.flatnonzero(lww_string_sort_mask(t, MERGE_KEY_COL)).tolist()
    assert np.flatnonzero(lww_winner_mask(t, MERGE_KEY_COL)).tolist() == want
    assert np.flatnonzero(lww_hash_mask(t, MERGE_KEY_COL)).tolist() == want
    keep, h = precombine_and_hash(t, MERGE_KEY_COL, algo, threshold=0.0)
    assert keep.tolist() == want
    assert (h == hash_keys(t[MERGE_KEY_COL], algo)[keep]).all()


@pytest.mark.parametrize("n", [SMALL_LWW_ROWS - 1, SMALL_LWW_ROWS, SMALL_LWW_ROWS + 1])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_keys=st.integers(1, 600), n_versions=st.integers(1, 6))
def test_lww_kernels_agree_at_the_small_input_switch(n, seed, n_keys, n_versions):
    """On either side of SMALL_LWW_ROWS the string sort and the hash
    kernel keep the same rows, ties on (key, version) included, so the
    switch inside ``lww_winner_mask`` never changes a winner."""
    rng = np.random.default_rng(seed)
    t = pa.table(
        {
            MERGE_KEY_COL: pa.array(
                [f"k{k}" for k in rng.integers(0, n_keys, n)], pa.string()
            ),
            VERSION_COL: pa.array(rng.integers(0, n_versions, n), pa.int64()),
        }
    )
    want = lww_string_sort_mask(t, MERGE_KEY_COL)
    assert (lww_hash_mask(t, MERGE_KEY_COL) == want).all()
    assert (lww_winner_mask(t, MERGE_KEY_COL) == want).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=50), st.integers(1, 64))
def test_partition_ids_stable_and_bounded(keys, p):
    a = partition_ids(pa.array(keys, pa.string()), p)
    b = partition_ids(pa.array(keys, pa.string()), p)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < p


_DEL_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@settings(max_examples=120, deadline=None)
@given(
    events_strategy,
    st.integers(0, 200),
    st.sets(st.integers(0, 9)),
    st.sampled_from(sorted(_DEL_OPS)),
    st.integers(0, 12),
)
def test_mor_deletes_are_point_in_time_exact(tmp_path_factory_cache, events, wm, keys, op, lit):
    """Both MoR delete kinds against a brute-force model: a delete at
    watermark W removes EXACTLY the LWW winners with version ≤ W that
    match (the key set / the predicate) — independent of where W falls
    relative to each key's history."""
    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        apply_delete_predicates,
        apply_key_deletes,
    )

    t = to_table(events)
    # deterministic payload column for the predicate
    vals = [(k * 7 + v) % 13 for (k, _), v in zip(events, range(1, len(events) + 1))]
    t = t.append_column("value", pa.array(vals, pa.int64()))
    resolved = drop_tombstones(lww_table(t))
    winners = {
        k: (ver, val)
        for k, ver, val in zip(
            resolved[MERGE_KEY_COL].to_pylist(),
            resolved[VERSION_COL].to_pylist(),
            resolved["value"].to_pylist(),
        )
    }

    # -- equality deletes ------------------------------------------------
    root = tmp_path_factory_cache
    rel = f"del-{abs(hash((tuple(events), wm, tuple(sorted(keys)))))}.parquet"
    pq.write_table(
        pa.table({MERGE_KEY_COL: pa.array([f"k{k}" for k in sorted(keys)], pa.string())}),
        f"{root}/{rel}",
    )
    got = apply_key_deletes(
        resolved, root, [{"file": rel, "watermark": wm, "cycle": "x"}]
    )
    exp = {
        k: v
        for k, v in winners.items()
        if not (k in {f"k{i}" for i in keys} and v[0] <= wm)
    }
    assert {
        k: (ver, val)
        for k, ver, val in zip(
            got[MERGE_KEY_COL].to_pylist(),
            got[VERSION_COL].to_pylist(),
            got["value"].to_pylist(),
        )
    } == exp

    # -- predicate deletes -------------------------------------------------
    got2 = apply_delete_predicates(
        resolved, [{"conjunction": [["value", op, lit]], "watermark": wm}]
    )
    exp2 = {
        k: v
        for k, v in winners.items()
        if not (_DEL_OPS[op](v[1], lit) and v[0] <= wm)
    }
    assert {
        k: (ver, val)
        for k, ver, val in zip(
            got2[MERGE_KEY_COL].to_pylist(),
            got2[VERSION_COL].to_pylist(),
            got2["value"].to_pylist(),
        )
    } == exp2


@pytest.fixture(scope="module")
def tmp_path_factory_cache(tmp_path_factory):
    """One shared dir for the hypothesis examples' tiny delete files
    (a per-example tmp_path fixture can't be combined with @given)."""
    return str(tmp_path_factory.mktemp("keydel_prop"))


def test_concurrent_committers_one_wins(tmp_path):
    """Two writers racing to commit the same next version: exactly one
    succeeds (hard-link CAS), the loser gets CommitConflictError and the
    log stays consistent."""
    root = str(tmp_path / "t")
    prepare_watermark(root, 0, num_partitions=2)
    log_a, log_b = ManifestLog(root), ManifestLog(root)
    base_a, base_b = log_a.latest(), log_b.latest()
    ma, mb = base_a.next(), base_b.next()
    ma.watermark, mb.watermark = 10, 20
    log_a.commit(ma, expect_version=base_a.version)
    with pytest.raises(CommitConflictError):
        log_b.commit(mb, expect_version=base_b.version)
    assert log_a.latest().watermark == 10
    assert log_a.versions() == [0, 1]


# ---------------------------------------------------------------------------
# text repetition / packing kernels vs slow Python references
# ---------------------------------------------------------------------------
doc_strategy = st.lists(
    st.lists(st.sampled_from(["a", "bb", "ccc", "d d", ""]), min_size=0, max_size=12).map(
        " ".join
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(doc_strategy)
def test_ngram_repetition_matches_python_reference(texts):
    from collections import Counter

    from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
        NgramRepetitionStage,
    )

    out = NgramRepetitionStage()(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )

    def ref(text, n):
        words = text.split(" ")
        grams = [
            " ".join(words[i : i + n]) for i in range(max(len(words) - n + 1, 0))
        ]
        if not grams:
            return 0.0, 0.0
        c = Counter(grams)
        weights = {g: cnt * len(g) for g, cnt in c.items()}
        tot = sum(weights.values())
        top = max(weights.values())
        dup = sum(w for g, w in weights.items() if c[g] > 1)
        return top / tot if tot else 0.0, dup / tot if tot else 0.0

    for i, t in enumerate(texts):
        top2, _ = ref(t, 2)
        _, dup5 = ref(t, 5)
        assert out["top2_char_frac"][i].as_py() == pytest.approx(top2, abs=0)
        assert out["dup5_char_frac"][i].as_py() == pytest.approx(dup5, abs=0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 700), min_size=1, max_size=40),
    st.integers(1, 5),
)
def test_seq_pack_matches_window_cumsum(token_counts, bucket):
    import numpy as np

    from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
        assign_bins_in_bucket,
        bucket_token_sums,
    )

    n = len(token_counts)
    t = pa.table(
        {"doc_id": list(range(n)), "n_tokens_ws": pa.array(token_counts, pa.int64())}
    )
    # distributed path: ragged batches -> bucket sums -> offsets -> per-bucket
    parts = [bucket_token_sums(t.slice(i, 7), bucket=bucket) for i in range(0, n, 7)]
    sums = (
        pa.concat_tables(parts)
        .group_by("bucket")
        .aggregate([("bn", "sum")])
        .rename_columns(["bucket", "bn"])
        .sort_by("bucket")
    )
    buckets = sums["bucket"].to_numpy(zero_copy_only=False)
    totals = sums["bn"].to_numpy(zero_copy_only=False)
    offsets = np.zeros(int(buckets.max()) + 1, np.int64)
    offsets[buckets] = np.cumsum(totals) - totals
    ids = np.arange(n)
    outs = []
    for bkt in np.unique(ids // bucket):
        mask = ids // bucket == bkt
        g = t.filter(pa.array(mask)).append_column(
            "bucket", pa.array(np.full(mask.sum(), bkt), pa.int64())
        )
        outs.append(assign_bins_in_bucket(g, offsets, 512))
    got = pa.concat_tables(outs).sort_by("doc_id")["bin_id"].to_pylist()
    # reference: plain running cumsum
    cum = 0
    exp = []
    for c in token_counts:
        exp.append(cum // 512)
        cum += c
    assert got == exp


# ---------------------------------------------------------------------------
# round-2 curation kernels vs plain-Python references over arbitrary docs
# ---------------------------------------------------------------------------
_doc_strategy = st.lists(
    st.text(
        alphabet=st.sampled_from("ab x"),  # tiny alphabet -> dense collisions
        min_size=0,
        max_size=60,
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(docs=_doc_strategy, size=st.integers(1, 7), stride=st.integers(1, 7))
def test_chunk_docs_matches_python_reference(docs, size, stride):
    from arcane_stream_sqlserver_change_tracking_ray.functions.text import chunk_docs

    batch = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    got = chunk_docs(batch, size=size, stride=stride).to_pylist()
    exp = []
    for i, text in enumerate(docs):
        words = text.split(" ")
        starts = list(range(0, len(words), stride)) or [0]
        for ci, stt in enumerate(starts):
            w = words[stt : stt + size]
            exp.append(
                {"doc_id": i, "chunk_idx": ci, "n_words": len(w), "chunk": " ".join(w)}
            )
    assert got == exp


@settings(max_examples=60, deadline=None)
@given(docs=_doc_strategy, n=st.integers(1, 5))
def test_word_ngram_hashes_group_like_gram_strings(docs, n):
    """Hash equality must partition gram occurrences exactly like string
    equality (an off-by-one in the window offsets or the FNV fold would
    split or merge groups)."""
    import numpy as np

    from arcane_stream_sqlserver_change_tracking_ray.functions.text import (
        word_ngram_hashes,
    )

    h, g = word_ngram_hashes(pa.array(docs, pa.string()), n)
    grams = []
    for text in docs:
        words = text.split(" ")
        grams += [
            " ".join(words[i : i + n]) for i in range(max(len(words) - n + 1, 0))
        ]
    assert len(h) == len(grams) and list(g) == [
        max(len(t.split(" ")) - n + 1, 0) for t in docs
    ]
    by_hash: dict = {}
    for hv, gs in zip(h.tolist(), grams):
        by_hash.setdefault(hv, set()).add(gs)
    # no collision ever observed (tiny alphabet maximizes the chance)
    assert all(len(v) == 1 for v in by_hash.values())
    # equal strings always hash equal
    by_gram: dict = {}
    for hv, gs in zip(h.tolist(), grams):
        by_gram.setdefault(gs, set()).add(hv)
    assert all(len(v) == 1 for v in by_gram.values())
