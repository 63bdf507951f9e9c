"""Key-first merge-on-read resolve and the footer cache.

A key-filtered resolve over a delta chain decodes the LWW columns of
every entry and the payload of the live winners only
(``merge._resolve_key_first``); committed data files' footers are parsed
once per process (``fs.FOOTERS``).  The property test pins the two-phase
resolve to the one-pass resolve-then-filter, rows and order; the
pinning tests record which columns of which entry are decoded."""

import pickle
import uuid
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcane_stream_sqlserver_change_tracking_ray.stages.merge as merge_mod
from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
    change_feed_partition,
    resolve_partition_table,
    write_bloom_sidecar,
)
from arcane_stream_sqlserver_change_tracking_ray.state import fs as fs_mod
from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.types import (
    MERGE_KEY_COL,
    OP_COL,
    VERSION_COL,
)

KEY = "url"
SCHEMA = pa.schema(
    [
        (VERSION_COL, pa.int64()),
        (OP_COL, pa.string()),
        (KEY, pa.string()),
        ("lang", pa.string()),
        ("html", pa.string()),
        (MERGE_KEY_COL, pa.string()),
        ("title", pa.string()),  # added mid-chain: older entries lack it
    ]
)
PAYLOAD = {"lang", "html", "title"}
POOL = [f"https://site.example/p{i}" for i in range(6)]
ABSENT = "https://absent.example/"


def _rows_table(rows, with_title: bool) -> pa.Table:
    """An entry's rows: ``(key index, version, op, lang)`` tuples.  Every
    row's ``html`` is unique, so a tie broken the other way shows."""
    tag = uuid.uuid4().hex[:6]
    cols = {
        VERSION_COL: pa.array([v for _, v, _, _ in rows], pa.int64()),
        OP_COL: pa.array([op for _, _, op, _ in rows], pa.string()),
        KEY: pa.array([POOL[k] for k, _, _, _ in rows], pa.string()),
        "lang": pa.array([lang for _, _, _, lang in rows], pa.string()),
        "html": pa.array([f"<p>{tag}-{i} v{r[1]}</p>" for i, r in enumerate(rows)], pa.string()),
        MERGE_KEY_COL: pa.array([POOL[k] for k, _, _, _ in rows], pa.string()),
    }
    if with_title:
        cols["title"] = pa.array([f"t{v}" for _, v, _, _ in rows], pa.string())
    return pa.table(cols)


def _write_entry(root: str, t: pa.Table, fragment: bool) -> str:
    """One entry in a file of 2-row row groups.  A *fragment* entry is a
    ``#rg=a-b`` slice between padding row groups of other keys, as the
    direct MoR writer lays out its pid-sorted delta files."""
    fs = lakefs(root)
    rel = f"cycles/c-{uuid.uuid4().hex[:8]}/delta-{uuid.uuid4().hex}.parquet"
    pad = t.slice(0, 1).set_column(
        t.schema.get_field_index(KEY), KEY, pa.array(["https://pad.example/"], pa.string())
    )
    w = fs.parquet_writer(rel, t.schema, compression="zstd")
    if fragment:
        w.write_table(pad, row_group_size=2)
    w.write_table(t, row_group_size=2)
    if fragment:
        w.write_table(pad, row_group_size=2)
    w.close()
    write_bloom_sidecar(fs, rel, t, (KEY,))
    if not fragment:
        return rel
    n_groups = -(-t.num_rows // 2)
    return f"{rel}#rg=1-{n_groups}"


_row = st.tuples(
    st.integers(0, len(POOL) - 1),
    st.integers(1, 6),  # a narrow version range: equal-version ties across entries
    st.sampled_from(["I", "U", "U", "D"]),
    st.sampled_from(["en", "de"]),
)
_chain = st.fixed_dictionaries(
    {
        "base": st.one_of(
            st.none(),
            st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=4, unique=True),
        ),
        "deltas": st.lists(st.lists(_row, min_size=1, max_size=7), min_size=1, max_size=5),
        "title_from": st.integers(0, 6),
        "fragments": st.lists(st.booleans(), min_size=6, max_size=6),
        "probe": st.lists(st.sampled_from(POOL + [ABSENT]), min_size=1, max_size=4),
        "key_delete": st.one_of(
            st.none(),
            st.tuples(st.lists(st.sampled_from(POOL), min_size=1, max_size=3), st.integers(0, 7)),
        ),
        "lang_delete_wm": st.one_of(st.none(), st.integers(0, 7)),
        "cut": st.integers(0, 5),
    }
)


def _build(root: str, ch: dict):
    """Write a chain; returns ``(base, deltas, key_deletes, predicates)``."""
    base = []
    if ch["base"] is not None:  # a fold's output: one alive row per key
        rows = [(k, 0, "U", "en") for k in ch["base"]]
        base = [_write_entry(root, _rows_table(rows, ch["title_from"] == 0), ch["fragments"][0])]
    deltas = [
        _write_entry(root, _rows_table(rows, i + 1 >= ch["title_from"]), ch["fragments"][i + 1])
        for i, rows in enumerate(ch["deltas"])
    ]
    key_deletes = []
    if ch["key_delete"] is not None:
        keys, wm = ch["key_delete"]
        rel = f"keydel-{uuid.uuid4().hex}.parquet"
        lakefs(root).write_table(
            pa.table({MERGE_KEY_COL: pa.array(keys, pa.string())}), rel
        )
        key_deletes = [{"file": rel, "watermark": wm}]
    preds = []
    if ch["lang_delete_wm"] is not None:
        preds = [{"conjunction": [["lang", "==", "de"]], "watermark": ch["lang_delete_wm"]}]
    return base, deltas, key_deletes, preds


def _one_pass(target_root, base_files, delta_files, schema, key_filter=None,
              key_col=MERGE_KEY_COL, delete_predicates=None, key_deletes=None, **_):
    """The reference: resolve every row of the partition in one pass
    (every column of every entry), then keep the probed keys."""
    full = resolve_partition_table(
        target_root, base_files, delta_files, schema,
        delete_predicates=delete_predicates, key_deletes=key_deletes,
    )
    if key_filter is None:
        return full
    return full.filter(pc.is_in(full[key_col], value_set=key_filter))


@pytest.fixture(scope="module", params=["posix", "mock"])
def lake_base(request, tmp_path_factory):
    """A parent dir for the hypothesis examples' lakes (a per-example
    tmp_path fixture can't be combined with @given), on each backend."""
    base = str(tmp_path_factory.mktemp(f"keyfirst_{request.param}"))
    return base if request.param == "posix" else f"mock://{base}"


@settings(max_examples=150, deadline=None)
@given(ch=_chain)
def test_key_first_equals_one_pass_resolve(lake_base, ch):
    """Rows and order equal the one-pass resolve-then-filter over chains
    of 1-5 deltas and an optional base: tombstones, equal-version ties
    across entries, absent and multi-key probes, a column added
    mid-chain, key deletes and a delete predicate on a payload column.
    The change feed over the same chain, with pre-images, is equal too."""
    root = f"{lake_base}/{uuid.uuid4().hex}"
    base, deltas, kdel, preds = _build(root, ch)
    probe = pa.array(sorted(set(ch["probe"])), pa.string())

    stats: dict = {}
    got = resolve_partition_table(
        root, base, deltas, SCHEMA, key_filter=probe, key_col=KEY, bloom_column=KEY,
        stats=stats, delete_predicates=preds, key_deletes=kdel,
    )
    want = _one_pass(root, base, deltas, SCHEMA, key_filter=probe, key_col=KEY,
                     delete_predicates=preds, key_deletes=kdel)
    assert got.schema == SCHEMA
    assert got.equals(want), (got.to_pydict(), want.to_pydict())
    assert stats.get("files_read", 0) + stats.get("files_skipped", 0) == len(base) + len(deltas)

    # the change feed over (cut, end] of the same chain, whose FROM probe
    # is a key-filtered resolve: equal to the feed over the one-pass probe
    cut = min(ch["cut"], len(deltas) - 1)
    args = (root, deltas[cut:], base, deltas[:cut], SCHEMA)
    kw = dict(drop_meta=False, pre_image_columns=("html", "title"),
              delete_predicates=preds, key_deletes=kdel)
    feed = change_feed_partition(*args, **kw)
    with mock.patch.object(merge_mod, "resolve_partition_table", _one_pass):
        want_feed = change_feed_partition(*args, **kw)
    assert feed.equals(want_feed), (feed.to_pydict(), want_feed.to_pydict())


# ---------------------------------------------------------------------------
# what a lookup decodes
# ---------------------------------------------------------------------------
@contextmanager
def recorded_reads():
    """Record ``(entry, decoded columns)`` of every entry read."""
    reads = []
    real = merge_mod.read_entry_table

    def wrapper(target_root, entry, wanted=None, use_threads=True, rows=None, **kw):
        t = real(target_root, entry, wanted, use_threads=use_threads, rows=rows, **kw)
        reads.append((entry, frozenset(t.column_names)))
        return t

    with mock.patch.object(merge_mod, "read_entry_table", wrapper):
        yield reads


def _four_delta_chain(root):
    """Keys p0-p4 in every one of 4 deltas (p1 deleted in the last), p5
    only in the first; every delta has every payload column."""
    deltas = []
    for d in range(4):
        rows = [(k, 10 * d + k, "D" if (k == 1 and d == 3) else "U", "en") for k in range(5)]
        if d == 0:
            rows.append((5, 1, "U", "de"))
        deltas.append(_write_entry(root, _rows_table(rows, True), fragment=d % 2 == 1))
    return deltas


def _payload_reads(reads):
    return [e for e, cols in reads if cols & PAYLOAD]


@pytest.mark.parametrize("backend", ["posix", "mock"])
def test_lookup_decodes_payload_of_the_winner_only(tmp_path, backend):
    root = str(tmp_path) if backend == "posix" else f"mock://{tmp_path}"
    deltas = _four_delta_chain(root)
    for key, payload_entries, rows in (
        (POOL[3], [deltas[3]], 1),  # live in all 4: payload from the last only
        (POOL[5], [deltas[0]], 1),  # live in the first only
        (POOL[1], [], 0),  # deleted by the last delta
        (ABSENT, [], 0),
    ):
        stats: dict = {}
        with recorded_reads() as reads:
            got = resolve_partition_table(
                root, [], deltas, SCHEMA, key_filter=pa.array([key]), key_col=KEY, stats=stats
            )
        assert got.num_rows == rows
        assert _payload_reads(reads) == payload_entries, key
        # the key phase opens each entry once and decodes no payload there
        key_phase = [e for e, cols in reads if not cols & PAYLOAD]
        assert key_phase == deltas and stats["files_read"] == 4
    # two live keys whose winners sit in the same entry: one payload read
    with recorded_reads() as reads:
        got = resolve_partition_table(
            root, [], deltas, SCHEMA, key_filter=pa.array([POOL[2], POOL[4]]), key_col=KEY
        )
    assert got[KEY].to_pylist() == [POOL[2], POOL[4]]
    assert _payload_reads(reads) == [deltas[3]]


def test_folded_lookup_reads_each_file_once(tmp_path):
    """No deltas: every key-matching row is a winner, so each base file
    is read once, all requested columns in one pass."""
    root = str(tmp_path)
    base = [
        _write_entry(root, _rows_table([(k, 1, "U", "en") for k in ks], True), fragment=f)
        for ks, f in (([0, 1, 2], False), ([3, 4, 5], True))
    ]
    with recorded_reads() as reads:
        got = resolve_partition_table(
            root, base, [], SCHEMA, key_filter=pa.array([POOL[1], POOL[4]]), key_col=KEY
        )
    assert got[KEY].to_pylist() == [POOL[1], POOL[4]]
    assert reads == [(e, frozenset(SCHEMA.names)) for e in base]


def test_read_entry_rows_decodes_only_their_row_groups(tmp_path):
    """``read_entry_table(rows=...)`` returns those rows of the entry, in
    order, from the row groups that hold them."""
    root = str(tmp_path)
    t = _rows_table([(k % 6, k, "U", "en") for k in range(9)], True)
    entry = _write_entry(root, t, fragment=True)
    for rows in ([0], [3, 4], [1, 6, 8], list(range(9))):
        got = merge_mod.read_entry_table(root, entry, {"html", VERSION_COL}, rows=np.array(rows))
        assert got.equals(t.select([VERSION_COL, "html"]).take(rows))


# ---------------------------------------------------------------------------
# the footer cache
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["posix", "file", "mock"])
def test_footer_cache_reparses_a_changed_file(tmp_path, backend):
    """A footer is parsed once per file; a path whose bytes change is
    parsed afresh, and a deleted file still fails to open."""
    root = {"posix": str(tmp_path), "file": f"file://{tmp_path}", "mock": f"mock://{tmp_path}"}[backend]
    fs = lakefs(root)
    fs.write_table(pa.table({"a": [1, 2, 3]}), "f.parquet")
    parses = []
    real = fs_mod.pq.ParquetFile

    def counting(source, *, metadata=None, **kw):
        if metadata is None:
            parses.append(source)
        return real(source, metadata=metadata, **kw)

    with mock.patch.object(fs_mod.pq, "ParquetFile", counting):
        assert fs.parquet_file("f.parquet").read()["a"].to_pylist() == [1, 2, 3]
        assert fs.parquet_file("f.parquet").read()["a"].to_pylist() == [1, 2, 3]
        assert len(parses) == 1
        fs.write_table(pa.table({"a": [7, 8, 9, 10], "b": ["x"] * 4}), "f.parquet")
        pf = fs.parquet_file("f.parquet")
        assert len(parses) == 2
        assert pf.read().to_pydict() == {"a": [7, 8, 9, 10], "b": ["x"] * 4}
        fs.delete("f.parquet")
        with pytest.raises((FileNotFoundError, OSError)):
            fs.parquet_file("f.parquet")


def test_footer_cache_is_a_bounded_lru_that_pickles_empty():
    def parquet_bytes(i):
        buf = pa.BufferOutputStream()
        pq.write_table(pa.table({"a": [i]}), buf)
        return pa.BufferReader(buf.getvalue())

    cache = fs_mod.FooterCache(2)
    cache.parquet_file(parquet_bytes(0), "k0")
    cache.parquet_file(parquet_bytes(1), "k1")
    cache.parquet_file(parquet_bytes(0), "k0")  # a hit: k1 is now the oldest
    cache.parquet_file(parquet_bytes(2), "k2")
    assert list(cache._md) == ["k0", "k2"]
    assert pickle.loads(pickle.dumps(cache))._md == {}


def test_lookup_at_an_expired_version_still_raises(tmp_lake):
    """Footers a lookup cached do not keep an expired snapshot readable."""
    from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import lookup_keys
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog
    from tests.test_merge_on_read import replay

    ct, tgt, _ = tmp_lake
    replay(ct, tgt)
    log = ManifestLog(tgt)
    old = log.versions()[1]
    entry = next(e for es in log.read(old).deltas.values() for e in es)
    key = merge_mod.read_entry_table(tgt, entry, {KEY})[KEY][0].as_py()
    assert lookup_keys(tgt, [key], key_col=KEY, version=old).num_rows <= 1
    log.expire_versions(keep=2)
    assert old not in log.versions()
    with pytest.raises(FileNotFoundError):
        lookup_keys(tgt, [key], key_col=KEY, version=old)
