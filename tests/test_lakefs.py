"""Pluggable lake filesystem (state/fs.py): the two backends' unit
contracts — POSIX (plain paths and ``file://``) and the object store
(``mock://`` over a local directory, and pyarrow's in-memory, non-local
mock filesystem for the remote-store branch) — plus the FULL engine
running with ``target_root`` on ``file://`` and on the object-store
protocol simulation (``mock://`` — GET/PUT/conditional-PUT/LIST/DELETE
only, no renames).  Reference posture: Iceberg S3 FileIO + REST catalog
(``main.scala:80``, ``dev.env.example:13-30``)."""

import os
import pickle
from datetime import datetime, timezone

import numpy as np
import pytest
from pyarrow import fs as pafs

from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext
from arcane_stream_sqlserver_change_tracking_ray.gen import (
    expected_final_state,
    small_spec,
    write_ctlog,
)
from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
    StreamRunner,
    lookup_keys,
    read_change_feed_table,
    read_target_table,
)
from arcane_stream_sqlserver_change_tracking_ray.state import fs as fs_mod
from arcane_stream_sqlserver_change_tracking_ray.state.fs import (
    LocalLakeFS,
    ObjectStoreFS,
    lakefs,
)
from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
    ManifestLog,
    prepare_watermark,
)
from tests.util import assert_tables_equal


# ---------------------------------------------------------------------------
# backend resolution + unit contracts
# ---------------------------------------------------------------------------
def test_lakefs_scheme_dispatch(tmp_path, monkeypatch):
    # a fresh memo, so no facade built here outlives the test
    monkeypatch.setattr(fs_mod, "_FS_CACHE", fs_mod._FacadeMemo())
    assert isinstance(lakefs(str(tmp_path)), LocalLakeFS)
    local = lakefs(f"file://{tmp_path}")
    assert isinstance(local, LocalLakeFS) and local.full("a/b") == f"{tmp_path}/a/b"
    assert isinstance(lakefs(f"mock://{tmp_path}"), ObjectStoreFS)
    # a remote URI resolves to the object-store backend; no verb is
    # called, and the AWS SDK must not look the region or credentials up
    # in the EC2 metadata service while it builds the client
    monkeypatch.setenv("AWS_EC2_METADATA_DISABLED", "true")
    s3 = lakefs("s3://bucket/prefix?region=us-east-1")
    assert isinstance(s3, ObjectStoreFS) and isinstance(s3.pafs, pafs.S3FileSystem)
    assert s3.full("_manifest/v0.json") == "bucket/prefix/_manifest/v0.json"
    # the memo ships no facade (and no client) to Ray workers
    assert pickle.loads(pickle.dumps(fs_mod._FS_CACHE)) == {}


#: the lake schemes the backend contracts run on; "memory://" is an
#: ObjectStoreFS over pyarrow's in-memory mock filesystem, which is not
#: local, so it takes the remote-store branch (direct PUT, check-then-put
#: CAS, the streaming writer's close as the publish)
SCHEMES = ["", "file://", "mock://", "memory://"]


@pytest.fixture
def lake_root(tmp_path, monkeypatch):
    """A fresh lake root on a scheme of :data:`SCHEMES`."""

    def make(scheme: str) -> str:
        root = f"{scheme}{tmp_path}/lake"
        if scheme == "memory://":
            store = fs_mod.ObjectStoreFS(
                root, pafs._MockFileSystem(datetime.now(timezone.utc)), "bucket/lake"
            )
            monkeypatch.setitem(fs_mod._FS_CACHE, root, store)
        return root

    return make


@pytest.mark.parametrize("scheme", SCHEMES)
def test_backend_contract(lake_root, scheme):
    """The shared facade contract every backend must satisfy."""
    fs = lakefs(lake_root(scheme))

    # put_if_absent: exactly-one-winner CAS
    assert fs.put_if_absent("_manifest/v0.json", b"alpha") is True
    assert fs.put_if_absent("_manifest/v0.json", b"beta") is False
    assert fs.read_bytes("_manifest/v0.json") == b"alpha"  # loser wrote nothing

    # overwrite-publish
    fs.write_bytes("_manifest/tags/prod", b"3")
    fs.write_bytes("_manifest/tags/prod", b"7")
    assert fs.read_bytes("_manifest/tags/prod") == b"7"

    # namespace
    assert set(fs.listdir("_manifest")) >= {"v0.json", "tags"}
    assert fs.listdir("nope") == []
    assert fs.exists("_manifest/v0.json") and not fs.exists("_manifest/v1.json")
    fs.delete("_manifest/v0.json")
    fs.delete("_manifest/v0.json")  # idempotent
    assert not fs.exists("_manifest/v0.json")
    fs.delete_dir("_manifest")
    assert fs.listdir("_manifest") == []

    # parquet + size + npz sidecar round trip
    import pyarrow as pa

    t = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    n = fs.write_table(t, "cycles/c1/f.parquet", compression="zstd")
    assert n == fs.getsize("cycles/c1/f.parquet") > 0
    assert fs.read_table("cycles/c1/f.parquet").equals(t)
    assert fs.parquet_file("cycles/c1/f.parquet").metadata.num_rows == 3
    assert fs.read_schema("cycles/c1/f.parquet").names == ["k"]
    fs.write_npz("cycles/c1/f.parquet.bloom.npz", bits=np.arange(4, dtype=np.uint64))
    z = fs.read_npz("cycles/c1/f.parquet.bloom.npz")
    assert list(z["bits"]) == [0, 1, 2, 3]
    assert fs.read_npz("cycles/c1/missing.bloom.npz") is None

    # streaming parquet writer (the direct-MoR hot path)
    h = fs.parquet_writer("cycles/c2/d.parquet", t.schema, compression="zstd")
    h.write_table(t, row_group_size=2)
    h.close(durable=True)
    pf = fs.parquet_file("cycles/c2/d.parquet")
    assert pf.metadata.num_rows == 3 and pf.metadata.num_row_groups == 2


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dictionary_pages_only_where_values_repeat(lake_root, scheme):
    """Both data-file writers dictionary-encode only the columns whose
    leading values repeat: a unique string column's chunk has no
    dictionary page, a low-cardinality one has; the table reads back
    equal on every backend."""
    import pyarrow as pa

    from arcane_stream_sqlserver_change_tracking_ray.stages.merge import (
        dictionary_columns,
        write_partition_files,
    )

    root = lake_root(scheme)
    fs = lakefs(root)
    n = 3000
    t = pa.table(
        {
            "url": [f"https://site/{i}" for i in range(n)],
            "lang": ["en", "de", "fr"] * (n // 3),
            "v": pa.array(range(n), pa.int64()),
        }
    )
    assert dictionary_columns(t) == ["lang"]

    h = fs.parquet_writer(
        "cycles/c1/d.parquet", t.schema, compression="zstd",
        use_dictionary=dictionary_columns(t),
    )
    h.write_table(t, row_group_size=1000)
    h.close(durable=True)
    rels, _ = write_partition_files(
        t, root, "c2", 0, max_rows_per_file=n, compression="zstd", fsync=True
    )
    for rel in ["cycles/c1/d.parquet", *rels]:
        assert fs.read_table(rel).equals(t)
        md = fs.parquet_file(rel).metadata
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            dict_page = {
                rg.column(j).path_in_schema: rg.column(j).has_dictionary_page
                for j in range(rg.num_columns)
            }
            assert dict_page == {"url": False, "lang": True, "v": False}


def test_object_store_put_is_never_partial(tmp_path):
    """A reader can never observe a half-written object (the store's
    atomic-PUT guarantee the mock must preserve)."""
    fs = lakefs(f"mock://{tmp_path}/store")
    fs.write_bytes("k", b"x" * 1_000_000)
    fs.write_bytes("k", b"y" * 10)
    assert fs.read_bytes("k") == b"y" * 10
    # no stray upload keys leak into a listing
    assert [n for n in fs.listdir("") if ".put-" in n or ".upload-" in n] == []


# ---------------------------------------------------------------------------
# full engine over each backend
# ---------------------------------------------------------------------------
def _run_engine(ct: str, tgt: str) -> None:
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 200},
        }
    )
    StreamRunner(ctx).run()


@pytest.mark.parametrize("scheme", ["file://", "mock://"])
def test_engine_end_to_end_on_nonlocal_root(tmp_lake, scheme):
    """The full replay (tailer → transforms → direct MoR merge →
    manifest CAS commits → MoR read) with the LAKE on a non-POSIX
    root; the converged table must equal the LWW oracle."""
    ct, tgt_plain, _ = tmp_lake
    tgt = f"{scheme}{tgt_plain}"
    _run_engine(ct, tgt)
    got = read_target_table(tgt)
    assert_tables_equal(got, expected_final_state(ct))
    # time travel + change feed + point lookup all work through the facade
    log = ManifestLog(tgt)
    vs = log.versions()
    assert read_target_table(tgt, version=vs[1]).num_rows > 0
    feed = read_change_feed_table(tgt, from_version=vs[1])
    assert feed.num_rows > 0
    probe = got["url"][0].as_py()
    hit = lookup_keys(tgt, [probe])
    assert hit.num_rows == 1 and hit["url"][0].as_py() == probe


def test_mock_store_maintenance_and_expiry(tmp_lake):
    """OPTIMIZE fold + snapshot expiry + orphan sweep over the object
    store: deltas fold into fresh base files and GC deletes only dead
    objects — all through object verbs."""
    from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import (
        run_maintenance,
    )

    ct, tgt_plain, _ = tmp_lake
    tgt = f"mock://{tgt_plain}"
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 200},
            "maintenance": {"maxDeltasPerPartition": 0, "retentionVersions": 2},
        }
    )
    StreamRunner(ctx).run()
    log = ManifestLog(tgt)
    report = run_maintenance(log, ctx)
    m = log.require_watermark()
    assert not m.deltas, "OPTIMIZE must fold every delta chain"
    assert report["expired_versions"] > 0
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_mock_store_crash_resume(tmp_lake):
    """Kill mid-stream (uncommitted cycle objects left behind), restart:
    the sweep removes orphans via LIST+DELETE and the stream converges."""
    ct, tgt_plain, _ = tmp_lake
    tgt = f"mock://{tgt_plain}"
    write_ctlog(ct, small_spec())
    prepare_watermark(tgt, version=0, num_partitions=4)
    ctx = StreamContext.from_dict(
        {
            "source": {"ctlog_dir": ct, "key_columns": ["url"]},
            "sink": {"target_root": tgt, "num_partitions": 4},
            "throughput": {"rows_per_group": 200},
        }
    )
    StreamRunner(ctx).run(max_cycles=2)
    # plant junk a crashed cycle would leave (an unreferenced cycle dir)
    fs = lakefs(tgt)
    fs.write_bytes("cycles/deadbeef/part-junk.parquet", b"not parquet")
    StreamRunner(ctx).run()
    assert not fs.exists("cycles/deadbeef/part-junk.parquet"), "sweep missed orphan"
    assert_tables_equal(read_target_table(tgt), expected_final_state(ct))


def test_manifest_cas_on_mock_store(tmp_path):
    """Two committers of the same version: exactly one wins (the
    conditional-PUT contract the real store must provide)."""
    from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
        CommitConflictError,
        Manifest,
    )

    tgt = f"mock://{tmp_path}/t"
    log = ManifestLog(tgt)
    log.commit(Manifest(version=0, watermark=0, num_partitions=2))
    a = Manifest(version=1, watermark=5, num_partitions=2)
    b = Manifest(version=1, watermark=6, num_partitions=2)
    log.commit(a)
    with pytest.raises(CommitConflictError):
        log.commit(b)
    assert log.latest().watermark == 5
