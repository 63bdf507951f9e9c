"""Pluggable lake filesystem: ``lakefs(target_root)`` resolves the root
string to one of two backends, and every lake I/O site (manifest log,
data-file writers, staging, maintenance, readers) goes through the
returned facade.

The reference writes its lake through Iceberg FileIO against S3 + a
REST catalog (``main.scala:80``, ``dev.env.example:13-30``,
``docker-compose.yaml:50-74``): every worker reaches the table root
over the object-store API and snapshot commits are conditional puts,
not POSIX renames.  An object-store table log needs only GET, PUT,
put-if-absent, LIST and DELETE (Delta Lake, VLDB 2020, §3).

- *plain path* or ``file:///abs/path`` -> :class:`LocalLakeFS`, the
  POSIX path: fsync'd data files, hard-link create-if-absent manifest
  CAS, directory fsync at commit.  ``root`` stays as given; the scheme
  is stripped only to find the directory.  Readers get plain paths and
  ``pafs is None`` (the local filesystem).
- ``mock://abs/path`` and every other ``pyarrow.fs.FileSystem.from_uri``
  scheme (``s3://bucket/prefix``, ...) -> :class:`ObjectStoreFS`, which
  drives one pyarrow filesystem with the object verbs only (no rename,
  hard link, fsync or directory in the protocol).  ``mock://`` maps
  the store onto a local directory, so a full engine run over it
  proves the commit protocol needs nothing POSIX.

Facades are pure functions of the root string (dict-memoized), so Ray
workers, which receive ``target_root`` strings, never fs objects,
reconstruct them per process for free.
"""

from __future__ import annotations

import os
import posixpath
import shutil
import threading
import uuid

import pyarrow as pa
import pyarrow.parquet as pq


class _FacadeMemo(dict):
    """A dict that pickles EMPTY: when this module is registered by
    value with Ray's cloudpickle, every worker-shipped closure that
    reaches :func:`lakefs` carries the memo along, and the driver's
    facades must not ride with it — unpickling an object-store facade
    builds its filesystem client again, in every task.  Workers build
    the facades they use on first use."""

    def __reduce__(self):
        return (type(self), ())


#: facade memo — a dict global on purpose: an ``lru_cache`` wrapper
#: pickles BY REFERENCE (its __reduce__ returns the qualified name) even
#: when this module is registered by value with Ray's cloudpickle, so
#: any worker-shipped closure that referenced the cached factory failed
#: with ModuleNotFoundError on workers that can't import the package
#: (foreign-cwd drivers).  A dict global serializes by value with the
#: function.
_FS_CACHE: dict[str, "LakeFS"] = _FacadeMemo()


#: cap the memo so a long-lived driver touching many distinct roots
#: (test sessions, multi-table runners) can't accumulate facades — and
#: their live client handles — forever; eviction just recreates a cheap
#: stateless handle on next use.
_FS_CACHE_MAX = 64


class FooterCache:
    """A small process-level LRU of parsed parquet footers
    (``pq.FileMetaData``) of the lake's data files.

    Committed data files sit at attempt-unique uuid paths and are never
    rewritten, so a footer parsed once stays valid for the file's life;
    a point lookup then pays for opening the file, not for parsing its
    footer again.  The key still names the exact bytes — the backend's
    identity of the opened object (size and modification time, plus the
    inode where there is one) — so a path whose bytes change misses
    and is parsed afresh, never served a stale footer.  A deleted file
    fails to open before the cache is consulted.

    Pickles EMPTY (``__reduce__``): a worker-shipped closure that
    reaches the cache through this module's globals must not carry the
    driver's footers along."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._md: dict = {}
        self._lock = threading.Lock()

    def __reduce__(self):
        return (type(self), (self.maxsize,))

    def parquet_file(self, source, ident) -> pq.ParquetFile:
        """``pq.ParquetFile`` over the open *source*, reusing the footer
        cached under *ident* or parsing and caching it."""
        with self._lock:
            md = self._md.pop(ident, None)
            if md is not None:
                self._md[ident] = md  # most recently used goes last
        if md is not None:
            return pq.ParquetFile(source, metadata=md)
        pf = pq.ParquetFile(source)
        with self._lock:
            self._md[ident] = pf.metadata
            while len(self._md) > self.maxsize:
                self._md.pop(next(iter(self._md)))
        return pf


#: the footer cache every backend's ``parquet_file`` goes through; a
#: fixed bound (a footer of a few-row-group file is a few KB)
FOOTERS = FooterCache(256)


def _local_parquet_file(root: str, rel: str, path: str) -> pq.ParquetFile:
    """A local file through :data:`FOOTERS`, identified by its size,
    mtime and inode.  The stat precedes the open, so a file replaced in
    between opens with a size the stat did not see; that read parses
    its own footer and caches nothing."""
    st = os.stat(path)
    f = pa.OSFile(path)
    if f.size() != st.st_size:
        return pq.ParquetFile(f)
    return FOOTERS.parquet_file(f, (root, rel, st.st_size, st.st_mtime_ns, st.st_ino))


def lakefs(root: str) -> "LakeFS":
    """Resolve a lake root string to its filesystem facade (memoized)."""
    fs = _FS_CACHE.get(root)
    if fs is None:
        if len(_FS_CACHE) >= _FS_CACHE_MAX:
            _FS_CACHE.pop(next(iter(_FS_CACHE)))
        fs = _FS_CACHE.setdefault(root, _make_lakefs(root))
    else:
        # LRU, not FIFO: move-to-end on hit so a hot root (the primary
        # lake) is never the eviction victim of 64 transient roots
        _FS_CACHE[root] = _FS_CACHE.pop(root)
    return fs


def _make_lakefs(root: str) -> "LakeFS":
    scheme, sep, rest = root.partition("://")
    if not sep or scheme == "file":
        return LocalLakeFS(root)
    from pyarrow import fs as pafs

    if scheme == "mock":
        return ObjectStoreFS(root, pafs.LocalFileSystem(), "/" + rest.lstrip("/"))
    return ObjectStoreFS(root, *pafs.FileSystem.from_uri(root))


class LakeFS:
    """One lake root's I/O surface.  ``rel`` arguments are always
    POSIX-relative to the root ("_manifest/v0.json", "cycles/c1/f.parquet");
    ``full(rel)`` returns the path readers pass alongside :attr:`pafs`
    to ``pqio.plan_units`` / ``pq.read_metadata``."""

    root: str

    # -- paths -------------------------------------------------------------
    def full(self, rel: str) -> str:
        raise NotImplementedError

    @property
    def pafs(self):
        """pyarrow filesystem for readers (None = plain local paths)."""
        return None

    # -- small objects (manifests, tags, state JSON) ------------------------
    def read_bytes(self, rel: str) -> bytes:
        raise NotImplementedError

    def write_bytes(self, rel: str, data: bytes) -> None:
        """Overwrite-publish: readers see the old or the new content,
        never a partial object (tags, backfill state)."""
        raise NotImplementedError

    def put_if_absent(self, rel: str, data: bytes) -> bool:
        """The manifest-commit CAS: atomically create ``rel`` with
        *data* iff it does not exist.  True = created (this writer won),
        False = lost to a concurrent committer."""
        raise NotImplementedError

    # -- namespace ----------------------------------------------------------
    def exists(self, rel: str) -> bool:
        raise NotImplementedError

    def listdir(self, rel: str) -> list[str]:
        """Immediate child names under ``rel`` ([] when missing)."""
        raise NotImplementedError

    def makedirs(self, rel: str) -> None:
        """Ensure the prefix exists (no-op on object stores)."""

    def delete(self, rel: str) -> None:
        """Delete one object/file; missing is fine."""
        raise NotImplementedError

    def delete_dir(self, rel: str) -> None:
        """Recursively delete a prefix; missing is fine."""
        raise NotImplementedError

    def getsize(self, rel: str) -> int:
        raise NotImplementedError

    def getmtime(self, rel: str) -> float:
        """Last-modified of a file/dir entry as a POSIX timestamp; used by
        the startup sweep's grace window.  Backends without mtimes may
        return 0.0 (= always past the grace window)."""
        raise NotImplementedError

    # -- parquet data files ---------------------------------------------------
    def write_table(self, table: pa.Table, rel: str, *, durable: bool = True, **pq_kw) -> int:
        """Write one parquet data file; returns its byte size.
        ``durable=True`` means the file must survive a host crash before
        the manifest referencing it commits (fsync locally; object
        stores guarantee it on PUT return)."""
        raise NotImplementedError

    def parquet_file(self, rel: str) -> pq.ParquetFile:
        """An open ``pq.ParquetFile`` of one data file; its footer comes
        from :data:`FOOTERS` when this exact object was parsed before."""
        raise NotImplementedError

    def read_table(self, rel: str, **kw) -> pa.Table:
        raise NotImplementedError

    def read_schema(self, rel: str) -> pa.Schema:
        raise NotImplementedError

    def parquet_writer(
        self, rel: str, schema: pa.Schema, *, compression: str, use_dictionary=True
    ):
        """A streaming multi-row-group writer handle for one data file
        (the direct-MoR hot path).  ``handle.write_table(t, row_group_size)``
        appends; ``handle.close(durable=True)`` publishes — on an object
        store the stream maps to a multipart upload whose completion is
        the store's atomic publish.  *use_dictionary* is
        ``pq.ParquetWriter``'s: a bool, or the columns to
        dictionary-encode."""
        raise NotImplementedError

    # -- npz sidecars ---------------------------------------------------------
    def write_npz(self, rel: str, **arrays) -> None:
        raise NotImplementedError

    def read_npz(self, rel: str) -> dict | None:
        """Dict of arrays, or None when the sidecar does not exist."""
        raise NotImplementedError


class _WriterHandle:
    """pq.ParquetWriter + a publish step on close."""

    def __init__(self, writer: pq.ParquetWriter, publish=None):
        self._writer = writer
        self._publish = publish

    def write_table(self, table: pa.Table, row_group_size: int | None = None) -> None:
        self._writer.write_table(table, row_group_size=row_group_size)

    def close(self, durable: bool = True) -> None:
        self._writer.close()
        if self._publish is not None:
            self._publish(durable)


# ---------------------------------------------------------------------------
# POSIX (plain paths and file:// URIs)
# ---------------------------------------------------------------------------
class LocalLakeFS(LakeFS):
    """The lake in a local (or mounted) directory, with POSIX
    durability: fsync'd files, hard-link CAS, directory fsync."""

    def __init__(self, root: str):
        self.root = root
        self._dir = root.removeprefix("file://")

    def full(self, rel: str) -> str:
        return os.path.join(self._dir, rel)

    def read_bytes(self, rel: str) -> bytes:
        with open(self.full(rel), "rb") as f:
            return f.read()

    def write_bytes(self, rel: str, data: bytes) -> None:
        path = self.full(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)  # atomic publish / repoint

    def put_if_absent(self, rel: str, data: bytes) -> bool:
        path = self.full(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = os.path.join(os.path.dirname(path), f".tmp-{uuid.uuid4().hex}")
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        try:
            # hard-link + unlink == atomic create-if-absent on POSIX; a
            # plain rename would silently clobber a concurrent committer
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        # fsync the DIRECTORY so the published entry itself is durable
        dirfd = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        return True

    def exists(self, rel: str) -> bool:
        return os.path.exists(self.full(rel))

    def listdir(self, rel: str) -> list[str]:
        p = self.full(rel)
        return os.listdir(p) if os.path.isdir(p) else []

    def makedirs(self, rel: str) -> None:
        os.makedirs(self.full(rel), exist_ok=True)

    def delete(self, rel: str) -> None:
        try:
            os.unlink(self.full(rel))
        except FileNotFoundError:
            pass

    def delete_dir(self, rel: str) -> None:
        shutil.rmtree(self.full(rel), ignore_errors=True)

    def getsize(self, rel: str) -> int:
        return os.path.getsize(self.full(rel))

    def getmtime(self, rel: str) -> float:
        try:
            return os.path.getmtime(self.full(rel))
        except OSError:
            return 0.0

    def write_table(self, table, rel, *, durable=True, **pq_kw) -> int:
        path = self.full(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(table, path, **pq_kw)
        if durable:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return os.path.getsize(path)

    def parquet_file(self, rel: str) -> pq.ParquetFile:
        return _local_parquet_file(self.root, rel, self.full(rel))

    def read_table(self, rel: str, **kw) -> pa.Table:
        return pq.read_table(self.full(rel), **kw)

    def read_schema(self, rel: str) -> pa.Schema:
        return pq.read_schema(self.full(rel))

    def parquet_writer(self, rel: str, schema, *, compression: str, use_dictionary=True):
        path = self.full(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)

        def publish(durable: bool) -> None:
            if durable:
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

        return _WriterHandle(
            pq.ParquetWriter(
                path, schema, compression=compression, use_dictionary=use_dictionary
            ),
            publish,
        )

    def write_npz(self, rel: str, **arrays) -> None:
        import numpy as np

        np.savez(self.full(rel).removesuffix(".npz"), **arrays)

    def read_npz(self, rel: str):
        import numpy as np

        path = self.full(rel)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as z:
                return dict(z)
        except Exception:
            return None


# ---------------------------------------------------------------------------
# object stores (mock://, s3://, ...)
# ---------------------------------------------------------------------------
class ObjectStoreFS(LakeFS):
    """A key->object store driven through one ``pyarrow.fs.FileSystem``
    with object verbs only: GET, atomic whole-object PUT, conditional
    PUT (``If-None-Match``), LIST-by-prefix, DELETE.  Multi-node ready:
    workers resolve the same URI, the reference's Iceberg-FileIO
    posture.

    A store guarantees that a PUT (or a multipart upload's completion)
    publishes the whole object at once, and that a conditional create
    has one winner.  A local directory (``mock://``) has neither, so
    there the facade emulates them: PUT and the streaming writer's
    publish write a hidden key and rename it into place, and
    ``put_if_absent`` uses ``O_CREAT|O_EXCL``.  Durability is the
    store's contract on PUT return, so nothing is fsync'd."""

    def __init__(self, root: str, filesystem, base: str):
        from pyarrow import fs as pafs

        self.root = root
        self._fs = filesystem
        self._base = base.rstrip("/")
        self._local_dir = isinstance(filesystem, pafs.LocalFileSystem)

    def full(self, rel: str) -> str:
        return posixpath.join(self._base, rel)

    @property
    def pafs(self):
        return self._fs

    def _upload_key(self, path: str, kind: str) -> str:
        """Create *path*'s parent prefix and return where a write of
        *path* lands before it is visible: the key itself on a store, a
        hidden sibling key on a local directory."""
        self._fs.create_dir(posixpath.dirname(path), recursive=True)
        return f"{path}.{kind}-{uuid.uuid4().hex}" if self._local_dir else path

    def _complete(self, upload: str, path: str) -> None:
        if upload != path:
            self._fs.move(upload, path)  # atomic replace on a local directory

    # -- object verbs --------------------------------------------------------
    def read_bytes(self, rel: str) -> bytes:  # GET
        with self._fs.open_input_file(self.full(rel)) as f:
            return f.read()

    def write_bytes(self, rel: str, data) -> None:  # PUT
        path = self.full(rel)
        upload = self._upload_key(path, "put")
        with self._fs.open_output_stream(upload) as f:
            f.write(data)
        self._complete(upload, path)

    def put_if_absent(self, rel: str, data: bytes) -> bool:  # PUT If-None-Match
        """Create-if-absent.  A local directory uses ``O_CREAT|O_EXCL``,
        the local analog of the store's conditional create: exactly one
        concurrent writer wins.

        A remote store gets check-then-put, which has a race window
        between the existence check and the PUT — pyarrow's FileSystem
        API does not expose conditional writes, so a PRODUCTION
        deployment must replace this with the store's native
        conditional put (S3 ``If-None-Match: *``, GCS
        ``ifGenerationMatch=0``, ABFS lease) exactly as Iceberg's
        S3FileIO does; ``mock://`` models that protocol for tests.
        Single-writer streams (the engine's normal deployment: one
        runner per table, CAS as a safety net) are unaffected."""
        if not self._local_dir:
            if self.exists(rel):
                return False
            self.write_bytes(rel, data)
            return True
        path = self.full(rel)
        self._fs.create_dir(posixpath.dirname(path), recursive=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return True

    def exists(self, rel: str) -> bool:  # HEAD
        from pyarrow import fs as pafs

        return self._fs.get_file_info(self.full(rel)).type != pafs.FileType.NotFound

    def listdir(self, rel: str) -> list[str]:  # LIST prefix, delimiter="/"
        from pyarrow import fs as pafs

        try:
            infos = self._fs.get_file_info(pafs.FileSelector(self.full(rel)))
        except OSError:
            return []
        return [posixpath.basename(i.path) for i in infos]

    def makedirs(self, rel: str) -> None:
        """Object stores have no directories — a pure no-op, which also
        proves no lake code path depends on pre-created directories."""

    def delete(self, rel: str) -> None:  # DELETE
        try:
            self._fs.delete_file(self.full(rel))
        except OSError:
            pass

    def delete_dir(self, rel: str) -> None:  # LIST + batched DELETE
        try:
            self._fs.delete_dir(self.full(rel))
        except OSError:
            pass

    def getsize(self, rel: str) -> int:  # HEAD content-length
        with self._fs.open_input_file(self.full(rel)) as f:
            return f.size()

    def getmtime(self, rel: str) -> float:  # HEAD last-modified
        mtime = self._fs.get_file_info(self.full(rel)).mtime
        return mtime.timestamp() if mtime is not None else 0.0

    # -- parquet: one object per file ----------------------------------------
    def write_table(self, table, rel, *, durable=True, **pq_kw) -> int:
        buf = pa.BufferOutputStream()
        pq.write_table(table, buf, **pq_kw)
        data = buf.getvalue()
        self.write_bytes(rel, data)  # one PUT
        return data.size

    def parquet_file(self, rel: str) -> pq.ParquetFile:  # GET (ranged)
        info = self._fs.get_file_info(self.full(rel))
        f = self._fs.open_input_file(info.path)  # raises on a missing file
        if f.size() != info.size:  # replaced since the HEAD: parse, cache nothing
            return pq.ParquetFile(f)
        return FOOTERS.parquet_file(f, (self.root, rel, info.size, info.mtime_ns))

    def read_table(self, rel: str, **kw) -> pa.Table:
        return pq.read_table(self.full(rel), filesystem=self._fs, **kw)

    def read_schema(self, rel: str) -> pa.Schema:
        return pq.read_schema(self.full(rel), filesystem=self._fs)

    def parquet_writer(self, rel: str, schema, *, compression: str, use_dictionary=True):
        # a streaming write is a MULTIPART UPLOAD whose completion
        # publishes the object atomically
        path = self.full(rel)
        upload = self._upload_key(path, "upload")
        return _WriterHandle(
            pq.ParquetWriter(
                upload, schema, compression=compression,
                use_dictionary=use_dictionary, filesystem=self._fs,
            ),
            lambda durable: self._complete(upload, path),
        )

    def write_npz(self, rel: str, **arrays) -> None:
        import io

        import numpy as np

        buf = io.BytesIO()
        np.savez(buf, **arrays)
        self.write_bytes(rel, buf.getvalue())

    def read_npz(self, rel: str):
        import io

        import numpy as np

        try:
            with np.load(io.BytesIO(self.read_bytes(rel))) as z:
                return dict(z)
        except Exception:  # missing or unreadable sidecar
            return None
