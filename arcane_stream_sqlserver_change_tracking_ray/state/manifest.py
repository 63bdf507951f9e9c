"""Atomic manifest / watermark commit log for the target lake table.

The Ray-native stand-in for the reference's Iceberg-catalog +
watermark pair (SURVEY.md §1.4, §2.6 K1/K2): every merged batch commits
ONE JSON manifest holding

- ``version``      — monotone snapshot number (CAS-guarded),
- ``watermark``    — last applied ``sys_change_version``
  (reference ``WatermarkProcessor``, ``main.scala:112``; the stream
  refuses to start without one: ``"Invalid watermark value: 'null'"``,
  ``StreamRunner.scala:167-185``),
- ``schema``       — the evolved Arrow schema (additive-only, E1),
- ``partitions``   — pid -> list of relative parquet files (the live
  snapshot; unreferenced files are invisible),
- ``lineage``      — per-partition last-touched cycle / row counts,
- ``metrics`` / ``counters`` — per-cycle metrics and maintenance
  cadence counters (persisted so thresholds survive restarts,
  unlike the reference's in-process counters, SURVEY.md §3.1).

Commit protocol (a miniature of the Delta-Lake log, PAPERS.md): ONE
create-if-absent publish of ``v{n:012d}.json`` through the lake
filesystem's CAS primitive (``state/fs.py``: hard-link+unlink on
POSIX, conditional PUT on object stores — the Iceberg-FileIO posture
of the reference, ``main.scala:80``).  ``commit`` CAS-fails if the
next version already exists, so a crashed/retried cycle can never
double-apply — replay from the last committed watermark is idempotent
(LWW by version).
"""

from __future__ import annotations

import base64
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa

from arcane_stream_sqlserver_change_tracking_ray.state.fs import lakefs
from arcane_stream_sqlserver_change_tracking_ray.types import (
    schema_from_bytes,
    schema_to_bytes,
)

MANIFEST_DIR = "_manifest"
CYCLES_DIR = "cycles"
STAGING_DIR = "staging"


class InvalidWatermarkError(RuntimeError):
    """Raised when streaming starts without a prepared watermark.

    Mirrors the reference's fail-fast negative test
    (``StreamRunner.scala:167-185``)."""


class CommitConflictError(RuntimeError):
    """CAS failure: another writer committed this manifest version first."""


@dataclass
class Manifest:
    version: int
    watermark: int
    num_partitions: int
    schema: pa.Schema | None = None
    partitions: dict[int, list[str]] = field(default_factory=dict)
    #: pid -> ordered delta files (merge-on-read): raw change rows written
    #: per cycle WITHOUT rewriting the base files; readers resolve
    #: base+deltas with LWW-by-version and drop tombstones; the
    #: maintenance OPTIMIZE pass folds deltas back into base files.
    #: Append order == commit order == version order (the LWW invariant).
    deltas: dict[int, list[str]] = field(default_factory=dict)
    lineage: dict[int, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    #: routing-hash algorithm this table's partition files were placed
    #: with (part of the TABLE FORMAT — changing it orphans every file):
    #: "pandas" = round-1 SipHash via pd.util.hash_array (the default for
    #: manifests missing the field); "polars" = ahash over Arrow buffers,
    #: ~30x faster, the default for newly created tables.
    key_hash_algo: str = "pandas"
    #: the source column ``arcane_merge_key`` is an alias of (e.g.
    #: ``"url"``), or None.  Set by the runner at commit when the merge
    #: key is one source column; like ``key_hash_algo`` it is part of the
    #: table format and fixed for the table's life.  Data files written
    #: under it do not store ``arcane_merge_key`` (Delta Lake keeps
    #: partition values in its log, not in the Parquet files, the same
    #: way); every reader derives it from the alias column and never
    #: decodes a stored copy.  None on composite-key tables, on sources
    #: that ship their own ``arcane_merge_key`` and on tables committed
    #: before the field existed: their files store the column.
    merge_key_alias: str | None = None
    #: committed merge-on-read equality-delete files (K9b, the
    #: GDPR-by-key path): pid -> list of ``{"file": rel, "watermark": W,
    #: "cycle": id}``.  Each file holds the to-delete merge keys routed
    #: to that partition (canonical string domain); readers anti-join
    #: rows whose LWW-winning version is ≤ W — a key re-upserted after
    #: the delete commit survives.  Mirrors Iceberg v2 equality-delete
    #: files scoped by sequence number.  Folded (and cleared) by
    #: ``materialize_deletes``.
    key_deletes: dict[int, list[dict]] = field(default_factory=dict)
    #: committed merge-on-read DELETE predicates (K9): each entry
    #: ``{"conjunction": [[col, op, literal], ...], "watermark": W,
    #: "cycle": id}`` deletes rows whose LWW-winning version is ≤ W and
    #: whose payload matches the conjunction — applied by every reader,
    #: physically materialized (and cleared) by the
    #: ``materialize_deletes`` maintenance action.
    delete_predicates: list[dict] = field(default_factory=list)
    #: per-FILE column bounds for manifest-level file skipping (the
    #: Iceberg manifest-entry lower/upper-bounds analog): ``rel_path ->
    #: {col: [min, max]}``, populated by the ANALYZE maintenance pass
    #: from parquet FOOTERS only (no data scan) and consumed by
    #: ``read_target(where=...)`` to drop whole files before any scan
    #: task launches.  Files are immutable (new data = new paths), so
    #: bounds never go stale; files without an entry are never skipped.
    file_stats: dict[str, dict[str, list]] = field(default_factory=dict)

    # ------------------------------------------------------------- json io
    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "watermark": self.watermark,
            "num_partitions": self.num_partitions,
            "schema": (
                base64.b64encode(schema_to_bytes(self.schema)).decode()
                if self.schema is not None
                else None
            ),
            "partitions": {str(k): v for k, v in sorted(self.partitions.items())},
            "deltas": {str(k): v for k, v in sorted(self.deltas.items()) if v},
            "lineage": {str(k): v for k, v in sorted(self.lineage.items())},
            "counters": self.counters,
            "metrics": self.metrics,
            "stats": self.stats,
            "key_hash_algo": self.key_hash_algo,
            "key_deletes": self.key_deletes,
            "delete_predicates": self.delete_predicates,
        }
        if self.merge_key_alias is not None:
            doc["merge_key_alias"] = self.merge_key_alias
        if self.file_stats:
            doc["file_stats"] = {k: self.file_stats[k] for k in sorted(self.file_stats)}
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        doc = json.loads(text)
        return cls(
            version=doc["version"],
            watermark=doc["watermark"],
            num_partitions=doc["num_partitions"],
            schema=(
                schema_from_bytes(base64.b64decode(doc["schema"]))
                if doc.get("schema")
                else None
            ),
            partitions={int(k): list(v) for k, v in doc.get("partitions", {}).items()},
            deltas={int(k): list(v) for k, v in doc.get("deltas", {}).items()},
            lineage={int(k): v for k, v in doc.get("lineage", {}).items()},
            counters=dict(doc.get("counters", {})),
            metrics=dict(doc.get("metrics", {})),
            stats=dict(doc.get("stats", {})),
            key_hash_algo=doc.get("key_hash_algo", "pandas"),
            merge_key_alias=doc.get("merge_key_alias"),
            key_deletes={
                int(k): [
                    {
                        "file": e["file"],
                        "watermark": int(e["watermark"]),
                        "cycle": e.get("cycle", ""),
                    }
                    for e in v
                ]
                for k, v in doc.get("key_deletes", {}).items()
            },
            delete_predicates=[
                {
                    "conjunction": [list(t) for t in p["conjunction"]],
                    "watermark": int(p["watermark"]),
                    "cycle": p.get("cycle", ""),
                }
                for p in doc.get("delete_predicates", [])
            ],
            file_stats={
                k: {c: list(b) for c, b in v.items()}
                for k, v in doc.get("file_stats", {}).items()
            },
        )

    def all_files(self) -> set[str]:
        """PHYSICAL data files of this snapshot.  Delta entries from the
        'direct' merge strategy carry a ``#rg=`` row-group fragment
        (several entries can share one file); GC and raw reads need the
        real paths, so fragments are stripped here."""
        return (
            {f.partition("#rg=")[0] for files in self.partitions.values() for f in files}
            | {f.partition("#rg=")[0] for files in self.deltas.values() for f in files}
            | {e["file"] for entries in self.key_deletes.values() for e in entries}
        )

    def partition_pids(self) -> set[int]:
        """Every pid holding live data (base files and/or deltas)."""
        return set(self.partitions) | {p for p, v in self.deltas.items() if v}

    def next(self) -> "Manifest":
        """A mutable copy staged as the next snapshot version."""
        return Manifest(
            version=self.version + 1,
            watermark=self.watermark,
            num_partitions=self.num_partitions,
            schema=self.schema,
            partitions={k: list(v) for k, v in self.partitions.items()},
            deltas={k: list(v) for k, v in self.deltas.items() if v},
            lineage={k: dict(v) for k, v in self.lineage.items()},
            counters=dict(self.counters),
            metrics={},
            stats=dict(self.stats),
            key_hash_algo=self.key_hash_algo,
            merge_key_alias=self.merge_key_alias,
            key_deletes={k: [dict(e) for e in v] for k, v in self.key_deletes.items()},
            delete_predicates=[dict(p) for p in self.delete_predicates],
            file_stats={k: {c: list(b) for c, b in v.items()} for k, v in self.file_stats.items()},
        )


class ManifestLog:
    """The manifest log of one target table, rooted at ``<target_root>``
    (a plain path, ``file://``/``s3://`` URI, or ``mock://`` store —
    resolved by ``state.fs.lakefs``)."""

    def __init__(self, target_root: str):
        self.root = target_root
        self.fs = lakefs(target_root)

    # ---------------------------------------------------------------- paths
    def _rel(self, version: int) -> str:
        return f"{MANIFEST_DIR}/v{version:012d}.json"

    def versions(self) -> list[int]:
        out = []
        for name in self.fs.listdir(MANIFEST_DIR):
            if name.startswith("v") and name.endswith(".json"):
                try:
                    out.append(int(name[1:-5]))
                except ValueError:
                    continue
        return sorted(out)

    # ----------------------------------------------------------------- read
    def latest(self) -> Manifest | None:
        vs = self.versions()
        if not vs:
            return None
        return self.read(vs[-1])

    def read(self, version: int | str) -> Manifest:
        """Read a snapshot by version number or TAG name (K12)."""
        raw = self.fs.read_bytes(self._rel(self.resolve_ref(version)))
        return Manifest.from_json(raw.decode("utf-8"))

    # ----------------------------------------------------------------- tags
    # Named snapshot refs (Iceberg tag analog): a tag pins a version for
    # readers ("prod-baseline" time travel) AND for GC — expire_versions
    # never drops a tagged manifest or the files it references.
    TAGS_DIR = f"{MANIFEST_DIR}/tags"

    @staticmethod
    def _check_tag_name(name: str) -> None:
        if not name or "/" in name or os.sep in name or name.startswith("."):
            raise ValueError(f"invalid tag name {name!r}")

    def set_tag(self, name: str, version: int | None = None) -> int:
        """Tag *version* (default: latest) with *name*; re-tagging an
        existing name atomically repoints it (overwrite-publish: one
        whole-object PUT on a store, tmp+rename locally)."""
        self._check_tag_name(name)
        vs = self.versions()
        if not vs:
            raise InvalidWatermarkError("cannot tag an empty log")
        v = vs[-1] if version is None else int(version)
        if v not in vs:
            raise ValueError(f"unknown version {v} (retained: {vs[0]}..{vs[-1]})")
        self.fs.write_bytes(f"{self.TAGS_DIR}/{name}", str(v).encode())
        # narrow the race with a concurrent expire_versions: GC reads
        # tags() BEFORE unlinking, so re-checking the manifest still
        # exists after the tag is visible closes the window for all but
        # an in-flight unlink between these two lines
        if not self.fs.exists(self._rel(v)):
            self.fs.delete(f"{self.TAGS_DIR}/{name}")
            raise ValueError(f"version {v} expired while tagging; retry")
        return v

    def delete_tag(self, name: str) -> None:
        self._check_tag_name(name)
        rel = f"{self.TAGS_DIR}/{name}"
        if not self.fs.exists(rel):
            raise ValueError(f"unknown tag {name!r}")
        self.fs.delete(rel)

    def tags(self) -> dict[str, int]:
        out = {}
        for name in self.fs.listdir(self.TAGS_DIR):
            if name.startswith("."):
                continue
            try:
                out[name] = int(self.fs.read_bytes(f"{self.TAGS_DIR}/{name}").decode().strip())
            except FileNotFoundError:
                continue  # concurrently deleted tag
        return out

    def resolve_ref(self, ref: int | str) -> int:
        """A version number passes through; a string resolves as a tag."""
        if isinstance(ref, str):
            tags = self.tags()
            if ref not in tags:
                raise ValueError(f"unknown tag {ref!r} (have: {sorted(tags)})")
            v = tags[ref]
            if not self.fs.exists(self._rel(v)):
                raise ValueError(
                    f"tag {ref!r} points at expired version {v}; delete the tag"
                )
            return v
        return int(ref)

    def require_watermark(self) -> Manifest:
        """Streaming bootstrap gate — fail fast like the reference."""
        m = self.latest()
        if m is None or m.watermark is None:
            raise InvalidWatermarkError("Invalid watermark value: 'null'")
        return m

    # ---------------------------------------------------------------- write
    def commit(
        self,
        manifest: Manifest,
        expect_version: int | None = None,
        allow_watermark_rollback: bool = False,
    ) -> Manifest:
        """Atomically publish *manifest*.

        CAS semantics: the target filename ``v{version}.json`` must not
        exist, and when *expect_version* is given the current latest must
        equal it.  Watermarks must be monotone — a cycle may never commit
        version range ``(v1, v2]`` before ``(v0, v1]`` (SURVEY.md §7.5.6).
        The single sanctioned exception is the explicit
        ``rollback_to`` operator (*allow_watermark_rollback*), which
        restores an old snapshot whole — watermark included — so the
        stream re-polls the rolled-back range idempotently.
        """
        cur = self.latest()
        if expect_version is not None and (cur.version if cur else None) != expect_version:
            raise CommitConflictError(
                f"expected latest manifest v{expect_version}, "
                f"found {cur.version if cur else None}"
            )
        if (
            cur is not None
            and manifest.watermark < cur.watermark
            and not allow_watermark_rollback
        ):
            raise CommitConflictError(
                f"non-monotone watermark: {manifest.watermark} < {cur.watermark}"
            )
        # ONE create-if-absent publish through the lake filesystem's CAS
        # primitive (POSIX: fsync'd tmp + hard-link + dir fsync; object
        # store: conditional PUT) — exactly one concurrent committer of a
        # version can win, so a crashed/retried cycle never double-applies
        if not self.fs.put_if_absent(
            self._rel(manifest.version), manifest.to_json().encode("utf-8")
        ):
            raise CommitConflictError(f"manifest v{manifest.version} already committed")
        return manifest

    def appended_deltas(
        self, from_version: int, to_version: int
    ) -> dict[int, list[str]]:
        """Per-pid delta entries APPENDED by commits in
        ``(from_version, to_version]`` — the physical change history the
        change-data-feed reader consumes (analog of SQL Server
        ``CHANGETABLE(CHANGES t, @from)`` / Delta-Lake CDF).

        Walks each committed manifest in the range and diffs its delta
        lists against the previous version's, preserving append (==
        commit == LWW) order.  A maintenance OPTIMIZE inside the range
        only *removes* entries (folds them into base files), so it never
        contributes; entries appended before ``from_version`` and folded
        inside the range are correctly excluded.

        Raises ``ValueError`` when a commit in the range changed data
        without appending deltas (a copy-on-write merge or a backfill
        Overwrite): those snapshots carry no row-level change history,
        exactly like a table rewritten outside CDC."""
        retained = set(self.versions())
        if from_version not in retained:
            raise ValueError(f"unknown from_version {from_version}")
        # manifest versions increment by exactly 1 per commit, so history
        # completeness == contiguity.  Tag-pinned GC can leave GAPS (a
        # pinned old snapshot survives while versions between it and the
        # kept suffix expire) — a walk across a gap could silently skip a
        # delete/rollback commit the refusals below exist to catch.
        missing = set(range(from_version + 1, to_version + 1)) - retained
        if missing:
            raise ValueError(
                f"change feed range ({from_version}, {to_version}] crosses "
                f"expired history (missing v{min(missing)}..v{max(missing)}); "
                "re-baseline from a retained snapshot"
            )
        versions = [v for v in sorted(retained) if from_version < v <= to_version]
        prev = self.read(from_version)
        out: dict[int, list[str]] = {}
        for v in versions:
            cur = self.read(v)
            if "rollback" in cur.metrics:
                raise ValueError(
                    f"change feed cannot cross the rollback commit v{v} "
                    "(the rolled-back range has no forward row-level "
                    "history); re-baseline from a snapshot at or after "
                    "the rollback"
                )
            # delete COMMITS carry no row-level history; the endpoint
            # comparisons in the feed planner miss a delete that was
            # committed AND materialized inside the range, so the walk
            # itself refuses (a GDPR-deleted key with no later CT
            # activity would otherwise never emit a DELETE event)
            if "delete_where" in cur.metrics:
                raise ValueError(
                    f"change feed cannot cross the predicate-delete "
                    f"commit v{v} (no row-level history); re-baseline "
                    "from a snapshot at or after the delete"
                )
            if "delete_keys" in cur.metrics:
                raise ValueError(
                    f"change feed cannot cross the equality-delete "
                    f"commit v{v} (no row-level history); re-baseline "
                    "from a snapshot at or after the delete"
                )
            # a repartition commit rewrites every base file under a new
            # bucket spec: deltas appended AFTER it live under pids whose
            # prior state cannot be resolved against the from-snapshot's
            # old spec (insert-vs-update classification and pre-images
            # would be wrong).  The planner's endpoint num_partitions
            # check misses a P->P'->P round trip inside the range, so
            # the walk itself refuses, mirroring the rollback/delete
            # refusals above.
            if "repartitioned_to" in (cur.metrics.get("maintenance") or {}):
                raise ValueError(
                    f"change feed cannot cross the repartition commit v{v} "
                    "(partition identities changed mid-range); re-baseline "
                    "from a post-repartition snapshot"
                )
            appended_any = False
            for pid, entries in cur.deltas.items():
                seen = set(prev.deltas.get(pid, []))
                new = [e for e in entries if e not in seen]
                if new:
                    appended_any = True
                    out.setdefault(pid, []).extend(new)
            if not appended_any and int(cur.metrics.get("changes_in", 0) or 0) > 0:
                raise ValueError(
                    f"manifest v{v} applied changes without delta history "
                    "(copy-on-write merge or backfill overwrite); change feed "
                    "requires the merge-on-read strategy"
                )
            prev = cur
        return out

    # ------------------------------------------------------------- cleanup
    def sweep_uncommitted(self, grace_seconds: float = 0.0) -> list[str]:
        """Startup sweep (reference drops leftover staging tables by prefix,
        ``docs/crd.md:45-48``): delete ``cycles/*`` and ``staging/*`` dirs
        whose files are not referenced by ANY committed manifest.

        *grace_seconds* > 0 skips dirs modified within the window — the
        guard for HA deployments where a standby writer may bootstrap
        while the primary has a cycle in flight (an unreferenced-but-live
        dir the standby must not delete); a truly orphaned dir ages past
        any grace window and is collected at the next bootstrap."""
        # data files are stored as "cycles/<cycle-id>/...": keep any cycle
        # dir referenced by at least one committed manifest
        live_cycle_dirs = {p.split("/", 2)[1]
                           for v in self.versions()
                           for p in self.read(v).all_files()
                           if p.startswith(CYCLES_DIR + "/")}
        # ... and any referenced by an in-flight backfill's shard state, so
        # a streaming bootstrap between backfill attempts cannot delete
        # completed shards the resumed backfill will point its flip at
        import json as _json

        for name in self.fs.listdir("_backfill"):
            if not name.endswith(".json"):
                continue
            try:
                state = _json.loads(self.fs.read_bytes(f"_backfill/{name}"))
            except (OSError, ValueError):
                continue
            for shard in state.get("shards", {}).values():
                for files in shard.values():
                    for rel in files:
                        if rel.startswith(CYCLES_DIR + "/"):
                            live_cycle_dirs.add(rel.split("/", 2)[1])
        now = time.time()

        removed: list[str] = []
        for name in self.fs.listdir(CYCLES_DIR):
            rel = f"{CYCLES_DIR}/{name}"
            if name not in live_cycle_dirs and not in_grace(
                self.fs, rel, grace_seconds, now
            ):
                self.fs.delete_dir(rel)
                removed.append(rel)
        for name in self.fs.listdir(STAGING_DIR):
            rel = f"{STAGING_DIR}/{name}"
            if not in_grace(self.fs, rel, grace_seconds, now):
                self.fs.delete_dir(rel)
                removed.append(rel)
        return removed

    def expire_versions(self, keep: int) -> list[int]:
        """Manifest-log GC (reference expire_snapshots, docs/crd.md:151-160):
        drop manifest files older than the newest *keep* versions, then
        delete data files referenced only by expired manifests."""
        vs = self.versions()
        if len(vs) <= keep:
            return []
        pinned = set(self.tags().values())  # tagged snapshots never expire
        expired = [v for v in vs[:-keep] if v not in pinned]
        kept = [v for v in vs if v not in expired]
        if not expired:
            return []
        live_files: set[str] = set()
        for v in kept:
            live_files |= self.read(v).all_files()
        dead_files: set[str] = set()
        for v in expired:
            dead_files |= self.read(v).all_files()
        dead_files -= live_files
        for rel in dead_files:
            for target in (rel, rel + ".bloom.npz"):  # bloom sidecar travels with its file
                self.fs.delete(target)
        # remove now-empty cycle dirs
        for name in self.fs.listdir(CYCLES_DIR):
            if not self.fs.listdir(f"{CYCLES_DIR}/{name}"):
                self.fs.delete_dir(f"{CYCLES_DIR}/{name}")
        for v in expired:
            self.fs.delete(self._rel(v))
        return expired


def in_grace(fs, rel: str, grace_seconds: float, now: float | None = None) -> bool:
    """THE HA-standby grace guard, shared by every startup sweep
    (``sweep_uncommitted`` and ``stages.staging.sweep_staging``): with a
    grace window configured, a dir younger than the window — or whose
    mtime cannot be read at all (fail safe: possibly a live primary's
    in-flight dir) — must not be deleted; it is collected once mtime is
    readable / aged, or by a zero-grace sweep."""
    if grace_seconds <= 0:
        return False
    import time as _time

    if now is None:
        now = _time.time()
    try:
        return now - fs.getmtime(rel) < grace_seconds
    except Exception:
        return True


def bound_key(v):
    """Normalize a value for ``file_stats`` bounds storage/comparison.

    Bounds must be JSON-native AND total-ordered against query
    literals, so temporal values map to epoch MICROSECONDS on BOTH
    sides (write/ANALYZE collection and ``prune_files_by_stats``
    literals) — one unit for datetime AND date keeps a date literal
    against a timestamp column's bounds (or vice versa) comparable,
    matching Arrow's implicit date→timestamp cast in the row-level
    filter.  Numpy scalars unwrap; everything else passes through."""
    import datetime as _dt

    import numpy as _np

    if isinstance(v, _np.datetime64):
        return int(v.astype("datetime64[us]").astype("int64"))
    if isinstance(v, _np.generic):
        v = v.item()
    if isinstance(v, _dt.datetime):
        if v.tzinfo is not None:
            v = v.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        return (v - _dt.datetime(1970, 1, 1)) // _dt.timedelta(microseconds=1)
    if isinstance(v, _dt.date):
        return (v - _dt.date(1970, 1, 1)).days * 86_400_000_000
    return v


def prune_files_by_stats(
    files: list[str],
    file_stats: dict[str, dict[str, list]],
    where: list,
) -> list[str]:
    """Manifest-level file skipping: drop every file whose recorded
    column bounds PROVE no row can satisfy the AND-ed ``[[col, op,
    literal], ...]`` conjunction.  Conservative by construction —
    files without bounds for a referenced column are kept, and any
    comparison error (mixed types) fails open.  Null handling is free:
    SQL/Arrow comparison filters never match nulls, so excluding a file
    because its NON-NULL value range can't match is always sound.
    Temporal literals are normalized through ``bound_key`` to the same
    epoch-microsecond ints the collectors store, so timestamp/date
    predicates prune correctly."""
    where = [(col, op, bound_key(lit)) for col, op, lit in where]
    out = []
    for f in files:
        st = file_stats.get(f) or {}
        skip = False
        for col, op, lit in where:
            bounds = st.get(col)
            if not bounds or bounds[0] is None or bounds[1] is None:
                continue
            lo, hi = bounds[0], bounds[1]
            try:
                if op in ("=", "=="):
                    skip = lit < lo or lit > hi
                elif op == "<":
                    skip = lo >= lit
                elif op == "<=":
                    skip = lo > lit
                elif op == ">":
                    skip = hi <= lit
                elif op == ">=":
                    skip = hi < lit
                elif op in ("!=", "<>"):
                    skip = lo == hi == lit
            except TypeError:
                skip = False
            if skip:
                break
        if not skip:
            out.append(f)
    return out


def prepare_watermark(
    target_root: str,
    version: int = 0,
    num_partitions: int = 16,
    schema: pa.Schema | None = None,
    key_hash_algo: str = "polars",
) -> Manifest:
    """Bootstrap utility: create manifest v0 with an epoch watermark.

    Analog of the reference testkit's ``prepareWatermark``
    (``StreamRunner.scala:10-16,188-192``): a stream only starts once a
    watermark exists.  New tables route with the fast "polars" key hash;
    tables committed before the field existed stay on "pandas"."""
    log = ManifestLog(target_root)
    if log.latest() is not None:
        return log.latest()
    m = Manifest(
        version=0, watermark=version, num_partitions=num_partitions, schema=schema,
        key_hash_algo=key_hash_algo,
    )
    return log.commit(m)
