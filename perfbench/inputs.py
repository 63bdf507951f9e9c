"""Seeded, cached benchmark inputs.

Every input is a change log rendered by the engine's own generator
(``gen.plan_events`` / ``gen.render_events``) from a ``CtLogSpec`` whose
seed is the benchmark's ``--seed``.  A feed is generated once per
(layout, spec, seed) into ``<cache>/<name>-<digest>/`` and verified by a
SHA-256 fingerprint of every file before each use; the engine only ever
sees hard links (or copies) of those files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

FINGERPRINT = "fingerprint.json"


@dataclass(frozen=True)
class FeedLayout:
    """Version-range segment sizes of one feed: one small warm-up
    segment, then ``segments`` segments of ``segment_events`` each."""

    warmup_events: int
    segment_events: int
    segments: int

    @property
    def n_events(self) -> int:
        return self.warmup_events + self.segment_events * self.segments

    def ranges(self) -> list[tuple[int, int]]:
        """``(lo, hi]`` version ranges, warm-up segment first."""
        out = [(0, self.warmup_events)]
        lo = self.warmup_events
        for _ in range(self.segments):
            out.append((lo, lo + self.segment_events))
            lo += self.segment_events
        return out


@dataclass(frozen=True)
class Feed:
    dir: str
    spec: object  # gen.CtLogSpec
    layout: FeedLayout
    paths: tuple[str, ...]  # segment files in version order, warm-up first
    cached: bool  # True when the fingerprinted cache was reused

    @property
    def warmup_path(self) -> str:
        return self.paths[0]

    @property
    def main_paths(self) -> tuple[str, ...]:
        return self.paths[1:]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fingerprint_ok(feed_dir: str, paths: list[str]) -> bool:
    try:
        with open(os.path.join(feed_dir, FINGERPRINT), encoding="utf-8") as f:
            want = json.load(f)["files"]
    except (OSError, ValueError, KeyError):
        return False
    names = [os.path.basename(p) for p in paths]
    if sorted(want) != sorted(names):
        return False
    return all(os.path.isfile(p) and _sha256(p) == want[os.path.basename(p)] for p in paths)


def ensure_feed(cache_root: str, name: str, layout: FeedLayout, seed: int) -> Feed:
    """Generate (once) and verify the feed for *layout* under *seed*."""
    import pyarrow.parquet as pq

    from arcane_stream_sqlserver_change_tracking_ray.gen import (
        CtLogSpec,
        plan_events,
        render_events,
        segment_path,
    )

    spec = CtLogSpec(
        n_keys=max(layout.n_events // 10, 1000),
        n_events=layout.n_events,
        seed=seed,
        events_per_file=max(layout.segment_events, layout.warmup_events),
    )
    key = json.dumps(
        {"layout": dataclasses.asdict(layout), "spec": dataclasses.asdict(spec)},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    feed_dir = os.path.join(cache_root, f"{name}-s{seed}-{digest}")
    paths = [segment_path(feed_dir, lo, hi) for lo, hi in layout.ranges()]
    if _fingerprint_ok(feed_dir, paths):
        return Feed(feed_dir, spec, layout, tuple(paths), cached=True)

    import numpy as np

    shutil.rmtree(feed_dir, ignore_errors=True)
    tmp = feed_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    key_ids, op_codes = plan_events(spec)
    files = {}
    for lo, hi in layout.ranges():
        versions = np.arange(lo + 1, hi + 1, dtype=np.int64)
        tbl = render_events(versions, key_ids[lo:hi], op_codes[lo:hi], spec)
        path = segment_path(tmp, lo, hi)
        pq.write_table(tbl, path, compression="zstd", row_group_size=spec.row_group_size)
        files[os.path.basename(path)] = _sha256(path)
    with open(os.path.join(tmp, FINGERPRINT), "w", encoding="utf-8") as f:
        json.dump({"key": json.loads(key), "files": files}, f, indent=1, sort_keys=True)
    os.rename(tmp, feed_dir)
    if not _fingerprint_ok(feed_dir, paths):
        raise RuntimeError(f"generated feed {feed_dir} failed its own fingerprint")
    return Feed(feed_dir, spec, layout, tuple(paths), cached=False)


def land(path: str, source_dir: str) -> None:
    """Make one cached segment visible in *source_dir* atomically (a
    hard link; a copy renamed into place where links are unsupported)."""
    dst = os.path.join(source_dir, os.path.basename(path))
    try:
        os.link(path, dst)
    except OSError:
        tmp = dst + ".landing"
        shutil.copyfile(path, tmp)
        os.rename(tmp, dst)
