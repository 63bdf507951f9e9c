"""The workloads: closed-loop replays (merge-on-read and copy-on-write)
that interleave read rounds with ingest passes.

Every workload drives only the engine's public API: ``StreamRunner``,
``ManifestLog``, ``rollback_to``, ``run_maintenance``, ``lookup_keys``,
``read_change_feed_table``, ``read_target`` and ``read_target_table``.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from perfbench import inputs
from perfbench.inputs import FeedLayout
from perfbench.metrics import quantile

#: the workloads ``BENCHMARK.json`` names
WORKLOADS = ("replay_mor", "replay_cow")

#: share of point lookups for keys the feed never produced
ABSENT_SHARE = 0.2


@dataclass(frozen=True)
class ReadRound:
    """The reads after one ingest pass, interleaved so that every kind is
    sampled across the whole read phase.  A step is one lookup on the
    pass's delta-chain snapshot and the same key on the folded table;
    every ``scan_every`` steps start with a filtered scan.  Steps run until
    ``min_s`` seconds of reads have been timed, at least ``min_steps`` and
    at most ``max_steps`` of them."""

    min_steps: int
    min_s: float
    max_steps: int
    scan_every: int


@dataclass(frozen=True)
class Sizes:
    replay: FeedLayout  # warm-up segment + the segments one pass replays
    num_partitions: int
    min_lookups: int  # per run: lookup_p90_s needs 10 samples beyond it
    replay_round: ReadRound  # after every replay pass


FULL = Sizes(
    replay=FeedLayout(warmup_events=5_000, segment_events=100_000, segments=3),
    num_partitions=16,
    min_lookups=100,
    replay_round=ReadRound(min_steps=25, min_s=2.0, max_steps=150, scan_every=25),
)

SMOKE = Sizes(
    replay=FeedLayout(warmup_events=500, segment_events=4_000, segments=2),
    num_partitions=4,
    min_lookups=12,
    replay_round=ReadRound(min_steps=6, min_s=0.0, max_steps=6, scan_every=3),
)

SCAN_COLUMNS = ["url", "sys_change_version", "lang"]


def du(root: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(root):
        for n in names:
            total += os.path.getsize(os.path.join(dirpath, n))
    return total


class Bench:
    """One run of one workload: set-up, timed section, correctness gate."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes: Sizes,
                 work_dir: str, cache_dir: str, trace=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.work = work_dir
        self.cache = cache_dir
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list] = {}
        self.record: dict = {}
        self.feed = None

    # -- bookkeeping ---------------------------------------------------
    def _fail(self, what: str, n: int = 1, exc: BaseException | None = None) -> None:
        self.failed += n
        msg = what if exc is None else f"{what}: {type(exc).__name__}: {exc}"
        self.failures.append(msg)
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)

    def _paused(self):
        return self.trace.rec.paused() if self.trace else nullcontext()

    def _op(self, kind: str, n: int):
        return self.trace.op(kind, n) if self.trace else nullcontext()

    def _ctx(self, source_dir: str, target_root: str):
        from arcane_stream_sqlserver_change_tracking_ray.config import StreamContext

        return StreamContext.from_dict({
            "source": {"ctlog_dir": source_dir, "key_columns": ["url"]},
            "sink": {
                "target_root": target_root,
                "num_partitions": self.sizes.num_partitions,
                "merge_mode": "cow" if self.workload == "replay_cow" else "mor",
            },
            "throughput": {"rows_per_group": self.sizes.replay.segment_events},
            # maintenance never triggers inside run_cycle; the read rounds
            # call run_maintenance themselves
            "maintenance": {"enabled": False},
        })

    def _maintenance_ctx(self):
        """The workload's stream spec with the engine's default maintenance
        settings, for explicit ``run_maintenance`` calls."""
        ctx = self._ctx(self.src, self.tgt)
        ctx.maintenance.enabled = True
        return ctx

    # -- inputs --------------------------------------------------------
    def make_inputs(self) -> None:
        layout = self.sizes.replay
        t0 = time.monotonic()
        self.feed = inputs.ensure_feed(self.cache, "replay", layout, self.seed)
        self.record["inputs"] = {
            "dir": os.path.basename(self.feed.dir),
            "events": layout.n_events,
            "cached": self.feed.cached,
            "seconds": round(time.monotonic() - t0, 3),
        }

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Prepare a fresh target: bootstrap it and warm it by one untimed
        cycle over the warm-up segment."""
        from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import StreamRunner
        from arcane_stream_sqlserver_change_tracking_ray.state.manifest import prepare_watermark

        self.src = os.path.join(self.work, "src")
        self.tgt = os.path.join(self.work, "tgt")
        os.makedirs(self.src)
        inputs.land(self.feed.warmup_path, self.src)
        prepare_watermark(self.tgt, 0, num_partitions=self.sizes.num_partitions)
        self.runner = StreamRunner(self._ctx(self.src, self.tgt))
        self.runner.bootstrap()
        if self.runner.run_cycle() is None:
            raise RuntimeError("warm-up cycle found no events")

    # -- timed section -------------------------------------------------
    def run(self) -> None:
        from perfbench.oracle import Oracle

        self.oracle = Oracle(self.feed.dir)
        self.lookups, self.folded, self.scans, self.changefeeds = [], [], [], []
        self.untimed = 0.0
        self.watermark = 0
        # the set-up's garbage is collected and its survivors frozen out of
        # later collections, so the timed section pays only for its own
        gc.collect()
        gc.freeze()
        if self.trace:
            self.trace.begin()
        t0 = time.monotonic()
        try:
            self._replay()
        except Exception as e:  # a cycle raised: the stream is down
            self._fail("ingest", 1, e)
            self.attempted += 1
        self.record["timed_seconds"] = round(time.monotonic() - t0 - self.untimed, 3)
        self.record["untimed_seconds"] = round(self.untimed, 3)
        if self.trace:
            self.trace.rec.enabled = False
        self.runner.close()
        t0 = time.monotonic()
        self._check_reads()
        self.record["gate_seconds"] = round(time.monotonic() - t0, 3)

    @contextmanager
    def _untimed(self):
        """Benchmark bookkeeping inside the timed section: recorded by no
        span and left out of the section's clock."""
        t = time.monotonic()
        with self._paused():
            yield
        self.untimed += time.monotonic() - t

    def _latest_version(self) -> int:
        from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

        with self._paused():
            return ManifestLog(self.tgt).latest().version

    def _check_table(self, what: str, version: int | None, n_ops: int) -> None:
        """The table (at *version*) must equal the LWW oracle over the
        events committed so far."""
        from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import read_target_table

        with self._untimed():
            if not self.oracle.table_ok(read_target_table(self.tgt, version=version), self.watermark):
                self._fail(f"{what}: table differs from the oracle", n_ops)

    def _replay(self) -> None:
        """Closed-loop catch-up: the whole feed is in the source dir; each
        pass replays it from the warm-up watermark, then a read round runs
        against the caught-up table.  Between rounds the table is rolled
        back to the warm-up snapshot (untimed), so every pass does the
        same work with the same runner (and, for CoW, the same merge
        actors), and the read samples spread over the whole section."""
        from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import rollback_to

        runner = self.runner
        for p in self.feed.main_paths:
            inputs.land(p, self.src)
        self.watermark = self.feed.layout.n_events
        base = self._latest_version()
        with self._untimed():  # keep the warm-up snapshot through every fold's expiry
            runner.log.set_tag("perfbench-base", base)
        cycles, passes = [], []
        self.events_in_root = self.feed.layout.warmup_events
        keys = itertools.cycle(self._lookup_keys(self.sizes.min_lookups * 4))
        t_main = time.monotonic()
        while True:
            if passes:
                with self._untimed():
                    rollback_to(self.tgt, base)
                    runner.bootstrap()
                    gc.collect()
            base_pass = self._latest_version()
            t_pass = time.monotonic()
            events = n_cycles = 0
            while True:
                t = time.monotonic()
                m = runner.run_cycle()
                t_ret = time.monotonic()
                if m is None:
                    break
                lo, hi = m["versions"]
                n = int(hi) - int(lo) + 1  # the feed has one event per version
                cycles.append(t_ret - t)
                events += n
                n_cycles += 1
            passes.append({"seconds": time.monotonic() - t_pass, "events": events, "cycles": n_cycles})
            self.attempted += n_cycles
            self.events_in_root += events
            if len(passes) == 1:
                with self._untimed():
                    self.samples["stored_bytes_per_event"] = [du(self.tgt) / self.events_in_root]
            head = self._latest_version()
            self._check_table(f"replay pass {len(passes) - 1}", head, n_cycles)
            rnd = self.sizes.replay_round
            self._read_round(rnd, keys, base_pass, head, check_fold=len(passes) == 1)
            timed = time.monotonic() - t_main - self.untimed
            if timed >= self.seconds and len(self.lookups) >= self.sizes.min_lookups:
                break
        self.samples["cycle_s"] = cycles
        # every pass does the same work: the median pass leaves out the
        # first one, which still warms the merge path up
        self.samples["ingest_events_per_s"] = [p["events"] / p["seconds"] for p in passes]
        self.record["passes"] = [{k: round(v, 4) if isinstance(v, float) else v
                                  for k, v in p.items()} for p in passes]

    # -- reads -----------------------------------------------------------
    def _lookup_keys(self, n: int) -> list[str]:
        """Seeded point-lookup keys: live keys drawn with the feed's own
        Zipf skew, plus a share of keys the feed never produced."""
        from arcane_stream_sqlserver_change_tracking_ray.gen import urls_for_keys

        spec = self.feed.spec
        rng = np.random.default_rng([self.seed, 7919])
        n_absent = round(n * ABSENT_SHARE)
        ids = np.minimum(
            (spec.n_keys * np.power(rng.random(n - n_absent), spec.zipf_a)).astype(np.int64),
            spec.n_keys - 1,
        )
        absent = spec.n_keys + rng.integers(0, spec.n_keys, n_absent)
        keys = list(urls_for_keys(np.concatenate([ids, absent]), spec))
        rng.shuffle(keys)
        return keys

    def _read_round(self, rnd: ReadRound, keys, cf_base: int, cf_head: int,
                    check_fold: bool) -> None:
        """A change-feed read over a window in ``(cf_base, cf_head]``, one
        maintenance fold, then interleaved steps of point lookups (keys
        drawn from the iterator *keys*) on snapshot *cf_head* and on the
        folded table, and filtered scans of snapshot *cf_head*.  Results
        are kept for the gate."""
        from arcane_stream_sqlserver_change_tracking_ray.gen import LANGS
        from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import (
            read_change_feed_table,
            read_target,
        )
        from arcane_stream_sqlserver_change_tracking_ray.stages.maintenance import run_maintenance
        from arcane_stream_sqlserver_change_tracking_ray.state.manifest import ManifestLog

        tgt = self.tgt
        rng = np.random.default_rng([self.seed, 104729, cf_head])

        if self.runner.ctx.sink.merge_mode == "mor":
            to = cf_head - int(rng.integers(0, 2))
            frm = max(cf_base, to - int(rng.integers(1, 3)))
            try:
                with self._op("changefeed", len(self.changefeeds)):
                    t = time.monotonic()
                    out = read_change_feed_table(tgt, frm, to)
                    self.samples.setdefault("changefeed_s", []).append(time.monotonic() - t)
                with self._untimed():
                    log = ManifestLog(tgt)
                    self.changefeeds.append((log.read(frm).watermark, log.read(to).watermark, out))
            except Exception as e:
                self._fail(f"changefeed ({frm}, {to}]", 1, e)
            self.attempted += 1

        with self._untimed():  # keep the delta-chain snapshot through the fold's expiry
            ManifestLog(tgt).set_tag("perfbench-head", cf_head)
        try:
            with self._op("maintenance", len(self.samples.get("fold_s", []))):
                t = time.monotonic()
                run_maintenance(ManifestLog(tgt), self._maintenance_ctx())
                self.samples.setdefault("fold_s", []).append(time.monotonic() - t)
        except Exception as e:
            self._fail("maintenance fold", 1, e)
        self.attempted += 1
        if check_fold:
            self._check_table("maintenance fold", None, 1)

        def scan() -> float:
            # every run scans the languages in the same order
            lang = str(LANGS[len(self.scans) % len(LANGS)])
            dt = 0.0
            try:
                with self._op("scan", len(self.scans)):
                    t = time.monotonic()
                    ds = read_target(tgt, columns=SCAN_COLUMNS, where=[["lang", "==", lang]],
                                     version=cf_head)
                    out = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
                    dt = time.monotonic() - t
                self.samples.setdefault("scan_s", []).append(dt)
                self.scans.append((lang, out))
            except Exception as e:
                self._fail(f"scan lang={lang}", 1, e)
            self.attempted += 1
            return dt

        spent = 0.0
        for i in range(rnd.max_steps):
            if i >= rnd.min_steps and spent >= rnd.min_s:
                break
            if i % rnd.scan_every == 0:
                spent += scan()
            key = next(keys)
            spent += self._lookup("lookup", key, self.lookups, "lookup_s", cf_head)
            spent += self._lookup("lookup_folded", key, self.folded, "lookup_folded_s")

    def _lookup(self, kind: str, key: str, out: list, sample: str,
                version: int | None = None) -> float:
        from arcane_stream_sqlserver_change_tracking_ray.pipelines.runner import lookup_keys

        dt, st = 0.0, {}
        try:
            with self._op(kind, len(out)):
                t = time.monotonic()
                got = lookup_keys(self.tgt, [key], key_col="url", stats=st, version=version)
                dt = time.monotonic() - t
            self.samples.setdefault(sample, []).append(dt)
            out.append((key, got, st))
        except Exception as e:
            self._fail(f"{kind} {key}", 1, e)
        self.attempted += 1
        return dt

    # -- correctness gate for the reads (after the timed section) --------
    def _check_reads(self) -> None:
        import pyarrow as pa

        o, wm = self.oracle, self.watermark
        for kind, results in (("lookup", self.lookups), ("lookup_folded", self.folded)):
            for k, got, _ in results:
                if not o.lookup_ok(got, k, wm):
                    self._fail(f"{kind} {k}: result differs from the oracle")
        for wm_from, wm_to, got in self.changefeeds:
            if not o.changefeed_ok(got, wm_from, wm_to):
                self._fail(f"changefeed ({wm_from}, {wm_to}]: result differs from the oracle")
        for lang, batches in self.scans:
            got = pa.concat_tables(batches) if batches else pa.table({c: [] for c in SCAN_COLUMNS})
            if not o.scan_ok(got, wm, lang):
                self._fail(f"scan lang={lang}: result differs from the oracle")

    # -- results ---------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": setup_s,
            "ingest_events_per_s": quantile(s.get("ingest_events_per_s", []), 0.5),
            "cycle_p50_s": quantile(s.get("cycle_s", []), 0.5),
            "stored_bytes_per_event": s.get("stored_bytes_per_event", [0.0])[0],
            "lookup_p50_s": quantile(s.get("lookup_s", []), 0.5),
            "lookup_p90_s": quantile(s.get("lookup_s", []), 0.9),
            "lookup_folded_p50_s": quantile(s.get("lookup_folded_s", []), 0.5),
            "scan_p50_s": quantile(s.get("scan_s", []), 0.5),
            "ok_op_share": 1.0 - self.failed / max(self.attempted, 1),
        }
