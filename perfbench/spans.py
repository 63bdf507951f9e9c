"""Spans around calls into the engine's public functions.

Tracing lives entirely in the benchmark: the functions below are
replaced, in the module that defines them, by wrappers that record a
span ``{id, name, start, end, parent, trace_id}`` on the host's
monotonic clock.  The driver wraps the orchestration functions; every
Ray worker process wraps the data-path functions from a
``worker_process_setup_hook`` (``worker_setup``).  Workers append their
spans to a per-process file each time their outermost span closes,
because Ray stops workers without running exit hooks; the driver keeps
its spans in memory and joins the worker spans to the driver span whose
interval contains them when the run ends (cycles never overlap).

A layer's self time is its span's duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import logging
import os
import threading
import time
import warnings
from contextlib import contextmanager

PKG = "arcane_stream_sqlserver_change_tracking_ray"
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
TRACE_ENV = "PERFBENCH_TRACE"


def quiet_logs() -> None:
    """Silence Ray Data progress bars, executor INFO lines and the
    timestamp-precision warning so a real warning stands out."""
    for name in ("ray", "ray.data", "ray.air.util.tensor_extensions.arrow"):
        logging.getLogger(name).setLevel(logging.ERROR)
    warnings.filterwarnings("ignore", message=r"Converting a 'D' precision")
    try:
        from ray.data import DataContext
    except ImportError:
        return
    dctx = DataContext.get_current()
    dctx.enable_progress_bars = False
    dctx.enable_operator_progress_bars = False
    dctx.print_on_execution_start = False
    dctx.enable_auto_log_stats = False
    dctx.verbose_stats_logs = False


class Recorder:
    """In-memory spans and counts of one process.

    ``out_dir`` set (worker processes): buffered spans are appended to
    ``<out_dir>/w-<pid>.jsonl`` whenever the outermost span closes."""

    def __init__(self, out_dir: str | None = None):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.trace_id: str | None = None
        self.enabled = True
        self._out = out_dir
        self._local = threading.local()
        self._seq = itertools.count()
        self._pid = os.getpid()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        st = self._stack()
        rec = {
            "id": f"{self._pid}:{next(self._seq)}",
            "name": name,
            "parent": st[-1]["id"] if st else None,
            "trace_id": self.trace_id,
            "start": time.monotonic(),
        }
        st.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            st.pop()
            self.spans.append(rec)
            if self._out is not None and not st:
                self.flush()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append({"name": name, "value": float(value), "trace_id": self.trace_id})

    @contextmanager
    def paused(self):
        """Benchmark-internal calls into the engine record nothing."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self._out, f"w-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans.clear()


# --------------------------------------------------------------------------
# wrapping
# --------------------------------------------------------------------------
def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"{PKG}.{module}")
    owner_path, _, name = attr.rpartition(".")
    owner = mod
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return owner, name


def wrap(rec: Recorder, module: str, attr: str, span: str | None, after=None, before=None):
    """Replace ``module.attr`` with a wrapper recording span *span*
    (None: no span, hooks only).  ``before(args, kwargs)`` runs outside
    the span; ``after(args, kwargs, result)`` runs after it closes."""
    owner, name = _resolve(module, attr)
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        if span is None:
            out = fn(*args, **kwargs)
        else:
            with rec.span(span):
                out = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, out)
        return out

    setattr(owner, name, wrapper)
    return fn


def _timed_handle(rec: Recorder, handle):
    """Time a parquet writer handle's writes and its durable close."""
    for meth in ("write_table", "close"):
        inner = getattr(handle, meth)

        def timed(*a, _inner=inner, **kw):
            with rec.span("fs.encode_fsync"):
                return _inner(*a, **kw)

        setattr(handle, meth, timed)
    return handle


def install_worker(rec: Recorder) -> None:
    """Data-path spans inside Ray worker processes.  Each function is
    wrapped in the module that defines it: task closures shipped from
    the driver resolve module functions by their defining module."""
    wrap(rec, "pipelines.runner", "TransformStage.__call__", "runner.transform")
    wrap(rec, "stages.merge", "precombine_and_hash", "merge.precombine_hash")
    wrap(rec, "functions.transforms", "cast_to_schema", "merge.cast")
    wrap(rec, "state.fs", "LocalLakeFS.write_table", "fs.encode_fsync")
    wrap(
        rec, "state.fs", "LocalLakeFS.parquet_writer", None,
        after=lambda a, kw, handle: _timed_handle(rec, handle),
    )
    wrap(rec, "stages.merge", "resolve_partition_table", "read.resolve")


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: quiet logs; spans when traced."""
    quiet_logs()
    out = os.environ.get(SPAN_DIR_ENV)
    if os.environ.get(TRACE_ENV) == "1" and out:
        install_worker(Recorder(out_dir=out))


class DriverTrace:
    """Driver-side spans and the counts taken beside them."""

    def __init__(self, span_dir: str):
        self.rec = Recorder()
        self.span_dir = span_dir
        self.cycle_no = itertools.count()
        self.t_begin: float | None = None
        self.cycle_metrics: list[dict] = []

    # -- hooks ---------------------------------------------------------
    def install(self) -> None:
        rec = self.rec
        from arcane_stream_sqlserver_change_tracking_ray.sources.ctlog import (
            max_available_version,
        )
        from arcane_stream_sqlserver_change_tracking_ray.state.manifest import (
            MANIFEST_DIR,
            ManifestLog,
        )

        latest = ManifestLog.latest

        def cycle_start(args, kwargs):
            runner = args[0]
            rec.trace_id = f"cycle-{next(self.cycle_no)}"
            with rec.paused():
                head = max_available_version(runner.ctx.source.ctlog_dir)
            rec.count("ctlog.lag_versions", head - runner.tailer.watermark)

        def cycle_end(args, kwargs, metrics):
            if metrics is not None:
                self.cycle_metrics.append({"trace_id": rec.trace_id, **metrics})
                self._count_cycle_files(args[0].ctx.sink.target_root, metrics)
            rec.trace_id = None

        wrap(rec, "pipelines.runner", "StreamRunner.run_cycle", "runner.cycle",
             before=cycle_start, after=cycle_end)
        wrap(rec, "sources.ctlog", "ChangeFeedTailer.plan", "ctlog.plan")
        wrap(rec, "sources.ctlog", "list_segments", None,
             after=lambda a, kw, segs: rec.count("ctlog.segments_listed", len(segs)))
        wrap(rec, "sources.ctlog", "ChangeFeedTailer.poll", "ctlog.poll")
        wrap(rec, "stages.merge", "apply_change_batch_direct", "merge.apply")
        wrap(rec, "stages.merge", "ActorMergePool.apply_change_batch", "merge.apply")
        wrap(rec, "state.manifest", "ManifestLog.latest", "manifest.latest")
        wrap(rec, "state.manifest", "ManifestLog.versions", None,
             after=lambda a, kw, vs: rec.count("manifest.versions_listed", len(vs)))

        def committed(args, kwargs, manifest):
            log = args[0]
            with rec.paused():
                size = log.fs.getsize(f"{MANIFEST_DIR}/v{manifest.version:012d}.json")
            rec.count("manifest.bytes", size)

        wrap(rec, "state.manifest", "ManifestLog.commit", "manifest.commit", after=committed)
        wrap(rec, "state.manifest", "ManifestLog.expire_versions", "maintenance.expire")
        wrap(rec, "stages.maintenance", "run_maintenance", "maintenance.run")

        pre_fold: dict = {}

        def fold_start(args, kwargs):
            with rec.paused():
                pre_fold["m"] = latest(args[0])

        def fold_end(args, kwargs, out):
            log = args[0]
            rec.count("maintenance.folded_deltas", out.get("folded_deltas", 0))
            with rec.paused():
                before, after = pre_fold.pop("m"), latest(log)
                new = {f for fs in after.partitions.values() for f in fs} - {
                    f for fs in before.partitions.values() for f in fs
                }
                nbytes = sum(log.fs.getsize(f) for f in new)
            rec.count("maintenance.bytes_rewritten", nbytes)

        wrap(rec, "stages.maintenance", "optimize", "maintenance.optimize",
             before=fold_start, after=fold_end)
        wrap(rec, "stages.merge", "resolve_partition_table", "read.resolve")
        wrap(rec, "stages.merge", "change_feed_partition", "read.changefeed_pid")

    def _count_cycle_files(self, target_root: str, metrics: dict) -> None:
        """Files and bytes the cycle left under the target root: its
        cycle directory plus the committed manifest."""
        rec = self.rec
        files, nbytes = 1, 0
        cdir = os.path.join(target_root, "cycles", metrics["cycle_id"])
        for dirpath, _, names in os.walk(cdir):
            for n in names:
                files += 1
                nbytes += os.path.getsize(os.path.join(dirpath, n))
        man = sorted(glob.glob(os.path.join(target_root, "_manifest", "v*.json")))
        if man:
            nbytes += os.path.getsize(man[-1])
        rec.count("fs.files_written", files)
        rec.count("fs.bytes_written", nbytes)

    # -- operations ----------------------------------------------------
    @contextmanager
    def op(self, kind: str, n: int):
        """A timed read-side operation: one trace, one root span."""
        self.rec.trace_id = f"{kind}-{n}"
        try:
            with self.rec.span(f"op.{kind}"):
                yield
        finally:
            self.rec.trace_id = None

    def begin(self) -> None:
        """Start of the timed section: drop set-up spans."""
        self.rec.spans.clear()
        self.rec.counts.clear()
        self.cycle_metrics.clear()
        self.t_begin = time.monotonic()

    # -- analysis ------------------------------------------------------
    def joined_spans(self) -> tuple[list[dict], int]:
        """Driver spans plus worker spans joined to their enclosing
        driver span; returns (spans, worker spans left unjoined)."""
        driver = [dict(s, where="driver") for s in self.rec.spans]
        workers = []
        for path in glob.glob(os.path.join(self.span_dir, "w-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                workers.extend(json.loads(line) for line in f if line.strip())
        workers = [dict(s, where="worker") for s in workers if s["start"] >= self.t_begin]
        by_id = {s["id"]: s for s in workers}
        order = sorted(driver, key=lambda s: s["start"])
        unjoined = 0
        for s in sorted(workers, key=lambda s: s["start"]):
            if s["parent"] is not None and s["parent"] in by_id:
                continue
            host = None
            for d in order:
                if d["start"] > s["start"]:
                    break
                if d["end"] >= s["end"]:
                    host = d  # latest-starting container = innermost
            if host is None:
                s["parent"] = None
                unjoined += 1
            else:
                s["parent"] = host["id"]
        # trace ids flow down from the joined driver span
        every = {s["id"]: s for s in driver + workers}
        for s in workers:
            p, seen = s, 0
            while p is not None and p.get("where") == "worker" and seen < 64:
                p = every.get(p["parent"]) if p["parent"] else None
                seen += 1
            s["trace_id"] = p["trace_id"] if p is not None else None
        return [s for s in driver + workers if s["trace_id"] is not None], unjoined


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(kids.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s["id"]] = (hi - lo) - covered
    return out


def cycle_split(spans: list[dict], selfs: dict[str, float]) -> dict[str, float]:
    """Seconds of all cycles, and the same seconds split into the cycles'
    direct children (one after another on the driver) and their self time."""
    cycles = {s["id"]: s for s in spans if s["name"] == "runner.cycle"}
    out = {
        "runner.cycle": sum(s["end"] - s["start"] for s in cycles.values()),
        "runner.driver_self": sum(selfs[i] for i in cycles),
    }
    for s in spans:
        if s["parent"] in cycles:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out
